"""The SP baseline: strict persistency with SPoP at the memory controller.

This is the state of the art the paper improves on — the PLP [18] strict
persistency scheme ("SP scheme from [18] with SPoP in MC", Table II).
There is no persist buffer: every persistent store must be flushed to the
memory controller and its *entire memory tuple* (counter, OTP/ciphertext,
BMT root, MAC) updated there, in persist order, before the next store may
persist.  The BMT root update is serialized at the MC, which is the
bottleneck PLP identified.

The class reuses the same hierarchy, metadata caches and calibration as
the SecPB simulator so that Fig. 9 comparisons (sp vs sp_dbmf vs sp_sbmf
vs cm_dbmf vs cm_sbmf) differ only in the mechanisms under study.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.controller import TimingCalibration
from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BoundedPipeline, BusyResource
from ..sim.hierarchy import hierarchy_pass
from ..sim.stats import SimulationResult, StatsCollector
from ..workloads.trace import Trace


class StrictPersistencySimulator:
    """Trace-driven timing model of PLP-style SP (SPoP at the MC).

    Args:
        config: Table I system configuration.
        calibration: shared free timing constants.
        bmt_levels_fn: per-page BMT update height (BMF hook for sp_dbmf /
            sp_sbmf); defaults to the full configured height.
    """

    SCHEME_NAME = "sp"

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        calibration: Optional[TimingCalibration] = None,
        bmt_levels_fn: Optional[Callable[[int], int]] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.calibration = (
            calibration if calibration is not None else TimingCalibration()
        )
        self._bmt_levels_fn = bmt_levels_fn

    def _levels(self, page_index: int) -> int:
        if self._bmt_levels_fn is not None:
            return self._bmt_levels_fn(page_index)
        return self.config.security.bmt_levels

    def run(self, trace: Trace, warmup_frac: float = 0.0) -> SimulationResult:
        """Simulate one trace under strict persistency.

        ``warmup_frac`` excludes a leading fraction of the trace from the
        reported cycles/instructions (state still warms up).
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        config = self.config
        cal = self.calibration
        stats = StatsCollector()
        mdc = MetadataCaches(config, stats)
        mc_engine = BusyResource("mc-tuple-engine")
        store_buffer = BoundedPipeline("store-buffer", config.store_buffer_entries)

        clock = 0.0
        instructions = 0
        l1_hit = config.l1.access_cycles
        transit_to_mc = (
            config.l1.access_cycles
            + config.l2.access_cycles
            + config.l3.access_cycles
        )
        hash_cycles = config.security.mac_latency_cycles
        aes_cycles = config.security.aes_latency_cycles

        warmup_ops = int(len(trace) * warmup_frac)
        hierarchy = hierarchy_pass(trace, config, warmup_ops)
        warmup_clock = 0.0
        warmup_instructions = 0
        warmup_stats: Dict[str, float] = {}
        op_index = 0

        for is_store, block_addr, gap, latency in zip(
            *trace.columns(), hierarchy.load_latency
        ):
            if op_index == warmup_ops and warmup_ops:
                warmup_clock = clock
                warmup_instructions = instructions
                warmup_stats = stats.snapshot()
            op_index += 1
            instructions += gap + 1
            clock += gap * cal.cpi_base

            if not is_store:
                if latency <= l1_hit:
                    clock += latency
                else:
                    clock += l1_hit + cal.load_blocking_fraction * (latency - l1_hit)
                continue

            # Tuple update at the MC, serialized in persist order.  The
            # flush transit and the MAC latency pipeline with younger
            # stores (PLP's persist-level parallelism); the counter access
            # and the single-in-flight BMT update serialize.
            ctr_latency = mdc.access_counter(block_addr // 64)
            levels = self._levels(block_addr // 64)
            service = (
                ctr_latency
                + cal.counter_increment_cycles
                + max(aes_cycles, levels * hash_cycles)
                + cal.xor_cycles
            )
            _, busy_done = mc_engine.request(clock, service)
            completion = busy_done + transit_to_mc + hash_cycles  # + MAC
            stats.add("bmt.root_updates")
            stats.add("mac.generations")

            stall = store_buffer.push(clock, completion)
            clock += stall + 1.0

        if warmup_ops:
            # Warmup counts (BMT root updates, MAC generations, cache
            # hits) are excluded so reported ratios cover only the
            # measured region — mirroring SecurePersistencySimulator.
            stats.subtract(warmup_stats)
        stats.merge(hierarchy.stats)
        stats.set("instructions", instructions - warmup_instructions)
        result = SimulationResult(
            scheme=self.SCHEME_NAME,
            benchmark=trace.name,
            cycles=clock - warmup_clock,
            instructions=instructions - warmup_instructions,
            stats=stats.as_dict(),
        )
        return result


def run_sp(
    trace: Trace,
    config: Optional[SystemConfig] = None,
    calibration: Optional[TimingCalibration] = None,
    bmt_levels_fn: Optional[Callable[[int], int]] = None,
) -> SimulationResult:
    """Convenience one-shot SP run."""
    return StrictPersistencySimulator(config, calibration, bmt_levels_fn).run(trace)
