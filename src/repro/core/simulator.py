"""The trace-driven secure-persistency timing simulator.

:class:`SecurePersistencySimulator` runs a memory-reference trace through a
core + SecPB + cache hierarchy + memory-controller model and reports
cycles, IPC and the paper's diagnostic statistics (PPTI, NWPE, BMT root
updates).

Timing model (validated against the paper's own analytic check in
Sec. VI-B):

* the core retires non-memory instructions at ``1 / cpi_base`` IPC;
* loads charge their hierarchy latency, discounted by the fraction an OOO
  window hides.  The L1D/L2/LLC stack behaves identically under every
  scheme, so its per-load latencies and counters come from one
  :func:`~repro.sim.hierarchy.hierarchy_pass` per trace, shared by all
  schemes; this simulator is the scheme pass over that column;
* stores enter the L1D and SecPB in parallel.  SecPB acceptance is
  *serialized*: the buffer accepts the next store only after raising the
  unblocking signal for the previous one, i.e. after the scheme's early
  metadata steps complete (:class:`~repro.core.controller.SecPBController`).
  The core itself only stalls when the store buffer fills — short bursts
  are absorbed, sustained rates are throughput-limited by the acceptance
  service rate, which is exactly how the eager schemes lose performance;
* the SecPB drains to the MC at the high watermark until the low
  watermark.  A draining entry frees its slot only when the MC finishes
  its (late-step) service, so lazy schemes can fill the buffer and stall
  new allocations — the "backflow" the paper reports for COBCM.

Passing ``scheme=None`` runs the insecure BBB baseline [4]: same buffer,
same watermarks, no security metadata anywhere.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from ..obs.tracing import LANE_DRAIN, LANE_STALLS, LANE_STORES, Tracer
from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BoundedPipeline
from ..sim.hierarchy import hierarchy_pass
from ..sim.stats import SimulationResult, StatsCollector
from ..workloads.trace import Trace
from .controller import SecPBController, TimingCalibration
from .schemes import ALL_STEPS, Scheme
from .secpb import SecPB

BBB_SCHEME_NAME = "bbb"


class SecurePersistencySimulator:
    """One configured (scheme, system) pair, runnable over traces.

    Args:
        config: Table I system configuration.
        scheme: one of the six SecPB schemes, or ``None`` for the insecure
            BBB baseline.
        calibration: free timing constants (shared across schemes).
        bmt_levels_fn: optional per-page BMT update height (the BMF hook
            for the Fig. 9 study).
        tracer: optional :class:`repro.obs.Tracer` receiving the store
            lifecycle (accept/coalesce/drain with the scheme's early/late
            step split, backflow and store-buffer stalls) keyed by
            simulated cycles.  ``None`` (the default) binds no hooks:
            each hot-loop site degenerates to an ``is not None`` test on
            a local, and a traced run's timing and statistics are
            byte-identical to an untraced one.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scheme: Optional[Scheme] = None,
        calibration: Optional[TimingCalibration] = None,
        bmt_levels_fn: Optional[Callable[[int], int]] = None,
        value_independent_coalescing: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.scheme = scheme
        self.calibration = calibration if calibration is not None else TimingCalibration()
        self.value_independent_coalescing = value_independent_coalescing
        self._bmt_levels_fn = bmt_levels_fn
        self.tracer = tracer

    @property
    def scheme_name(self) -> str:
        return self.scheme.name if self.scheme is not None else BBB_SCHEME_NAME

    def run(self, trace: Trace, warmup_frac: float = 0.0) -> SimulationResult:
        """Simulate one trace; returns timing and statistics.

        Args:
            trace: the memory-reference trace.
            warmup_frac: fraction of the trace treated as warmup — state
                (caches, SecPB, metadata caches) is built but its cycles
                and instructions are excluded from the reported result,
                mirroring the paper's fast-forward to representative
                regions.
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        config = self.config
        cal = self.calibration
        stats = StatsCollector()
        secure = self.scheme is not None

        if secure:
            mdc = MetadataCaches(config, stats)
            controller = SecPBController(
                config,
                self.scheme,
                mdc,
                stats,
                bmt_levels_fn=self._bmt_levels_fn,
                calibration=cal,
                value_independent_coalescing=self.value_independent_coalescing,
            )
            secpb = SecPB(config.secpb, self.scheme, stats)
        else:
            controller = None
            # The BBB persist buffer has the same geometry, no metadata.
            from .schemes import COBCM  # structure-only; fields unused

            secpb = SecPB(config.secpb, COBCM, stats)

        clock = 0.0
        instructions = 0
        store_buffer = BoundedPipeline("store-buffer", config.store_buffer_entries)
        accept_free_at = 0.0  # SecPB acceptance serialization point
        # In-flight drain completion times, kept as a min-heap: the seed's
        # per-check list filter ("drop every t <= now") becomes "pop while
        # the heap root is <= now", and min(pending) becomes the root.
        # Both views describe the same multiset, so the backflow/forced
        # drain accounting is unchanged (pinned by
        # tests/test_drain_accounting.py against seed-captured values).
        drain_completions: List[float] = []
        capacity = config.secpb.entries

        l1_hit_cycles = config.l1.access_cycles
        cpi_base = cal.cpi_base
        blocking = cal.load_blocking_fraction
        drain_transfer = float(cal.drain_transfer_cycles)
        # Speculative integrity verification (Table I / PoisonIvy [33])
        # hides load-side verification entirely; without it, PM fills pay
        # OTP regeneration + MAC check before use.
        if secure and not config.security.speculative_verification:
            verify_load_cycles = (
                config.security.aes_latency_cycles
                + config.security.mac_latency_cycles
            )
        else:
            verify_load_cycles = 0
        memory_fill_cycles = config.memory_round_trip_cycles

        # Hot-loop bindings: the per-op path resolves these names once per
        # run instead of chasing attributes per op.  ``secpb_entries`` is
        # the buffer's backing table — its length IS secpb.occupancy.
        secpb_entries = secpb._entries
        count_drain_service = stats.counter("drain.services")
        count_forced_drain = stats.counter("secpb.forced_drains")
        count_backflow_stall = stats.counter("secpb.backflow_stalls")
        add_backflow_cycles = stats.counter("secpb.backflow_cycles")
        count_load_verification = stats.counter("verify.load_verifications")
        drain_oldest_addr = secpb.drain_oldest_addr
        drain_targets = secpb.drain_targets
        price_drain = controller.price_drain if controller is not None else None
        high_watermark_entries = config.secpb.high_watermark_entries
        # The drain engine is a single-server FIFO (BusyResource), inlined
        # into the closure below: drains serialize on one free_at point.
        drain_free_at = 0.0

        # Optional tracing: bind emit closures once per run; every site
        # below guards on ``hook is not None`` so an untraced run pays
        # one local test per store and emits nothing.  Events never feed
        # back into timing or stats.
        tracer = self.tracer
        if tracer is not None:
            scheme_obj = self.scheme
            early_names = [
                s.value
                for s in ALL_STEPS
                if scheme_obj is not None and s in scheme_obj.early_steps
            ]
            late_names = [
                s.value
                for s in ALL_STEPS
                if scheme_obj is not None and s in scheme_obj.late_steps
            ]
            coalesce_names = [
                s.value
                for s in ALL_STEPS
                if scheme_obj is not None and s in scheme_obj.eager_value_dependent
            ]
            trace_accept = tracer.bind_complete("secpb.accept", "secpb", LANE_STORES)
            trace_coalesce = tracer.bind_complete("secpb.coalesce", "secpb", LANE_STORES)
            trace_drain = tracer.bind_complete("secpb.drain", "secpb", LANE_DRAIN)
            trace_backflow = tracer.bind_complete("secpb.backflow", "stall", LANE_STALLS)
            trace_sb_stall = tracer.bind_complete("core.sb_stall", "stall", LANE_STALLS)
            trace_forced = tracer.bind_instant("secpb.forced_drain", "secpb", LANE_STALLS)
            trace_occupancy = tracer.bind_counter("secpb.occupancy", LANE_DRAIN)
        else:
            early_names = late_names = coalesce_names = []
            trace_accept = trace_coalesce = trace_drain = None
            trace_backflow = trace_sb_stall = trace_forced = trace_occupancy = None

        def drain_one(now: float) -> None:
            """Drain the oldest entry; its slot frees at MC completion."""
            nonlocal drain_free_at
            addr = drain_oldest_addr()
            if price_drain is not None:
                service = price_drain(addr)
            else:
                service = drain_transfer
            start = drain_free_at if drain_free_at > now else now
            completion = start + service
            drain_free_at = completion
            heappush(drain_completions, completion)
            count_drain_service()
            if trace_drain is not None:
                trace_drain(
                    start,
                    service,
                    {
                        "addr": addr,
                        "late_steps": late_names,
                        "occupancy": len(secpb_entries),
                    },
                )

        def start_drains(now: float) -> None:
            """Watermark policy: drain oldest entries down to the low mark."""
            for _ in range(drain_targets()):
                drain_one(now)

        warmup_ops = int(len(trace) * warmup_frac)
        hierarchy = hierarchy_pass(trace, config, warmup_ops)
        warmup_clock = 0.0
        warmup_instructions = 0
        warmup_stats: Dict[str, float] = {}
        peak_effective_occupancy = 0
        op_index = 0

        # More hot-loop bindings (method lookups hoisted out of the loop).
        secpb_entries_get = secpb_entries.get
        secpb_coalesce = secpb.coalesce
        secpb_allocate = secpb.allocate
        push_store = store_buffer.push
        mdc_access_counter = mdc.access_counter if secure else None
        price_new_entry = controller.price_new_entry if secure else None
        price_coalesced = controller.price_coalesced_store if secure else None

        for is_store, block_addr, gap, latency in zip(
            *trace.columns(), hierarchy.load_latency
        ):
            if op_index == warmup_ops and warmup_ops:
                warmup_clock = clock
                warmup_instructions = instructions
                warmup_stats = stats.snapshot()
            op_index += 1
            instructions += gap + 1
            clock += gap * cpi_base

            if not is_store:
                if verify_load_cycles and latency >= memory_fill_cycles:
                    # Non-speculative integrity verification (ablation of
                    # the Table I assumption): data fetched from PM cannot
                    # be used until its counter is fetched, the OTP is
                    # regenerated and the MAC checked.
                    latency += mdc_access_counter(block_addr // 64)
                    latency += verify_load_cycles
                    count_load_verification()
                if latency <= l1_hit_cycles:
                    clock += latency
                else:
                    clock += l1_hit_cycles + blocking * (latency - l1_hit_cycles)
                continue

            # Store path: L1D and SecPB accessed in parallel (Sec. IV-B);
            # the L1D side ran in the hierarchy pass.
            entry = secpb_entries_get(block_addr)
            if entry is None:
                # Backflow: a physical slot frees only when its drain
                # completes at the MC; a full buffer stalls the allocation
                # (the COBCM-class overhead of Sec. VI-A).
                while True:
                    # Retire finished drains, then test effective occupancy
                    # (structural entries + slots held by in-flight drains).
                    while drain_completions and drain_completions[0] <= clock:
                        heappop(drain_completions)
                    if len(secpb_entries) + len(drain_completions) < capacity:
                        break
                    start_drains(clock)
                    while drain_completions and drain_completions[0] <= clock:
                        heappop(drain_completions)
                    if not drain_completions:
                        if not secpb_entries:
                            break  # every slot already freed by instant drains
                        # The watermark policy can yield zero targets while
                        # occupied slots block the allocation (e.g. in-flight
                        # drains holding slots below the high watermark, or a
                        # 1-entry buffer).  Force one drain so the loop makes
                        # progress and the buffer can never be over-committed.
                        drain_one(clock)
                        count_forced_drain()
                        if trace_forced is not None:
                            trace_forced(clock, {"addr": block_addr})
                        continue
                    release = drain_completions[0]
                    count_backflow_stall()
                    add_backflow_cycles(release - clock)
                    if trace_backflow is not None:
                        trace_backflow(clock, release - clock, {"addr": block_addr})
                    clock = release

                entry = secpb_allocate(block_addr)
                allocated = True
                while drain_completions and drain_completions[0] <= clock:
                    heappop(drain_completions)
                occupancy_now = len(secpb_entries) + len(drain_completions)
                if occupancy_now > peak_effective_occupancy:
                    peak_effective_occupancy = occupancy_now
                if trace_occupancy is not None:
                    trace_occupancy(clock, {"effective": occupancy_now})
            else:
                secpb_coalesce(entry)
                allocated = False

            accept_start = clock if clock > accept_free_at else accept_free_at
            if secure:
                if allocated:
                    timing = price_new_entry(accept_start, block_addr, entry)
                else:
                    timing = price_coalesced(accept_start, entry)
                completion = accept_start + timing.unblock_cycles
            else:
                # Insecure BBB fast path: the pipelined buffer write has
                # no metadata work, so acceptance never serializes and
                # the store completes the moment it is accepted.
                timing = None
                completion = accept_start
            accept_free_at = completion
            if trace_accept is not None:
                if allocated:
                    trace_accept(
                        accept_start,
                        completion - accept_start,
                        {
                            "addr": block_addr,
                            "early_steps": early_names,
                            "counter_miss": (
                                timing.counter_miss if timing is not None else False
                            ),
                        },
                    )
                else:
                    trace_coalesce(
                        accept_start,
                        completion - accept_start,
                        {"addr": block_addr, "early_steps": coalesce_names},
                    )

            # The core stalls only when the store buffer is full.
            stall = push_store(clock, completion)
            clock += stall + 1.0  # one issue slot per store
            if trace_sb_stall is not None and stall > 0.0:
                trace_sb_stall(clock - stall - 1.0, stall, {"addr": block_addr})

            if len(secpb_entries) >= high_watermark_entries:
                start_drains(clock)

        # Account the final drain tail: execution "ends" when the core is
        # done; outstanding drains continue on the battery-less normal path
        # and do not extend execution time.
        if warmup_ops:
            # Exclude warmup-region counts so every counter — and PPTI /
            # NWPE / the Fig. 8 update ratios derived from them — covers
            # only the measured region.  State (caches, SecPB, metadata
            # caches) keeps its warmed contents.
            stats.subtract(warmup_stats)
        stats.merge(hierarchy.stats)
        stats.set("instructions", instructions - warmup_instructions)
        stats.set("secpb.final_occupancy", secpb.occupancy)
        # Gauge over the whole run (warmup included): structural occupancy
        # plus slots held by in-flight drains, sampled after each
        # allocation.  Never exceeds the configured capacity.
        stats.set("secpb.peak_effective_occupancy", peak_effective_occupancy)
        # Derived statistics join the snapshot *before* the result is
        # built — a SimulationResult is an immutable record of the
        # measured region (secpb-lint SPB302).
        result_stats = stats.as_dict()
        result_stats["ppti"] = stats.ppti
        result_stats["nwpe"] = stats.nwpe
        return SimulationResult(
            scheme=self.scheme_name,
            benchmark=trace.name,
            cycles=clock - warmup_clock,
            instructions=instructions - warmup_instructions,
            stats=result_stats,
        )


def run_scheme(
    trace: Trace,
    scheme: Optional[Scheme],
    config: Optional[SystemConfig] = None,
    calibration: Optional[TimingCalibration] = None,
    bmt_levels_fn: Optional[Callable[[int], int]] = None,
    warmup_frac: float = 0.0,
    tracer: Optional[Tracer] = None,
) -> SimulationResult:
    """Convenience one-shot: simulate ``trace`` under ``scheme``."""
    simulator = SecurePersistencySimulator(
        config=config,
        scheme=scheme,
        calibration=calibration,
        bmt_levels_fn=bmt_levels_fn,
        tracer=tracer,
    )
    return simulator.run(trace, warmup_frac)
