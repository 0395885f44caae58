"""The assembled volatile memory hierarchy (L1D / L2 / LLC + MC + NVM).

:class:`MemoryHierarchy` provides the two services the SecPB simulator
needs from the cache stack:

* latency classification of loads and stores (which level hits), and
* persist-aware dirty-state handling: stores to the persistent region are
  installed in the silently-discardable PERSIST_DIRTY state because the
  SecPB, not the cache, owns their durability (paper Sec. IV-C-a).

The hierarchy is deliberately single-core (the paper evaluates one OOO core,
Table I); the multi-SecPB coherence protocol of Sec. IV-C is modelled
separately in :mod:`repro.core.coherence`.

The hierarchy behaves identically under every persistency scheme: each
scheme differs only in when the security-metadata steps run at the SecPB
and the memory controller.  :func:`hierarchy_pass` therefore replays a
trace through one hierarchy and memoizes the outcome on the trace, and
the single-core simulators read the per-op load latencies from it instead
of replaying the hierarchy once per scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from .cache import AccessOutcome, Cache
from .config import SystemConfig
from .memctrl import MemoryController
from .nvm import NonVolatileMemory
from .stats import StatsCollector

if TYPE_CHECKING:
    from ..workloads.trace import Trace

HIERARCHY_FIELDS = ("l1", "l2", "l3", "nvm", "clock_ghz", "wpq_entries")
"""The :class:`SystemConfig` fields a :class:`MemoryHierarchy` reads."""


def hierarchy_config(config: SystemConfig) -> SystemConfig:
    """``config`` with every field outside :data:`HIERARCHY_FIELDS` at its default.

    :class:`MemoryHierarchy` builds from this projection and
    :func:`hierarchy_pass` memoizes under it, so the memo key cannot miss
    a field the hierarchy depends on.  Configs that differ only in SecPB,
    security, metadata-cache or store-buffer settings project to equal
    (hashable) values and share one pass.
    """
    return SystemConfig(**{name: getattr(config, name) for name in HIERARCHY_FIELDS})


class MemoryHierarchy:
    """Three-level cache stack over a memory controller and NVM."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        stats: Optional[StatsCollector] = None,
    ):
        self.config = hierarchy_config(config) if config is not None else SystemConfig()
        self.stats = stats if stats is not None else StatsCollector()
        self.l1 = Cache(self.config.l1, self.stats)
        self.l2 = Cache(self.config.l2, self.stats)
        self.l3 = Cache(self.config.l3, self.stats)
        self.nvm = NonVolatileMemory(
            self.config.nvm, self.config.clock_ghz, self.stats
        )
        self.mc = MemoryController(self.config, self.nvm, self.stats)
        # Hot-path constants and counters, resolved once per hierarchy:
        # load_latency/store_access run once per trace reference.
        self._l1_cycles = self.config.l1.access_cycles
        self._l2_cycles = self.config.l2.access_cycles
        self._l3_cycles = self.config.l3.access_cycles
        self._nvm_read_cycles = self.nvm.timing.read_cycles
        self._l1_access = self.l1.access
        self._l2_access = self.l2.access
        self._l3_access = self.l3.access
        self._count_memory_read = self.stats.counter("hierarchy.memory_reads")
        self._count_victim_writeback = self.stats.counter("hierarchy.victim_writebacks")

    # Timing ------------------------------------------------------------------

    def load_latency(self, addr: int) -> int:
        """Cycles for a load to return data, filling caches along the way."""
        hit = AccessOutcome.HIT
        latency = self._l1_cycles
        outcome, _ = self._l1_access(addr, False)
        if outcome is hit:
            return latency

        latency += self._l2_cycles
        outcome, _ = self._l2_access(addr, False)
        if outcome is hit:
            return latency

        latency += self._l3_cycles
        outcome, _ = self._l3_access(addr, False)
        if outcome is hit:
            return latency

        self._count_memory_read()
        return latency + self._nvm_read_cycles

    def store_access(self, addr: int, persist_region: bool) -> Tuple[int, bool]:
        """Perform the cache side of a store (paper step 1).

        The store accesses L1D; on a miss the block is fetched through the
        hierarchy (write-allocate), which is also the fetch the SecPB needs
        for its own allocation of the same block (the two proceed in
        parallel per Sec. IV-B, so one latency covers both).

        Returns:
            (latency_cycles, l1_hit)
        """
        outcome, eviction = self._l1_access(addr, True, persist_region)
        latency = self._l1_cycles
        if outcome is AccessOutcome.HIT:
            return latency, True

        # Miss: charge the fill path. L2/L3 are probed as part of the fill.
        l2_outcome, _ = self._l2_access(addr, False)
        latency += self._l2_cycles
        if l2_outcome is AccessOutcome.MISS:
            l3_outcome, _ = self._l3_access(addr, False)
            latency += self._l3_cycles
            if l3_outcome is AccessOutcome.MISS:
                self._count_memory_read()
                latency += self._nvm_read_cycles
        if eviction is not None and eviction.writeback_required:
            # Non-persistent dirty victim: async writeback, no added latency
            # on the store path, but it consumes a WPQ-side write.
            self._count_victim_writeback()
        return latency, False

    # Crash semantics -----------------------------------------------------------

    def discard_volatile(self) -> int:
        """Power loss: all SRAM caches lose their contents.

        The WPQ (ADR) and NVM survive; the WPQ is flushed to the array as
        the ADR mechanism guarantees.

        Returns:
            Number of plain-MODIFIED blocks lost across the stack — data the
            system *chose* to keep volatile (non-persistent region).
        """
        lost = self.l1.flush_all() + self.l2.flush_all() + self.l3.flush_all()
        self.mc.flush_wpq()
        self.stats.add("hierarchy.crash_discards", lost)
        return lost


@dataclass(frozen=True)
class HierarchyPass:
    """The scheme-independent outcome of one trace's hierarchy replay.

    Attributes:
        load_latency: per-op cycles for each load to return data, in trace
            order; 0 for stores, whose cache-side latency overlaps the
            SecPB allocation and is never charged.
        stats: the hierarchy's ``cache.L1D/L2/L3.*`` and ``hierarchy.*``
            counters over the measured region (warmup already
            subtracted).  Shared by every run that reuses the pass:
            consumers fold it into their own collector with
            :meth:`StatsCollector.merge` and never mutate it.
    """

    load_latency: List[int]
    stats: StatsCollector


def hierarchy_pass(trace: "Trace", config: SystemConfig, warmup_ops: int) -> HierarchyPass:
    """Replay ``trace`` through one :class:`MemoryHierarchy`, memoized on the trace.

    Loads go through :meth:`MemoryHierarchy.load_latency` and stores
    through :meth:`MemoryHierarchy.store_access` into the persistent
    region, exactly as the single-core simulators issue them.  The memo
    key is ``(hierarchy_config(config), warmup_ops)``: changing the SecPB,
    security settings, calibration or the BMT-levels hook reuses the
    pass; changing a :data:`HIERARCHY_FIELDS` field computes a new one.
    """
    key = ("hierarchy_pass", hierarchy_config(config), warmup_ops)
    return trace.memoized(key, lambda: _replay(trace, key[1], warmup_ops))


def _replay(trace: "Trace", config: SystemConfig, warmup_ops: int) -> HierarchyPass:
    stats = StatsCollector()
    hierarchy = MemoryHierarchy(config, stats)
    load_latency = hierarchy.load_latency
    store_access = hierarchy.store_access
    latencies: List[int] = []
    append = latencies.append

    def replay(ops: Iterator[Tuple[bool, int, int]]) -> None:
        for is_store, block_addr, _ in ops:
            if is_store:
                store_access(block_addr << 6, True)
                append(0)
            else:
                append(load_latency(block_addr << 6))

    ops = trace.iter_ops()
    replay(islice(ops, warmup_ops))
    # Exclude the warmup region's counts; the caches keep their warmed
    # contents for the measured region.
    warmup_stats = stats.snapshot()
    replay(ops)
    stats.subtract(warmup_stats)
    return HierarchyPass(latencies, stats)
