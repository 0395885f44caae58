"""Cross-process execution plane: shared-memory traces + warm pools.

Two cooperating pieces take sweep orchestration off the critical path
(the ROADMAP north-star is "as fast as the hardware allows"):

* :mod:`~repro.runtime.shm` — zero-copy publication of materialized
  trace columns into ``multiprocessing.shared_memory`` segments, with
  an owner-side registry (SHA-256 fingerprinted, idempotent, unlinked
  on every exit path) and a worker-side attach that maps read-only
  NumPy views instead of rebuilding traces per process;
* :mod:`~repro.runtime.pool` — a process-wide persistent
  :class:`~repro.runtime.pool.WorkerPool` shared by ``run_tasks``,
  ``run_campaign``, and every ``run_experiment`` entry point, with
  health-checked recycling (wedged-worker timeouts, crashed workers,
  interrupts) and manifest-announcing initializers.

Layering: ``repro.runtime`` sits between :mod:`repro.durability` /
:mod:`repro.workloads` (which it imports) and the runner / campaign
layers (which import it).  The warm pool with trace attach is the
runner's only parallel path; a worker whose segment is missing or fails
its digest check regenerates the trace from its deterministic spec.
"""

from .pool import (
    WorkerPool,
    get_shared_pool,
    pool_stats,
    shutdown_shared_pool,
)
from .shm import (
    SharedTraceRegistry,
    TraceAttachSetup,
    TraceSegmentInfo,
    attach_trace,
    announce,
    cleanup_shared_registry,
    segment_prefix,
    shared_registry,
)

__all__ = [
    "SharedTraceRegistry",
    "TraceAttachSetup",
    "TraceSegmentInfo",
    "WorkerPool",
    "announce",
    "attach_trace",
    "cleanup_shared_registry",
    "get_shared_pool",
    "pool_stats",
    "segment_prefix",
    "shared_registry",
    "shutdown_shared_pool",
]
