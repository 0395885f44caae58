"""Memoizing trace store: build each benchmark trace once, share it.

Every timing experiment in :mod:`repro.analysis.experiments` iterates the
same 18 benchmark profiles; before this store each experiment (and each
scheme sweep inside one) rebuilt identical traces from scratch.  The store
memoizes materialized traces under the deterministic key
``(benchmark, num_ops, seed)`` — the exact inputs that fully determine a
profile's output — so a process builds any given trace at most once and
all experiments share it.

Traces are immutable once built (the simulators only read them), so
handing the *same object* to every caller is safe and the cache-hit path
is free.  Worker processes of the parallel runner
(:mod:`repro.analysis.runner`) each hold their own process-local default
store; a miss there first tries to **attach** a zero-copy read-only view
of a segment published by the parent through the shared-memory trace
plane (:mod:`repro.runtime.shm`) before falling back to regeneration,
which is also the path taken when a segment is missing, vanished, or
fails its digest check.  ``built`` counts actual materializations and
``attach_hits`` counts zero-copy adoptions, so tests can assert a trace
is built at most once per run across the whole pool.

Integrity: every memoized trace is fingerprinted with a SHA-256 digest
of its columns (:func:`trace_digest`), and the optional on-disk cache
(``cache_dir`` or the ``SECPB_TRACE_CACHE`` environment variable) stores
each trace as an ``.npz`` artifact with a sidecar manifest
(:mod:`repro.durability`).  A cached file that fails verification — a
crash-truncated or bit-flipped ``.npz`` — is **never** deserialized: it
is quarantined, a warning is logged, and the trace is silently
regenerated from its deterministic spec.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..durability import (
    ArtifactStatus,
    quarantine_artifact,
    verify_artifact,
    write_artifact,
)
from .spec import build_trace
from .trace import Trace

logger = logging.getLogger(__name__)

TraceKey = Tuple[str, int, int]

CACHE_DIR_ENV = "SECPB_TRACE_CACHE"
"""Environment variable enabling the on-disk trace cache for a process."""


def trace_digest(trace: Trace) -> str:
    """SHA-256 fingerprint of a trace's name and raw column bytes."""
    digest = hashlib.sha256()
    digest.update(trace.name.encode("utf-8"))
    for column in (trace.is_store, trace.block_addr, trace.gap):
        array = np.ascontiguousarray(column)
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


class TraceStore:
    """An LRU-bounded memo of built traces keyed by (benchmark, num_ops, seed).

    Args:
        max_traces: optional bound on resident traces; the least recently
            used trace is evicted past it.  ``None`` (the default) keeps
            everything — the full 18-benchmark sweep at experiment scale
            is only a few hundred MB of int64 columns.
        cache_dir: optional directory for a verified on-disk cache of
            built traces (``.npz`` + SHA-256 manifest).  Defaults to the
            ``SECPB_TRACE_CACHE`` environment variable; ``None`` with no
            environment override disables the disk cache.
    """

    def __init__(
        self,
        max_traces: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        if max_traces is not None and max_traces <= 0:
            raise ValueError("max_traces must be positive (or None)")
        self.max_traces = max_traces
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._traces: "OrderedDict[TraceKey, Trace]" = OrderedDict()
        self._checksums: Dict[TraceKey, str] = {}
        self.hits = 0
        self.misses = 0
        self.regenerated = 0
        self.built = 0
        self.attach_hits = 0

    def __len__(self) -> int:
        return len(self._traces)

    def checksum(self, benchmark: str, num_ops: int, seed: int = 1) -> Optional[str]:
        """The digest recorded when (benchmark, num_ops, seed) was cached."""
        return self._checksums.get((benchmark, int(num_ops), int(seed)))

    def verify(self, benchmark: str, num_ops: int, seed: int = 1) -> bool:
        """Re-digest a resident trace against its recorded checksum.

        Returns True when the trace is resident and its columns still
        hash to the digest recorded at build/load time; False when it is
        not resident or has been mutated in place.
        """
        key = (benchmark, int(num_ops), int(seed))
        trace = self._traces.get(key)
        recorded = self._checksums.get(key)
        if trace is None or recorded is None:
            return False
        return trace_digest(trace) == recorded

    def _cache_path(self, key: TraceKey) -> Path:
        assert self.cache_dir is not None
        benchmark, num_ops, seed = key
        return self.cache_dir / f"{benchmark}-n{num_ops}-s{seed}.npz"

    def _load_from_disk(self, key: TraceKey) -> Optional[Trace]:
        """A verified disk-cache hit, or None (absent / quarantined)."""
        path = self._cache_path(key)
        status = verify_artifact(path)
        if status is ArtifactStatus.MISSING:
            return None
        if status is not ArtifactStatus.OK:
            # Truncated, bit-flipped, or manifest-less leftovers are never
            # deserialized — quarantine the evidence and rebuild from the
            # deterministic spec instead.
            logger.warning(
                "trace cache entry %s failed verification (%s); "
                "quarantined and regenerating",
                path, status.value,
            )
            quarantine_artifact(path)
            self.regenerated += 1
            return None
        try:
            return Trace.load(str(path))
        except Exception as exc:
            # Verified bytes that still fail to parse mean the manifest
            # was written against a bad artifact; same recovery path.
            logger.warning(
                "trace cache entry %s unreadable despite matching manifest "
                "(%s: %s); quarantined and regenerating",
                path, type(exc).__name__, exc,
            )
            quarantine_artifact(path)
            self.regenerated += 1
            return None

    def _save_to_disk(self, key: TraceKey, trace: Trace) -> None:
        assert self.cache_dir is not None
        os.makedirs(str(self.cache_dir), exist_ok=True)
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            name=np.array(trace.name),
            is_store=trace.is_store,
            block_addr=trace.block_addr,
            gap=trace.gap,
        )
        write_artifact(self._cache_path(key), buffer.getvalue())

    def get(self, benchmark: str, num_ops: int, seed: int = 1) -> Trace:
        """The memoized trace for (benchmark, num_ops, seed).

        A hit returns the identical :class:`Trace` object previously
        built; a miss attaches a published shared-memory segment when
        one is announced (zero-copy, digest-verified), then tries the
        verified disk cache (when enabled), then materializes the
        profile via :func:`repro.workloads.spec.build_trace` and caches
        it.
        """
        key = (benchmark, int(num_ops), int(seed))
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            self._traces.move_to_end(key)
            return trace
        self.misses += 1
        # Lazy import: a process that never runs parallel sweeps never
        # touches the plane.
        from ..runtime.shm import attach_trace

        attached = attach_trace(key)
        if attached is not None:
            trace, digest = attached
            self.attach_hits += 1
            self._traces[key] = trace
            self._checksums[key] = digest
            self._evict_over_bound()
            return trace
        trace = self._load_from_disk(key) if self.cache_dir is not None else None
        if trace is None:
            trace = build_trace(benchmark, num_ops, seed)
            self.built += 1
            if self.cache_dir is not None:
                self._save_to_disk(key, trace)
        self._traces[key] = trace
        self._checksums[key] = trace_digest(trace)
        self._evict_over_bound()
        return trace

    def _evict_over_bound(self) -> None:
        if self.max_traces is not None and len(self._traces) > self.max_traces:
            evicted, _ = self._traces.popitem(last=False)
            self._checksums.pop(evicted, None)

    def clear(self) -> None:
        """Drop every cached trace and reset the hit/miss counters."""
        self._traces.clear()
        self._checksums.clear()
        self.hits = 0
        self.misses = 0
        self.regenerated = 0
        self.built = 0
        self.attach_hits = 0


DEFAULT_STORE = TraceStore()
"""Process-local default store shared by experiments and runner workers."""


def get_trace(benchmark: str, num_ops: int, seed: int = 1) -> Trace:
    """Fetch (building at most once) a trace from the default store."""
    return DEFAULT_STORE.get(benchmark, num_ops, seed)


def store_counters() -> Tuple[int, int]:
    """``(built, attach_hits)`` of the default store.

    Pool workers snapshot this around each batch; the runner aggregates
    the deltas into the ``runner.worker_traces_built`` /
    ``runner.worker_trace_attaches`` observability counters, which is
    how the regression tests prove a trace is materialized at most once
    per run with the shared-memory plane on.
    """
    return DEFAULT_STORE.built, DEFAULT_STORE.attach_hits
