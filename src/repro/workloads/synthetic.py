"""Synthetic address-stream generators.

These generators produce :class:`~repro.workloads.trace.Trace` objects with
controllable values of the two statistics the paper characterizes
workloads by:

* **store density** (stores per kilo-instruction — the bound on PPTI) is
  set by ``store_fraction`` and ``mean_gap``;
* **write locality** (NWPE — writes coalesced per SecPB residency) is set
  by ``burst_length`` (consecutive stores to the same block, spatial
  locality within a block/line) and ``zipf_alpha`` + ``working_set_blocks``
  (temporal re-reference while still resident).

All generators are deterministic under a seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .trace import Trace


def _zipf_weights(n: int, alpha: float) -> np.ndarray:
    """Normalized Zipf(alpha) probabilities over ranks 1..n."""
    if n <= 0:
        raise ValueError("working set must be non-empty")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha) if alpha > 0 else np.ones(n)
    return weights / weights.sum()


def _expand_bursts(
    anchor_addr: np.ndarray,
    anchor_is_store: np.ndarray,
    burst_length: int,
    num_ops: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Repeat each store anchor ``burst_length`` times; keep ``num_ops`` refs.

    Loads stay single references.  Draws nothing from the RNG, so the
    trace a seed produces does not depend on how the bursts are expanded.
    """
    runs = np.where(anchor_is_store, burst_length, 1)
    block_addr = np.repeat(anchor_addr, runs)[:num_ops]
    is_store = np.repeat(anchor_is_store, runs)[:num_ops]
    return block_addr, is_store


def _assemble(
    name: str,
    block_addr: np.ndarray,
    is_store: np.ndarray,
    mean_gap: float,
    rng: np.random.Generator,
) -> Trace:
    """Attach Poisson-distributed instruction gaps and build the trace."""
    if mean_gap < 0:
        raise ValueError("mean_gap must be non-negative")
    gaps = rng.poisson(mean_gap, size=len(block_addr)).astype(np.int32)
    return Trace(name, is_store.astype(bool), block_addr.astype(np.int64), gaps)


def zipf_trace(
    num_ops: int,
    working_set_blocks: int,
    zipf_alpha: float = 0.8,
    store_fraction: float = 0.3,
    burst_length: int = 1,
    mean_gap: float = 3.0,
    seed: int = 1,
    name: str = "zipf",
    base_block: int = 0,
) -> Trace:
    """Zipf-distributed references with optional per-block store bursts.

    A "burst" models spatial locality within a cache block: several stores
    landing in the same 64 B block back-to-back (different words), which is
    what the SecPB coalesces into one entry residency.
    """
    if not 0.0 <= store_fraction <= 1.0:
        raise ValueError("store_fraction must be in [0, 1]")
    if burst_length < 1:
        raise ValueError("burst_length must be >= 1")
    rng = np.random.default_rng(seed)
    weights = _zipf_weights(working_set_blocks, zipf_alpha)

    # Draw burst "anchors" then expand each store anchor into a run; with
    # num_ops anchors the expansion always covers num_ops references.
    anchors = num_ops
    anchor_blocks = rng.choice(working_set_blocks, size=anchors, p=weights)
    anchor_is_store = rng.random(anchors) < store_fraction
    block_addr, is_store = _expand_bursts(
        anchor_blocks, anchor_is_store, burst_length, num_ops
    )
    return _assemble(name, block_addr + base_block, is_store, mean_gap, rng)


def streaming_trace(
    num_ops: int,
    touches_per_block: int = 4,
    write_block_fraction: float = 0.3,
    mean_gap: float = 3.0,
    seed: int = 1,
    name: str = "streaming",
    base_block: int = 0,
) -> Trace:
    """Sequential sweep with per-block touch bursts.

    Each block in the stream is touched ``touches_per_block`` times in a
    row (successive words of the line).  A ``write_block_fraction`` of
    blocks are *output* blocks — all their touches are stores, giving an
    NWPE near ``touches_per_block`` that is insensitive to SecPB capacity
    (the ``bwaves`` behaviour of Sec. VI-D) — while the rest are read-only
    input blocks.
    """
    if touches_per_block < 1:
        raise ValueError("touches_per_block must be >= 1")
    if not 0.0 <= write_block_fraction <= 1.0:
        raise ValueError("write_block_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    blocks_needed = max(1, -(-num_ops // touches_per_block))  # ceil division
    addr = np.repeat(
        np.arange(blocks_needed, dtype=np.int64), touches_per_block
    )
    addr = addr[:num_ops] + base_block
    n = len(addr)
    block_is_written = rng.random(blocks_needed) < write_block_fraction
    is_store = np.repeat(block_is_written, touches_per_block)[:n]
    return _assemble(name, addr, is_store, mean_gap, rng)


def hotspot_trace(
    num_ops: int,
    hot_blocks: int,
    cold_blocks: int,
    hot_fraction: float = 0.9,
    store_fraction: float = 0.4,
    burst_length: int = 1,
    mean_gap: float = 3.0,
    seed: int = 1,
    name: str = "hotspot",
    base_block: int = 0,
) -> Trace:
    """A small hot set absorbing most references over a cold background.

    The hot set is the knob for SecPB *capacity sensitivity* (Fig. 7/8):
    when ``hot_blocks`` sits between two SecPB sizes, the larger buffer
    keeps hot blocks resident across rewrites and coalesces them, while
    the smaller one thrashes.  ``burst_length`` adds within-block spatial
    locality (several stores to one line back to back).
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    if burst_length < 1:
        raise ValueError("burst_length must be >= 1")
    rng = np.random.default_rng(seed)
    anchors = num_ops
    in_hot = rng.random(anchors) < hot_fraction
    hot_addr = rng.integers(0, hot_blocks, size=anchors)
    cold_addr = hot_blocks + rng.integers(0, max(1, cold_blocks), size=anchors)
    anchor_addr = np.where(in_hot, hot_addr, cold_addr)
    anchor_is_store = rng.random(anchors) < store_fraction
    # Store anchors expand into bursts (multi-word line writes).
    block_addr, is_store = _expand_bursts(
        anchor_addr, anchor_is_store, burst_length, num_ops
    )
    return _assemble(name, block_addr + base_block, is_store, mean_gap, rng)


def pointer_chase_trace(
    num_ops: int,
    working_set_blocks: int,
    store_fraction: float = 0.1,
    mean_gap: float = 6.0,
    seed: int = 1,
    name: str = "pointer-chase",
    base_block: int = 0,
) -> Trace:
    """A dependent-walk over a random permutation (e.g. ``mcf``-like):
    load-dominated, poor locality, low store density."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(working_set_blocks)
    idx = np.zeros(num_ops, dtype=np.int64)
    position = 0
    out = idx.tolist()
    for i in range(num_ops):
        position = int(perm[position % working_set_blocks])
        out[i] = position
    block_addr = np.array(out, dtype=np.int64) + base_block
    is_store = rng.random(num_ops) < store_fraction
    return _assemble(name, block_addr, is_store, mean_gap, rng)


def uniform_trace(
    num_ops: int,
    working_set_blocks: int,
    store_fraction: float = 0.3,
    mean_gap: float = 3.0,
    seed: int = 1,
    name: str = "uniform",
    base_block: int = 0,
) -> Trace:
    """Uniformly random references (minimal coalescing: NWPE -> 1)."""
    rng = np.random.default_rng(seed)
    block_addr = rng.integers(0, working_set_blocks, size=num_ops).astype(np.int64)
    block_addr += base_block
    is_store = rng.random(num_ops) < store_fraction
    return _assemble(name, block_addr, is_store, mean_gap, rng)
