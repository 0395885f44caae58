"""Differential tests for the two-pass single-core kernel: split ≡ inline.

The single-core simulators read per-load latencies and the cache-stack
counters from :func:`repro.sim.hierarchy.hierarchy_pass`, computed once
per (trace, hierarchy config, warmup) and memoized on the trace.  These
tests pin that the memoized pass equals an inline replay, that results do
not depend on whether the memo was cold or warm or on the order schemes
run in, and that the memo key covers exactly the fields the hierarchy
reads.
"""

import dataclasses
import random

import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core.controller import TimingCalibration
from repro.core.schemes import SCHEMES, SPECTRUM_ORDER
from repro.core.simulator import SecurePersistencySimulator
from repro.sim import hierarchy as hierarchy_module
from repro.sim.config import CacheConfig, NVMConfig, SystemConfig
from repro.sim.hierarchy import (
    HIERARCHY_FIELDS,
    MemoryHierarchy,
    hierarchy_config,
    hierarchy_pass,
)
from repro.sim.stats import StatsCollector
from repro.workloads.spec import build_trace

NUM_OPS = 2000
SCHEME_ORDER = [None] + [SCHEMES[name] for name in SPECTRUM_ORDER]


def _inline_replay(trace, config, warmup_ops):
    """The pre-split simulator's hierarchy calls, replayed op by op."""
    stats = StatsCollector()
    hierarchy = MemoryHierarchy(config, stats)
    latencies = []
    warmup_stats = {}
    for index, (is_store, block_addr, _) in enumerate(trace.iter_ops()):
        if index == warmup_ops and warmup_ops:
            warmup_stats = stats.snapshot()
        if is_store:
            hierarchy.store_access(block_addr << 6, persist_region=True)
            latencies.append(0)
        else:
            latencies.append(hierarchy.load_latency(block_addr << 6))
    if warmup_ops:
        stats.subtract(warmup_stats)
    return latencies, stats.as_dict()


def _run(trace, scheme, warmup_frac=0.3, config=None, calibration=None):
    simulator = SecurePersistencySimulator(
        config=config, scheme=scheme, calibration=calibration
    )
    return dataclasses.asdict(simulator.run(trace, warmup_frac))


@pytest.fixture
def replay_count(monkeypatch):
    """Number of hierarchy replays computed (memo misses) so far."""
    calls = []
    replay = hierarchy_module._replay

    def counting(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(hierarchy_module, "_replay", counting)
    return lambda: len(calls)


class TestSplitEqualsInline:
    @pytest.mark.parametrize("bench", ["gamess", "mcf", "lbm"])
    @pytest.mark.parametrize("warmup_frac", [0.0, 0.3])
    def test_memoized_pass_matches_inline_replay(self, bench, warmup_frac):
        trace = build_trace(bench, NUM_OPS)
        config = SystemConfig()
        warmup_ops = int(len(trace) * warmup_frac)
        latencies, counters = _inline_replay(trace, config, warmup_ops)
        for _ in range(2):  # cold memo, then warm
            passed = hierarchy_pass(trace, config, warmup_ops)
            assert passed.load_latency == latencies
            assert passed.stats.as_dict() == counters
        assert counters.get("cache.L1D.hits", 0) + counters["cache.L1D.misses"] > 0

    def test_hierarchy_counters_reach_every_result(self):
        trace = build_trace("mcf", NUM_OPS)
        warmup_ops = int(len(trace) * 0.3)
        _, counters = _inline_replay(trace, SystemConfig(), warmup_ops)
        for scheme in SCHEME_ORDER:
            stats = _run(trace, scheme)["stats"]
            assert {name: stats[name] for name in counters} == counters
        strict = StrictPersistencySimulator().run(trace, 0.3).stats
        assert {name: strict[name] for name in counters} == counters


class TestMemoIsInvisible:
    @pytest.mark.parametrize("bench", ["gamess", "lbm"])
    def test_cold_warm_and_order_give_identical_results(self, bench):
        cold = {
            scheme: _run(build_trace(bench, NUM_OPS), scheme)
            for scheme in SCHEME_ORDER
        }
        order = list(SCHEME_ORDER)
        random.Random(bench).shuffle(order)
        for schemes in (order, list(reversed(order))):
            trace = build_trace(bench, NUM_OPS)
            for scheme in schemes:
                assert _run(trace, scheme) == cold[scheme]

    def test_strict_baseline_cold_equals_warm(self):
        cold = StrictPersistencySimulator().run(build_trace("gamess", NUM_OPS), 0.3)
        trace = build_trace("gamess", NUM_OPS)
        _run(trace, SCHEMES["cm"])
        warm = StrictPersistencySimulator().run(trace, 0.3)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)

    def test_non_speculative_verification_stays_in_scheme_pass(self):
        base = SystemConfig()
        config = dataclasses.replace(
            base,
            security=dataclasses.replace(base.security, speculative_verification=False),
        )
        trace = build_trace("mcf", NUM_OPS)
        for scheme in SCHEME_ORDER:
            _run(trace, scheme)  # warm the memo under the default config
        for scheme in SCHEME_ORDER:
            fresh = _run(build_trace("mcf", NUM_OPS), scheme, config=config)
            warm = _run(trace, scheme, config=config)
            assert warm == fresh
            verifications = warm["stats"].get("verify.load_verifications", 0)
            assert (verifications > 0) == (scheme is not None)


class TestMemoKey:
    HIERARCHY_CHANGES = {
        "l1": CacheConfig("L1D", 32 * 1024, 8, access_cycles=2),
        "l2": CacheConfig("L2", 256 * 1024, 16, access_cycles=20),
        "l3": CacheConfig("L3", 2 * 1024**2, 32, access_cycles=30),
        "nvm": NVMConfig(read_ns=80.0),
        "clock_ghz": 3.0,
        "wpq_entries": 16,
    }

    def test_every_hierarchy_field_is_covered(self):
        assert set(self.HIERARCHY_CHANGES) == set(HIERARCHY_FIELDS)

    def test_projection_keeps_only_hierarchy_fields(self):
        base = SystemConfig()
        changed = dataclasses.replace(
            base.with_secpb_entries(8).with_bmt_levels(4),
            store_buffer_entries=4,
            counter_cache=CacheConfig("CTR$", 64 * 1024, 8),
        )
        assert hierarchy_config(changed) == hierarchy_config(base)
        assert MemoryHierarchy(changed).config == hierarchy_config(base)

    @pytest.mark.parametrize("field", sorted(HIERARCHY_CHANGES))
    def test_hierarchy_field_change_computes_a_new_pass(self, field, replay_count):
        trace = build_trace("gamess", NUM_OPS)
        base = SystemConfig()
        changed = dataclasses.replace(base, **{field: self.HIERARCHY_CHANGES[field]})
        first = hierarchy_pass(trace, base, 600)
        second = hierarchy_pass(trace, changed, 600)
        assert second is not first
        assert replay_count() == 2
        assert _run(trace, SCHEMES["cm"], config=changed) == _run(
            build_trace("gamess", NUM_OPS), SCHEMES["cm"], config=changed
        )

    def test_warmup_change_computes_a_new_pass(self, replay_count):
        trace = build_trace("gamess", NUM_OPS)
        assert hierarchy_pass(trace, SystemConfig(), 0) is not hierarchy_pass(
            trace, SystemConfig(), 600
        )
        assert replay_count() == 2

    def test_scheme_side_changes_reuse_the_pass(self, replay_count):
        trace = build_trace("lbm", NUM_OPS)
        base = SystemConfig()
        security = dataclasses.replace(
            base.security,
            bmt_levels=4,
            mac_latency_cycles=80,
            speculative_verification=False,
        )
        variants = [
            (base, None),
            (base.with_secpb_entries(8), None),
            (base.with_secpb_entries(256), None),
            (dataclasses.replace(base, security=security), None),
            (base, TimingCalibration(cpi_base=0.5, drain_transfer_cycles=8)),
        ]
        for config, calibration in variants:
            for scheme in SCHEME_ORDER:
                _run(trace, scheme, config=config, calibration=calibration)
        StrictPersistencySimulator(base.with_bmt_levels(2)).run(trace, 0.3)
        SecurePersistencySimulator(
            scheme=SCHEMES["cm"], bmt_levels_fn=lambda page: 1 + page % 8
        ).run(trace, 0.3)
        assert replay_count() == 1
