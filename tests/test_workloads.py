"""Tests for repro.workloads — traces, generators, SPEC profiles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.spec import PROFILES, all_benchmarks, build_trace
from repro.workloads.store import trace_digest
from repro.workloads.synthetic import (
    _expand_bursts,
    hotspot_trace,
    pointer_chase_trace,
    streaming_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import Trace


class TestTrace:
    def _trace(self):
        return Trace(
            "t",
            np.array([True, False, True]),
            np.array([1, 2, 1], dtype=np.int64),
            np.array([3, 0, 5], dtype=np.int32),
        )

    def test_lengths_validated(self):
        with pytest.raises(ValueError, match="equal length"):
            Trace("t", np.array([True]), np.array([1, 2]), np.array([0]))

    def test_negative_gaps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace(
                "t",
                np.array([True]),
                np.array([1], dtype=np.int64),
                np.array([-1], dtype=np.int32),
            )

    def test_counts(self):
        trace = self._trace()
        assert len(trace) == 3
        assert trace.num_stores == 2
        assert trace.num_loads == 1
        assert trace.instructions == 3 + 8

    def test_store_density(self):
        trace = self._trace()
        assert trace.stores_per_kilo_instructions == pytest.approx(
            2000 / 11
        )

    def test_iter_ops_order_and_types(self):
        ops = list(self._trace().iter_ops())
        assert ops == [(True, 1, 3), (False, 2, 0), (True, 1, 5)]

    def test_head(self):
        head = self._trace().head(2)
        assert len(head) == 2
        assert head.num_stores == 1

    def test_concat(self):
        trace = self._trace()
        joined = trace.concat(trace)
        assert len(joined) == 6
        assert joined.instructions == 2 * trace.instructions

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "t.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "t"
        assert list(loaded.iter_ops()) == list(trace.iter_ops())

    def test_from_ops(self):
        trace = Trace.from_ops("x", iter([(True, 5, 2), (False, 6, 0)]))
        assert len(trace) == 2
        assert trace.num_stores == 1

    def test_from_ops_empty(self):
        trace = Trace.from_ops("x", iter([]))
        assert len(trace) == 0
        assert trace.instructions == 0


class TestGenerators:
    def test_zipf_deterministic_under_seed(self):
        a = zipf_trace(500, 100, seed=3)
        b = zipf_trace(500, 100, seed=3)
        assert np.array_equal(a.block_addr, b.block_addr)
        c = zipf_trace(500, 100, seed=4)
        assert not np.array_equal(a.block_addr, c.block_addr)

    def test_zipf_respects_working_set(self):
        trace = zipf_trace(1000, working_set_blocks=50, seed=1)
        assert trace.block_addr.max() < 50
        assert trace.block_addr.min() >= 0

    def test_zipf_burst_creates_runs(self):
        trace = zipf_trace(
            1000, 1000, store_fraction=1.0, burst_length=4, seed=1
        )
        # All-store anchors with burst 4: consecutive equal addresses.
        repeats = (trace.block_addr[1:] == trace.block_addr[:-1]).mean()
        assert repeats > 0.5

    def test_zipf_store_fraction_zero_and_one(self):
        assert zipf_trace(200, 10, store_fraction=0.0, seed=1).num_stores == 0
        assert zipf_trace(200, 10, store_fraction=1.0, seed=1).num_loads == 0

    def test_zipf_invalid_params(self):
        with pytest.raises(ValueError):
            zipf_trace(10, 10, store_fraction=1.5)
        with pytest.raises(ValueError):
            zipf_trace(10, 10, burst_length=0)
        with pytest.raises(ValueError):
            zipf_trace(10, 0)

    def test_streaming_sequential_addresses(self):
        trace = streaming_trace(100, touches_per_block=4, seed=1)
        diffs = np.diff(trace.block_addr)
        assert set(diffs.tolist()) <= {0, 1}

    def test_streaming_write_blocks_all_stores(self):
        trace = streaming_trace(
            400, touches_per_block=4, write_block_fraction=1.0, seed=1
        )
        assert trace.num_loads == 0

    def test_streaming_invalid_params(self):
        with pytest.raises(ValueError):
            streaming_trace(10, touches_per_block=0)
        with pytest.raises(ValueError):
            streaming_trace(10, write_block_fraction=2.0)

    def test_hotspot_concentrates_references(self):
        trace = hotspot_trace(
            2000, hot_blocks=10, cold_blocks=10_000, hot_fraction=0.9, seed=1
        )
        hot_share = (trace.block_addr < 10).mean()
        assert 0.8 < hot_share < 1.0

    def test_hotspot_burst(self):
        trace = hotspot_trace(
            1000,
            hot_blocks=10,
            cold_blocks=100,
            store_fraction=1.0,
            burst_length=4,
            seed=1,
        )
        repeats = (trace.block_addr[1:] == trace.block_addr[:-1]).mean()
        assert repeats > 0.5

    def test_hotspot_invalid_params(self):
        with pytest.raises(ValueError):
            hotspot_trace(10, 1, 1, hot_fraction=1.5)
        with pytest.raises(ValueError):
            hotspot_trace(10, 1, 1, burst_length=0)

    def test_pointer_chase_is_load_heavy(self):
        trace = pointer_chase_trace(1000, 500, store_fraction=0.1, seed=1)
        assert trace.num_loads > trace.num_stores

    def test_uniform_spreads_addresses(self):
        trace = uniform_trace(2000, working_set_blocks=100, seed=1)
        assert len(np.unique(trace.block_addr)) > 80

    def test_base_block_offsets_addresses(self):
        trace = uniform_trace(100, 10, seed=1, base_block=1000)
        assert trace.block_addr.min() >= 1000

    @given(st.integers(1, 300), st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_generators_honour_num_ops(self, num_ops, working_set):
        assert len(zipf_trace(num_ops, working_set, seed=1)) == num_ops
        assert len(uniform_trace(num_ops, working_set, seed=1)) == num_ops


class TestSpecProfiles:
    def test_eighteen_benchmarks(self):
        assert len(all_benchmarks()) == 18

    def test_paper_quoted_benchmarks_present(self):
        for name in ("gamess", "povray", "astar", "bwaves", "gobmk"):
            assert name in PROFILES

    def test_every_profile_builds(self):
        for name in all_benchmarks():
            trace = build_trace(name, 500, seed=2)
            assert len(trace) == 500
            assert trace.name == name

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="available"):
            build_trace("nonexistent", 100)

    def test_profiles_deterministic(self):
        a = build_trace("gamess", 1000, seed=1)
        b = build_trace("gamess", 1000, seed=1)
        assert np.array_equal(a.block_addr, b.block_addr)

    def test_gamess_matches_paper_characterization(self):
        """Sec. VI-B: gamess has PPTI ~47.4 and NWPE ~2.1 at 32 entries."""
        from repro.core.simulator import SecurePersistencySimulator

        trace = build_trace("gamess", 40_000, seed=1)
        result = SecurePersistencySimulator(scheme=None).run(trace)
        assert 35 < result.stats["ppti"] < 75
        assert 1.7 < result.stats["nwpe"] < 2.6

    def test_povray_matches_paper_characterization(self):
        """Sec. VI-B: povray has PPTI ~38.8 and NWPE ~17.6."""
        from repro.core.simulator import SecurePersistencySimulator

        trace = build_trace("povray", 40_000, seed=1)
        result = SecurePersistencySimulator(scheme=None).run(trace)
        assert 28 < result.stats["ppti"] < 52
        assert 12 < result.stats["nwpe"] < 24

    def test_bwaves_nwpe_insensitive_to_capacity(self):
        """Sec. VI-D: bwaves' NWPE barely moves with SecPB size."""
        from repro.core.simulator import SecurePersistencySimulator
        from repro.sim.config import SystemConfig

        trace = build_trace("bwaves", 20_000, seed=1)
        nwpes = []
        for entries in (8, 512):
            sim = SecurePersistencySimulator(
                config=SystemConfig().with_secpb_entries(entries), scheme=None
            )
            nwpes.append(sim.run(trace).stats["nwpe"])
        assert nwpes[1] / nwpes[0] < 1.3


def _loop_expand(anchor_addr, anchor_is_store, burst_length, num_ops):
    """Reference burst expansion: one run per anchor until num_ops refs."""
    addr_runs, store_runs, emitted = [], [], 0
    for block, is_store in zip(anchor_addr.tolist(), anchor_is_store.tolist()):
        run = burst_length if is_store else 1
        addr_runs.append(np.full(run, block, dtype=np.int64))
        store_runs.append(np.full(run, is_store, dtype=bool))
        emitted += run
        if emitted >= num_ops:
            break
    return np.concatenate(addr_runs)[:num_ops], np.concatenate(store_runs)[:num_ops]


class TestBurstExpansion:
    def test_matches_per_anchor_loop(self):
        rng = np.random.default_rng(2023)
        for _ in range(100):
            num_ops = int(rng.integers(1, 400))
            burst_length = int(rng.integers(1, 9))
            anchor_addr = rng.integers(0, 50, size=num_ops)
            anchor_is_store = rng.random(num_ops) < rng.random()
            got = _expand_bursts(anchor_addr, anchor_is_store, burst_length, num_ops)
            want = _loop_expand(anchor_addr, anchor_is_store, burst_length, num_ops)
            for got_column, want_column in zip(got, want):
                assert np.array_equal(got_column, want_column)
                assert got_column.dtype == want_column.dtype


class TestTraceDigestsPinned:
    """Every SPEC profile's trace stays byte-identical for its seed.

    Digests were recorded from the per-anchor burst-expansion generators;
    any change to how a generator draws or assembles references shows
    here before it silently moves every paper artifact.
    """

    DIGESTS_4000 = {
        "gamess": "b4dc5db74dc907706d1c07a76fda1eb287215fad444263c9836048d12095465e",
        "povray": "e1f24752afcaf86e1c78ca7cd7bc631df2c1aaa63043136d80e2acd245fae541",
        "astar": "c00ba0261c0574999c189aff77454fd710411274b5b6676a5f82d459ad9248af",
        "bwaves": "8dded3e88727b396f32e47f6496e32ecc21d61fb2ae7198fef40724ad682b1fc",
        "gobmk": "c07e1c8c4b8e62b7b6d71a01be67ef5121ebdc9c785e4222e787a361451e6ac5",
        "mcf": "0d3e06718bcf19928738cdf3827e1687e5138f257209b029f75630dbf2dacdf6",
        "lbm": "20607e8925c7f4ea9fdd8934b258706e8b1569528a12f21dff7d8dc5b0535e82",
        "libquantum": "333913ec04dec5fd7fb579ef31d98152fc3f7f0c8796a057a359706b3980ad02",
        "milc": "c809ca71641f95cdcaf4e57edb319818bcdb28a81e770996d988c1f73563c386",
        "gcc": "da691234f61c99979bcd9977af0ade5c2f6bf50f5e481fd51012a6ce25e0c321",
        "bzip2": "614bdebe21bb9898b8d5a2856478c27b78eef118d5963c6ef67a51bcda1de990",
        "hmmer": "cf5a5a2157282ea2b118058c30f6aaee83440a2ef7522ee54a4ae462aef46197",
        "sjeng": "1c71d5f5391067b655cbe7c0b4a4f86bb74d841952913d811ad2ce0d1950535b",
        "omnetpp": "6ef919410b82e2015ebd341b7d8a11ca142de41746540ee0c2fc53a7a72cc1ab",
        "h264ref": "4202fc7f9a4c2a7f761fbe3171b5613de38206c9ce3c4aa0a2df8cfaaf893d28",
        "gromacs": "bed9635995ad399155bb55e5d107978f6c79842073c4cc25b97c525ea661809d",
        "cactusADM": "acfaed782bb23432d6eb86b5234d386962039cc6dbfc47f9418dd90177951cb9",
        "leslie3d": "01e5f8f6f9aab5fc53cc946035241c8e09d16d8651be73e5e75b609a8871ec2f",
    }
    # SHA-256 over the concatenated per-benchmark digests at 1500 refs, seed 7.
    COMBINED_1500_SEED7 = (
        "fd2923e4b2d9c7dd494bb337772c05fbfedb2af4683de966a11b67215732c34a"
    )

    def test_every_benchmark_digest_at_4000_refs(self):
        assert sorted(self.DIGESTS_4000) == sorted(all_benchmarks())
        for name, digest in self.DIGESTS_4000.items():
            assert trace_digest(build_trace(name, 4000)) == digest, name

    def test_combined_digest_at_another_size_and_seed(self):
        combined = "".join(
            trace_digest(build_trace(name, 1500, seed=7)) for name in all_benchmarks()
        )
        assert hashlib.sha256(combined.encode()).hexdigest() == self.COMBINED_1500_SEED7
