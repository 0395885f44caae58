"""Tests for repro.core.multicore — multi-core SecPB timing."""

import pytest

from repro.core.multicore import MultiCoreSecPBSimulator, sharing_traces
from repro.core.schemes import SCHEMES, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import run_scheme
from repro.workloads.spec import build_trace


def traces(cores, num_ops=1500, share=0.2, seed=5):
    return sharing_traces(cores, num_ops, share_fraction=share, seed=seed)


class TestConstruction:
    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            MultiCoreSecPBSimulator(0)

    def test_trace_count_must_match_cores(self):
        sim = MultiCoreSecPBSimulator(2, get_scheme("cobcm"))
        with pytest.raises(ValueError, match="expected 2"):
            sim.run(traces(3))

    def test_share_fraction_validated(self):
        with pytest.raises(ValueError):
            sharing_traces(2, 100, share_fraction=1.5)


class TestBasicRuns:
    def test_single_core_runs(self):
        sim = MultiCoreSecPBSimulator(1, get_scheme("cobcm"))
        result = sim.run(traces(1))
        assert result.cores == 1
        assert result.cycles > 0
        assert len(result.per_core_cycles) == 1

    def test_multi_core_runs_all_schemes(self):
        for name in ("cobcm", "cm", "nogap"):
            sim = MultiCoreSecPBSimulator(4, get_scheme(name))
            result = sim.run(traces(4))
            assert result.scheme == name
            assert result.cycles == max(result.per_core_cycles)

    def test_bbb_multicore(self):
        result = MultiCoreSecPBSimulator(2, None).run(traces(2))
        assert result.scheme == "bbb"

    def test_deterministic(self):
        sim = MultiCoreSecPBSimulator(2, get_scheme("cm"))
        a = sim.run(traces(2))
        b = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(traces(2))
        assert a.cycles == b.cycles


class TestCoherenceTraffic:
    def test_sharing_produces_migrations(self):
        sim = MultiCoreSecPBSimulator(4, get_scheme("cobcm"))
        result = sim.run(traces(4, share=0.3))
        assert result.stats.get("coherence.migrations", 0) > 0

    def test_no_sharing_no_migrations(self):
        sim = MultiCoreSecPBSimulator(4, get_scheme("cobcm"))
        result = sim.run(traces(4, share=0.0))
        assert result.stats.get("coherence.migrations", 0) == 0

    def test_remote_reads_flush(self):
        sim = MultiCoreSecPBSimulator(2, get_scheme("cobcm"))
        result = sim.run(traces(2, share=0.4))
        assert result.stats.get("coherence.read_flushes", 0) > 0

    def test_more_sharing_is_not_faster(self):
        """Migration and flush traffic must cost something."""
        low = MultiCoreSecPBSimulator(4, get_scheme("cm")).run(
            traces(4, share=0.0)
        )
        high = MultiCoreSecPBSimulator(4, get_scheme("cm")).run(
            traces(4, share=0.5)
        )
        # Not a strict inequality benchmark: the shared region is smaller
        # and hotter, but coherence stats must reflect traffic.
        assert high.stats.get("coherence.migrations", 0) > 0
        assert low.stats.get("coherence.migrations", 0) == 0


class TestSharedEngineContention:
    def test_eager_schemes_contend_on_shared_bmt(self):
        """With the MC's single BMT engine shared, more cores mean more
        queueing for eager schemes — CM's multi-core scaling cost."""
        single = MultiCoreSecPBSimulator(1, get_scheme("cm")).run(traces(1, num_ops=2000))
        quad = MultiCoreSecPBSimulator(4, get_scheme("cm")).run(traces(4, num_ops=2000))
        per_core_single = single.cycles
        per_core_quad = quad.cycles  # same ops per core, same trace length
        assert per_core_quad > per_core_single

    def test_lazy_scheme_scales_better_than_eager(self):
        cm_1 = MultiCoreSecPBSimulator(1, get_scheme("cm")).run(traces(1, num_ops=2000))
        cm_4 = MultiCoreSecPBSimulator(4, get_scheme("cm")).run(traces(4, num_ops=2000))
        cobcm_1 = MultiCoreSecPBSimulator(1, get_scheme("cobcm")).run(traces(1, num_ops=2000))
        cobcm_4 = MultiCoreSecPBSimulator(4, get_scheme("cobcm")).run(traces(4, num_ops=2000))
        cm_scaling = cm_4.cycles / cm_1.cycles
        cobcm_scaling = cobcm_4.cycles / max(cobcm_1.cycles, 1.0)
        assert cobcm_scaling < cm_scaling


class TestWarmup:
    """The measured-region protocol (PR 1) applied to the lockstep run.

    Per-core cycles, instructions and every shared counter must cover
    only the post-warmup region — the multi-core mirror of the
    single-core snapshot/subtract discipline.
    """

    def test_warmup_frac_validated(self):
        sim = MultiCoreSecPBSimulator(2, get_scheme("cm"))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="warmup_frac"):
                sim.run(traces(2), warmup_frac=bad)

    def test_zero_warmup_matches_default(self):
        full = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(traces(2))
        explicit = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(
            traces(2), warmup_frac=0.0
        )
        assert explicit == full

    def test_warmup_excludes_leading_region(self):
        full = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(traces(2))
        warm = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(
            traces(2), warmup_frac=0.3
        )
        assert warm.cycles < full.cycles
        assert warm.instructions < full.instructions
        assert all(
            w < f
            for w, f in zip(warm.per_core_cycles, full.per_core_cycles)
        )

    def test_stats_cover_measured_region_only(self):
        full = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(traces(2))
        warm = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(
            traces(2), warmup_frac=0.5
        )
        assert warm.stats["instructions"] == warm.instructions
        for key in ("secpb.writes", "bmt.root_updates"):
            if key in full.stats:
                assert warm.stats.get(key, 0.0) <= full.stats[key]

    def test_warmup_deterministic(self):
        a = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(
            traces(2), warmup_frac=0.25
        )
        b = MultiCoreSecPBSimulator(2, get_scheme("cm")).run(
            traces(2), warmup_frac=0.25
        )
        assert a == b

    def test_bbb_warmup_runs(self):
        result = MultiCoreSecPBSimulator(2, None).run(
            traces(2), warmup_frac=0.2
        )
        assert result.cycles > 0


class TestSingleCoreEquivalence:
    """``MultiCoreSecPBSimulator(1, s)`` reproduces ``run_scheme`` exactly."""

    @staticmethod
    def _hierarchy_counters(stats):
        return {
            name: value
            for name, value in stats.items()
            if name.startswith(("cache.", "hierarchy."))
        }

    @pytest.mark.parametrize("bench", ["gamess", "mcf", "lbm"])
    @pytest.mark.parametrize("warmup_frac", [0.0, 0.3])
    def test_one_core_matches_single_core(self, bench, warmup_frac):
        trace = build_trace(bench, 1500)
        for scheme in [None] + [SCHEMES[name] for name in SPECTRUM_ORDER]:
            multi = MultiCoreSecPBSimulator(1, scheme).run(
                [trace], warmup_frac=warmup_frac
            )
            single = run_scheme(trace, scheme, warmup_frac=warmup_frac)
            assert multi.cycles == single.cycles
            assert multi.per_core_cycles == [single.cycles]
            assert multi.instructions == single.instructions
            counters = self._hierarchy_counters(single.stats)
            assert counters
            assert self._hierarchy_counters(multi.stats) == counters
