"""What the benchmark runs and reports: workloads, input sizes, metrics.

Everything here is plain data plus the seeded input generator.  The
parent process (``run.py``) uses it without importing the program; the
child (``child.py``) receives only the generated inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

WORKLOADS = ("table4-serial", "artifacts-par", "serve-closed", "multicore-scaling")

#: The 18 SPEC CPU 2006 names of the paper's Table IV.  The child checks
#: them against ``repro.workloads.spec.all_benchmarks()``.
BENCHMARKS = (
    "astar", "bwaves", "bzip2", "cactusADM", "gamess", "gcc", "gobmk",
    "gromacs", "h264ref", "hmmer", "lbm", "leslie3d", "libquantum", "mcf",
    "milc", "omnetpp", "povray", "sjeng",
)

#: BBB (``None``) plus the six schemes, as a ``repro serve`` request names them.
SERVE_SCHEMES = (None, "cobcm", "obcm", "bcm", "cm", "m", "nogap")

#: Input sizes.  ``default`` is what the driver measures; ``tiny`` keeps
#: every code path and is what the benchmark's own tests run.
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "default": {
        "table4-serial": {"num_ops": 4000},
        "artifacts-par": {"num_ops": 1000, "jobs": 2},
        "serve-closed": {"requests": 100, "num_ops": (1000, 3000), "workers": 2},
        "multicore-scaling": {"ops_per_core": 3000},
    },
    "tiny": {
        "table4-serial": {"num_ops": 300},
        "artifacts-par": {"num_ops": 200, "jobs": 2},
        "serve-closed": {"requests": 24, "num_ops": (100, 300), "workers": 2},
        "multicore-scaling": {"ops_per_core": 300},
    },
}

ARTIFACT_EXPERIMENTS = ("table4", "fig6", "fig7", "fig8", "fig9")
MULTICORE_SCHEMES = ("cobcm", "bcm", "cm")
MULTICORE_CORES = (1, 2, 4, 8)
WARMUP = 0.3

#: Share of serve requests re-run through ``run_jobs`` after timing.
SERVE_RECHECK_EVERY = 20

# name -> unit.  Direction and bound live in BENCHMARK.json.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_ops_per_s": "refs/s",
    "req_per_s": "req/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "fail_frac": "ratio",
    "paper_err_pp": "pp",
    "workloads.build_trace_calls": "count",
    "workloads.build_trace_s": "s",
    "core.simulator.run_calls": "count",
    "core.simulator.self_s": "s",
    "sim.hierarchy.load_latency_calls": "count",
    "sim.hierarchy.load_latency_s": "s",
    "sim.hierarchy.store_access_calls": "count",
    "sim.hierarchy.store_access_s": "s",
    "core.controller.price_calls": "count",
    "core.controller.price_s": "s",
    "security.metadata_cache.access_calls": "count",
    "security.metadata_cache.access_s": "s",
    "core.secpb.ops_calls": "count",
    "core.secpb.ops_s": "s",
    "baselines.strict.run_calls": "count",
    "baselines.strict.run_s": "s",
    "core.multicore.run_calls": "count",
    "core.multicore.run_s": "s",
    "analysis.runner.run_jobs_s": "s",
    "analysis.runner.task_busy_s": "s",
    "analysis.runner.pool_util": "ratio",
    "analysis.runner.batches": "count",
    "analysis.runner.retries": "count",
    "analysis.runner.dup_job_frac": "ratio",
    "runtime.shm.publish_calls": "count",
    "runtime.shm.publish_s": "s",
    "runtime.shm.attaches": "count",
    "runtime.shm.worker_builds": "count",
    "runtime.pool.forks": "count",
    "analysis.experiments.reduce_render_s": "s",
    "durability.write_artifact_s": "s",
    "serve.core.execute_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.core.shed": "count",
    "serve.core.errors": "count",
    "sim.cache.l1d_miss_frac": "ratio",
    "security.metadata_cache.ctr_miss_frac": "ratio",
    "core.secpb.coalesce_frac": "ratio",
    "security.bmt.root_updates_per_store": "ratio",
    "core.simulator.sim_cycles": "cycles",
    "layer.workloads.self_s": "s",
    "layer.sim.self_s": "s",
    "layer.security.self_s": "s",
    "layer.core.self_s": "s",
    "layer.baselines.self_s": "s",
    "layer.analysis.self_s": "s",
    "layer.runtime.self_s": "s",
    "layer.durability.self_s": "s",
    "layer.serve.self_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
}


def make_inputs(workload: str, seed: int, scale: str) -> Dict[str, Any]:
    """The inputs one run hands to every child, generated from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = dict(SCALES[scale][workload])
    inputs: Dict[str, Any] = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "table4-serial":
        inputs.update(num_ops=size["num_ops"], trace_seed=seed, warmup=WARMUP)
    elif workload == "artifacts-par":
        inputs.update(
            num_ops=size["num_ops"],
            trace_seed=seed,
            jobs=size["jobs"],
            experiments=list(ARTIFACT_EXPERIMENTS),
        )
    elif workload == "serve-closed":
        inputs.update(
            workers=size["workers"],
            requests=serve_mix(seed, size["requests"], size["num_ops"]),
            recheck_every=SERVE_RECHECK_EVERY,
        )
    else:
        inputs.update(
            schemes=list(MULTICORE_SCHEMES),
            cores=list(MULTICORE_CORES),
            ops_per_core=size["ops_per_core"],
            share_fraction=0.15,
            trace_seed=seed,
        )
    return inputs


def serve_mix(seed: int, count: int, num_ops: Tuple[int, int]) -> List[Dict[str, Any]]:
    """A closed-loop request mix: 2/3 single-benchmark, 1/6 each of 2 and 3.

    The mix is balanced so that every seed asks for the same amount of
    work: each width class gets the same evenly spaced ``num_ops``
    grid, and schemes rotate through BBB and the six schemes.  The seed
    picks the pairing, the benchmarks, the trace seeds and the order, so
    almost no request repeats a trace or a job.
    """
    rng = random.Random(f"serve-closed:{seed}")
    lo, hi = num_ops
    classes = {1: count - 2 * (count // 6), 2: count // 6, 3: count // 6}
    deck: List[str] = []
    shapes = []
    for width, members in classes.items():
        offset = rng.randrange(len(SERVE_SCHEMES))
        for k in range(members):
            size = lo + round((hi - lo) * (k + 0.5) / members)
            shapes.append((width, size, SERVE_SCHEMES[(k + offset) % len(SERVE_SCHEMES)]))
    rng.shuffle(shapes)
    requests = []
    for index, (width, size, scheme) in enumerate(shapes):
        benchmarks: List[str] = []
        while len(benchmarks) < width:
            if not deck:
                deck = list(BENCHMARKS)
                rng.shuffle(deck)
            name = deck.pop()
            if name not in benchmarks:
                benchmarks.append(name)
        request: Dict[str, Any] = {
            "kind": "simulate",
            "id": f"r{index:05d}",
            "benchmarks": benchmarks,
            "num_ops": size,
            "seed": rng.randint(1, 1_000_000),
            "warmup": WARMUP,
        }
        if scheme is not None:
            request["scheme"] = scheme
        requests.append(request)
    return requests
