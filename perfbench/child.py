"""One measured repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, in an empty working
directory with its own ``HOME`` and ``TMPDIR``::

    python3 perfbench/child.py ROOT WORKDIR TRACED LAUNCH_MONOTONIC

It reads ``WORKDIR/inputs.json`` (the inputs ``run.py`` generated from
the workload seed), imports the program from ``ROOT/src``, reports when
the workload is ready (``setup_s``), runs the timed phase, checks and
hashes every output, and writes ``WORKDIR/result.json``.  With
``TRACED=1`` it first installs the per-layer span recorder
(``layers.py``) and also reports per-layer figures.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT, WORKDIR = sys.argv[1], sys.argv[2]
TRACED = sys.argv[3] == "1"
LAUNCH = float(sys.argv[4])
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402  (after the path set-up above)

_perf = time.perf_counter


# --- helpers -----------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(key: Any, cycles: float, instructions: int, stats: Dict[str, float]) -> str:
    """SHA-256 of one simulation result: key, cycles, instructions, stats."""
    return sha256(
        json.dumps(
            [repr(key), repr(float(cycles)), int(instructions),
             sorted((name, repr(float(value))) for name, value in stats.items())]
        )
    )


def combine(digests: List[str]) -> str:
    return sha256("\n".join(sorted(digests)))


def tree_hwm_mb(pid: int) -> float:
    """Σ peak resident memory (VmHWM) of ``pid`` and its live descendants."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            with open(f"/proc/{current}/task/{current}/children") as handle:
                pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


class SimTotals:
    """Simulated statistics summed over every result of a repetition."""

    KEYS = (
        "cache.L1D.hits", "cache.L1D.misses", "mdc.counter.hits",
        "mdc.counter.misses", "secpb.allocations", "secpb.writes",
        "bmt.root_updates",
    )

    def __init__(self) -> None:
        self.sums = {key: 0.0 for key in self.KEYS}
        self.cycles = 0.0

    def add(self, cycles: float, stats: Dict[str, float]) -> None:
        self.cycles += cycles
        for key in self.KEYS:
            self.sums[key] += stats.get(key, 0.0)

    def metrics(self) -> Dict[str, float]:
        s = self.sums

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "sim.cache.l1d_miss_frac": frac(
                s["cache.L1D.misses"], s["cache.L1D.hits"] + s["cache.L1D.misses"]
            ),
            "security.metadata_cache.ctr_miss_frac": frac(
                s["mdc.counter.misses"],
                s["mdc.counter.hits"] + s["mdc.counter.misses"],
            ),
            "core.secpb.coalesce_frac": (
                1.0 - frac(s["secpb.allocations"], s["secpb.writes"])
                if s["secpb.writes"] else 0.0
            ),
            "security.bmt.root_updates_per_store": frac(
                s["bmt.root_updates"], s["secpb.writes"]
            ),
            "core.simulator.sim_cycles": self.cycles,
        }


def job_properties(fingerprints: List[Tuple[str, str]], refs: int) -> Dict[str, Any]:
    """Workload properties from (job content, trace) fingerprints."""
    jobs = len(fingerprints)
    distinct = len({job for job, _ in fingerprints})
    return {
        "jobs": jobs,
        "distinct_jobs": distinct,
        "distinct_traces": len({trace for _, trace in fingerprints}),
        "requested_refs": refs,
        "dup_job_frac": 1.0 - distinct / jobs if jobs else 0.0,
    }


def metric_value(registry: Any, name: str, field: str = "value") -> float:
    metric = registry.get(name)
    return float(metric.sample()[field]) if metric is not None else 0.0


class Rep:
    """What one repetition measured; serialized to ``result.json``."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.window = (0.0, 0.0)
        self.attempted = 0
        self.failed = 0
        self.latencies_ms: List[float] = []
        self.digests: List[str] = []
        self.checks: List[str] = []
        self.props: Dict[str, Any] = {}
        self.sim = SimTotals()
        self.paper_err_pp = 0.0
        self.counters: Dict[str, float] = {}
        self.serve_execute_ms: List[float] = []
        self.serve_overhead_ms: List[float] = []
        self.peak_rss_mb = 0.0

    def ready(self) -> None:
        self.setup_s = time.monotonic() - LAUNCH

    def to_json(self) -> Dict[str, Any]:
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies_ms": self.latencies_ms,
            "digest": combine(self.digests),
            "checks": self.checks,
            "props": self.props,
            "sim": self.sim.metrics(),
            "paper_err_pp": self.paper_err_pp,
            "peak_rss_mb": self.peak_rss_mb,
        }


# --- batch workloads through the experiment runner ---------------------------


class JobProbe:
    """Sees the job list of every ``run_jobs`` call the experiments make."""

    def __init__(self) -> None:
        import repro.analysis.experiments as experiments

        self.fingerprints: List[Tuple[str, str]] = []
        self.refs = 0
        inner = experiments.run_jobs

        def probe(jobs: Any, *args: Any, **kwargs: Any) -> Any:
            for job in jobs:
                self.fingerprints.append((
                    repr((job.benchmark, job.num_ops, job.seed, job.warmup_frac, job.spec)),
                    repr((job.benchmark, job.num_ops, job.seed)),
                ))
                self.refs += int(job.num_ops)
            return inner(jobs, *args, **kwargs)

        experiments.run_jobs = probe


def run_experiments(rep: Rep, inputs: Dict[str, Any], names: List[str],
                    jobs: int, save_dir: Optional[str]) -> None:
    from repro.analysis import paper_values
    from repro.analysis.experiments import run_experiment
    from repro.analysis.serialize import save_result
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

    probe = JobProbe()
    registry = MetricsRegistry()
    job_tracer = Tracer(process_name="perfbench-jobs", clock_unit="s")

    def on_result(key: Any, result: Any) -> None:
        if not hasattr(result, "cycles"):  # a JobFailure
            rep.failed += 1
            return
        rep.digests.append(
            result_digest(key, result.cycles, result.instructions, result.stats)
        )
        rep.sim.add(result.cycles, result.stats)

    opts = {"on_result": on_result, "tracer": job_tracer, "metrics": registry}
    rep.ready()
    start = _perf()
    for name in names:
        result = run_experiment(
            name, num_ops=inputs["num_ops"], seed=inputs["trace_seed"],
            jobs=jobs, runner_opts=opts,
        )
        text = result.render()
        rep.digests.append(sha256(f"{name}:render:{text}"))
        if save_dir is not None:
            path = os.path.join(save_dir, f"{name}.json")
            save_result(result, path)
            with open(path, "rb") as handle:
                rep.digests.append(
                    f"{name}:file:" + hashlib.sha256(handle.read()).hexdigest()
                )
        if name == "table4":
            paper = paper_values.TABLE4_SLOWDOWN_PCT
            rep.paper_err_pp = statistics.fmean(
                abs(result.mean_overhead_pct[s] - paper[s]) for s in paper
            )
    rep.wall_s = _perf() - start
    rep.window = (start, start + rep.wall_s)
    rep.attempted = len(probe.fingerprints)
    rep.latencies_ms = [
        event["dur"] * 1e3 for event in job_tracer.events if event.get("ph") == "X"
    ]
    if len(rep.latencies_ms) != rep.attempted:
        rep.checks.append(
            f"{len(rep.latencies_ms)} job timings for {rep.attempted} jobs"
        )
    if len(rep.digests) < rep.attempted:
        rep.checks.append("results missing: fewer results than jobs")
    rep.props = job_properties(probe.fingerprints, probe.refs)
    rep.counters = {
        "task_busy_s": metric_value(registry, "runner.task_seconds", "sum"),
        "batches": metric_value(registry, "runner.batches_submitted"),
        "retries": metric_value(registry, "runner.tasks_retried"),
        "attaches": metric_value(registry, "runner.worker_trace_attaches"),
        "worker_builds": metric_value(registry, "runner.worker_traces_built"),
        "workers": float(jobs),
    }


def run_table4_serial(rep: Rep, inputs: Dict[str, Any]) -> None:
    run_experiments(rep, inputs, ["table4"], 1, None)


def run_artifacts_par(rep: Rep, inputs: Dict[str, Any]) -> None:
    save_dir = os.path.join(WORKDIR, "artifacts")
    os.makedirs(save_dir)
    run_experiments(rep, inputs, inputs["experiments"], inputs["jobs"], save_dir)


# --- multicore ---------------------------------------------------------------


def run_multicore(rep: Rep, inputs: Dict[str, Any]) -> None:
    from repro.core.multicore import MultiCoreSecPBSimulator, sharing_traces
    from repro.core.schemes import get_scheme

    rep.ready()
    start = _perf()
    for scheme in inputs["schemes"]:
        for cores in inputs["cores"]:
            began = _perf()
            traces = sharing_traces(
                cores, inputs["ops_per_core"],
                share_fraction=inputs["share_fraction"], seed=inputs["trace_seed"],
            )
            result = MultiCoreSecPBSimulator(cores, get_scheme(scheme)).run(traces)
            rep.latencies_ms.append((_perf() - began) * 1e3)
            rep.digests.append(
                result_digest(
                    (scheme, cores, result.per_core_cycles),
                    result.cycles, result.instructions, result.stats,
                )
            )
            rep.sim.add(result.cycles, result.stats)
    rep.wall_s = _perf() - start
    rep.window = (start, start + rep.wall_s)
    sims = [(s, c) for s in inputs["schemes"] for c in inputs["cores"]]
    rep.attempted = len(sims)
    rep.props = job_properties(
        [(repr(sim), repr(sim[1])) for sim in sims],
        sum(c * inputs["ops_per_core"] for _, c in sims),
    )


# --- serve -------------------------------------------------------------------


def start_server(inputs: Dict[str, Any], rep: Rep) -> Tuple[subprocess.Popen, Any]:
    from repro.serve import ServeClient

    socket_path = "serve.sock"
    cmd = [
        sys.executable, os.path.join(HERE, "serve_entry.py"), ROOT,
        "1" if TRACED else "0", "serve", "--socket", socket_path,
        "--workers", str(inputs["workers"]), "--queue-depth", "64",
    ]
    if TRACED:
        cmd += ["--trace", "server-trace.json", "--metrics", "server-metrics.json"]
    log = open("server.log", "wb")
    server = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
    log.close()
    with open("server.pid", "w") as handle:  # the run's leak check reads it
        handle.write(str(server.pid))
    deadline = time.monotonic() + 60.0
    while True:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with {server.returncode} before ready")
        if time.monotonic() > deadline:
            raise RuntimeError("server never answered health")
        if os.path.exists(socket_path):
            try:
                client = ServeClient(socket_path)
            except OSError:
                client = None
            if client is not None:
                if client.health().get("ready"):
                    return server, client
                client.close()
        time.sleep(0.01)


def stop_server(server: subprocess.Popen) -> int:
    server.send_signal(signal.SIGTERM)
    try:
        return server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        return -9


def run_serve(rep: Rep, inputs: Dict[str, Any]) -> None:
    from repro.analysis.runner import run_jobs
    from repro.serve import build_jobs, parse_request, results_payload

    requests = [parse_request(payload) for payload in inputs["requests"]]
    server, client = start_server(inputs, rep)
    rep.ready()
    responses: Dict[str, Dict[str, Any]] = {}
    round_trip_ms: Dict[str, float] = {}
    try:
        start = _perf()
        for request in requests:
            began = _perf()
            responses[request.id] = client.roundtrip(request, timeout=120.0)
            round_trip_ms[request.id] = (_perf() - began) * 1e3
        rep.wall_s = _perf() - start
        rep.window = (start, start + rep.wall_s)
        server_stats = client.stats()["stats"]
        rep.peak_rss_mb = tree_hwm_mb(os.getpid())
    finally:
        client.close()
        code = stop_server(server)
    if code != 0:
        rep.checks.append(f"server exited {code} after SIGTERM")
    finish_layers(rep)
    rep.attempted = len(requests)
    rep.latencies_ms = [round_trip_ms[r.id] for r in requests]
    fingerprints = []
    refs = 0
    for request in requests:
        response = responses[request.id]
        if response.get("status") != "ok":
            rep.failed += 1
            continue
        text = json.dumps(response["results"], sort_keys=True)
        rep.digests.append(sha256(f"{request.id}:{text}"))
        for payload in response["results"].values():
            data = payload["data"]
            rep.sim.add(data["cycles"], data["stats"])
        for bench in request.benchmarks:
            fingerprints.append((
                repr((bench, request.num_ops, request.seed, request.warmup, request.scheme)),
                repr((bench, request.num_ops, request.seed)),
            ))
            refs += request.num_ops
    rep.props = job_properties(fingerprints, refs)
    rep.counters = {
        "shed": float(server_stats.get("shed", 0)),
        "errors": float(server_stats.get("errors", 0)),
        "forks": float(server_stats.get("pool", {}).get("pools_created", 0)),
        "workers": float(inputs["workers"]),
    }
    # Byte-identity recheck: a deterministic sample re-run directly.
    rechecked = 0
    for index, request in enumerate(requests):
        if index % inputs["recheck_every"] or responses[request.id].get("status") != "ok":
            continue
        jobs = build_jobs(request)
        reference = results_payload(jobs, run_jobs(jobs, workers=1, retries=0))
        served = json.dumps(responses[request.id]["results"], sort_keys=True)
        if served != json.dumps(reference, sort_keys=True):
            rep.checks.append(f"{request.id}: served result differs from run_jobs")
        rechecked += 1
    rep.props["rechecked_requests"] = rechecked
    if TRACED:
        serve_layer_figures(rep, round_trip_ms)


def serve_layer_figures(rep: Rep, round_trip_ms: Dict[str, float]) -> None:
    """Server-side execute spans (``repro serve --trace``) and counters."""
    with open("server-trace.json") as handle:
        events = json.load(handle)
    events = events.get("traceEvents", events) if isinstance(events, dict) else events
    execute_ms: Dict[str, float] = {}
    for event in events:
        name = event.get("name", "")
        if event.get("ph") == "X" and name.startswith("request "):
            execute_ms[name[len("request "):]] = float(event["dur"]) * 1e3
    rep.serve_execute_ms = list(execute_ms.values())
    rep.serve_overhead_ms = [
        round_trip_ms[rid] - ms for rid, ms in execute_ms.items() if rid in round_trip_ms
    ]
    with open("server-metrics.json") as handle:
        metrics = json.load(handle)

    def read(name: str, field: str = "value") -> float:
        return float(metrics.get(name, {}).get(field, 0.0))

    rep.counters.update(
        task_busy_s=read("runner.task_seconds", "sum"),
        batches=read("runner.batches_submitted"),
        retries=read("runner.tasks_retried"),
        attaches=read("runner.worker_trace_attaches"),
        worker_builds=read("runner.worker_traces_built"),
    )


# --- per-layer figures -------------------------------------------------------


def finish_layers(rep: Rep) -> None:
    """Dump this process's spans once, right after the timed phase."""
    recorder = layers.RECORDER
    if recorder is not None and not getattr(recorder, "dumped", False):
        recorder.dump("main")
        recorder.dumped = True


def layer_figures(rep: Rep) -> Dict[str, float]:
    dumps = layers.load_dumps(WORKDIR)
    funcs = layers.merge_functions(dumps)
    # Coverage comes from the process that runs the timed phase: this one,
    # or the server for serve-closed (whose client is not instrumented).
    covered = layers.covered_seconds(
        [tuple(t) for d in dumps if d["role"] in ("main", "server") for t in d["top"]],
        *rep.window,
    )

    def calls(*names: str) -> float:
        return sum(funcs.get(n, (0.0, 0.0, 0.0))[0] for n in names)

    def incl(*names: str) -> float:
        return sum(funcs.get(n, (0.0, 0.0, 0.0))[1] for n in names)

    sim = "repro.core.simulator.SecurePersistencySimulator.run"
    hier = "repro.sim.hierarchy.MemoryHierarchy."
    ctrl = [f"repro.core.controller.SecPBController.{m}"
            for m in ("price_new_entry", "price_coalesced_store", "price_drain")]
    mdc = [f"repro.security.metadata_cache.MetadataCaches.{m}"
           for m in ("access_counter", "access_mac", "access_bmt_node")]
    secpb = [f"repro.core.secpb.SecPB.{m}"
             for m in ("allocate", "coalesce", "drain_oldest_addr", "drain_targets")]
    strict = "repro.baselines.strict.StrictPersistencySimulator.run"
    multicore = "repro.core.multicore.MultiCoreSecPBSimulator.run"
    run_jobs = "repro.analysis.runner.run_jobs"
    publish = "repro.runtime.shm.SharedTraceRegistry.publish"
    experiment = "repro.analysis.experiments.run_experiment"
    renders = [n for n in funcs if n.startswith("repro.analysis.experiments.")
               and n.endswith(".render")]
    counters = rep.counters
    run_jobs_s = incl(run_jobs)
    workers = counters.get("workers", 1.0) or 1.0
    out = {
        "workloads.build_trace_calls": calls("repro.workloads.spec.build_trace"),
        "workloads.build_trace_s": incl("repro.workloads.spec.build_trace"),
        "core.simulator.run_calls": calls(sim),
        "core.simulator.self_s": funcs.get(sim, (0.0, 0.0, 0.0))[2],
        "sim.hierarchy.load_latency_calls": calls(hier + "load_latency"),
        "sim.hierarchy.load_latency_s": incl(hier + "load_latency"),
        "sim.hierarchy.store_access_calls": calls(hier + "store_access"),
        "sim.hierarchy.store_access_s": incl(hier + "store_access"),
        "core.controller.price_calls": calls(*ctrl),
        "core.controller.price_s": incl(*ctrl),
        "security.metadata_cache.access_calls": calls(*mdc),
        "security.metadata_cache.access_s": incl(*mdc),
        "core.secpb.ops_calls": calls(*secpb),
        "core.secpb.ops_s": incl(*secpb),
        "baselines.strict.run_calls": calls(strict),
        "baselines.strict.run_s": incl(strict),
        "core.multicore.run_calls": calls(multicore),
        "core.multicore.run_s": incl(multicore),
        "analysis.runner.run_jobs_s": run_jobs_s,
        "analysis.runner.task_busy_s": counters.get("task_busy_s", 0.0),
        "analysis.runner.pool_util": (
            counters.get("task_busy_s", 0.0) / (workers * run_jobs_s)
            if run_jobs_s else 0.0
        ),
        "analysis.runner.batches": counters.get("batches", 0.0),
        "analysis.runner.retries": counters.get("retries", 0.0),
        "runtime.shm.publish_calls": calls(publish),
        "runtime.shm.publish_s": incl(publish),
        "runtime.shm.attaches": counters.get("attaches", 0.0),
        "runtime.shm.worker_builds": counters.get("worker_builds", 0.0),
        "runtime.pool.forks": counters.get("forks", 0.0),
        "analysis.experiments.reduce_render_s": (
            incl(experiment) - run_jobs_s + incl(*renders)
            if calls(experiment) else 0.0
        ),
        "durability.write_artifact_s": incl("repro.durability.artifacts.write_artifact"),
        "serve.core.execute_ms": (
            statistics.median(rep.serve_execute_ms) if rep.serve_execute_ms else 0.0
        ),
        "serve.overhead_ms": (
            statistics.median(rep.serve_overhead_ms) if rep.serve_overhead_ms else 0.0
        ),
        "serve.core.shed": counters.get("shed", 0.0),
        "serve.core.errors": counters.get("errors", 0.0),
        "bench.unattributed_frac": (
            max(0.0, 1.0 - covered / rep.wall_s) if rep.wall_s else 0.0
        ),
    }
    for layer in layers.LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            row[2] for name, row in funcs.items() if layers.layer_of(name) == layer
        )
    return out


# --- main --------------------------------------------------------------------


RUNNERS = {
    "table4-serial": run_table4_serial,
    "artifacts-par": run_artifacts_par,
    "serve-closed": run_serve,
    "multicore-scaling": run_multicore,
}


def check_program(inputs: Dict[str, Any]) -> None:
    import repro
    from repro.workloads.spec import all_benchmarks

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, not {src}")
    if inputs["workload"] == "serve-closed":
        import spec

        if sorted(spec.BENCHMARKS) != sorted(all_benchmarks()):
            raise RuntimeError("benchmark list differs from the program's")


def main() -> int:
    os.chdir(WORKDIR)
    with open("inputs.json") as handle:
        inputs = json.load(handle)
    if TRACED and inputs["workload"] != "serve-closed":
        # The serve client is the load generator; only the server is traced.
        layers.install(WORKDIR)
    check_program(inputs)
    rep = Rep()
    if inputs.get("plant") == "leak":
        # Test hook: leave a segment named like the program's own.
        fd = os.open(f"/dev/shm/secpb_shm_{os.getpid()}_planted", os.O_CREAT | os.O_RDWR, 0o600)
        os.close(fd)
    RUNNERS[inputs["workload"]](rep, inputs)
    if not rep.peak_rss_mb:
        rep.peak_rss_mb = tree_hwm_mb(os.getpid())
    finish_layers(rep)
    if inputs["workload"] == "artifacts-par":
        from repro.runtime.pool import pool_stats, shutdown_shared_pool

        rep.counters["forks"] = float(pool_stats()["pools_created"])
        shutdown_shared_pool(wait=True)
    payload = rep.to_json()
    if TRACED:
        payload["layers"] = layer_figures(rep)
    with open("result.json", "w") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
