"""The reproduction's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload table4-serial --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each repetition runs in a fresh child
interpreter (``child.py``) with its own working directory, ``HOME`` and
``TMPDIR`` and with every ``SECPB_*`` variable cleared.  Repetitions
repeat until ``--seconds`` is used up (at least three, or two with
``--trace 1``), and the figures are medians over them.  With
``--trace 1`` the repetitions alternate untraced and traced, and the
per-layer figures come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting ``# provenance``, records host, code, seed and workload
properties.  The exit code is 0 when every output checked out, 1 when
one did not, and 2 when the program is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402  (after the path set-up above)

DIGESTS = os.path.join(HERE, "digests.json")
#: Every repetition must end by this long after the run started, so the
#: whole run exits within the 180 s its callers allow.
RUN_DEADLINE_S = 160.0
SHM_PREFIX = "/dev/shm/secpb_shm_"
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(spec.SCALES), default="default",
                        help="input sizes (tiny: the benchmark's own tests)")
    parser.add_argument("--digests", default=DIGESTS,
                        help="pinned output digests to check against")
    parser.add_argument("--repin", action="store_true",
                        help="record this run's digest as the pinned one")
    parser.add_argument("--plant", choices=("leak",),
                        help="test hook: make the child leak a shm segment")
    return parser.parse_args(argv)


# --- one repetition ----------------------------------------------------------


def child_env(workdir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SECPB_")}
    env.update(HOME=workdir, TMPDIR=workdir, PYTHONPATH=os.path.join(ROOT, "src"))
    return env


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def wait_group(pgid: int, seconds: float) -> bool:
    """True once the process group is empty, False if ``seconds`` pass first."""
    deadline = time.monotonic() + seconds
    while group_alive(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def settle_group(pgid: int, grace_s: float) -> bool:
    """Wait for a repetition's process group to empty; stop what stays.

    The multiprocessing resource tracker exits on its own shortly after
    its owner, so a short grace is normal.  SIGTERM comes first so a
    server can still drain and unlink its segments.  Returns True if
    anything had to be signalled.
    """
    if wait_group(pgid, grace_s):
        return False
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            break
        if wait_group(pgid, 5.0):
            break
    return True


def collect_leaks(pids: List[int]) -> List[str]:
    """Shared-memory segments the repetition's processes left behind."""
    leaked = []
    for pid in pids:
        for path in glob.glob(f"{SHM_PREFIX}{pid}_*"):
            leaked.append(os.path.basename(path))
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
    return leaked


def tracker_warnings(workdir: str) -> List[str]:
    """Segments the resource tracker had to unlink: leaked, then masked."""
    found = []
    for name in ("child.log", "server.log"):
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, errors="replace") as handle:
                found += [line.strip() for line in handle
                          if "leaked shared_memory" in line]
    return found


def run_rep(index: int, traced: bool, inputs: Dict[str, Any], workroot: str,
            deadline: float) -> Dict[str, Any]:
    workdir = os.path.join(workroot, f"rep{index:02d}{'t' if traced else 'u'}")
    os.makedirs(workdir)
    with open(os.path.join(workdir, "inputs.json"), "w") as handle:
        json.dump(inputs, handle)
    log_path = os.path.join(workdir, "child.log")
    began = time.monotonic()
    with open(log_path, "wb") as log:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), ROOT, workdir,
             "1" if traced else "0", repr(launch)],
            cwd=workdir, env=child_env(workdir), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                code = proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
    stray = settle_group(proc.pid, grace_s=5.0)
    result_path = os.path.join(workdir, "result.json")
    if code == 0 and os.path.exists(result_path):
        with open(result_path) as handle:
            rep = json.load(handle)
    else:
        with open(log_path, errors="replace") as handle:
            sys.stderr.write(handle.read()[-4000:])
        # The repetition itself counts as one failed operation.
        rep = {"checks": [f"child exited {code} without a result"],
               "attempted": 1, "failed": 1}
    if stray:
        rep["checks"].append("processes outlived the repetition")
    # Segment names carry the owner's pid: the child, or the server.
    owners = {proc.pid}
    server_pid = os.path.join(workdir, "server.pid")
    if os.path.exists(server_pid):
        with open(server_pid) as handle:
            owners.add(int(handle.read()))
    leaked = collect_leaks(sorted(owners)) + tracker_warnings(workdir)
    if leaked:
        rep["checks"].append(f"leaked shm segments: {leaked}")
        rep["failed"] += len(leaked)
    rep.update(traced=traced, duration_s=time.monotonic() - began, workdir=workdir)
    return rep


# --- aggregation -------------------------------------------------------------


def tail_percentile(samples: List[float]) -> float:
    """p99 with >= 1000 samples, else the highest with >= 10 samples beyond."""
    n = len(samples)
    if n >= 1000:
        return 99.0
    if n > 10:
        return 100.0 * (1.0 - 10.0 / n)
    return 100.0


def percentile(samples: List[float], pct: float) -> float:
    ordered = sorted(samples)
    if pct >= 100.0:
        return ordered[-1]
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "sim_ops_per_s": statistics.median(
            r["props"]["requested_refs"] / r["wall_s"] for r in reps
        ),
        "req_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in reps),
        "req_p50_ms": statistics.median(latencies),
        "req_p99_ms": percentile(latencies, tail_percentile(latencies)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              attempted: int, failed: int) -> Dict[str, float]:
    first = plain[0]
    out: Dict[str, float] = {
        "fail_frac": failed / attempted if attempted else 1.0,
        "paper_err_pp": first["paper_err_pp"],
        "analysis.runner.dup_job_frac": first["props"]["dup_job_frac"],
        "bench.trace_overhead_frac": (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0
        ),
    }
    out.update(first["sim"])
    for name in traced[0]["layers"]:
        out[name] = statistics.median(r["layers"][name] for r in traced)
    return out


# --- provenance --------------------------------------------------------------


def git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    latencies = sum(len(r.get("latencies_ms", [])) for r in reps if not r["traced"])
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "code": {
            "commit": commit,
            "dirty": None if status is None else bool(status),
            "src_sha256": source_digest(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "reps": len(reps),
        "rep_setup_s": [r.get("setup_s") for r in reps],
        "rep_wall_s": [r.get("wall_s") for r in reps],
        "rep_traced": [r["traced"] for r in reps],
        "latency_samples": latencies,
        "req_tail_percentile": tail_percentile([0.0] * latencies),
        "properties": next((r["props"] for r in reps if r.get("props")), {}),
        "digest": next((r["digest"] for r in reps if r.get("digest")), None),
    }


# --- main --------------------------------------------------------------------


def load_pins(path: str) -> Dict[str, Dict[str, str]]:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    inputs = spec.make_inputs(args.workload, args.seed, args.scale)
    if args.plant:
        inputs["plant"] = args.plant
    workroot = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(workroot, ignore_errors=True)
    os.makedirs(workroot)
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    # Untraced runs repeat one repetition at a time, traced runs a pair
    # (untraced, traced); stop before the next batch would overrun.
    batch, min_reps = (2, 2) if args.trace else (1, 3)
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_rep(len(reps), traced, inputs, workroot,
                                started + RUN_DEADLINE_S))
            if reps[-1]["checks"]:
                break
            if len(reps) % batch or len(reps) < min_reps:
                continue
            elapsed = time.monotonic() - started
            step = max(r["duration_s"] for r in reps)
            if elapsed + step * batch > args.seconds:
                break
        keep_spans(args, reps)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [c for r in reps for c in r["checks"]]
    digests = {r.get("digest") for r in reps}
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions: {sorted(map(str, digests))}")
    digest = next(iter(digests)) if len(digests) == 1 else None
    pins = load_pins(args.digests)
    pin_key = f"{args.scale}:{args.seed}"
    pinned = pins.get(args.workload, {}).get(pin_key)
    if args.repin and digest is not None and not problems:
        pins.setdefault(args.workload, {})[pin_key] = digest
        with open(args.digests, "w") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")
        pinned = digest
    if pinned is not None and digest != pinned:
        problems.append(f"output digest {digest} != pinned {pinned}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    correct = not problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    metrics: Dict[str, float] = {}
    if args.trace and plain and traced:
        metrics = per_layer(plain, traced, attempted, failed)
        units = spec.PER_LAYER
    elif not args.trace and plain:
        metrics = end_to_end(plain)
        units = spec.END_TO_END
    if not metrics:
        correct = False
        units = {}
    record = provenance(args, reps)
    record["pinned_digest"] = pinned
    print("# provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def keep_spans(args: argparse.Namespace, reps: List[Dict[str, Any]]) -> None:
    """Keep the last traced repetition's span files under .perfbench_out/."""
    traced = [r for r in reps if r["traced"]]
    if not traced:
        return
    dest = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for path in glob.glob(os.path.join(traced[-1]["workdir"], "layers-*.json")):
        shutil.copy(path, dest)


if __name__ == "__main__":
    sys.exit(main())
