"""The benchmark's own tests: tiny-input runs of every workload.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Each run goes through ``perfbench/run.py`` exactly as the
benchmark command does, with ``--scale tiny`` inputs.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spec  # noqa: E402  (after the path set-up above)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def run_bench(*args: str, cwd: str = ROOT, script: str = os.path.join(BENCH, "run.py")):
    done = subprocess.run(
        [sys.executable, script, "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    provenance = None
    for line in lines:
        if line.startswith("# provenance "):
            provenance = json.loads(line[len("# provenance "):])
    return done, result, provenance


@pytest.fixture(scope="module", params=spec.WORKLOADS)
def tiny_runs(request):
    workload = request.param
    return {
        trace: run_bench("--workload", workload, "--seed", "3", "--trace",
                         str(trace), "--scale", "tiny")
        for trace in (0, 1)
    }


def test_contract_matches_the_metrics_the_code_reports():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == spec.PER_LAYER
    assert CONTRACT["paths"] == ["perfbench"]


def test_tiny_run_prints_every_metric_with_its_unit(tiny_runs):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done, result, provenance = tiny_runs[trace]
        assert done.returncode == 0, done.stderr[-3000:]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert set(result["metrics"]) == set(expected)
        for name, unit in expected.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
            if section == "end_to_end":
                assert metric["value"] > 0, name
        assert provenance["host"]["nproc"] >= 1
        assert provenance["code"]["src_sha256"]


def test_traced_digest_equals_untraced(tiny_runs):
    digests = {tiny_runs[trace][2]["digest"] for trace in (0, 1)}
    assert len(digests) == 1 and None not in digests
    assert tiny_runs[1][2]["rep_traced"][:2] == [False, True]


def test_sim_ops_per_s_counts_requested_refs_not_simulated_ones():
    done, result, provenance = run_bench(
        "--workload", "artifacts-par", "--seed", "3", "--trace", "0", "--scale", "tiny"
    )
    assert done.returncode == 0, done.stderr[-3000:]
    props = provenance["properties"]
    num_ops = spec.SCALES["tiny"]["artifacts-par"]["num_ops"]
    # 720 jobs are requested, only 450 distinct: duplicates still count.
    assert props["jobs"] == 720 and props["distinct_jobs"] == 450
    assert props["requested_refs"] == 720 * num_ops
    walls = sorted(provenance["rep_wall_s"])
    median_wall = walls[len(walls) // 2]
    assert len(walls) % 2 == 1
    assert result["metrics"]["sim_ops_per_s"]["value"] == pytest.approx(
        props["requested_refs"] / median_wall
    )


def test_planted_digest_mismatch_fails_the_run(tmp_path):
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps({"multicore-scaling": {"tiny:3": "0" * 64}}))
    done, result, _ = run_bench(
        "--workload", "multicore-scaling", "--seed", "3", "--trace", "0",
        "--scale", "tiny", "--digests", str(pins),
    )
    assert done.returncode == 1
    assert result["correct"] is False
    assert "pinned" in done.stderr


def test_planted_shm_leak_fails_the_run():
    done, result, provenance = run_bench(
        "--workload", "multicore-scaling", "--seed", "3", "--trace", "0",
        "--scale", "tiny", "--plant", "leak",
    )
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "leaked shm segments" in done.stderr
    assert not glob.glob("/dev/shm/secpb_shm_*_planted")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done, result, _ = run_bench(
        "--workload", "table4-serial", "--seed", "1", "--trace", "0",
        cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert done.returncode == 2
    assert result is None
