"""Self-tests of the benchmark on tiny inputs (a few seconds in all).

    PYTHONPATH=src python3 -m pytest -q bench
"""

import random
import shutil
import subprocess
import sys
import time

import pytest

import run

TINY_VERIFY = run.Job("verify", ("verify", "--suite", "all", "--max-n", "2"), checks=195)
SAMPLED_JOB = run.Job("perm-wex", ("zn", "--n", "6", "--method", "perm-wex"))  # about 0.1 s

# Per-layer metrics that are zero even when every workload layer runs:
# the normal route divides by nothing, no verify suite calls state_weight,
# and nothing fails.  (The tracing overhead may take either sign.)
ZERO_ON_TINY = {"zn.normal.divide_s", "ansatz.state_weight.self_s", "fail_ratio"}


def deadline():
    return time.monotonic() + 120


@pytest.fixture(scope="module")
def tiny_passes():
    """An untraced and a traced pass over every route at n=3 and a small verify."""
    jobs = [run.Job(r, ("zn", "--n", "3", "--method", r)) for r in run.ALL_ROUTES] + [TINY_VERIFY]
    plain = run.run_pass(jobs, random.Random(0), False, deadline())
    traced = run.run_pass(jobs, random.Random(0), True, deadline())
    probe, _ = run.spawn((), False, 60)
    return plain, traced, [dict(probe, ok=True)]


def test_good_jobs_pass():
    records = [run.run_job(run.zn_job("closed", 7), False, 60), run.run_job(TINY_VERIFY, False, 60)]
    assert [r["error"] for r in records] == ["", ""]
    assert run.fail_ratio(records) == 0
    assert records[0]["trace"] is None  # the untraced pass wraps nothing


def test_untraced_jobs_sample_the_host_speed_throughout():
    record = run.run_job(SAMPLED_JOB, False, 60)
    assert record["ok"] and record["sampler_s"] > 0
    # calibrations before and after the job, and the samples taken inside it
    assert len(record["job_calibration"]) > 2 * 4
    assert record["norm_job_s"] > 0 and record["norm_setup_s"] > 0
    assert run.speed([run.REFERENCE_UNIT_S, run.REFERENCE_UNIT_S / 3]) == pytest.approx(2)


def test_wrong_hash_fails():
    good = run.zn_job("closed", 7)
    bad = run.Job("closed", good.argv, sha256="0" * 64)
    records = [run.run_job(good, False, 60), run.run_job(bad, False, 60)]
    assert "sha256" in records[1]["error"]
    assert run.fail_ratio(records) == 0.5


def test_crashing_child_fails():
    record = run.run_job(run.Job("crash", ("state", "--word", "DXE")), False, 60)
    assert not record["ok"] and "exited 1" in record["error"]
    assert run.fail_ratio([record]) == 1


@pytest.mark.parametrize("expected", [709, 0])
def test_zero_check_verify_fails(expected):
    job = run.Job("verify", ("verify", "--suite", "symmetry", "--max-n", "-3"), checks=expected)
    record = run.run_job(job, False, 60)
    assert record["rc"] == 0 and record["tail"].endswith("0 checks, 0 failures")
    assert run.fail_ratio([record]) == 1


def test_shrunken_verify_fails():
    job = run.Job("verify", TINY_VERIFY.argv, checks=run.REFERENCE["verify_all_checks"])
    assert "195 checks" in run.run_job(job, False, 60)["error"]


def test_traced_pass_emits_every_per_layer_metric(tiny_passes):
    plain, traced, probes = tiny_passes
    assert all(r["ok"] for r in plain + traced)
    values = run.per_layer(plain, traced, probes)
    assert list(values) == [m["name"] for m in run.SPEC["per_layer"]]
    assert {name for name, v in values.items() if v == 0} - {"trace.overhead_s"} == ZERO_ON_TINY
    assert values["verify.checks"] == 195


def test_self_times_add_up_to_root(tiny_passes):
    for record in tiny_passes[1]:
        t = record["trace"]
        assert t["root_s"] > 0
        assert sum(t["self_s"].values()) == pytest.approx(t["root_s"], abs=1e-9)


def test_enumerative_routes_bypass_the_kernel():
    jobs = [run.Job(r, ("zn", "--n", "4", "--method", r)) for r in run.ENUM_ROUTES]
    for record in run.run_pass(jobs, random.Random(0), True, deadline()):
        calls = record["trace"]["calls"]
        assert calls.get("polyring.mul", 0) == 0 and calls.get("polyring.add", 0) == 0
        assert sum(record["trace"]["items"].values()) > 0


def test_benchmark_json_lists_the_workloads_run_defines():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zn-enum", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
