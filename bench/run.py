"""Cold-process benchmark of the pasep command line.

    python3 bench/run.py --workload zn-fast --seed 1 --seconds 40 --trace 0

Run from the root of a pasep checkout (the package is imported from
`src/`).  Every job is one `pasep` CLI call in a fresh child process
(`child.py`), one child at a time: a closed loop with one client.  A pass
runs each job of the workload once, in an order shuffled by `--seed`; the
jobs themselves are deterministic.  Every output is checked against
`reference.json`, and a job that crashes, exits nonzero, prints a wrong
Z(N) or reports a wrong check count is a failure.

With `--trace 0` the benchmark runs passes until the next one would likely
end after `--seconds`, and reports the end-to-end metrics.  Its times are
scaled to a reference host speed that each child measures while it works
(`child.calibrate`, `speed`), because the host's speed drifts.  With
`--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics; only the traced pass wraps anything.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `--workload all`
runs every workload in turn and prefixes each metric with its workload.

If pasep cannot be imported from the checkout, the benchmark exits 2
without printing a result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

RUN_LIMIT_S = 170  # every run, whatever --seconds says, ends before 180 s
SETUP_PROBES = 30
# Median time of child.calibrate() on the host the baseline was measured on
# (2 vCPUs of a shared Intel Xeon host, Python 3.11.7).  A time scaled by
# REFERENCE_UNIT_S / (the calibration time measured with it) reads as it
# would have on that host at its median speed.
REFERENCE_UNIT_S = 0.0012
FAST_ROUTES = ("closed", "hatted", "paths", "matrix", "normal")
ENUM_ROUTES = ("perm-wex", "perm-asc", "tableaux", "histories")
ALL_ROUTES = FAST_ROUTES + ENUM_ROUTES
VERIFY_LINE = re.compile(r"suite (\S+): (\d+) checks, (\d+) failures")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    sha256: str | None = None  # expected hash of stdout, for a zn job
    checks: int | None = None  # expected check count, for a verify job


def zn_job(route: str, n: int) -> Job:
    return Job(route, ("zn", "--n", str(n), "--method", route), sha256=REFERENCE["zn_sha256"][str(n)])


WORKLOADS = {
    "zn-fast": tuple(zn_job(r, 12) for r in FAST_ROUTES),
    "zn-enum": tuple(zn_job(r, 7) for r in ENUM_ROUTES),
    "verify-all": (Job("verify-all", ("verify", "--suite", "all"), checks=REFERENCE["verify_all_checks"]),),
}

# -- one child ----------------------------------------------------------


def spawn(argv: tuple[str, ...], trace: bool, timeout: float) -> tuple[dict | None, str]:
    """Run child.py once; return (its record with setup_s added, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "child.py"), "1" if trace else "0", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "child printed no record"
    record["setup_s"] = record["imported_at"] - spawned - record["calibrating_s"]
    record["norm_setup_s"] = record["setup_s"] * speed(record["setup_calibration"])
    if "job_s" in record:
        record["norm_job_s"] = record["job_s"] * speed(record["job_calibration"])
    return record, ""


def speed(calibration: list[float]) -> float:
    """How much faster the host ran than the reference, over the samples.

    The samples are spread evenly over the time they cover, so the mean of
    1 / sample is the host's mean speed over that time; a sample stretched
    by an interruption weighs little in it.
    """
    return REFERENCE_UNIT_S * statistics.fmean(1 / c for c in calibration)


def check(job: Job, record: dict) -> str:
    """Return why the job's output is wrong, or "" if it is right."""
    if record["rc"] != 0:
        return f"exit code {record['rc']}"
    if job.sha256 is not None and record["sha256"] != job.sha256:
        return f"stdout sha256 {record['sha256'][:12]} != reference {job.sha256[:12]}"
    if job.checks is not None:
        m = VERIFY_LINE.fullmatch(record["tail"])
        if m is None:
            return f"no verify summary in {record['tail'][:80]!r}"
        checks, failures = int(m[2]), int(m[3])
        if failures or checks != job.checks or checks == 0:
            return f"{checks} checks, {failures} failures (want {job.checks}, 0)"
    return ""


def run_job(job: Job, trace: bool, timeout: float) -> dict:
    record, error = spawn(job.argv, trace, timeout)
    if record is None:
        return {"job": job.name, "ok": False, "error": error}
    record.update(job=job.name, error=check(job, record))
    record["ok"] = not record["error"]
    return record


def run_pass(jobs, rng: random.Random, trace: bool, deadline: float) -> list[dict]:
    order = list(jobs)
    rng.shuffle(order)
    return [run_job(job, trace, deadline - time.monotonic()) for job in order]


def fail_ratio(records: list[dict]) -> float:
    return sum(not r["ok"] for r in records) / len(records)


# -- metrics --------------------------------------------------------------


def end_to_end(passes: list[list[dict]], probes: list[dict]) -> dict[str, float]:
    ok = [r for p in passes for r in p if r["ok"]]
    per_job: dict[str, list[float]] = {}
    for r in ok:
        per_job.setdefault(r["job"], []).append(r["norm_job_s"])
    return {
        # a pass's job-time sum at the reference speed, built from per-job
        # medians so that a single odd job moves it less
        "norm_wall_s": sum(statistics.median(v) for v in per_job.values()),
        "peak_rss_mb": max((r["maxrss_kb"] for r in ok), default=0) / 1024,
        "setup_s": statistics.median(r["norm_setup_s"] for r in probes + ok),
    }


def per_layer(plain: list[dict], traced: list[dict], probes: list[dict]) -> dict[str, float]:
    """Every per-layer metric that BENCHMARK.json lists, in its order.

    `<span>.self_s`, `<span>.calls` and `<span>.items` read the tracer's
    span of that name, `verify.suite_s.<report>` and `cache.<module>.<key>`
    its suite times and cache counts; the rest are spelled out below.
    """
    values = {m["name"]: 0.0 if m["unit"] == "s" else 0 for m in SPEC["per_layer"]}
    for r in plain:
        if r["ok"] and r["job"] in ALL_ROUTES:
            values[f"zn_s.{r['job']}"] = r["norm_job_s"]
    for r in (r for r in traced if r["ok"]):
        t = r["trace"]
        for name in values:
            layer, _, key = name.rpartition(".")
            if key in ("self_s", "calls", "items"):
                values[name] += t[key].get(layer, 0)
            elif layer == "verify.suite_s":
                values[name] += t["suite_s"].get(key, 0.0)
            elif layer.startswith("cache."):
                values[name] += t["caches"][layer.removeprefix("cache.")][key]
        values["polyring.mul.term_products"] += t["term_products"]
        m = VERIFY_LINE.fullmatch(r["tail"])
        values["verify.checks"] += int(m[2]) if m else 0
        if r["job"] in FAST_ROUTES:
            divide = t["incl_s"].get("polyring.div", 0.0)
            values[f"zn.{r['job']}.expand_s"] = t["incl_s"][t["routes"][r["job"]]] - divide
            values[f"zn.{r['job']}.divide_s"] = divide
            values[f"zn.{r['job']}.render_s"] = t["incl_s"].get("polyring.render", 0.0)
    wall = [sum(r["job_s"] for r in p) if all(r["ok"] for r in p) else None for p in (plain, traced)]
    if None not in wall:
        values["trace.overhead_s"] = wall[1] - wall[0]
        values["raw.wall_s"] = wall[0]
    values["raw.setup_s"] = statistics.median(r["setup_s"] for r in probes + plain if r["ok"])
    values["host.calibrate_s"] = statistics.median(
        c for r in probes + plain if r["ok"] for c in (r["setup_calibration"] + r.get("job_calibration", [])))
    values["fail_ratio"] = fail_ratio(plain + traced)
    return values


# -- a run ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rng = random.Random(seed)
    jobs = WORKLOADS[workload]
    def take_probes(n: int) -> list[dict]:
        out = []
        for _ in range(n):
            record, error = spawn((), False, deadline - time.monotonic())
            if record is None:
                raise SystemExit(f"error: cannot import pasep from {ROOT / 'src'}: {error}")
            out.append(dict(record, ok=True))
        return out

    # Half the set-up probes open the run and half close it, so that they
    # see the host at both ends of it and not in one stretch.
    probes = take_probes(SETUP_PROBES // 2)
    probes_s = time.monotonic() - start
    if trace:
        plain = run_pass(jobs, rng, False, deadline)
        traced = run_pass(jobs, rng, True, deadline)
        records = plain + traced
        metrics = per_layer(plain, traced, probes)
    else:
        passes: list[list[dict]] = []
        durations: list[float] = []
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(jobs, rng, False, deadline))
            durations.append(time.monotonic() - t0)
            end = time.monotonic() + statistics.median(durations) + probes_s
            if end > min(start + seconds, deadline - max(durations)):
                break
        probes += take_probes(SETUP_PROBES - SETUP_PROBES // 2)
        records = [r for p in passes for r in p]
        metrics = end_to_end(passes, probes)
    for r in records:
        if not r["ok"]:
            print(f"FAIL {workload} {r['job']}: {r['error']}", file=sys.stderr)
    failed = sum(not r["ok"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pasep" / "cli.py").is_file():
        print(f"error: no pasep package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    for w, res in results.items():
        print(f"{w}: {res['attempted']} jobs, {res['failed']} failed, "
              f"fail_ratio {res['failed'] / res['attempted']:.3f}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.workload == "all":
        res = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
