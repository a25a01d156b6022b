"""Repeat the benchmark with different seeds and report the run-to-run spread.

    python3 bench/spread.py --first-seed 1 --out bench/results/baseline.json

Run from the root of the checkout.  For each workload in BENCHMARK.json it
runs the benchmark's command ten times untraced, seeds first-seed,
first-seed+1, ..., and once traced.  For every end-to-end metric it prints
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound.  With --out it also
writes every value and the traced run's per-layer metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "q1": q1, "median": median, "q3": q3, "spread": spread, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        started = time.monotonic()
        outs = [run(spec["command"], w, args.first_seed + i, spec["run_seconds"], 0)
                for i in range(RUNS)]
        entry = {
            "attempted": sum(o["attempted"] for o in outs),
            "failed": sum(o["failed"] for o in outs),
            "end_to_end": {
                name: summarize([o["metrics"][name]["value"] for o in outs], bound)
                for name, bound in bounds.items()
            },
        }
        traced = run(spec["command"], w, args.first_seed, spec["run_seconds"], 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        results["workloads"][w] = entry
        print(f"{w}: {RUNS} runs in {time.monotonic() - started:.0f} s, "
              f"{entry['failed']} of {entry['attempted']} jobs failed")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:14s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}"
                  f"  spread {s['spread']:.3f}  bound {s['bound']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
