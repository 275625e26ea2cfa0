"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]
                            [--write bench/baseline.json]

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, for each
workload, and prints per metric the median, the quartiles and the spread:
the distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  ``--write`` stores the figures as a
baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def measure(workload: str, seeds: list[int], seconds: int) -> tuple[dict, list[dict]]:
    values: dict[str, list[float]] = {}
    records = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=180, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                             f"{done.stdout}{done.stderr}")
        records.append(json.loads(lines[-2]))
        for name, metric in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed}: run_s {values['run_s'][-1]:.3f}", file=sys.stderr)
    return values, records


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    baseline = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        values, records = measure(workload, seeds, spec["run_seconds"])
        figures = {name: summarize(v) for name, v in values.items()}
        env = {key: records[0][key] for key in ("python", "nproc", "cpu")}
        baseline["workloads"][workload] = {"env": env, "metrics": figures}
        print(workload)
        for name, f in figures.items():
            flag = "ok" if f["spread"] < bounds[name] / 3 else (
                "within bound" if f["spread"] <= bounds[name] else "OVER BOUND")
            print(f"  {name:12s} median {f['median']:.4f}  q1 {f['q1']:.4f}  q3 {f['q3']:.4f}"
                  f"  spread {f['spread']:.3f}  bound {bounds[name]}  {flag}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
