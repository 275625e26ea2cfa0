"""Seeded benchmark of the cfrs pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the cfrs sources in ``src/`` of
the checkout, checks every output, and prints as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it records the seed, Python
version, CPU count and model, the passes run and every failure seen.

``--workload all`` runs the four workloads one after another, each in its
own process under a wall-clock cap, and prints each one's lines.

Exit status: 0 when every output checked out, 1 on a wrong answer, 3 when
the cfrs sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_CAP_S = 180


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def import_cfrs() -> None:
    """Import cfrs from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cfrs

    expected = os.path.join(ROOT, "src", "cfrs")
    if os.path.dirname(os.path.abspath(cfrs.__file__)) != expected:
        raise ImportError(f"cfrs imported from {cfrs.__file__}, not from {expected}")


def run_one(args, spec: dict) -> int:
    from runner import run_workload, tally, typical_total

    os.makedirs(OUT_DIR, exist_ok=True)
    run, ops, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                     OUT_DIR)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted, failed, refused = tally(run)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "passes": {"untraced": len(run.untraced), "traced": len(run.traced)},
        "wall_run_s": typical_total(run.untraced, ops, wall=True),
        "refused": refused,
        "problems": run.problems, "failures": run.failures,
    }
    print(json.dumps(record))
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another, never in parallel."""
    status = 0
    for workload in spec_workloads(spec):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        try:
            done = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=WORKLOAD_CAP_S, check=False)
        except subprocess.TimeoutExpired:
            print(json.dumps({"workload": workload,
                              "error": f"no result within {WORKLOAD_CAP_S}s"}))
            status = 1
            continue
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[-2:]))
        status = max(status, done.returncode)
    return status


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        import_cfrs()
    except (OSError, ImportError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in spec_workloads(spec):
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
