"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that
each emits exactly the metrics BENCHMARK.json lists, none negative and no
time 0, with every output checked and no op failed.  Then checks that a corrupted split file counts
as a wrong answer (failed, ok_frac below 1, run not correct) and that an
exact op refused by its budget counts as refused (ok_frac below 1) without
being an error, and leaves no output digest for later runs to compare with.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys
import tempfile
import time

from run import OUT_DIR, import_cfrs, load_spec


def check_metric_names(spec: dict, out_dir: str) -> list[str]:
    from runner import run_workload, tally

    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            run, _, metrics = run_workload(workload, 1, 0, trace, out_dir, tiny=True)
            want = {m["name"] for m in listed}
            if set(metrics) != want:
                errors.append(f"{workload} trace={trace}: missing {sorted(want - set(metrics))}, "
                              f"extra {sorted(set(metrics) - want)}")
            errors += [f"{workload} trace={trace}: {error}"
                       for error in check_values(metrics, listed)]
            attempted, failed, _ = tally(run)
            if run.problems or failed or not attempted:
                errors.append(f"{workload} trace={trace}: {run.problems + run.failures}")
    return errors


def check_values(metrics: dict, listed: list[dict]) -> list[str]:
    """Every value is a finite number a JSON reader keeps exactly, none is
    negative, and every time is above 0, so that it is a measurement."""
    errors = []
    for m in listed:
        value = metrics.get(m["name"])
        if value is None:
            continue
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or abs(value) > 2 ** 53):
            errors.append(f"{m['name']} = {value!r} is not a plain number")
        elif value < 0 or (m["unit"] == "s" and value == 0):
            errors.append(f"{m['name']} = {value!r}")
    return errors


def _tiny_runner(workload: str, out_dir: str):
    import runner as rn

    r = rn.Runner(workload, 1, True, os.path.join(out_dir, "faults"), time.monotonic() + 60)
    r.setup(keep_facts=True)
    return r


def check_corrupted_split(out_dir: str) -> list[str]:
    import runner as rn

    r = _tiny_runner("split-roundtrip", out_dir)
    verify = next(op for op in r.ops if op.kind == "verify")
    split_path = next(op for op in r.ops if op.id == verify.needs).outputs[0]
    real_run_op = rn._run_op

    def corrupting_run_op(op, cap_s, tracer, ticks):
        if op is verify:
            with open(split_path, encoding="utf-8") as handle:
                lines = handle.read().split("\n")
            row = lines[1]  # first row of the split matrix, under the header
            lines[1] = ("0" if row[0] == "1" else "1") + row[1:]
            with open(split_path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines))
        return real_run_op(op, cap_s, tracer, ticks)

    rn._run_op = corrupting_run_op
    try:
        r.run.untraced = [r.one_pass(None)]
    finally:
        rn._run_op = real_run_op
    errors = []
    if r.run.untraced[0].status[verify.id] != ["wrong"] or not r.run.problems:
        errors.append(f"corrupted split not caught: {r.run.untraced[0].status[verify.id]}")
    if rn.tally(r.run)[1] < 1:
        errors.append("corrupted split not counted as failed")
    if not rn.end_to_end(r)["ok_frac"] < 1:
        errors.append("corrupted split left ok_frac at 1")
    return errors


def check_refusal(out_dir: str) -> list[str]:
    import runner as rn

    r = _tiny_runner("exact-reductions", out_dir)
    target = next(op for op in r.ops if op.kind == "solve" and op.may_refuse)
    r.ops = [dataclasses.replace(op, argv=op.argv + ("--budget", "1")) if op is target else op
             for op in r.ops]
    r.run.untraced = [r.one_pass(None)]
    errors = []
    if r.run.untraced[0].status[target.id] != ["refused"]:
        errors.append(f"budget-1 exact op not refused: {r.run.untraced[0].status[target.id]}")
    if r.run.problems or rn.tally(r.run)[1]:
        errors.append(f"refusal counted as an error: {r.run.problems + r.run.failures}")
    if any(key.startswith(target.id + ":") for key in r.run.untraced[0].digests):
        errors.append("refused op's output kept as a reference for later runs")
    if not rn.end_to_end(r)["ok_frac"] < 1:
        errors.append("refusal left ok_frac at 1")
    return errors


def main() -> int:
    spec = load_spec()
    import_cfrs()
    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR)
    try:
        errors = (check_metric_names(spec, out_dir) + check_corrupted_split(out_dir)
                  + check_refusal(out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
