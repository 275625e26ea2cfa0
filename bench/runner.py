"""Closed-loop runner: one client, one process, one thread.

A run sets up a workload's inputs, then repeats passes over its ops until
the run length is used up; each op starts when the previous one has
finished and been checked.  Ops call ``cfrs.cli.main`` in-process.  End-to-
end metrics come from untraced passes; the traced run (``trace=True``)
adds traced passes after the untraced ones and derives the per-layer
metrics from their spans.

Times are reported in reference-normalized seconds.  On a shared host the
speed of the CPU a run gets drifts by a quarter within seconds to minutes,
far more than any bound worth having.  So a fixed pure-Python reference
loop (a tick) is timed a few times between consecutive ops and, from a
SIGPROF timer, every TICK_EVERY_S of CPU time inside them; an op's wall
time, less the ticks run inside it, is scaled by TICK_S / (median of the
ticks around and inside it): the time the op would take on a CPU where a
tick takes TICK_S.  Raw wall times are kept alongside and reported in the
run record.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Iterator, Optional

from cfrs import cli
from cfrs.poset import evaluate, is_chain_partition, is_tower

import tracing
import workloads as wl

SETUPS = 3            # set-ups per run, at least; setup_s is their median
SETUP_S = 1.0         # ... and more, up to MAX_SETUPS, until this much time is spent
MAX_SETUPS = 200
OP_CAP_S = 60.0       # wall-clock cap on one op
BATCH_S = 1.0         # untraced, an op shorter than this runs up to MAX_REPEATS
MAX_REPEATS = 8       # times in a row per pass, for more samples
RUN_LIMIT_S = 150.0   # no op starts later than this into a run
TICK_S = 0.001        # tick time that normalized seconds assume
TICKS_BETWEEN = 3     # ticks timed between consecutive ops
TICK_EVERY_S = 0.05   # CPU time between ticks inside an op


def tick() -> float:
    """Wall time of one run of a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i & 7
    return time.perf_counter() - start


def boundary_ticks() -> list[float]:
    return [tick() for _ in range(TICKS_BETWEEN)]


def scale_of(ticks: list[float]) -> float:
    """Normalized seconds per wall second, from the ticks around and inside
    a measurement."""
    return TICK_S / statistics.median(ticks)


@contextmanager
def sampling(ticks: list[float]) -> Iterator[None]:
    """Append a tick to ``ticks`` every TICK_EVERY_S of CPU time."""
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: ticks.append(tick()))
    signal.setitimer(signal.ITIMER_PROF, TICK_EVERY_S, TICK_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


class OpTimeout(BaseException):
    """Raised by the alarm when an op exceeds its cap.  A BaseException, so
    that no handler inside cfrs can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Pass:
    """One pass over the ops; an op may run several times in a row."""

    seconds: dict[str, list[float]] = field(default_factory=dict)  # op id -> normalized times
    scale: dict[str, float] = field(default_factory=dict)          # op id -> normalized / wall
    status: dict[str, list[str]] = field(default_factory=dict)     # op id -> outcome statuses
    digests: dict[str, str] = field(default_factory=dict)          # op id:input -> sha256, ok ops
    bytes_written: int = 0
    spans: tuple[int, int] = (0, 0)                                # traced: span index range
    counts: dict[str, int] = field(default_factory=dict)           # traced: stage counters


@dataclass
class Run:
    """Everything a run measured and every problem it found."""

    setup_s: list[float] = field(default_factory=list)   # normalized
    setup_scale: float = 1.0                              # of the traced set-up
    untraced: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)    # wrong answers, nondeterminism
    failures: list[str] = field(default_factory=list)    # failed ops (cap, crash, bad exit)


def _run_op(op: wl.Op, cap_s: float, tracer: Optional[tracing.Tracer],
            ticks: list[float]) -> tuple[float, wl.Outcome]:
    """Run one op; returns its wall seconds less the ticks it appended to
    ``ticks``, and its outcome."""
    for path in op.outputs:
        if os.path.exists(path):
            os.remove(path)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    rc: Optional[int] = None
    error = ""
    inner: list[float] = []
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with redirect_stdout(out), redirect_stderr(err), sampling(inner):
            start = time.perf_counter()
            if tracer is None:
                rc = cli.main(list(op.argv))
            else:
                with tracer.op(op.id):
                    rc = cli.main(list(op.argv))
    except OpTimeout:
        error = f"hit its cap of {cap_s:.0f}s"
    except Exception:  # a crash is one failed op; the run goes on
        error = "crashed: " + traceback.format_exc(limit=-3)
    finally:
        elapsed = time.perf_counter() - start - sum(inner)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        ticks += inner
    files = {}
    for path in op.outputs:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                files[path] = handle.read()
    return elapsed, wl.Outcome(rc, out.getvalue(), error or err.getvalue(), files)


def _deep_check_linear(tracer: tracing.Tracer, report_rows: int) -> Optional[str]:
    """Check the chain partition and tower behind a linear solve, which only
    the traced run can see."""
    captured, tracer.last_min_price = tracer.last_min_price, None
    if captured is None:
        return "no min-price chain partition was computed"
    (dag, weights), (partition, tower) = captured[0][:2], captured[1]
    price, value = evaluate(partition, tower, weights)
    if not is_chain_partition(dag, partition):
        return "min-price partition is not a chain partition"
    if not is_tower(dag, tower):
        return "min-price certificate is not a tower"
    if not price == value == report_rows:
        return f"price {price}, tower value {value}, split rows {report_rows}"
    return None


class Runner:
    """Sets up one workload's inputs and runs passes over its ops."""

    def __init__(self, workload: str, seed: int, tiny: bool, workdir: str, deadline: float):
        self.plan = wl.WORKLOADS[workload](seed, tiny)
        self.inputs = {inp.name: inp for inp in self.plan.inputs}
        self.workdir = workdir
        self.ops = wl.plan_ops(self.plan, workdir)
        self.deadline = deadline
        self.facts: dict[str, wl.Facts] = {}
        self.input_digests: dict[str, str] = {}
        self.repeats: dict[str, int] = {}
        self.run = Run()

    def setup(self, tracer: Optional[tracing.Tracer] = None,
              keep_facts: bool = False) -> tuple[float, float]:
        """Generate and write every input; returns the wall seconds it took
        and their scale to normalized seconds."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(os.path.join(self.workdir, "inputs"))
        os.makedirs(os.path.join(self.workdir, "out"))
        total = 0.0
        ticks = boundary_ticks()
        for inp in self.plan.inputs:
            inner: list[float] = []
            with sampling(inner):
                start = time.perf_counter()
                if tracer is None:
                    matrix = inp.make()
                    text = wl.write_input(self.workdir, inp.name, matrix)
                else:
                    with tracer.op("setup:" + inp.name, "setup"):
                        with tracer.span("instances.gen"):
                            matrix = inp.make()
                        text = wl.write_input(self.workdir, inp.name, matrix)
                total += time.perf_counter() - start - sum(inner)
            ticks += inner
            self.input_digests[inp.name] = hashlib.sha256(text.encode()).hexdigest()
            if keep_facts:
                self.facts[inp.name] = wl.facts_of(matrix)
            del matrix, text
        return total, scale_of(ticks + boundary_ticks())

    def setups(self) -> list[float]:
        """Set up SETUPS times at least, and more until SETUP_S is spent;
        returns the normalized seconds of each."""
        done = [self.setup(keep_facts=True)]
        while len(done) < SETUPS or (sum(w for w, _ in done) < SETUP_S
                                     and len(done) < MAX_SETUPS):
            done.append(self.setup())
        return [wall * scale for wall, scale in done]

    def _check(self, op: wl.Op, outcome: wl.Outcome,
               tracer: Optional[tracing.Tracer]) -> tuple[str, str]:
        try:
            status, reason = wl.check(op, outcome, self.inputs[op.input], self.facts[op.input])
        except (KeyError, ValueError) as exc:
            return wl.WRONG, f"unreadable output: {exc!r}"
        if status == wl.OK and tracer is not None and op.kind == wl.SOLVE \
                and op.method == "linear":
            tracer.paused = True
            try:
                report = json.loads(outcome.files[op.outputs[1]])
                reason = _deep_check_linear(tracer, report["rows"])
            finally:
                tracer.paused = False
            status = wl.WRONG if reason else status
        return status, reason

    def one_pass(self, tracer: Optional[tracing.Tracer], stop_at: float = math.inf) -> Pass:
        """Run the ops in order, starting none after ``stop_at``.  Untraced,
        an op runs ``repeats[op.id]`` times in a row and is scaled by the
        ticks around and inside all of them."""
        result = Pass()
        if tracer is not None:
            first = len(tracer.spans)
            tracer.counts.clear()
        reference = boundary_ticks()
        for op in self.ops:
            if time.monotonic() >= stop_at:
                break
            if op.needs and result.status.get(op.needs, [wl.SKIPPED])[-1] != wl.OK:
                result.status[op.id] = [wl.SKIPPED]
                continue
            times, statuses, ticks = [], [], list(reference)
            for _ in range(1 if tracer else self.repeats.get(op.id, 1)):
                cap = min(OP_CAP_S, self.deadline - time.monotonic())
                if cap <= 0:
                    statuses.append(wl.FAILED)
                    self.run.failures.append(f"{op.id}: not started, run limit reached")
                    break
                elapsed, outcome = _run_op(op, cap, tracer, ticks)
                status, reason = self._check(op, outcome, tracer)
                if status == wl.WRONG:
                    self.run.problems.append(f"{op.id}: {reason}")
                elif status == wl.FAILED:
                    self.run.failures.append(f"{op.id}: {reason}")
                times.append(elapsed)
                statuses.append(status)
                self._record_outputs(result, op, outcome, status)
            reference = boundary_ticks()
            result.scale[op.id] = scale_of(ticks + reference)
            result.seconds[op.id] = [t * result.scale[op.id] for t in times]
            result.status[op.id] = statuses
        if tracer is not None:
            result.spans = (first, len(tracer.spans))
            result.counts = dict(tracer.counts)
        return result

    def _record_outputs(self, result: Pass, op: wl.Op, outcome: wl.Outcome,
                        status: str) -> None:
        if not op.outputs:
            return
        digest = hashlib.sha256()
        for path in op.outputs:
            data = outcome.files.get(path, b"")
            digest.update(data)
            result.bytes_written += len(data)
        if status != wl.OK:
            # a wrong, failed or refused op's files are no reference
            return
        # keyed by the input's bytes too, so that runs on other inputs are
        # not compared
        key = f"{op.id}:{self.input_digests[op.input][:16]}"
        if result.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            self.run.problems.append(f"{op.id}: output bytes differ between repeats")

    def passes(self, until: float, tracer: Optional[tracing.Tracer] = None) -> list[Pass]:
        """One whole pass, then more until ``until`` (a time.monotonic
        value).  Untraced, the last pass stops where the time runs out, so
        the whole run length is measured, and after the first pass every op
        shorter than BATCH_S is repeated for more samples; traced, only
        passes expected to end in time are started, since the per-layer
        figures need whole passes with each op once."""
        done = []
        while True:
            start = time.monotonic()
            done.append(self.one_pass(tracer, until if done and tracer is None else math.inf))
            now = time.monotonic()
            if tracer is None and len(done) == 1:
                for op_id, seconds in done[0].seconds.items():
                    wall = seconds[0] / done[0].scale[op_id] if seconds else BATCH_S
                    self.repeats[op_id] = min(MAX_REPEATS, max(1, math.ceil(BATCH_S / wall)))
            expected_end = now + (now - start if tracer is not None else 0)
            if expected_end >= until or now > self.deadline:
                return done

    def check_digests(self, stored: dict[str, str]) -> dict[str, str]:
        """Require the output files of every checked op to hash the same in
        every pass, traced or not, and as in an earlier run of the same
        cfrs sources with this seed (``stored``)."""
        reference = dict(stored)
        for p in self.run.untraced + self.run.traced:
            for key, digest in p.digests.items():
                if reference.setdefault(key, digest) != digest:
                    op_id = key.split(":", 1)[0]
                    self.run.problems.append(
                        f"{op_id}: output bytes differ between passes or runs")
        return reference


def sources_digest() -> str:
    """sha256 of the cfrs sources, so that output digests kept across runs
    are compared only with outputs of the same code."""
    package = os.path.dirname(os.path.abspath(cli.__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, tiny: bool = False) -> tuple[Run, list[wl.Op], dict]:
    """Run one workload; returns the run record, its ops and its metrics.

    ``out_dir`` receives the work directory (removed at the end), the span
    file of a traced run and the output digests kept across runs, one file
    per workload, seed and version of the cfrs sources.
    """
    started = time.monotonic()
    workdir = os.path.join(out_dir, f"work-{workload}-{seed}-{os.getpid()}")
    runner = Runner(workload, seed, tiny, workdir, started + RUN_LIMIT_S)
    run = runner.run
    try:
        if trace:
            runner.setup(keep_facts=True)
            half = time.monotonic() + seconds / 2
            run.untraced = runner.passes(half)
            with tracing.Tracer() as tracer:
                _, run.setup_scale = runner.setup(tracer)
                run.traced = runner.passes(time.monotonic() + seconds / 2, tracer)
            _write_spans(tracer, os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))
        else:
            run.setup_s = runner.setups()
            run.untraced = runner.passes(time.monotonic() + seconds)
        digest_file = os.path.join(
            out_dir, f"digests-{workload}-seed{seed}-{sources_digest()[:16]}.json")
        stored = {}
        if os.path.exists(digest_file):
            with open(digest_file, encoding="utf-8") as handle:
                stored = json.load(handle)
        with open(digest_file, "w", encoding="utf-8") as handle:
            json.dump(runner.check_digests(stored), handle, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = layer_metrics(runner, tracer)
    else:
        metrics = end_to_end(runner)
    return run, runner.ops, metrics


def tally(run: Run) -> tuple[int, int, int]:
    """(attempted, failed, refused) ops over all passes of a run.  A wrong
    answer counts as failed; a budget refusal is counted apart, since it is
    an answer the program may give."""
    statuses = [s for p in run.untraced + run.traced for op in p.status.values()
                for s in op if s != wl.SKIPPED]
    return (len(statuses), statuses.count(wl.FAILED) + statuses.count(wl.WRONG),
            statuses.count(wl.REFUSED))


def _write_spans(tracer: tracing.Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([[s.name, s.op, s.parent, s.start, s.end, s.error] for s in tracer.spans],
                  handle)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def typical_total(passes: list[Pass], ops: list[wl.Op],
                  kinds=(wl.SOLVE, wl.VERIFY, wl.ANALYZE), wall: bool = False) -> float:
    """Sum over the ops of the given kinds of each op's median time: the
    time of a typical pass, using every op run, also those of a last pass
    cut short.  Normalized seconds, or wall seconds with ``wall``."""
    return sum(
        _median(t / (p.scale[op.id] if wall else 1.0)
                for p in passes for t in p.seconds.get(op.id, ()))
        for op in ops if op.kind in kinds
    )


def end_to_end(runner: Runner) -> dict:
    run, ops = runner.run, runner.ops
    top = runner.plan.ladder[-1][0]
    # mean over the ops of each op's share of successful attempts, so that
    # repeats, and where the last, cut-short pass stops, do not move it
    shares = []
    for op in ops:
        tried = [s for p in run.untraced for s in p.status.get(op.id, ()) if s != wl.SKIPPED]
        if tried:
            shares.append(tried.count(wl.OK) / len(tried))
    return {
        "setup_s": _median(run.setup_s),
        "run_s": typical_total(run.untraced, ops),
        "solve_s": typical_total(run.untraced, ops, {wl.SOLVE}),
        "verify_s": typical_total(run.untraced, ops, {wl.VERIFY}),
        "analyze_s": typical_total(run.untraced, ops, {wl.ANALYZE}),
        "top_rung_s": _median(t for p in run.untraced for t in p.seconds.get(top, ())),
        "ok_frac": statistics.fmean(shares),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# span name -> per-layer metric holding the sum of those spans' durations
SPAN_TOTALS = {
    "io.parse_matrix": "io.parse_matrix_s",
    "io.format_split": "io.format_split_s",
    "io.parse_split": "io.parse_split_s",
    "containment.build": "containment.build_s",
    "containment.width": "containment.width_s",
    "containment.height": "containment.height_s",
    "poset.min_price": "poset.min_price_s",
    "matching": "matching.s",
    "branching.split": "branching.split_s",
    "branching.exact": "branching.exact_s",
    "matrix.verify": "matrix.verify_s",
    "matrix.find_conflict": "matrix.find_conflict_s",
}
# span name -> per-layer metric holding the sum of those spans' self times
SPAN_SELF = {"poset.min_price": "poset.self_s", "solvers": "solvers.self_s",
             "cli": "cli.glue_s"}
COUNTS = ("containment.k", "containment.arcs", "matching.calls", "matching.adj_entries",
          "branching.states", "branching.split_rows", "branching.split_cells")


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def layer_metrics(runner: Runner, tracer: tracing.Tracer) -> dict:
    run = runner.run
    spans = tracer.spans
    children = tracing.children_of(spans)
    per_pass = []
    for p in run.traced:
        values = dict.fromkeys(list(SPAN_TOTALS.values()) + list(SPAN_SELF.values()), 0.0)
        values["branching.refused"] = 0
        for i in range(*p.spans):
            span = spans[i]
            scale = p.scale[span.op]
            if span.name in SPAN_TOTALS:
                values[SPAN_TOTALS[span.name]] += span.seconds * scale
            if span.name in SPAN_SELF:
                values[SPAN_SELF[span.name]] += tracing.self_seconds(spans, i, children) * scale
            if span.name == "branching.exact" and span.error == "BudgetError":
                values["branching.refused"] += 1
        per_pass.append(values)
    metrics = {name: _median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["branching.refused"] = per_pass[0]["branching.refused"]

    counts = {name: run.traced[0].counts.get(name, 0) for name in COUNTS}
    if any(p.counts != run.traced[0].counts for p in run.traced):
        run.problems.append("stage counts differ between traced passes")
    metrics.update(counts)

    metrics["instances.gen_s"] = run.setup_scale * sum(
        s.seconds for s in spans if s.name == "instances.gen")
    metrics["io.bytes_written"] = run.traced[0].bytes_written
    rungs = [(size, _median(t for p in run.traced for t in p.seconds[op_id]))
             for op_id, size in runner.plan.ladder]
    for label, (_, seconds) in zip(("low", "mid", "top"), rungs):
        metrics[f"rung.{label}_s"] = seconds
    metrics["rung.slope"] = _slope(rungs)
    # a ratio, not a difference: run-to-run noise can make the traced pass
    # the faster one, and a negative time is no measurement
    metrics["trace.overhead_ratio"] = (typical_total(run.traced, runner.ops)
                                       / typical_total(run.untraced, runner.ops))
    statuses = [s for p in run.traced for op in p.status.values() for s in op
                if s != wl.SKIPPED]
    bad = sum(1 for s in statuses if s in (wl.FAILED, wl.WRONG, wl.REFUSED))
    metrics["ops.failed_frac"] = bad / len(statuses) if statuses else 0.0
    return metrics
