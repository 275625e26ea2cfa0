"""Span recorder for the traced run.

Spans come only from this benchmark's own code: while a :class:`Tracer` is
installed, the module-level references to a fixed list of public stage
functions are replaced by timing wrappers, in every ``cfrs`` module that
holds them, and put back on exit.  Nothing under ``src/`` is edited.  Each
span has a name, start, end, parent span and the id of the op it belongs
to; the spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    op: str
    parent: int          # index of the enclosing span, -1 for an op's root
    start: int           # perf_counter_ns
    end: int = 0
    error: str = ""      # exception type name when the call raised

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _adj_entries(args, kwargs) -> dict:
    return {"matching.calls": 1,
            "matching.adj_entries": sum(len(a) for a in args[0])}


def _digraph_size(result) -> dict:
    # the digraph is transitively closed, so its arcs are its out-degrees
    return {"containment.k": result.n,
            "containment.arcs": sum(len(result.out(v)) for v in range(result.n))}


def _split_size(result) -> dict:
    rows = result.matrix.m
    return {"branching.split_rows": rows, "branching.split_cells": rows * result.matrix.n}


def _states(result) -> dict:
    return {"branching.states": result}


# (defining module, function, span name, count-before-call, count-from-result).
# Only stage entry points: wrapping hot helpers such as bits_of would cost
# more than the work it measures.  Instance generation is timed by the
# set-up loop itself, since some generators are this benchmark's own.
STAGES: tuple[tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("cfrs.io", "parse_matrix", "io.parse_matrix", None, None),
    ("cfrs.io", "format_split", "io.format_split", None, None),
    ("cfrs.io", "parse_split", "io.parse_split", None, None),
    ("cfrs.io", "phylo_to_dot", "io.phylo_to_dot", None, None),
    ("cfrs.matrix", "verify_row_split", "matrix.verify", None, None),
    ("cfrs.matrix", "find_conflict", "matrix.find_conflict", None, None),
    ("cfrs.matrix", "build_phylogeny", "matrix.build_phylogeny", None, None),
    ("cfrs.containment", "build_containment", "containment.build", None, _digraph_size),
    ("cfrs.containment", "width", "containment.width", None, None),
    ("cfrs.containment", "height", "containment.height", None, None),
    ("cfrs.matching", "maximum_bipartite_matching", "matching", _adj_entries, None),
    ("cfrs.poset", "min_price_chain_partition", "poset.min_price", None, None),
    ("cfrs.branching", "branching_split", "branching.split", None, _split_size),
    ("cfrs.branching", "exact_min_uncovered", "branching.exact", None, None),
    ("cfrs.branching", "exact_min_irreducible", "branching.exact", None, None),
    ("cfrs.branching", "branching_state_count", "branching.state_count", None, _states),
    ("cfrs.solvers", "solve_exact", "solvers", None, None),
    ("cfrs.solvers", "solve_linear_heuristic", "solvers", None, None),
    ("cfrs.solvers", "approx_height", "solvers", None, None),
    ("cfrs.solvers", "approx_width", "solvers", None, None),
    ("cfrs.solvers", "approx_distinct_2", "solvers", None, None),
)


class Tracer:
    """Records spans and counts around the wrapped stage functions.

    Use as a context manager to install the wrappers; :meth:`op` opens the
    root span of one op, and wrapped calls outside any op pass straight
    through, as they do while :attr:`paused` is set, so output checks that
    reuse library code add no spans.  ``counts`` sums the stage counters of
    the calls that returned, until the caller resets it.  ``last_min_price`` keeps the arguments and
    result of the last traced min-price chain partition, for the checks on
    the partition and tower behind a linear solve.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.last_min_price: Optional[tuple] = None
        self.paused = False
        self._stack: list[int] = []
        self._op = ""
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._op, parent, time.perf_counter_ns()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, error: str = "") -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        span.error = error
        self._stack.pop()

    @contextmanager
    def op(self, op_id: str, name: str = "cli") -> Iterator[None]:
        """Root span of one op (``cli``) or of a traced set-up step (``setup``)."""
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a call made by the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(index, type(exc).__name__)
            raise
        self._close(index)

    def _wrap(self, fn, name, before, after):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused or not tracer._stack:
                return fn(*args, **kwargs)
            kept = dict(tracer.counts)
            if before is not None:
                for metric, value in before(args, kwargs).items():
                    tracer.counts[metric] += value
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            except BaseException:
                # a call that raised, such as an exact solve refused by its
                # budget, leaves no counts: its states were never searched
                tracer.counts.clear()
                tracer.counts.update(kept)
                raise
            if after is not None:
                for metric, value in after(result).items():
                    tracer.counts[metric] += value
            if name == "poset.min_price":
                tracer.last_min_price = (args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "cfrs" or name.startswith("cfrs."))]
        for module_name, func_name, span_name, before, after in STAGES:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, span_name, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def self_seconds(spans: list[Span], index: int, children: dict[int, list[int]]) -> float:
    """Duration of a span minus the time its direct children cover."""
    span = spans[index]
    return span.seconds - sum(spans[c].seconds for c in children.get(index, ()))


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            out[span.parent].append(i)
    return out
