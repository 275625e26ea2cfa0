"""End-user pipelines: exact, heuristic, and approximation solvers.

Every solver returns a verified conflict-free row split plus a report with
the instance statistics (height, width, distinct columns) so the
approximation guarantees are self-documenting:

* ``exact-rows`` / ``exact-distinct``: budgeted exhaustive search over
  branchings, globally optimal.
* ``linear``: optimal among path-shaped (linear) branchings, computed via
  the min-price chain partition; the tower value certifies optimality
  within that class.
* ``height``: split under the empty branching, at most height(M) times the
  row optimum.
* ``width``: split from a minimum-price width-size chain partition, at most
  width(M) times the row optimum.
* ``distinct-2``: singleton split of the reduced matrix, at most twice the
  distinct-row optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Optional

from .branching import (
    DEFAULT_BUDGET,
    Branching,
    branching_split,
    exact_min_irreducible,
    exact_min_uncovered,
    linear_from_chains,
)
from .containment import ContainmentDigraph, build_containment, height, width
from .errors import InternalError
from .matrix import (
    BinaryMatrix,
    RowSplit,
    count_distinct_rows,
    verify_row_split,
)
from .poset import min_price_chain_partition, partition_price


@dataclass(frozen=True)
class SolveReport:
    """Summary of one solver run.

    ``beta_lower_bound`` is always a valid lower bound on the minimum row
    count of any conflict-free split (the row count m in general, the exact
    value for exact-rows).  ``tower_value`` is the antichain-tower
    certificate for the linear-branching methods and None otherwise; it
    bounds the linear optimum, not the unrestricted one.
    """

    method: str
    rows: int
    distinct_rows: int
    beta_lower_bound: int
    tower_value: Optional[int]
    height: int
    width: int
    k: int
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        # elapsed is excluded so identical runs write identical report files
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "elapsed_seconds"}


def _report(method: str, matrix: BinaryMatrix, digraph: ContainmentDigraph,
            split: RowSplit, started: float, beta_lower_bound: Optional[int] = None,
            tower_value: Optional[int] = None, dag_width: Optional[int] = None
            ) -> SolveReport:
    verdict = verify_row_split(matrix, split)
    if not verdict.ok:
        raise InternalError(f"solver produced an invalid split: {verdict.reason}")
    return SolveReport(
        method=method,
        rows=split.matrix.m,
        distinct_rows=count_distinct_rows(split.matrix),
        beta_lower_bound=matrix.m if beta_lower_bound is None else beta_lower_bound,
        tower_value=tower_value,
        height=height(digraph),
        width=width(digraph) if dag_width is None else dag_width,
        k=digraph.n,
        elapsed_seconds=time.perf_counter() - started,
    )


def _linear_pipeline(matrix: BinaryMatrix, method: str):
    started = time.perf_counter()
    digraph = build_containment(matrix)
    sizes = [s.bit_count() for s in digraph.supports]
    partition, _ = min_price_chain_partition(digraph, sizes)
    split = branching_split(matrix, linear_from_chains(partition), digraph)
    # min_price_chain_partition has checked that the tower's value is this
    # price, and a minimum-price partition has exactly width(D) chains
    price = partition_price(partition, sizes)
    report = _report(method, matrix, digraph, split, started, tower_value=price,
                     dag_width=len(partition))
    if report.rows != price:
        raise InternalError(f"linear split has {report.rows} rows, price {price}")
    return split, report


def solve_linear_heuristic(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Optimal split among linear branchings, with a certificate.

    Runs the min-price chain partition on the containment digraph with
    support sizes as weights; the resulting row count is exactly the best
    achievable by any disjoint-paths branching, and the report's tower value
    certifies it.
    """
    return _linear_pipeline(matrix, "linear")


def solve_exact(matrix: BinaryMatrix, objective: str = "rows",
                budget: int = DEFAULT_BUDGET) -> tuple[RowSplit, SolveReport]:
    """Globally optimal split for the chosen objective.

    ``objective`` is "rows" (minimum row count) or "distinct" (minimum
    distinct-row count).  Raises BudgetError when the branching count
    exceeds the budget.
    """
    if objective not in ("rows", "distinct"):
        raise ValueError(f"unknown objective {objective!r}")
    started = time.perf_counter()
    digraph = build_containment(matrix)
    if objective == "rows":
        branching, value = exact_min_uncovered(digraph, budget)
        method, bound = "exact-rows", value
    else:
        branching, value = exact_min_irreducible(digraph, budget)
        method, bound = "exact-distinct", None
    split = branching_split(matrix, branching, digraph)
    report = _report(method, matrix, digraph, split, started, beta_lower_bound=bound)
    got = report.rows if objective == "rows" else report.distinct_rows
    if got != value:
        raise InternalError(f"exact {objective} split has {got}, search found {value}")
    return split, report


def _empty_branching_split(matrix: BinaryMatrix,
                           method: str) -> tuple[RowSplit, SolveReport]:
    # one split row per (row, support) incidence, holding the support's
    # columns: the singleton split of the reduced matrix, re-expanded
    started = time.perf_counter()
    digraph = build_containment(matrix)
    split = branching_split(matrix, Branching.empty(digraph.n), digraph)
    return split, _report(method, matrix, digraph, split, started)


def approx_distinct_2(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Split with at most k distinct rows, hence at most twice the optimum.

    Splits each reduced row with t ones into t singleton rows, then
    re-expands duplicate columns; this is the split of the empty branching.
    The distinct-row optimum is at least k/2, which gives the factor-2
    guarantee.
    """
    return _empty_branching_split(matrix, "distinct-2")


def approx_height(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Split under the empty branching: at most height(M) times the optimum.

    Produces one row per (row, support) incidence, so the row count is the
    sum of the support sizes.
    """
    return _empty_branching_split(matrix, "height")


def approx_width(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Split from a width-size chain partition: at most width(M) times the
    optimum.

    Uses the minimum-price width-size partition, which can only improve on
    an arbitrary one while keeping the guarantee.
    """
    return _linear_pipeline(matrix, "width")
