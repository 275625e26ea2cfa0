"""End-user solvers: each method is a branching chosen on the containment
digraph, fed to one pipeline that splits, verifies, checks the counts the
method claimed and reports the instance statistics (height, width, distinct
columns), so the approximation guarantees are self-documenting:

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
from typing import Callable, Optional

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


def _solve(matrix: BinaryMatrix, method: str,
           choose: Callable) -> tuple[RowSplit, SolveReport]:
    # choose(digraph) returns a branching and the SolveReport fields that
    # its search has proved
    started = time.perf_counter()
    digraph = build_containment(matrix)
    branching, claims = choose(digraph)
    split = branching_split(matrix, branching, digraph)
    verdict = verify_row_split(matrix, split)
    if not verdict.ok:
        raise InternalError(f"solver produced an invalid split: {verdict.reason}")
    counts = {"rows": split.matrix.m, "distinct_rows": count_distinct_rows(split.matrix)}
    for name, got in counts.items():
        if claims.get(name, got) != got:
            raise InternalError(f"{method} split has {got} {name}, "
                                f"its search claimed {claims[name]}")
    report = {"beta_lower_bound": matrix.m, "tower_value": None, **counts, **claims}
    if "width" not in report:
        report["width"] = width(digraph)
    return split, SolveReport(method=method, height=height(digraph), k=digraph.n,
                              elapsed_seconds=time.perf_counter() - started, **report)


def _min_price_chains(digraph: ContainmentDigraph) -> tuple[Branching, dict]:
    sizes = [s.bit_count() for s in digraph.supports]
    partition, _ = min_price_chain_partition(digraph, sizes)
    # min_price_chain_partition has checked that the tower's value is this
    # price, and a minimum-price partition has exactly width(D) chains
    price = partition_price(partition, sizes)
    return linear_from_chains(partition), {"rows": price, "tower_value": price,
                                           "width": len(partition)}


def _empty(digraph: ContainmentDigraph) -> tuple[Branching, dict]:
    # one split row per (row, support) incidence, holding the support's
    # columns: the singleton split of the reduced matrix, re-expanded
    return Branching.empty(digraph.n), {}


def _exact(objective: str, budget: int) -> Callable:
    if objective == "rows":
        def choose(digraph):
            branching, rows = exact_min_uncovered(digraph, budget)
            return branching, {"rows": rows, "beta_lower_bound": rows}
    elif objective == "distinct":
        def choose(digraph):
            branching, distinct_rows = exact_min_irreducible(digraph, budget)
            return branching, {"distinct_rows": distinct_rows}
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return choose


def solve_linear_heuristic(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Optimal split among linear branchings, with a certificate.

    Runs the min-price chain partition on the containment digraph with
    support sizes as weights; the resulting row count is exactly the best
    achievable by any disjoint-paths branching, and the report's tower value
    certifies it.
    """
    return _solve(matrix, "linear", _min_price_chains)


def solve_exact(matrix: BinaryMatrix, objective: str = "rows",
                budget: int = DEFAULT_BUDGET) -> tuple[RowSplit, SolveReport]:
    """Globally optimal split for the chosen objective.

    ``objective`` is "rows" (minimum row count) or "distinct" (minimum
    distinct-row count).  Raises BudgetError when the branching count
    exceeds the budget.
    """
    return _solve(matrix, f"exact-{objective}", _exact(objective, budget))


def approx_distinct_2(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Split with at most k distinct rows, hence at most twice the optimum.

    Splits each reduced row with t ones into t singleton rows, then
    re-expands duplicate columns; this is the split of the empty branching.
    The distinct-row optimum is at least k/2, which gives the factor-2
    guarantee.
    """
    return _solve(matrix, "distinct-2", _empty)


def approx_height(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Split under the empty branching: at most height(M) times the optimum.

    Produces one row per (row, support) incidence, so the row count is the
    sum of the support sizes.
    """
    return _solve(matrix, "height", _empty)


def approx_width(matrix: BinaryMatrix) -> tuple[RowSplit, SolveReport]:
    """Split from a width-size chain partition: at most width(M) times the
    optimum.

    Uses the minimum-price width-size partition, which can only improve on
    an arbitrary one while keeping the guarantee.
    """
    return _solve(matrix, "width", _min_price_chains)
