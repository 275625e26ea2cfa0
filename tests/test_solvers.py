import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import cfrs
from cfrs import (
    approx_distinct_2,
    approx_height,
    approx_width,
    branching_state_count,
    build_containment,
    find_conflict,
    gen_block_tree,
    solve_exact,
    solve_linear_heuristic,
    verify_row_split,
    width,
)
from cfrs.branching import DEFAULT_BUDGET
from cfrs.cli import METHODS
from cfrs.errors import BudgetError, InternalError
from cfrs.io import format_matrix
from cfrs.matrix import Verdict

from tests.helpers import (
    CROSSING_PAIR,
    IDENTITY_2,
    NESTED_PAIR,
    count_distinct_cols,
    duplicate_column,
    random_corpus,
)

ALL_SOLVERS = (
    lambda m: solve_exact(m, "rows"),
    lambda m: solve_exact(m, "distinct"),
    solve_linear_heuristic,
    approx_height,
    approx_width,
    approx_distinct_2,
)


def heuristic_rows_closed_form(d, h):
    return h * d ** (h - 1) - (h - 1) * d ** (h - 2)


def test_linear_heuristic_block_trees():
    split, report = solve_linear_heuristic(gen_block_tree(2, 2))
    assert report.rows == 3
    split, report = solve_linear_heuristic(gen_block_tree(3, 3))
    assert report.rows == 21
    assert report.tower_value == 21
    assert report.beta_lower_bound == 9  # == m, the trivial bound


def test_linear_heuristic_crossing_pair():
    # the only branching is empty, which is linear
    split, report = solve_linear_heuristic(CROSSING_PAIR)
    assert report.rows == 4
    assert report.distinct_rows == 2


def test_exact_conflict_free_is_identity_optimal():
    for matrix in (IDENTITY_2, NESTED_PAIR, gen_block_tree(2, 3)):
        split, report = solve_exact(matrix, "rows")
        assert report.rows == matrix.m


def test_exact_distinct_crossing_pair():
    split, report = solve_exact(CROSSING_PAIR, "distinct")
    assert report.distinct_rows == 2


def test_exact_unknown_objective():
    with pytest.raises(ValueError):
        solve_exact(IDENTITY_2, "best")


def test_exact_budget_propagates():
    with pytest.raises(BudgetError):
        solve_exact(gen_block_tree(3, 3), "rows", budget=5)


def test_approx_distinct_2_examples():
    _, report = approx_distinct_2(IDENTITY_2)
    assert report.distinct_rows == 2
    _, report = approx_distinct_2(CROSSING_PAIR)
    assert report.distinct_rows == 2
    _, report = approx_distinct_2(gen_block_tree(3, 3))
    assert report.distinct_rows == 13


def test_approx_height_examples():
    _, report = approx_height(CROSSING_PAIR)
    assert report.rows == 4
    _, report = approx_height(NESTED_PAIR)
    assert report.rows == 3
    _, report = approx_height(gen_block_tree(3, 3))
    assert report.rows == 27  # sum of support sizes, and 27 = height * optimum


def test_approx_width_examples():
    chain_like = NESTED_PAIR  # width 1 forces optimality
    _, report = approx_width(chain_like)
    assert report.rows == 2 == report.width * chain_like.m
    _, report = approx_width(CROSSING_PAIR)
    assert report.rows == 4 <= report.width * CROSSING_PAIR.m
    _, report = approx_width(gen_block_tree(3, 3))
    assert report.rows <= report.width * 9


def test_every_solver_output_verifies():
    for matrix in random_corpus(25, seed=31):
        for solver in ALL_SOLVERS:
            split, report = solver(matrix)
            assert verify_row_split(matrix, split).ok
            assert matrix.m <= report.rows
            assert report.distinct_rows <= report.rows
            assert report.beta_lower_bound <= report.rows
            assert report.k == count_distinct_cols(matrix)
            assert report.width == width(build_containment(matrix))


def test_dominance_chain_on_corpus():
    for matrix in random_corpus(60, seed=32):
        if branching_state_count(build_containment(matrix)) > 3000:
            continue
        _, exact = solve_exact(matrix, "rows")
        _, linear = solve_linear_heuristic(matrix)
        _, by_height = approx_height(matrix)
        _, by_width = approx_width(matrix)
        assert exact.rows <= linear.rows <= by_width.rows
        assert linear.rows <= by_height.rows
        assert by_height.rows <= by_height.height * exact.rows
        assert by_width.rows <= by_width.width * exact.rows


def test_distinct_2_guarantee_on_corpus():
    for matrix in random_corpus(60, seed=33):
        if branching_state_count(build_containment(matrix)) > 3000:
            continue
        _, best = solve_exact(matrix, "distinct")
        _, approx = approx_distinct_2(matrix)
        k = count_distinct_cols(matrix)
        assert approx.distinct_rows <= min(k, 2 * best.distinct_rows)
        # sandwich bound for the distinct optimum
        assert k <= 2 * best.distinct_rows
        assert best.distinct_rows <= k


def test_optimum_invariant_under_duplicate_columns():
    for matrix in random_corpus(25, seed=34):
        if branching_state_count(build_containment(matrix)) > 2000:
            continue
        doubled = duplicate_column(matrix, matrix.n - 1)
        for objective in ("rows", "distinct"):
            _, a = solve_exact(matrix, objective)
            _, b = solve_exact(doubled, objective)
            assert (a.rows, a.distinct_rows) == (b.rows, b.distinct_rows)
        _, a = solve_linear_heuristic(matrix)
        _, b = solve_linear_heuristic(doubled)
        assert a.rows == b.rows


def test_heuristic_to_exact_ratio_trend():
    # ratio approaches the height as the arity grows
    for d, h in ((2, 2), (3, 3), (4, 2)):
        matrix = gen_block_tree(d, h)
        _, exact = solve_exact(matrix, "rows")
        _, linear = solve_linear_heuristic(matrix)
        assert exact.rows == d ** (h - 1)
        assert linear.rows == heuristic_rows_closed_form(d, h)
        assert linear.rows * d == exact.rows * (h * d - (h - 1))


def test_outputs_satisfy_laminar_column_bound():
    for matrix in random_corpus(25, seed=35):
        for solver in ALL_SOLVERS:
            split, _ = solver(matrix)
            assert find_conflict(split.matrix) is None
            assert count_distinct_cols(split.matrix) <= 2 * split.matrix.m


def test_split_has_at_least_source_distinct_columns():
    for matrix in random_corpus(40, seed=36):
        for solver in (solve_linear_heuristic, approx_height, approx_distinct_2):
            split, _ = solver(matrix)
            assert count_distinct_cols(split.matrix) >= count_distinct_cols(matrix)


@pytest.mark.parametrize("target, fake, solve", [
    # every method's split goes through the one verification
    *(pytest.param("verify_row_split", lambda *args, **kwargs: Verdict(False, "forced"),
                   partial(call, budget=DEFAULT_BUDGET), id=f"verify_row_split-{method}")
      for method, call in METHODS.items()),
    ("partition_price", lambda partition, weights: 0, solve_linear_heuristic),
    ("exact_min_uncovered", lambda digraph, budget: (cfrs.Branching.empty(digraph.n), 0),
     lambda m: solve_exact(m, "rows")),
    ("exact_min_irreducible", lambda digraph, budget: (cfrs.Branching.empty(digraph.n), 0),
     lambda m: solve_exact(m, "distinct")),
])
def test_solver_self_checks_raise_internal_error(monkeypatch, target, fake, solve):
    monkeypatch.setattr(f"cfrs.solvers.{target}", fake)
    with pytest.raises(InternalError):
        solve(gen_block_tree(2, 2))


def test_self_checks_survive_python_optimize(tmp_path):
    # -O strips assert statements; the certificate check must still fire and
    # the command line must report it as an error, not a traceback
    matrix_file = tmp_path / "bt.txt"
    matrix_file.write_text(format_matrix(gen_block_tree(2, 2)))
    script = "\n".join((
        "import sys",
        "import cfrs.poset",
        "from cfrs import InternalError, gen_block_tree, solve_linear_heuristic",
        "from cfrs.cli import main",
        "print('debug:', __debug__)",
        "cfrs.poset.evaluate = lambda partition, tower, weights: (1, 2)",
        "try:",
        "    solve_linear_heuristic(gen_block_tree(2, 2))",
        "except InternalError as exc:",
        "    print('raised:', exc)",
        "sys.exit(main(['solve', sys.argv[1]]))",
    ))
    src = str(Path(cfrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-O", "-c", script, str(matrix_file)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert "debug: False" in result.stdout
    assert "raised: certificate value does not match partition price" in result.stdout
    assert result.returncode == 1
    assert "error: certificate value does not match partition price" in result.stderr
    assert "Traceback" not in result.stderr
