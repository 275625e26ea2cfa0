"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

import pytest

from cfrs import (
    branching_split,
    branching_state_count,
    brute_force_vertex_cover,
    build_containment,
    count_distinct_rows,
    evaluate,
    exact_min_irreducible,
    exact_min_uncovered,
    find_conflict,
    gen_block_tree,
    gen_ib_reduction,
    gen_vc_reduction,
    min_price_chain_partition,
    solve_exact,
    solve_linear_heuristic,
    split_to_branching,
    verify_row_split,
    width,
)
from cfrs.cli import main as cli_main
from cfrs.solvers import approx_distinct_2, approx_height, approx_width

from tests.helpers import (
    GAP_DAG,
    brute_force_max_tower,
    brute_force_min_price,
    count_distinct_cols,
    duplicate_column,
    gap_weights,
    irreducible_vertices,
    iter_branchings,
    k4,
    k33,
    prism,
    q3,
    random_corpus,
    random_dag,
    random_monotone_weights,
    uncovered_pairs,
)

CORPUS = random_corpus(500, max_side=6, seed=2024)


def passed(name):
    print(f"PASS {name}")


def _is_linear(branching):
    heads = [v for v in branching.choice if v is not None]
    return len(heads) == len(set(heads))


def test_criterion_1_block_tree_family_values():
    started = time.perf_counter()
    _, exact = solve_exact(gen_block_tree(3, 3), "rows")
    _, linear = solve_linear_heuristic(gen_block_tree(3, 3))
    assert exact.rows == 9
    assert linear.rows == 21
    for d, h in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        matrix = gen_block_tree(d, h)
        _, exact = solve_exact(matrix, "rows")
        _, linear = solve_linear_heuristic(matrix)
        assert exact.rows == d ** (h - 1), (d, h)
        assert linear.rows == h * d ** (h - 1) - (h - 1) * d ** (h - 2), (d, h)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(f"criterion 1: block-tree family exact/heuristic values ({elapsed:.2f}s)")


def test_criterion_2_min_max_duality():
    started = time.perf_counter()
    rng = random.Random(777)
    for _ in range(200):
        dag = random_dag(rng, max_vertices=10)
        weights = random_monotone_weights(rng, dag, high=20)
        partition, tower = min_price_chain_partition(dag, weights)
        price, value = evaluate(partition, tower, weights)
        assert price == value
        assert price == brute_force_min_price(dag, weights)
        assert len(partition) == width(dag)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    passed(f"criterion 2: min-max duality on 200 random DAGs ({elapsed:.2f}s)")


def test_criterion_3_non_monotone_gap():
    weights = gap_weights(3, 5)
    assert brute_force_min_price(GAP_DAG, weights) == 10
    assert brute_force_max_tower(GAP_DAG, weights) == 8
    with pytest.raises(ValueError):
        min_price_chain_partition(GAP_DAG, weights)
    passed("criterion 3: non-monotone 4-vertex gap (price 10 vs tower 8)")


def test_criterion_4_branching_split_round_trip():
    started = time.perf_counter()
    budget = 100_000
    splits_checked = 0
    for matrix in CORPUS:
        digraph = build_containment(matrix)
        if branching_state_count(digraph) <= budget:
            for branching in iter_branchings(digraph):
                split = branching_split(matrix, branching, digraph)
                assert verify_row_split(matrix, split).ok
                assert split.matrix.m == len(uncovered_pairs(digraph, branching))
                assert count_distinct_rows(split.matrix) == \
                    len(irreducible_vertices(digraph, branching))
                back = split_to_branching(matrix, split)
                assert len(uncovered_pairs(digraph, back)) <= \
                    len(uncovered_pairs(digraph, branching))
                splits_checked += 1
        if find_conflict(matrix) is None:
            assert exact_min_uncovered(digraph)[1] == matrix.m
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passed(f"criterion 4: {splits_checked} branching splits verified over "
           f"{len(CORPUS)} matrices ({elapsed:.2f}s)")


def test_criterion_5_hardness_reduction_equalities():
    started = time.perf_counter()
    for name, graph in (("K4", k4()), ("K3,3", k33()), ("Q3", q3()),
                        ("5-prism", prism(5, 1)), ("Petersen", prism(5, 2))):
        tau = brute_force_vertex_cover(graph)
        vc = build_containment(gen_vc_reduction(graph))
        ib = build_containment(gen_ib_reduction(graph))
        assert exact_min_uncovered(vc)[1] == 8 * graph.n + tau, name
        assert exact_min_irreducible(ib)[1] == len(graph.edges) + tau, name
    assert brute_force_vertex_cover(k4()) == 3
    assert exact_min_uncovered(build_containment(gen_vc_reduction(k4())))[1] == 35
    assert exact_min_irreducible(build_containment(gen_ib_reduction(k4())))[1] == 9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passed(f"criterion 5: reduction equalities on K4, K3,3, Q3, 5-prism, Petersen ({elapsed:.2f}s)")


def test_criterion_6_approximation_guarantees():
    started = time.perf_counter()
    for matrix in CORPUS:
        _, exact_rows = solve_exact(matrix, "rows")
        _, exact_distinct = solve_exact(matrix, "distinct")
        k = count_distinct_cols(matrix)
        _, two = approx_distinct_2(matrix)
        assert two.distinct_rows <= min(k, 2 * exact_distinct.distinct_rows)
        _, by_height = approx_height(matrix)
        assert by_height.rows <= by_height.height * exact_rows.rows
        _, by_width = approx_width(matrix)
        assert by_width.rows <= by_width.width * exact_rows.rows
        _, linear = solve_linear_heuristic(matrix)
        assert linear.rows >= exact_rows.rows
        assert linear.rows == linear.tower_value  # certified linear optimum
        digraph = build_containment(matrix)
        if branching_state_count(digraph) <= 100_000:
            best_linear = min(
                len(uncovered_pairs(digraph, b))
                for b in iter_branchings(digraph)
                if _is_linear(b)
            )
            assert linear.rows == best_linear
    elapsed = time.perf_counter() - started
    passed(f"criterion 6: approximation guarantees on {len(CORPUS)} matrices "
           f"({elapsed:.2f}s)")


def test_criterion_7_structural_bounds():
    rng = random.Random(4242)
    for matrix in CORPUS[:120]:
        _, exact_distinct = solve_exact(matrix, "distinct")
        k = count_distinct_cols(matrix)
        eta = exact_distinct.distinct_rows
        assert k <= 2 * eta <= 2 * k
        for solver in (solve_linear_heuristic, approx_distinct_2,
                       lambda m: solve_exact(m, "rows")):
            split, _ = solver(matrix)
            assert find_conflict(split.matrix) is None
            assert count_distinct_cols(split.matrix) <= 2 * split.matrix.m
        doubled = duplicate_column(matrix, rng.randrange(matrix.n))
        _, a = solve_exact(matrix, "rows")
        _, b = solve_exact(doubled, "rows")
        assert a.rows == b.rows
        _, a = solve_exact(matrix, "distinct")
        _, b = solve_exact(doubled, "distinct")
        assert a.distinct_rows == b.distinct_rows
    passed("criterion 7: structural bounds and duplicate-column invariance")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    graph_path = tmp_path / "k4.txt"
    graph_path.write_text("\n".join(f"{u} {v}" for u, v in k4().edges) + "\n")
    matrix_path = tmp_path / "m.txt"
    assert cli_main(["gen", "laminar", "--rows", "8", "--k", "11", "--seed", "6",
                     "--out", str(matrix_path)]) == 0

    def run_everything(tag):
        produced = {}
        gens = {
            "md": ["gen", "md", "--d", "3", "--h", "3"],
            "vc": ["gen", "vc-reduction", "--graph", str(graph_path)],
            "ib": ["gen", "ib-reduction", "--graph", str(graph_path)],
            "random": ["gen", "random", "--rows", "6", "--cols", "5",
                       "--density", "0.5", "--seed", "12"],
            "laminar": ["gen", "laminar", "--rows", "8", "--k", "11",
                        "--seed", "6"],
        }
        for name, command in gens.items():
            out = tmp_path / f"{name}.{tag}"
            assert cli_main(command + ["--out", str(out)]) == 0
            produced[name] = out.read_bytes()
        for method in ("exact-rows", "exact-distinct", "linear", "height",
                       "width", "distinct-2"):
            split = tmp_path / f"{method}.{tag}.split"
            report = tmp_path / f"{method}.{tag}.json"
            assert cli_main(["solve", str(matrix_path), "--method", method,
                             "--out", str(split), "--json", str(report)]) == 0
            produced[f"{method}.split"] = split.read_bytes()
            produced[f"{method}.json"] = report.read_bytes()
        for kind in ("tree", "digraph"):
            dot = tmp_path / f"{kind}.{tag}.dot"
            assert cli_main([kind, str(matrix_path), "--dot", str(dot)]) == 0
            produced[kind] = dot.read_bytes()
        capsys.readouterr()
        return produced

    first = run_everything("a")
    second = run_everything("b")
    assert first == second
    report = json.loads(first["linear.json"].decode())
    assert set(report) == {"method", "rows", "distinct_rows", "beta_lower_bound",
                           "tower_value", "height", "width", "k"}
    passed(f"criterion 8: {len(first)} CLI outputs byte-identical across reruns")
