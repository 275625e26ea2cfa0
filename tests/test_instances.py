import hashlib
import time

import pytest

from cfrs import (
    BudgetError,
    CubicGraph,
    MatrixError,
    build_containment,
    brute_force_vertex_cover,
    exact_min_irreducible,
    exact_min_uncovered,
    find_conflict,
    gen_block_tree,
    gen_ib_reduction,
    gen_random,
    gen_random_laminar,
    gen_vc_reduction,
    height,
    parse_edge_list,
)
from cfrs import instances
from cfrs.io import format_matrix

from tests.helpers import count_distinct_cols, k4, k33, q3


def test_block_tree_shapes():
    m = gen_block_tree(2, 2)
    assert (m.m, m.n) == (2, 3)
    assert m.col_masks == (0b01, 0b10, 0b11)
    m = gen_block_tree(3, 3)
    assert (m.m, m.n) == (9, 13)
    assert count_distinct_cols(m) == 13


def test_block_tree_always_conflict_free():
    for d, h in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5)):
        assert find_conflict(gen_block_tree(d, h)) is None


def test_block_tree_validation():
    with pytest.raises(ValueError):
        gen_block_tree(1, 3)
    with pytest.raises(ValueError):
        gen_block_tree(2, 1)
    with pytest.raises(ValueError):
        gen_block_tree(2, 40)  # over the size cap


def test_cubic_graph_validation():
    with pytest.raises(ValueError):
        CubicGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))  # degree 2
    with pytest.raises(ValueError):
        CubicGraph(2, ((0, 1), (0, 1), (0, 1)))  # multi-edge
    with pytest.raises(ValueError):
        CubicGraph(1, ((0, 0),) * 3)  # loop
    with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range"):
        CubicGraph(2, ((0, 1), (0, 2)))


def test_parse_edge_list():
    text = "# complete graph on four vertices\n" + "\n".join(
        f"{u} {v}" for u, v in k4().edges
    )
    graph = parse_edge_list(text)
    assert graph == k4()
    with pytest.raises(MatrixError, match="line 1: expected 'u v', got '0 1 2'"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(MatrixError, match="edge list is empty"):
        parse_edge_list("")
    with pytest.raises(MatrixError, match="graph is not cubic: vertex 0 has degree 1"):
        parse_edge_list("0 1\n1 2\n")


def test_vertex_cover_oracle():
    assert brute_force_vertex_cover(k4()) == 3
    assert brute_force_vertex_cover(k33()) == 3
    assert brute_force_vertex_cover(q3()) == 4
    with pytest.raises(BudgetError):
        brute_force_vertex_cover(q3(), cap=4)


def test_vc_reduction_shapes_and_height():
    for graph in (k4(), k33(), q3()):
        matrix = gen_vc_reduction(graph)
        assert matrix.m == len(graph.edges) + 2
        assert matrix.n == 3 * graph.n + 1
        assert count_distinct_cols(matrix) == matrix.n
        assert height(build_containment(matrix)) == 2
    assert gen_vc_reduction(k4()).m == 8
    assert gen_vc_reduction(k4()).n == 13


def test_ib_reduction_shapes():
    for graph in (k4(), k33(), q3()):
        matrix = gen_ib_reduction(graph)
        assert matrix.m == len(graph.edges)
        assert matrix.n == len(graph.edges) + graph.n
        assert height(build_containment(matrix)) == 2
    assert gen_ib_reduction(k4()).m == 6
    assert gen_ib_reduction(k4()).n == 10
    assert gen_ib_reduction(k33()).m == 9
    assert gen_ib_reduction(k33()).n == 15


def test_vc_reduction_encodes_vertex_cover():
    for graph in (k4(), k33()):
        tau = brute_force_vertex_cover(graph)
        d = build_containment(gen_vc_reduction(graph))
        assert exact_min_uncovered(d)[1] == 8 * graph.n + tau


def test_ib_reduction_encodes_vertex_cover():
    for graph in (k4(), k33()):
        tau = brute_force_vertex_cover(graph)
        d = build_containment(gen_ib_reduction(graph))
        assert exact_min_irreducible(d)[1] == len(graph.edges) + tau


def test_gen_random_is_seeded_and_valid():
    a = gen_random(5, 5, 0.5, 42)
    b = gen_random(5, 5, 0.5, 42)
    assert a.rows == b.rows
    assert a.rows != gen_random(5, 5, 0.5, 43).rows
    # extreme density still yields a valid matrix
    sparse = gen_random(6, 6, 0.05, 7)
    assert all(any(row) for row in sparse.rows)
    with pytest.raises(ValueError):
        gen_random(3, 3, 0.0, 1)
    with pytest.raises(ValueError):
        gen_random(0, 3, 0.5, 1)


@pytest.mark.parametrize("args, digest", [
    # the benchmark's random inputs, before their rows are permuted
    ((60, 1500, 0.5, 0), "e66d65f0a46d03d37fc92a2080b9082fca1b3d4ba817c5a9aa072010e7241b4f"),
    ((40, 200, 0.5, 0), "07a958779a0aec756deab1434c06f447107462548f040567b1b2d954bc21ccd1"),
])
def test_gen_random_output_is_pinned(args, digest):
    text = format_matrix(gen_random(*args))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_gen_random_laminar_properties():
    for m, k, seed in ((1, 1, 0), (5, 1, 1), (5, 9, 2), (8, 15, 3), (6, 4, 4)):
        matrix = gen_random_laminar(m, k, seed)
        assert matrix.m == m
        assert count_distinct_cols(matrix) == k == matrix.n
        assert find_conflict(matrix) is None
    assert gen_random_laminar(5, 9, 17).rows == gen_random_laminar(5, 9, 17).rows


def test_gen_random_laminar_cap():
    # the maximum attainable family size over m rows is 2m-1
    gen_random_laminar(4, 7, 0)
    with pytest.raises(ValueError):
        gen_random_laminar(4, 8, 0)
    with pytest.raises(ValueError):
        gen_random_laminar(4, 0, 0)
    with pytest.raises(ValueError, match="need at least one row"):
        gen_random_laminar(0, 1, 0)


def test_generators_refuse_over_the_size_cap_before_building(monkeypatch):
    # whatever the generators build with is gone, so each refusal below must
    # come from the cap check, ahead of any sampling or allocation
    for name in ("random", "mask_of", "BinaryMatrix"):
        monkeypatch.setattr(instances, name, None)
    cap = instances.MAX_GENERATED_CELLS
    over = [
        lambda: gen_block_tree(1414, 2),  # 1414 x 1415, just over
        lambda: gen_block_tree(2, 21),
        lambda: gen_block_tree(2, cap.bit_length() + 1),
        lambda: gen_block_tree(cap + 1, 2),
        lambda: gen_block_tree(10, 5000),  # d**h has 5000 digits
        lambda: gen_block_tree(10, 3_000_000),
        lambda: gen_random(2, cap // 2 + 1, 0.5, 0),
        lambda: gen_random(10**5, 10**5, 0.5, 0),
        lambda: gen_random_laminar(1001, 1999, 0),  # 2,000,999 cells
        lambda: gen_random_laminar(10**6, 10**6, 0),
        # k = 1 keeps the matrix small, but the split tree is built over
        # every row whatever k is
        lambda: gen_random_laminar(100_000, 1, 0),
        lambda: gen_random_laminar(2_000_000, 1, 0),
    ]
    start = time.perf_counter()
    for make in over:
        with pytest.raises(ValueError, match=f"size cap of {cap} cells"):
            make()
    assert time.perf_counter() - start < 1


def test_generators_build_up_to_the_size_cap():
    matrix = gen_random_laminar(1250, 1600, 0)  # exactly the cap
    assert (matrix.m, matrix.n) == (1250, 1600)
    matrix = gen_block_tree(1413, 2)  # 1413 x 1414, the largest d at h = 2
    assert (matrix.m, matrix.n) == (1413, 1414)
