import random
from array import array
from collections import namedtuple
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrs import (
    BinaryMatrix,
    ConflictError,
    MatrixError,
    build_containment,
    build_phylogeny,
    count_distinct_rows,
    find_conflict,
    gen_block_tree,
    gen_random_laminar,
    reduce_columns,
    verify_row_split,
)
from cfrs.io import format_matrix, parse_matrix
from cfrs.matrix import (
    _BAND,
    _SPARSE,
    ConflictWitness,
    RowSplit,
    _first_rows,
    _laminar_tree,
    bits_of,
    mask_of,
    select,
    transpose,
)

from tests.helpers import (
    CROSSING_PAIR,
    IDENTITY_2,
    NESTED_PAIR,
    column_support,
    count_distinct_cols,
    differential_corpus,
    duplicate_column,
    identity_split,
    is_laminar,
    nested_prefix,
    oracle_has_conflict,
    random_corpus,
    reference_laminar_tree,
    reference_phylogeny,
    reference_row_masks,
    reference_sweep_conflict,
    reference_transpose,
    stream,
    tree_k,
    with_last_pair_crossing,
    with_repeated_rows,
)
from tests.strategies import binary_matrices


def test_rejects_degenerate_matrices():
    with pytest.raises(MatrixError):
        BinaryMatrix(())
    with pytest.raises(MatrixError):
        BinaryMatrix(((0, 1), (0, 1)))  # all-zero column
    with pytest.raises(MatrixError):
        BinaryMatrix(((0, 0), (1, 1)))  # all-zero row
    with pytest.raises(MatrixError):
        BinaryMatrix(((1, 2),))
    with pytest.raises(MatrixError):
        BinaryMatrix(((1, 1), (1,)))


def test_find_conflict_identity_absent():
    assert find_conflict(IDENTITY_2) is None


def test_find_conflict_forbidden_pattern():
    witness = find_conflict(CROSSING_PAIR)
    assert witness is not None
    assert (witness.col_i, witness.col_j) == (0, 1)
    assert witness.rows == (0, 1, 2)
    # the witness submatrix really is (1,1),(1,0),(0,1)
    sub = [
        (CROSSING_PAIR.rows[r][witness.col_i], CROSSING_PAIR.rows[r][witness.col_j])
        for r in witness.rows
    ]
    assert sub == [(1, 1), (1, 0), (0, 1)]


def test_find_conflict_nested_absent():
    # exhaustive oracle agrees: no column pair and row triple matches
    assert not oracle_has_conflict(NESTED_PAIR)
    assert find_conflict(NESTED_PAIR) is None


def test_column_support():
    assert column_support(NESTED_PAIR, 0) == {0}
    assert column_support(NESTED_PAIR, 1) == {0, 1}
    assert column_support(CROSSING_PAIR, 1) == {0, 2}
    with pytest.raises(ValueError):
        column_support(NESTED_PAIR, 2)


def test_reduce_columns_collapses_duplicates():
    m = BinaryMatrix(((1, 1, 0), (1, 1, 1)))
    red = reduce_columns(m)
    assert red.reduced.n == 2
    assert red.class_of == (0, 0, 1)
    assert red.representative == (0, 2)


def test_reduce_columns_identity_on_distinct():
    red = reduce_columns(CROSSING_PAIR)
    assert red.reduced is CROSSING_PAIR
    assert red.class_of == (0, 1)


def test_count_distinct_rows():
    assert count_distinct_rows(IDENTITY_2) == 2
    assert count_distinct_rows(BinaryMatrix(((1, 1), (1, 1)))) == 1


def test_verify_identity_split():
    verdict = verify_row_split(NESTED_PAIR, identity_split(NESTED_PAIR))
    assert verdict.ok
    # conflicted matrix: the identity split is rejected with the witness
    bad = verify_row_split(CROSSING_PAIR, identity_split(CROSSING_PAIR))
    assert not bad.ok and bad.witness is not None


def test_verify_rejects_wrong_or():
    split = RowSplit(BinaryMatrix(((1, 0), (0, 1), (0, 1))), ((0,), (1,), (2,)))
    verdict = verify_row_split(CROSSING_PAIR, split)
    assert not verdict.ok
    assert "r1" in verdict.reason


def test_verify_rejects_broken_partition():
    split = RowSplit(NESTED_PAIR, ((0, 1), (1,)))
    assert "two groups" in verify_row_split(NESTED_PAIR, split).reason
    split = RowSplit(NESTED_PAIR, ((0,), ()))
    assert not verify_row_split(NESTED_PAIR, split).ok


def test_verify_dimension_mismatch_is_an_error():
    three_cols = BinaryMatrix(((1, 1, 1), (0, 1, 1)))
    with pytest.raises(MatrixError):
        verify_row_split(three_cols, identity_split(IDENTITY_2))


def test_is_laminar_cases():
    assert is_laminar(BinaryMatrix(((1, 0, 1), (0, 1, 1))))  # {1},{2},{1,2}
    assert not is_laminar(CROSSING_PAIR)  # {1,2},{1,3} cross


@settings(max_examples=120, deadline=None)
@given(binary_matrices())
def test_laminar_iff_conflict_free(matrix):
    assert is_laminar(matrix) == (find_conflict(matrix) is None)


@settings(max_examples=80, deadline=None)
@given(binary_matrices())
def test_identity_split_accepted_iff_conflict_free(matrix):
    verdict = verify_row_split(matrix, identity_split(matrix))
    assert verdict.ok == (find_conflict(matrix) is None)


def test_distinct_columns_bound_on_conflict_free_corpus():
    # every conflict-free matrix has at most 2m distinct columns
    for matrix in random_corpus(150, seed=51):
        if find_conflict(matrix) is None:
            assert count_distinct_cols(matrix) <= 2 * matrix.m


def test_phylogeny_identity():
    tree = build_phylogeny(IDENTITY_2)
    assert tree_k(tree) == 2
    assert tree.parent == (None, 0, 0)
    assert tree.row_node == (1, 2)


def test_phylogeny_chain():
    tree = build_phylogeny(NESTED_PAIR)
    # root <- {r1,r2} <- {r1}
    assert set(bits_of(tree.node_masks[1])) == {0}
    assert set(bits_of(tree.node_masks[2])) == {0, 1}
    assert tree.parent == (None, 2, 0)
    assert tree.row_node == (1, 2)


def test_phylogeny_rejects_conflict():
    with pytest.raises(ConflictError) as err:
        build_phylogeny(CROSSING_PAIR)
    assert err.value.witness.rows == (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(binary_matrices())
def test_phylogeny_structure(matrix):
    if find_conflict(matrix) is not None:
        return
    tree = build_phylogeny(matrix)
    assert tree_k(tree) == count_distinct_cols(matrix)
    full = (1 << matrix.m) - 1
    assert tree.node_masks[0] == full
    for v in range(1, tree_k(tree) + 1):
        p = tree.parent[v]
        child, parent = tree.node_masks[v], tree.node_masks[p]
        assert child & ~parent == 0
        if p != 0:
            assert child != parent  # proper inclusion below the root
    for i in range(matrix.m):
        node = tree.row_node[i]
        assert (tree.node_masks[node] >> i) & 1
        # minimality: no other support containing i is smaller
        for v in range(1, tree_k(tree) + 1):
            if (tree.node_masks[v] >> i) & 1:
                assert tree.node_masks[v].bit_count() >= tree.node_masks[node].bit_count()


@settings(max_examples=150, deadline=None)
@given(binary_matrices(max_rows=7, max_cols=7))
def test_every_construction_agrees(matrix):
    built = (
        BinaryMatrix(matrix.rows),
        BinaryMatrix(tuple(list(row) for row in matrix.rows)),
        BinaryMatrix.from_row_masks(matrix.n, matrix.row_masks),
        BinaryMatrix.from_col_masks(matrix.m, matrix.col_masks),
        parse_matrix(stream(format_matrix(matrix))),
    )
    for other in built:
        assert other.rows == matrix.rows
        assert other.row_masks == matrix.row_masks
        assert other.col_masks == matrix.col_masks
        assert (other.m, other.n) == (matrix.m, matrix.n)
        assert other == matrix and hash(other) == hash(matrix)
    # bit j of row i is entry (i, j); bit i of column j is the same entry
    for i, row in enumerate(matrix.rows):
        for j, bit in enumerate(row):
            assert (matrix.row_masks[i] >> j) & 1 == bit == (matrix.col_masks[j] >> i) & 1


def test_equality_and_hash_are_by_shape_and_entries():
    assert NESTED_PAIR != IDENTITY_2
    assert BinaryMatrix(((1, 1),)) != BinaryMatrix(((1,), (1,)))
    assert len({NESTED_PAIR, BinaryMatrix(((1, 1), (0, 1)))}) == 1
    # the reduced matrix is just the distinct supports, nothing else kept
    matrix = BinaryMatrix(((1, 1, 0), (1, 1, 1)))
    supports = tuple(dict.fromkeys(matrix.col_masks))
    assert reduce_columns(matrix).reduced == BinaryMatrix.from_col_masks(matrix.m, supports)


def test_messages_name_rows_and_columns_by_position():
    witness = find_conflict(CROSSING_PAIR)
    assert witness.describe() == "columns c1,c2 on rows r1,r2,r3"
    verdict = verify_row_split(CROSSING_PAIR, identity_split(CROSSING_PAIR))
    assert verdict.reason == "split is not conflict-free: columns c1,c2 on rows r1,r2,r3"
    split = RowSplit(BinaryMatrix(((1, 0), (1, 0), (0, 1))), ((0,), (1,), (2,)))
    assert verify_row_split(CROSSING_PAIR, split).reason == "group for row r1 does not OR to it"
    split = RowSplit(BinaryMatrix(((1, 0), (0, 1))), ((0,), (1,)))
    assert verify_row_split(CROSSING_PAIR, split).reason == "expected 3 groups, got 2"
    split = RowSplit(BinaryMatrix(((1, 0), (1, 0), (0, 1))), ((3,), (1,), (2,)))
    assert verify_row_split(CROSSING_PAIR, split).reason == \
        "group for row r1 names split row 4, out of range"


def test_constructor_accepts_entries_int_maps_to_binary():
    assert BinaryMatrix([["1", "0"], [True, 1.0]]).rows == ((1, 0), (1, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: BinaryMatrix(((1, 1), (1,))), "row 2 has 1 entries, expected 2"),
    (lambda: BinaryMatrix(((1, 1), (1, 2))), "row 2 contains a non-binary entry"),
    (lambda: BinaryMatrix(((1, 1), (-1, 1))), "row 2 contains a non-binary entry"),
    (lambda: BinaryMatrix(((1, 1), (0, 0))), "row 2 is all zeros"),
    (lambda: BinaryMatrix(((0, 0), (1,))), "row 1 is all zeros"),
    (lambda: BinaryMatrix(((1, 0), (1, 0))), "column 2 is all zeros"),
    (lambda: BinaryMatrix(()), "at least one row and one column"),
    (lambda: BinaryMatrix(((),)), "at least one row and one column"),
    (lambda: BinaryMatrix.from_row_masks(2, (0b11, 0b101)), "row 2 has 3 entries, expected 2"),
    (lambda: BinaryMatrix.from_row_masks(2, (0b11, -1)), "row 2 contains a non-binary entry"),
    (lambda: BinaryMatrix.from_row_masks(2, (0b01, 0)), "row 2 is all zeros"),
    (lambda: BinaryMatrix.from_row_masks(3, (0b001, 0b100)), "column 2 is all zeros"),
    # repeated rows: each distinct mask is checked once, the first bad row named
    (lambda: BinaryMatrix.from_row_masks(2, (0b11, 0b01, 0b11, 0b101, 0b101)),
     "row 4 has 3 entries, expected 2"),
    (lambda: BinaryMatrix.from_row_masks(2, (0b10, 0b01, 0b10, 0, -1, 0)),
     "row 4 is all zeros"),
    (lambda: BinaryMatrix.from_row_masks(2, (0b10, 0b10, -2, 0b01, -2)),
     "row 3 contains a non-binary entry"),
    (lambda: BinaryMatrix.from_row_masks(0, ()), "at least one row and one column"),
    (lambda: BinaryMatrix.from_col_masks(2, (0b11, 0b00)), "column 2 is all zeros"),
    (lambda: BinaryMatrix.from_col_masks(3, (0b011,)), "row 3 is all zeros"),
    (lambda: BinaryMatrix.from_col_masks(0, (0b1,)), "at least one row and one column"),
])
def test_invalid_matrices_are_rejected_with_their_reason(build, message):
    with pytest.raises(MatrixError, match=message):
        build()


class _Bit(int):
    pass


_Pair = namedtuple("_Pair", "a b")


def _constructor_cases():
    """Row lists, each made afresh by its thunk, since a generator row is
    spent once read."""
    cases = [
        # tuple and list rows of ints, bools and an int subclass
        lambda: ((1, 0, 1), (0, 1, 1)),
        lambda: [[1, 0], [0, 1], [1, 1]],
        lambda: ((True, False), [False, True]),
        lambda: [[True, 1], (0, True)],
        lambda: [[_Bit(1), _Bit(0)], (_Bit(0), _Bit(1))],
        lambda: [[_Bit(1), _Bit(2)]],
        # rows that go through int() per entry
        lambda: ["0101", "1011"],
        lambda: ["01", "0x"],
        lambda: [["1", "0"], ["0", "1"]],
        lambda: [[1.0, 0.0], (0.0, 1.0)],
        lambda: [[1.5, 0], [0, 1]],
        lambda: [[1, 0.0], [0, 1]],
        lambda: [(x for x in (1, 0)), (x for x in (0, 1))],
        lambda: (row for row in ((1, 0), (0, 1))),
        lambda: [b"\x01\x00", b"\x00\x01"],
        lambda: [b"01", b"10"],
        lambda: [bytearray(b"\x01\x01")],
        lambda: [array("b", [1, 0]), array("b", [0, 1])],
        lambda: [array("q", [1, 0]), array("q", [0, 1])],
        lambda: [array("q", [1, 1])],
        lambda: [memoryview(b"\x01\x01")],
        lambda: [_Pair(1, 0), _Pair(0, 1)],
        lambda: [[1, None]],
        # an int given as a row
        lambda: [(1, 0), 7],
        lambda: [5],
        # entries out of 0..1, in and out of 0..255
        lambda: [[1, 2]], lambda: [(1, 255)], lambda: [[1, 256]], lambda: [(1, -1)],
        lambda: [[1, 10**30]], lambda: [[1, 1], [1, 256], [1, 0, 1]],
        # ragged rows, all-zero rows and columns, empty matrices
        lambda: [[1, 1], [1]], lambda: [(1,), (1, 1)], lambda: [[1, 1], [1, 1, 1]],
        lambda: [[1, 1], [0, 0]], lambda: [(0, 0), (1,)], lambda: [[1, 0], [1, 0]],
        lambda: [], lambda: (), lambda: [()], lambda: [[], [1]],
        # every row is converted before any row is checked
        lambda: [[1, 1], [1], [1, "x"]],
        lambda: [[1, 1], [0, 0], (1, 1.0), "11", [1, 256]],
        lambda: [(0, 0), [1, None]],
    ]
    for matrix in random_corpus(30, max_side=8, seed=77):
        cases += [lambda rows=matrix.rows: rows,
                  lambda rows=matrix.rows: [list(row) for row in rows],
                  lambda rows=matrix.rows: [[bool(x) for x in row] for row in rows]]
    return cases


def _outcome(build):
    try:
        matrix = build()
    except Exception as exc:
        return type(exc), str(exc)
    return matrix.n, matrix.row_masks


def test_constructor_matches_the_per_entry_int_reference():
    # exact tuples and lists of ints take one bytes() call; everything else,
    # buffers above all, goes through int() per entry as it always has
    cases = _constructor_cases()
    failures = {_outcome(lambda: BinaryMatrix(make()))[0] for make in cases}
    assert {TypeError, ValueError, MatrixError} <= failures
    for make in cases:
        expected = _outcome(lambda: BinaryMatrix.from_row_masks(*reference_row_masks(make())))
        assert _outcome(lambda: BinaryMatrix(make())) == expected, make()
    assert _outcome(lambda: BinaryMatrix([[1, 1], [1], [1, "x"]])) == \
        (ValueError, "invalid literal for int() with base 10: 'x'")
    assert _outcome(lambda: BinaryMatrix([array("q", [1, 0]), array("q", [0, 1])])) == \
        (2, (0b01, 0b10))


def test_from_col_masks_ignores_bits_beyond_m():
    assert BinaryMatrix.from_col_masks(2, (0b111, 0b110)) == BinaryMatrix(((1, 0), (1, 1)))


def test_phylogeny_matches_exhaustive_reference_on_laminar_matrices():
    cases = [gen_random_laminar(m, k, seed)
             for seed in range(8) for m, k in ((5, 9), (12, 20), (30, 45), (40, 79))]
    cases += [gen_block_tree(2, 4), gen_block_tree(3, 3),
              duplicate_column(gen_random_laminar(9, 12, 3), 4)]
    # the tree DOT of the golden corpus is checked in test_golden_outputs
    for matrix in cases:
        tree = build_phylogeny(matrix)
        assert (tree.node_masks, tree.parent, tree.row_node) == reference_phylogeny(matrix)


def test_find_conflict_matches_sweep_reference_and_is_laminar_on_corpus():
    corpus = differential_corpus()
    assert sum(is_laminar(matrix) for matrix in corpus) >= 30
    for matrix in corpus:
        witness = find_conflict(matrix)
        assert witness == reference_sweep_conflict(matrix)
        assert (witness is None) == is_laminar(matrix)
        if witness is None:
            tree = build_phylogeny(matrix)
            assert (tree.node_masks, tree.parent, tree.row_node) == reference_phylogeny(matrix)
        else:
            with pytest.raises(ConflictError) as err:
                build_phylogeny(matrix)
            assert err.value.witness == witness


def test_every_conflict_witness_is_a_crossing_submatrix():
    # each source's witness, on each conflicting matrix, is the pattern
    # (1,1),(1,0),(0,1) on its rows, in increasing column order
    conflicting = 0
    for matrix in random_corpus(3000, 7, 5):
        witness = find_conflict(matrix)
        if witness is None:
            continue
        conflicting += 1
        assert witness.col_i < witness.col_j
        assert [(matrix.rows[r][witness.col_i], matrix.rows[r][witness.col_j])
                for r in witness.rows] == [(1, 1), (1, 0), (0, 1)]
        assert build_containment(matrix).conflict == witness
        with pytest.raises(ConflictError) as err:
            build_phylogeny(matrix)
        assert err.value.witness == witness
    assert conflicting > 1000


def test_find_conflict_and_phylogeny_each_sweep_once(monkeypatch):
    import cfrs.matrix

    calls = []

    def spy(*args):
        calls.append(args)
        return _laminar_tree(*args)

    monkeypatch.setattr(cfrs.matrix, "_laminar_tree", spy)
    for matrix in (CROSSING_PAIR, with_last_pair_crossing(gen_block_tree(3, 3))):
        calls.clear()
        witness = find_conflict(matrix)
        assert witness is not None and len(calls) == 1
        calls.clear()
        with pytest.raises(ConflictError) as err:
            build_phylogeny(matrix)
        assert err.value.witness == witness and len(calls) == 1


def test_conflict_in_the_last_column_pair_only():
    for matrix in (gen_block_tree(3, 3), gen_random_laminar(30, 50, 2)):
        crossed = with_last_pair_crossing(matrix)
        witness = find_conflict(crossed)
        assert witness == reference_sweep_conflict(crossed)
        n, m = crossed.n, crossed.m
        assert (witness.col_i, witness.col_j) == (n - 2, n - 1)
        assert witness.rows == (m - 2, m - 3, m - 1)
        with pytest.raises(ConflictError):
            build_phylogeny(crossed)


def test_equal_size_supports_sweep():
    # disjoint equal-size supports are laminar, overlapping ones cross
    disjoint = BinaryMatrix(((1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)))
    assert find_conflict(disjoint) is None
    assert build_phylogeny(disjoint).parent == (None, 0, 0, 0)
    overlapping = BinaryMatrix(((1, 0), (1, 1), (0, 1)))
    assert find_conflict(overlapping) == reference_sweep_conflict(overlapping)
    assert find_conflict(overlapping).rows == (1, 0, 2)


def test_find_conflict_on_repeated_rows_matches_sweep_reference():
    rng = random.Random(1103)
    corpus = [with_repeated_rows(matrix, rng)
              for matrix in random_corpus(80, seed=17) + differential_corpus()]
    assert sum(count_distinct_rows(matrix) < matrix.m for matrix in corpus) > 100
    assert sum(is_laminar(matrix) for matrix in corpus) >= 30
    for matrix in corpus:
        witness = find_conflict(matrix)
        assert witness == reference_sweep_conflict(matrix)
        assert (witness is None) == is_laminar(matrix)
        verdict = verify_row_split(matrix, identity_split(matrix))
        assert verdict.ok == (witness is None)
        assert verdict.witness == witness


def test_conflict_of_repeated_rows_names_first_occurrences():
    # every witness row repeats; 11, 10 and 01 first appear as rows 4, 2, 1
    matrix = BinaryMatrix(((0, 1), (1, 0), (1, 0), (1, 1), (0, 1), (1, 1)))
    assert count_distinct_rows(matrix) == 3
    assert matrix.distinct_row_masks == (0b10, 0b01, 0b11)
    witness = find_conflict(matrix)
    assert witness == reference_sweep_conflict(matrix)
    assert witness.rows == (3, 1, 0)


def test_conflict_sweep_transposes_only_repeated_rows(monkeypatch):
    # a matrix with distinct rows reuses its column masks; one with repeated
    # rows transposes its distinct rows alone
    import cfrs.matrix

    distinct = nested_prefix(70, random.Random(70))
    repeated = BinaryMatrix.from_row_masks(distinct.n, distinct.row_masks * 3)
    assert distinct.distinct_row_masks is distinct.row_masks
    assert repeated.distinct_row_masks == distinct.row_masks
    distinct.col_masks  # built once, as for any input; the sweep reuses it
    calls = []

    def counting_transpose(masks, size):
        calls.append(len(masks))
        return transpose(masks, size)

    monkeypatch.setattr(cfrs.matrix, "transpose", counting_transpose)
    assert find_conflict(distinct) is None
    assert find_conflict(repeated) is None
    assert calls == [70]
    assert "col_masks" not in repeated.__dict__


def _random_masks(rng, count, size, density):
    return [sum(1 << j for j in range(size) if rng.random() < density)
            for _ in range(count)]


EDGES = (1, 63, 64, 65, 127, 128, 129)


def test_transpose_matches_per_bit_reference_across_word_edges():
    rng = random.Random(64)
    for count in EDGES:
        for size in EDGES:
            for density in (0.01, 0.1, 0.5, 0.9):
                masks = _random_masks(rng, count, size, density)
                assert transpose(masks, size) == reference_transpose(masks, size)


def test_transpose_of_no_masks_is_all_zero():
    for size in (0, 1, 64, 65):
        assert transpose((), size) == (0,) * size
        assert transpose([], size) == (0,) * size


def test_transpose_across_band_edges():
    rng = random.Random(4096)
    for count in (_BAND - 1, _BAND, _BAND + 1, 2 * _BAND + 1):
        for size in (1, 70):
            masks = _random_masks(rng, count, size, 0.3)
            assert transpose(masks, size) == reference_transpose(masks, size)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200).flatmap(lambda size: st.tuples(
    st.just(size), st.lists(st.integers(0, (1 << size) - 1), max_size=150))))
def test_transpose_property(case):
    size, masks = case
    cols = transpose(masks, size)
    assert cols == reference_transpose(masks, size)
    assert transpose(cols, len(masks)) == tuple(masks)


def test_from_col_masks_round_trips_on_corpus():
    for matrix in differential_corpus():
        assert BinaryMatrix.from_col_masks(matrix.m, matrix.col_masks) == matrix


def _sweep_corpus():
    laminar = [nested_prefix(m, random.Random(m)) for m in (1, 2, 63, 64, 65, 130, 200)]
    laminar += [gen_block_tree(2, h) for h in range(2, 9)]
    laminar += [gen_block_tree(3, h) for h in range(2, 6)]
    laminar += [gen_random_laminar(m, k, seed) for seed in range(3)
                for m, k in ((40, 79), (100, 150), (150, 299), (200, 300))]
    crossed = [with_last_pair_crossing(matrix) for matrix in laminar[::2]]
    # equal-size supports that cross, alone and under a common superset
    crossed += [BinaryMatrix(((1, 0), (1, 1), (0, 1))),
                BinaryMatrix(((1, 0, 1), (1, 1, 1), (0, 1, 1), (0, 0, 1))),
                BinaryMatrix(((1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1)))]
    return laminar, crossed


def test_laminar_sweep_matches_decreasing_size_reference():
    laminar, crossed = _sweep_corpus()
    # on all rows, ordered by size over the first rows, a failed sweep names
    # the same witness as find_conflict's sweep over the distinct rows
    for matrix in differential_corpus() + laminar + crossed:
        tree = _laminar_tree(matrix.col_masks, matrix.m, _first_rows(matrix))
        assert tree == (reference_laminar_tree(matrix) or reference_sweep_conflict(matrix))
    assert all(type(_laminar_tree(matrix.col_masks, matrix.m, _first_rows(matrix))) is tuple
               for matrix in laminar)
    assert all(isinstance(_laminar_tree(matrix.col_masks, matrix.m, _first_rows(matrix)),
                          ConflictWitness) for matrix in crossed)


def test_first_rows_matches_first_occurrence_formula(monkeypatch):
    # the bitset of rows first with their pattern, as mask_of of each
    # pattern's first index, with no mask_of call
    import cfrs.matrix

    rng = random.Random(3434)
    corpus = differential_corpus()
    repeated = [with_repeated_rows(matrix, rng) for matrix in corpus]
    repeated.append(BinaryMatrix.from_row_masks(3, [5, 5, 2, 5, 2, 7, 7]))
    expected = [mask_of(dict(zip(m.row_masks[::-1], range(m.m - 1, -1, -1))).values())
                for m in corpus + repeated]
    calls = []
    monkeypatch.setattr(cfrs.matrix, "mask_of", calls.append)
    assert [_first_rows(matrix) for matrix in corpus + repeated] == expected
    assert calls == []
    assert _first_rows(repeated[-1]) == 0b100101  # rows 0, 2 and 5
    assert sum(matrix.distinct_row_masks is not matrix.row_masks for matrix in repeated) > 50


def test_laminar_sweep_writes_each_row_node_once(monkeypatch):
    # the sweep assigns row_node[r] for exactly the rows bits_of yields it
    import cfrs.matrix

    laminar, _ = _sweep_corpus()
    for matrix in laminar:
        written = []

        def counting_bits_of(mask):
            for r in bits_of(mask):
                written.append(r)
                yield r

        monkeypatch.setattr(cfrs.matrix, "bits_of", counting_bits_of)
        tree = _laminar_tree(matrix.col_masks, matrix.m, _first_rows(matrix))
        monkeypatch.undo()
        assert tree == reference_laminar_tree(matrix)
        assert sorted(written) == list(range(matrix.m))


def _per_bit(items, mask):
    return [items[i] for i in bits_of(mask)]


def _at_cutoff(length):
    """Two masks of the given bit length: one with the most set bits that
    select still walks bit by bit, and one with a bit more."""
    most = (length + 8 * _SPARSE) // _SPARSE
    walked = 1 << (length - 1) | (1 << (most - 1)) - 1
    return walked, walked | 1 << (most - 1)


def test_select_matches_per_bit_walk():
    ints = list(range(4200))
    names = [f"r{i + 1}" for i in range(4200)]
    masks = [0, 1, 1 << 63, 1 << 64, 1 << 65, 1 << 4095,
             int("10" * 65, 2), int("01" * 65, 2), (1 << 130) - 1]
    for length in (32, 64, 150, 450, 1500, 4096):
        walked, rendered = _at_cutoff(length)
        assert walked.bit_length() == rendered.bit_length() == length
        assert walked.bit_count() * _SPARSE <= length + 8 * _SPARSE
        assert rendered.bit_count() * _SPARSE > length + 8 * _SPARSE
        masks += [walked, rendered, walked >> 1, (1 << length) - 1]
    for mask in masks:
        assert select(ints, mask) == _per_bit(ints, mask) == list(bits_of(mask))
        assert select(names, mask) == _per_bit(names, mask)


def test_select_picks_holder_masks_for_the_holder_and():
    rng = random.Random(64)
    holders = [rng.getrandbits(200) | 1 << 200 for _ in range(300)]
    for r in (0, 63, 64, 65, 299):
        assert reduce(and_, select(holders, 1 << r), -1) == holders[r]
    for density in (0.02, 0.3, 0.9):
        mask = sum(1 << r for r in range(300) if rng.random() < density)
        assert select(holders, mask) == _per_bit(holders, mask)
        expected = -1
        for r in bits_of(mask):
            expected &= holders[r]
        assert reduce(and_, select(holders, mask), -1) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(lambda size: st.tuples(
    st.just(size), st.floats(0, 1), st.randoms(use_true_random=False))))
def test_select_property(case):
    size, density, rng = case
    mask = sum(1 << i for i in range(size) if rng.random() < density)
    items = [f"x{i}" for i in range(size)]
    assert select(items, mask) == _per_bit(items, mask)
