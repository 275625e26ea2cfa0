import random

import pytest
from hypothesis import given, settings

import cfrs.containment
from cfrs import (
    ContainmentDigraph,
    Dag,
    build_containment,
    find_conflict,
    gen_block_tree,
    gen_random,
    gen_random_laminar,
    height,
    maximum_antichain,
    width,
)
from cfrs.matrix import BinaryMatrix, ConflictWitness, bits_of, mask_of, transpose

from tests.helpers import (
    CROSSING_PAIR,
    NESTED_PAIR,
    dag_arcs,
    differential_corpus,
    duplicate_column,
    elementary_arcs,
    nested_prefix,
    oracle_longest_chain,
    oracle_max_antichain_size,
    random_corpus,
    reference_containment,
    reference_height,
    reference_kahn_order,
    reference_width,
    transitive_closure,
    with_last_pair_crossing,
    with_repeated_rows,
)
from tests.strategies import dags
from tests.test_golden_outputs import corpus, wide_corpus


def test_dag_rejects_cycles_and_bad_arcs():
    with pytest.raises(ValueError, match="digraph contains a cycle"):
        Dag(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        Dag(2, [(0, 0)])
    with pytest.raises(ValueError, match=r"arc \(0,2\) is out of range"):
        Dag(2, [(0, 2)])
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Dag(-1)
    for supports in ((0b01, 0b01), (0b01, 0)):  # repeated, empty
        with pytest.raises(ValueError, match="vertex supports must be distinct and nonempty"):
            ContainmentDigraph(supports, 1, (0, 1), 0b1)


def test_build_containment_nested():
    d = build_containment(NESTED_PAIR)
    assert d.n == 2
    assert d.supports == (0b01, 0b11)
    assert dag_arcs(d) == frozenset({(0, 1)})
    assert set(bits_of(d.supports[1])) == {0, 1}


def test_build_containment_crossing_has_no_arcs():
    d = build_containment(CROSSING_PAIR)
    assert d.n == 2
    assert dag_arcs(d) == frozenset()


def test_build_containment_block_tree():
    d = build_containment(gen_block_tree(3, 3))
    assert d.n == 13
    # each singleton reaches its block of three and the root
    for v in range(9):
        assert d.out(v) == (9 + v // 3, 12)
    for v in range(9, 12):
        assert d.out(v) == (12,)
    assert d.out(12) == ()


def test_height_cases():
    assert height(build_containment(CROSSING_PAIR)) == 1
    chain = BinaryMatrix(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
    assert height(build_containment(chain)) == 3
    assert height(build_containment(gen_block_tree(3, 3))) == 3


def test_width_cases():
    chain = BinaryMatrix(((1, 1, 1), (0, 1, 1), (0, 0, 1)))
    assert width(build_containment(chain)) == 1
    assert width(Dag(4)) == 4
    assert width(build_containment(gen_block_tree(3, 3))) == 9


def test_elementary_arcs_removes_shortcut():
    d = Dag(3, [(0, 1), (1, 2), (0, 2)])
    assert elementary_arcs(d) == {(0, 1), (1, 2)}
    assert elementary_arcs(Dag(3)) == frozenset()


def test_elementary_arcs_block_tree_are_parent_arcs():
    d = build_containment(gen_block_tree(3, 3))
    expected = {(v, 9 + v // 3) for v in range(9)} | {(v, 12) for v in range(9, 12)}
    assert elementary_arcs(d) == expected


@settings(max_examples=100, deadline=None)
@given(dags())
def test_height_matches_path_enumeration(dag):
    assert height(dag) == oracle_longest_chain(dag)


@settings(max_examples=100, deadline=None)
@given(dags())
def test_width_matches_subset_enumeration(dag):
    assert width(dag) == oracle_max_antichain_size(dag)


def test_containment_is_transitively_closed_on_corpus():
    for matrix in random_corpus(60, seed=7):
        d = build_containment(matrix)
        assert transitive_closure(d) == dag_arcs(d)
        # chains of the digraph are exactly directed paths: closing the
        # reduction recovers the arc set
        reduced = Dag(d.n, elementary_arcs(d))
        assert transitive_closure(reduced) == dag_arcs(d)


def test_width_equals_maximum_antichain_on_corpus():
    for matrix in random_corpus(60, seed=8):
        d = build_containment(matrix)
        antichain = maximum_antichain(d)
        assert antichain.bit_count() == width(d)


def test_height_width_invariant_under_duplicate_columns():
    for matrix in random_corpus(40, seed=9):
        doubled = duplicate_column(matrix, 0)
        d0, d1 = build_containment(matrix), build_containment(doubled)
        assert d0.supports == d1.supports
        assert height(d0) == height(d1)
        assert width(d0) == width(d1)


def _masks(n, arcs, head):
    return tuple(mask_of(arc[1 - head] for arc in arcs if arc[head] == v) for v in range(n))


def _check_against_reference(dag, arcs, closure):
    n = dag.n
    assert dag_arcs(dag) == arcs
    assert dag.out_masks == _masks(n, arcs, 0)
    assert dag.in_masks == _masks(n, arcs, 1)
    assert all(dag.out(v) == tuple(sorted(w for u, w in arcs if u == v)) and
               tuple(bits_of(dag.in_masks[v])) == tuple(sorted(u for u, w in arcs if w == v))
               for v in range(n))
    assert dag.reach == _masks(n, closure, 0)
    assert dag.topological_order == reference_kahn_order(n, arcs)
    assert height(dag) == reference_height(n, arcs)
    assert width(dag) == reference_width(n, closure)
    if n <= 9:
        assert width(dag) == oracle_max_antichain_size(dag)


def test_containment_masks_match_pairwise_reference():
    for matrix in differential_corpus():
        d = build_containment(matrix)
        supports, arcs = reference_containment(matrix)
        assert d.supports == supports
        # proper inclusion is transitive: the arcs are their own closure
        _check_against_reference(d, arcs, arcs)


def test_containment_masks_match_pairwise_reference_across_words():
    # supports and closure masks of more than one 64-bit word, dense and
    # sparse: the holder AND, the closure lists and Dag.out take both of
    # select's paths
    wide = [nested_prefix(130, random.Random(130)),
            gen_random(70, 130, 0.03, 0), gen_random(70, 130, 0.5, 0),
            gen_random_laminar(100, 150, 0)]
    for matrix in wide:
        d = build_containment(matrix)
        supports, arcs = reference_containment(matrix)
        assert d.supports == supports
        _check_against_reference(d, arcs, arcs)
        assert width(d) == maximum_antichain(d).bit_count()


def _top_pair_crossing(matrix):
    """Two new columns, each every old row plus its own new row: they cross,
    and the sweep fails at the last support it visits."""
    full = (1 << matrix.m) - 1
    return BinaryMatrix.from_col_masks(
        matrix.m + 2, matrix.col_masks + (full | 1 << matrix.m, full | 2 << matrix.m))


def _tree_path_corpus():
    rng = random.Random(2291)
    laminar = [gen_random_laminar(m, k, seed) for seed in range(24)
               for m, k in ((1, 1), (seed + 2, 1), (seed + 2, 2 * seed + 3),
                            (3 * seed + 5, rng.randint(1, 6 * seed + 9)))]
    laminar += [nested_prefix(m, random.Random(m)) for m in (1, 63, 64, 65, 130)]
    laminar += [gen_block_tree(2, 5), gen_block_tree(3, 3), gen_block_tree(5, 2),
                BinaryMatrix.from_col_masks(3, (0b111, 0b001, 0b011))]  # root first
    laminar += [duplicate_column(matrix, rng.randrange(matrix.n)) for matrix in laminar[::5]]
    laminar += [with_repeated_rows(matrix, rng) for matrix in laminar[::7]]
    crossed = [cross(matrix) for cross in (with_last_pair_crossing, _top_pair_crossing)
               for matrix in laminar[::3]]
    return laminar, crossed


def test_tree_and_holder_and_builds_match_pairwise_reference(monkeypatch):
    # laminar input takes the phylogeny-tree build, crossed input the
    # holder AND; forced onto the holder AND, both give the same masks
    laminar, crossed = _tree_path_corpus()
    built = []
    for matrix in laminar + crossed:
        supports, arcs = reference_containment(matrix)
        d = build_containment(matrix)
        assert d.supports == supports
        assert d.out_masks == _masks(d.n, arcs, 0)
        built.append(d.out_masks)
    monkeypatch.setattr(cfrs.containment, "_laminar_tree",
                        lambda supports, m, first: ConflictWitness(0, 0, (0, 0, 0)))
    assert [build_containment(matrix).out_masks for matrix in laminar + crossed] == built


def test_only_a_crossing_pair_reaches_the_holder_and(monkeypatch):
    calls = []
    def spy(masks, size):
        calls.append(size)
        return transpose(masks, size)
    monkeypatch.setattr(cfrs.containment, "transpose", spy)
    laminar, crossed = _tree_path_corpus()
    for matrix in laminar:
        build_containment(matrix)
    assert calls == []
    for matrix in crossed:
        calls.clear()
        build_containment(matrix)
        assert calls == [matrix.m]


def test_laminar_flag_is_the_conflict_check():
    # `cfrs analyze` reads the build's witness instead of running a sweep again
    matrices = differential_corpus() + list(corpus().values()) + list(wide_corpus().values())
    witnesses = [build_containment(matrix).conflict for matrix in matrices]
    assert witnesses == [find_conflict(matrix) for matrix in matrices]
    assert None in witnesses and any(w is not None for w in witnesses)


def test_plain_dag_masks_match_reference_on_random_arc_lists():
    rng = random.Random(8086)
    for _ in range(400):
        n = rng.randint(0, 12)
        label = list(range(n))
        rng.shuffle(label)
        arcs = [(label[u], label[v]) for u in range(n) for v in range(u + 1, n)
                if rng.random() < rng.choice((0.1, 0.3, 0.6))]
        listed = arcs + rng.sample(arcs, len(arcs) // 3)  # repeated arcs
        rng.shuffle(listed)
        closure = set(arcs)
        for w in range(n):  # Warshall
            closure |= {(u, v) for u, x in closure if x == w for y, v in closure if y == w}
        _check_against_reference(Dag(n, listed), frozenset(arcs), frozenset(closure))
