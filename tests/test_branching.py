import hashlib
import os
import random
import subprocess
import sys
from math import inf
from pathlib import Path

import pytest

import cfrs
from cfrs import (
    BinaryMatrix,
    Branching,
    approx_distinct_2,
    approx_height,
    BudgetError,
    branching_split,
    branching_state_count,
    brute_force_vertex_cover,
    build_containment,
    count_distinct_rows,
    exact_min_irreducible,
    exact_min_uncovered,
    gen_block_tree,
    gen_ib_reduction,
    gen_random,
    gen_random_laminar,
    gen_vc_reduction,
    linear_from_chains,
    solve_linear_heuristic,
    split_to_branching,
    verify_row_split,
)
from cfrs.branching import (
    DEFAULT_BUDGET,
    _decision_order,
    _lone_heads_bound,
    _lone_rows_bound,
    _suffix_tables,
)
from cfrs.matrix import MatrixError, RowSplit
from cfrs.poset import partition_price

from tests.helpers import (
    CROSSING_PAIR,
    NESTED_PAIR,
    branching_from_arcs,
    chains_from_linear,
    differential_corpus,
    dilworth_partition,
    duplicate_column,
    identity_split,
    irreducible_vertices,
    iter_branchings,
    k33,
    k4,
    nested_prefix,
    prism,
    q3,
    random_branching,
    random_corpus,
    reference_branching_split,
    reference_decision_order,
    reference_distinct_2_split,
    reference_exact_minimize,
    reference_lookahead_minimize,
    reference_split_to_branching,
    reference_sweep_conflict,
    uncovered_pairs,
    with_repeated_split_rows,
)

D_CROSS = build_containment(CROSSING_PAIR)
D_NEST = build_containment(NESTED_PAIR)


def enumerable(digraph, cap=1500):
    return branching_state_count(digraph) <= cap


def test_validate_branching():
    split = branching_split(CROSSING_PAIR, Branching.empty(2), D_CROSS)
    assert verify_row_split(CROSSING_PAIR, split).ok
    matrix = gen_block_tree(2, 3)
    d = build_containment(matrix)
    chains = dilworth_partition(d)
    split = branching_split(matrix, linear_from_chains(chains), d)
    assert verify_row_split(matrix, split).ok


def test_branching_split_rejects_invalid_branchings():
    with pytest.raises(ValueError) as wrong_length:
        branching_split(CROSSING_PAIR, Branching.empty(1), D_CROSS)
    assert str(wrong_length.value) == \
        "invalid branching: branching covers 1 vertices, digraph has 2"
    with pytest.raises(ValueError) as non_arc:
        branching_split(CROSSING_PAIR, branching_from_arcs(2, [(0, 1)]), D_CROSS)
    assert str(non_arc.value) == "invalid branching: (0,1) is not an arc of the digraph"
    with pytest.raises(ValueError, match="digraph does not belong to this matrix"):
        branching_split(CROSSING_PAIR, Branching.empty(2), D_NEST)


def test_branching_encoding_rejects_double_tail():
    with pytest.raises(ValueError):
        branching_from_arcs(3, [(0, 1), (0, 2)])


def test_uncovered_and_irreducible_empty_branching():
    pairs = uncovered_pairs(D_CROSS, Branching.empty(2))
    assert len(pairs) == 4 == sum(s.bit_count() for s in D_CROSS.supports)
    assert irreducible_vertices(D_CROSS, Branching.empty(2)) == {0, 1}


def test_uncovered_nested_with_arc():
    b = branching_from_arcs(2, [(0, 1)])
    assert uncovered_pairs(D_NEST, b) == ((0, 0), (1, 1))
    assert irreducible_vertices(D_NEST, b) == {0, 1}


def test_uncovered_block_tree_optimal_branching():
    d = build_containment(gen_block_tree(3, 3))
    b = Branching(tuple(9 + v // 3 for v in range(9)) + (12, 12, 12) + (None,))
    assert all(v is None or d.is_arc(u, v) for u, v in enumerate(b.choice))
    assert len(uncovered_pairs(d, b)) == 9
    assert irreducible_vertices(d, b) == frozenset(range(9))


def test_branching_split_nested_examples():
    b = branching_from_arcs(2, [(0, 1)])
    split = branching_split(NESTED_PAIR, b, build_containment(NESTED_PAIR))
    assert split.matrix.rows == NESTED_PAIR.rows
    assert split.groups == ((0,), (1,))
    empty = branching_split(NESTED_PAIR, Branching.empty(2), build_containment(NESTED_PAIR))
    assert empty.matrix.rows == ((1, 0), (0, 1), (0, 1))
    assert empty.groups == ((0, 1), (2,))


def test_branching_split_block_tree_optimal():
    m = gen_block_tree(3, 3)
    d = build_containment(m)
    b = Branching(tuple(9 + v // 3 for v in range(9)) + (12, 12, 12) + (None,))
    split = branching_split(m, b, d)
    assert split.matrix.m == 9
    assert count_distinct_rows(split.matrix) == 9
    assert verify_row_split(m, split).ok


def test_split_to_branching_identity():
    b = split_to_branching(NESTED_PAIR, identity_split(NESTED_PAIR))
    assert b.choice == (1, None)
    assert len(uncovered_pairs(D_NEST, b)) == 2


def test_split_to_branching_rejects_invalid():
    with pytest.raises(MatrixError):
        split_to_branching(CROSSING_PAIR, identity_split(CROSSING_PAIR))


def test_split_row_and_distinct_counts_match_branching_on_corpus():
    # every branching's split verifies conflict-free, has one row per
    # uncovered pair and one distinct row per irreducible vertex
    checked = 0
    for matrix in random_corpus(120, seed=13):
        d = build_containment(matrix)
        if not enumerable(d):
            continue
        for b in iter_branchings(d):
            split = branching_split(matrix, b, d)
            assert verify_row_split(matrix, split).ok
            assert split.matrix.m == len(uncovered_pairs(d, b))
            assert count_distinct_rows(split.matrix) == len(irreducible_vertices(d, b))
            checked += 1
    assert checked > 300


def test_split_to_branching_matches_elementary_arc_reference():
    checked = 0
    for matrix in random_corpus(120, seed=13) + differential_corpus():
        d = build_containment(matrix)
        splits = [solve(matrix)[0] for solve in
                  (approx_height, approx_distinct_2, solve_linear_heuristic)]
        if enumerable(d):
            splits += [branching_split(matrix, b, d) for b in iter_branchings(d)]
        for split in splits:
            assert split_to_branching(matrix, split) == \
                reference_split_to_branching(matrix, split)
            checked += 1
    # source row 11 split into 10/01: the representative column alone has
    # an all-zero split row; then a support holding every row, and supports
    # crossing the 64- and 128-bit word boundaries
    duplicate = BinaryMatrix(((1, 1),))
    cases = [(duplicate, RowSplit(BinaryMatrix(((1, 0), (0, 1))), ((0, 1),))),
             (NESTED_PAIR, identity_split(NESTED_PAIR))]
    wide = nested_prefix(130, random.Random(130))
    cases.append((wide, approx_height(wide)[0]))
    for matrix, split in cases:
        assert split_to_branching(matrix, split) == \
            reference_split_to_branching(matrix, split)
    assert split_to_branching(*cases[0]) == Branching((None,))
    assert split_to_branching(*cases[1]) == Branching((1, None))
    assert checked > 4000


def test_repeated_split_rows_keep_verdict_and_branching():
    # split rows repeated inside their groups and shuffled: the verdict, the
    # named witness and the extracted branching are those of the sweep-order
    # conflict reference and the elementary-arc reference
    rng = random.Random(1104)
    accepted = rejected = 0
    for matrix in random_corpus(80, seed=17) + differential_corpus():
        for split in (identity_split(matrix), approx_height(matrix)[0]):
            repeated = with_repeated_split_rows(split, rng)
            verdict = verify_row_split(matrix, repeated)
            assert verdict.ok == verify_row_split(matrix, split).ok
            if not verdict.ok:
                assert verdict.witness == reference_sweep_conflict(repeated.matrix)
                rejected += 1
                continue
            back = split_to_branching(matrix, repeated)
            assert back == reference_split_to_branching(matrix, repeated)
            assert back == split_to_branching(matrix, split)
            accepted += 1
    assert accepted > 150 and rejected > 50


def test_round_trip_never_increases_uncovered_pairs():
    for matrix in random_corpus(40, seed=14):
        d = build_containment(matrix)
        if not enumerable(d, cap=200):
            continue
        for b in iter_branchings(d):
            split = branching_split(matrix, b, d)
            back = split_to_branching(matrix, split)
            assert len(uncovered_pairs(d, back)) <= len(uncovered_pairs(d, b))
            assert len(irreducible_vertices(d, back)) <= count_distinct_rows(split.matrix)


def test_adding_an_arc_only_shrinks_uncovered_pairs():
    rng = random.Random(15)
    for matrix in random_corpus(60, seed=15):
        d = build_containment(matrix)
        choice = list(Branching.empty(d.n).choice)
        # random partial branching
        for v in range(d.n):
            opts = d.out(v)
            if opts and rng.random() < 0.5:
                choice[v] = rng.choice(opts)
        base = Branching(tuple(choice))
        free = [v for v in range(d.n) if choice[v] is None and d.out(v)]
        if not free:
            continue
        v = rng.choice(free)
        choice[v] = rng.choice(d.out(v))
        grown = Branching(tuple(choice))
        assert set(uncovered_pairs(d, grown)) <= set(uncovered_pairs(d, base))


def test_exact_crossing_pair():
    assert exact_min_uncovered(D_CROSS)[1] == 4
    assert exact_min_irreducible(D_CROSS)[1] == 2


def test_exact_block_tree():
    d = build_containment(gen_block_tree(3, 3))
    branching, value = exact_min_uncovered(d)
    assert value == 9
    assert len(uncovered_pairs(d, branching)) == 9


def test_exact_vc_reduction_k4():
    d = build_containment(gen_vc_reduction(k4()))
    assert exact_min_uncovered(d)[1] == 35  # 8 * 4 + vertex cover 3


def exact_corpus():
    """Seeded random and laminar matrices, block trees, vc/ib reductions
    of K4, K3,3 and Q3, and copies of some of them with a duplicate column."""
    rng = random.Random(5150)
    corpus = random_corpus(60, seed=16) + random_corpus(40, max_side=8, seed=515)
    corpus += [gen_random_laminar(m, k, seed)
               for seed in range(4) for m, k in ((4, 6), (8, 12), (12, 16))]
    corpus += [gen_block_tree(2, 4), gen_block_tree(3, 3)]
    corpus += [gen(graph()) for graph in (k4, k33, q3)
               for gen in (gen_vc_reduction, gen_ib_reduction)]
    corpus += [duplicate_column(matrix, rng.randrange(matrix.n))
               for matrix in corpus[::4]]
    return corpus


def test_exact_matches_full_enumeration_on_corpus():
    # the look-ahead bound only prunes: the first optimum in the search
    # order, hence the branching itself, is what the earlier search found
    objectives = ((exact_min_uncovered, int.bit_count, uncovered_pairs),
                  (exact_min_irreducible, lambda mask: 1 if mask else 0,
                   irreducible_vertices))
    enumerated = 0
    for matrix in exact_corpus():
        d = build_containment(matrix)
        for solve, cost, kept in objectives:
            found = solve(d)
            assert found == reference_exact_minimize(d, cost)
            if enumerable(d, cap=400):
                enumerated += 1
                assert found[1] == min(len(kept(d, b)) for b in iter_branchings(d))
    assert enumerated >= 100


def test_none_free_branchings_hold_an_optimum():
    # choosing an arc only grows the cover of its head, so some optimum has
    # every vertex with an out-arc take one: the exact search's first pass
    # minimizes over those branchings alone
    checked = 0
    for matrix in exact_corpus():
        d = build_containment(matrix)
        if not enumerable(d, cap=400):
            continue
        for kept in (uncovered_pairs, irreducible_vertices):
            every, none_free = [], []
            for b in iter_branchings(d):
                every.append(len(kept(d, b)))
                if all(c is not None or not d.out(v) for v, c in enumerate(b.choice)):
                    none_free.append(every[-1])
            assert min(none_free) == min(every)
            checked += 1
    assert checked >= 100


def test_exact_matches_reference_on_petersen_reductions():
    # the heaviest searches the benchmark runs: 8n + tau rows on the vc
    # reduction and |E| + tau distinct rows on the ib reduction
    petersen = prism(5, 2)
    tau = brute_force_vertex_cover(petersen)
    for gen, solve, cost, optimum in (
            (gen_vc_reduction, exact_min_uncovered, int.bit_count, 8 * petersen.n + tau),
            (gen_ib_reduction, exact_min_irreducible, bool, len(petersen.edges) + tau)):
        d = build_containment(gen(petersen))
        found = solve(d)
        assert found == reference_exact_minimize(d, cost)
        assert found[1] == optimum


def test_exact_matches_reference_on_differential_corpus():
    # the descent ends at the first optimum of the full search order, the
    # branching the earlier branch-and-bound returns.  The look-ahead
    # reference stands in for that one on the laminar 30x40 distinct
    # solves below, where it takes over a minute; it must agree with it here.
    # In the extra matrix, pass 1's witness has vertices 1, 4 and 5 choose
    # vertex 0 (rows 1-3): 1 and 4 both cover row 1, 5 covers rows 2 and 3.
    # The distinct descent moves 4 to None by the one-move shortcut; after
    # that move, 1 can no longer leave vertex 0 without uncovering row 1
    shared_head = BinaryMatrix(((0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0),
                                (1, 1, 1, 0, 0, 1), (1, 0, 1, 0, 0, 1)))
    # On these two, a descent that skips the arcs before the witness's but
    # runs its subsearches from the witness's arcs onward ends at a later
    # distinct optimum.  The first has 121,651,200 branchings, beyond the
    # default budget, so both are solved with a budget of their own size
    witness_first = [BinaryMatrix(rows.split()) for rows in (
        "0011101001110010 1101100100010111 0100001001011010 0000100010011001 0101111010111101",
        "1010001010101011 1110111000000100 1000000100101010 0000000001010100 0011000110100100")]
    solved = 0
    for matrix in differential_corpus() + [shared_head] + witness_first:
        d = build_containment(matrix)
        budget = branching_state_count(d)
        if budget > DEFAULT_BUDGET and matrix not in witness_first:
            continue
        for solve, cost in ((exact_min_uncovered, int.bit_count),
                            (exact_min_irreducible, bool)):
            expected = reference_exact_minimize(d, cost)
            assert solve(d, budget=budget) == expected
            if cost is bool:
                assert reference_lookahead_minimize(d, cost) == expected
            solved += 1
    assert solved >= 200


def test_exact_on_laminar_30x40_beyond_the_default_budget():
    # the row optimum of a conflict-free matrix is m, and the distinct
    # optimum lies between the source count and the distinct-row count.
    # Distinct optima tie often here, so the descent's one-move shortcut
    # fires, and it must still end at the first optimum
    for seed in range(3):
        matrix = gen_random_laminar(30, 40, seed)
        d = build_containment(matrix)
        states = branching_state_count(d)
        sources = sum(1 for mask in d.in_masks if mask == 0)
        assert exact_min_uncovered(d, budget=states)[1] == 30
        found = exact_min_irreducible(d, budget=states)
        assert found == reference_lookahead_minimize(d, bool)
        assert sources <= found[1] <= count_distinct_rows(matrix)


def test_exact_rows_on_ib_reductions():
    # rows are the edges; an edge's row stays uncovered at its singleton
    # and at the triple of the endpoint its singleton does not choose, so
    # every branching in which each singleton picks an endpoint costs the
    # optimum 2|E| rows, and all of them tie
    for graph in (prism(5, 1), prism(5, 2)):
        matrix = gen_ib_reduction(graph)
        d = build_containment(matrix)
        branching, value = exact_min_uncovered(d)
        assert value == len(uncovered_pairs(d, branching)) == 2 * len(graph.edges) == 30
        assert verify_row_split(matrix, branching_split(matrix, branching, d)).ok


def test_lone_holder_bound_never_exceeds_the_best_completion():
    # at a random node of the search order (a prefix of choices, None
    # allowed), the look-ahead plus the lone-holder bound is at most the
    # cheapest completion, found by enumerating every branching.  The
    # bound from the exact search's tables equals the bound over every
    # undecided chooser and all its heads
    rng = random.Random(2017)
    nodes = positive = 0
    matrices = exact_corpus() + differential_corpus()
    matrices += [gen(k4()) for gen in (gen_vc_reduction, gen_ib_reduction)]
    for matrix in matrices:
        d = build_containment(matrix)
        if not enumerable(d, cap=2000):
            continue
        k, supports = d.n, d.supports
        out_nbrs = [d.out(v) for v in range(k)]
        choosers = [v for v in reference_decision_order(d) if out_nbrs[v]]
        every = list(iter_branchings(d))
        suf, suf2, holders, first_holder = _suffix_tables(supports, out_nbrs, choosers)
        for distinct, kept in ((False, uncovered_pairs), (True, irreducible_vertices)):
            cost = bool if distinct else int.bit_count
            values = [len(kept(d, b)) for b in every]
            for _ in range(12 if holders else 2):
                t = rng.randint(0, len(choosers))
                prefix = {v: rng.choice((None, *out_nbrs[v])) for v in choosers[:t]}
                cover, held = [0] * k, [[] for _ in range(k)]
                for v, c in prefix.items():
                    if c is not None:
                        cover[c] |= supports[v]
                for v in choosers[t:]:
                    for u in out_nbrs[v]:
                        held[u].append(supports[v])
                pending = [len(h) for h in held]
                twice = [0] * k  # rows held by two or more undecided in-neighbors
                for u, h in enumerate(held):
                    seen = 0
                    for mask in h:
                        twice[u] |= seen & mask
                        seen |= mask
                    assert (suf[u][pending[u]], suf2[u][pending[u]]) == (seen, twice[u])
                charge = [cost(supports[u] & ~(cover[u] | suf[u][pending[u]]))
                          for u in range(k)]
                # the same bound, with every undecided chooser and head
                every_holder = [(supports[v], tuple(out_nbrs[v])) for v in choosers[t:]]
                by_definition = (every_holder, cover, [[mask] for mask in twice], [0] * k, 0, inf)
                if distinct:
                    bound = _lone_heads_bound(holders, cover, suf2, pending,
                                              first_holder[t], inf, charge=charge)
                    assert bound == _lone_heads_bound(*by_definition, charge=charge)
                else:
                    bound = _lone_rows_bound(holders, cover, suf2, pending,
                                             first_holder[t], inf)
                    assert bound == _lone_rows_bound(*by_definition)
                best = min(value for b, value in zip(every, values)
                           if all(b.choice[v] == c for v, c in prefix.items()))
                assert sum(charge) + bound <= best
                nodes += 1
                positive += bound > 0
    assert nodes >= 1500 and positive >= 250


def test_lone_holder_bound_at_the_root_of_ib_reductions(monkeypatch):
    # every edge's row is lone at both endpoint triples of its singleton,
    # which relieves it at one of them: with the look-ahead's |E| source
    # rows, the root bound on rows is the optimum 2|E|.  For distinct rows
    # a singleton whose two triples are both fresh leaves one of them
    # irreducible, so the bound adds a matching of the graph, here a
    # perfect one.  The exact search computes the same root bound first
    seen = []

    def spying(bound):
        def spy(*args, **kwargs):
            seen.append(bound(*args, **kwargs))
            return seen[-1]
        return spy

    monkeypatch.setattr(cfrs.branching, "_lone_rows_bound", spying(_lone_rows_bound))
    monkeypatch.setattr(cfrs.branching, "_lone_heads_bound", spying(_lone_heads_bound))
    for graph in (k4(), prism(5, 1), prism(6, 1)):
        d = build_containment(gen_ib_reduction(graph))
        out_nbrs = [d.out(v) for v in range(d.n)]
        choosers = [v for v in reference_decision_order(d) if out_nbrs[v]]
        suf, suf2, holders, _ = _suffix_tables(d.supports, out_nbrs, choosers)
        pending = [len(s) - 1 for s in suf]
        args = (holders, [0] * d.n, suf2, pending, 0, inf)
        for distinct, solve, cost, extra in (
                (False, exact_min_uncovered, int.bit_count, len(graph.edges)),
                (True, exact_min_irreducible, bool, graph.n // 2)):
            charge = [cost(d.supports[u] & ~suf[u][-1]) for u in range(d.n)]
            bound = (_lone_heads_bound(*args, charge=charge) if distinct
                     else _lone_rows_bound(*args))
            assert sum(charge) == len(graph.edges) and bound == extra
            seen.clear()
            solve(d, budget=branching_state_count(d))
            assert seen[0] == bound  # the search's first bound is the root's


def test_exact_on_ib_prisms_beyond_the_default_budget():
    # 2|E| rows and |E| + tau distinct rows, as on the benchmark's ib inputs;
    # the lone-holder bound proves the row optimum at the root
    for n in (6, 7):
        graph = prism(n, 1)
        matrix = gen_ib_reduction(graph)
        d = build_containment(matrix)
        states = branching_state_count(d)
        assert states > DEFAULT_BUDGET
        tau = brute_force_vertex_cover(graph)
        for solve, kept, optimum in (
                (exact_min_uncovered, uncovered_pairs, 2 * len(graph.edges)),
                (exact_min_irreducible, irreducible_vertices, len(graph.edges) + tau)):
            branching, value = solve(d, budget=states)
            assert value == len(kept(d, branching)) == optimum
            assert verify_row_split(matrix, branching_split(matrix, branching, d)).ok


def test_exact_first_optima_beyond_the_reference():
    # optima and sha256 digests of the first optimal branchings, computed
    # once with earlier versions of the search: the sparse random ones
    # before the lone-holder bound, which took about a second on seed 0,
    # the rest before the descent tested None alone.  The 10-prism's vc
    # reduction runs the descent's failing None subsearches, and the
    # laminar matrix makes 90 one-move shortcuts.  The distinct objective
    # at search-heavy sizes (10-prism's ib reduction, bt(2,8)) was pinned
    # while pass 1 was still primed by the empty and two greedy branchings
    pinned = (
        (gen_random(50, 100, 0.08, 0), exact_min_uncovered, uncovered_pairs, 400,
         "931f44fa120fc1b86485f5ea2ac8f2d96e0da1610fca53c6e837ec2768830b2a"),
        (gen_random(50, 100, 0.08, 1), exact_min_uncovered, uncovered_pairs, 396,
         "552bcdcadf7ca54f6c52e2f9da5d7cdea99d3ececef702f510256ac771c7e6a1"),
        (gen_vc_reduction(prism(8, 1)), exact_min_uncovered, uncovered_pairs, 136,
         "7c897f2419425eaca5f59b8823077bd9099bed3da69199ac678e1f65ebea55e2"),
        (gen_vc_reduction(prism(10, 1)), exact_min_uncovered, uncovered_pairs, 170,
         "28149412f1d818f2f03f471dbc3d462342d1cf816d84a237fb298698455f0435"),
        (gen_random_laminar(300, 450, 0), exact_min_irreducible, irreducible_vertices, 293,
         "c69c7b214b1ba7009d88849cd750eb8104a51c3fca99f29b2dbecc43e05850ac"),
        (gen_ib_reduction(prism(10, 1)), exact_min_irreducible, irreducible_vertices, 40,
         "a2cd14ec479fd78e5b7bcf558efd048cf21f467d60efb61a2a010e95dc1058c6"),
        (gen_block_tree(2, 8), exact_min_uncovered, uncovered_pairs, 128,
         "6beab357dcc22dab3e47e8963642fe868b6a881f4f24f897dfc3fe1b0ca30e3e"),
        (gen_block_tree(2, 8), exact_min_irreducible, irreducible_vertices, 128,
         "6beab357dcc22dab3e47e8963642fe868b6a881f4f24f897dfc3fe1b0ca30e3e"),
    )
    for matrix, solve, kept, optimum, digest in pinned:
        d = build_containment(matrix)
        branching, value = solve(d, budget=branching_state_count(d))
        assert value == len(kept(d, branching)) == optimum
        assert hashlib.sha256(repr(branching.choice).encode()).hexdigest() == digest


def test_arcs_before_the_first_optimal_arc_only_completion_lead_to_no_optimum():
    # the lemma the descent rests on.  At a random prefix of choices (None
    # allowed), let W be the first cheapest completion without None in the
    # search order.  No out-neighbor before W's at the next chooser v has
    # a cheapest completion, None allowed.  When moving v in W to None
    # keeps W cheapest, W so moved is the first cheapest completion
    # without None after v's None
    rng = random.Random(1721)
    checked = earlier_arcs = moves = 0
    for matrix in exact_corpus() + differential_corpus():
        d = build_containment(matrix)
        if not enumerable(d, cap=2000):
            continue
        out_nbrs = [d.out(v) for v in range(d.n)]
        choosers = [v for v in reference_decision_order(d) if out_nbrs[v]]
        if not choosers:
            continue
        every = [b.choice for b in iter_branchings(d)]
        for kept in (uncovered_pairs, irreducible_vertices):
            value = {choice: len(kept(d, Branching(choice))) for choice in every}
            for _ in range(24):
                t = rng.randrange(len(choosers))
                v, later = choosers[t], choosers[t + 1:]
                prefix = {u: rng.choice((None, *out_nbrs[u])) for u in choosers[:t]}
                completions = [choice for choice in every
                               if all(choice[u] == c for u, c in prefix.items())]
                best = min(value[choice] for choice in completions)

                def first_arc_only(choices):
                    return min((choice for choice in choices if value[choice] == best
                                and all(choice[u] is not None for u in later)),
                               key=lambda choice: [(None, *out_nbrs[u]).index(choice[u])
                                                   for u in choosers[t:]], default=None)

                witness = first_arc_only(c for c in completions if c[v] is not None)
                a = witness[v]
                for c in out_nbrs[v][:out_nbrs[v].index(a)]:
                    assert all(value[choice] > best for choice in completions
                               if choice[v] == c)
                    earlier_arcs += 1
                moved = witness[:v] + (None,) + witness[v + 1:]
                if value[moved] == best:
                    assert first_arc_only(c for c in completions if c[v] is None) == moved
                    moves += 1
                checked += 1
    assert checked >= 6000 and earlier_arcs >= 300 and moves >= 2000


def test_exact_search_runs_deeper_than_the_recursion_limit():
    # bt(2,10) has more choosers than Python's default recursion limit;
    # both optima keep one row per leaf block
    matrix = gen_block_tree(2, 10)
    d = build_containment(matrix)
    assert d.n > sys.getrecursionlimit()
    states = branching_state_count(d)
    for solve, kept in ((exact_min_uncovered, uncovered_pairs),
                        (exact_min_irreducible, irreducible_vertices)):
        branching, value = solve(d, budget=states)
        assert value == len(kept(d, branching)) == 512
        assert verify_row_split(matrix, branching_split(matrix, branching, d)).ok


def test_exact_budget_error():
    d = build_containment(gen_block_tree(3, 3))
    with pytest.raises(BudgetError):
        exact_min_uncovered(d, budget=10)


def test_exact_is_deterministic():
    d = build_containment(gen_vc_reduction(k4()))
    first = exact_min_uncovered(d)
    assert exact_min_uncovered(d) == first


def test_linear_chain_bijection():
    assert linear_from_chains(((0,), (1,))).choice == (None, None)
    b = linear_from_chains(((0, 1),))
    assert b.choice == (1, None)
    assert chains_from_linear(b) == ((0, 1),)
    with pytest.raises(ValueError):
        chains_from_linear(Branching((2, 2, None)))
    with pytest.raises(ValueError, match=r"chains must partition the vertices 0\.\.k-1"):
        linear_from_chains(((0, 1), (1,)))


def test_linear_branchings_price_identity():
    # for any linear branching, the uncovered-pair count equals the price of
    # its chain partition under support-size weights
    for matrix in random_corpus(60, seed=17):
        d = build_containment(matrix)
        sizes = [s.bit_count() for s in d.supports]
        partition = dilworth_partition(d)
        b = linear_from_chains(partition)
        assert len(uncovered_pairs(d, b)) == partition_price(partition, sizes)
        assert chains_from_linear(b) == tuple(sorted(partition))


def test_branching_split_matches_per_cell_reference():
    # random branchings of seeded random and laminar matrices, plus the
    # empty and the chain-partition branchings
    rng = random.Random(18)
    matrices = random_corpus(80, max_side=7, seed=18) + [
        gen_random_laminar(m, k, seed)
        for seed in range(6) for m, k in ((6, 9), (10, 15), (14, 20))
    ]
    checked = 0
    for matrix in matrices:
        d = build_containment(matrix)
        branchings = [Branching.empty(d.n), linear_from_chains(dilworth_partition(d))]
        branchings += [random_branching(rng, d) for _ in range(4)]
        for b in branchings:
            split = branching_split(matrix, b, d)
            assert (split.matrix.rows, split.groups) == \
                reference_branching_split(matrix, b, d)
            checked += 1
    assert checked == 6 * len(matrices)


def test_distinct_2_split_matches_per_cell_reference():
    matrices = random_corpus(80, max_side=7, seed=19) + [
        gen_random_laminar(10, 15, seed) for seed in range(5)
    ] + [duplicate_column(gen_block_tree(2, 3), 2), gen_vc_reduction(k4())]
    for matrix in matrices:
        split, _ = approx_distinct_2(matrix)
        assert (split.matrix.rows, split.groups) == reference_distinct_2_split(matrix)


def test_branching_self_checks_survive_python_optimize(tmp_path):
    # -O strips assert statements; split_to_branching's check that the
    # phylogeny sweep accepts a verified split must still raise
    chain = tmp_path / "chain.txt"
    chain.write_text("3 3\n111\n011\n001\n")
    script = "\n".join((
        "import sys",
        "import cfrs.branching",
        "from cfrs import InternalError, RowSplit, split_to_branching",
        "from cfrs.io import parse_matrix",
        "print('debug:', __debug__)",
        "cfrs.branching._laminar_tree = lambda supports, m, first: "
        "cfrs.matrix.ConflictWitness(0, 1, (0, 1, 2))",
        "with open(sys.argv[1], encoding='utf-8') as handle:",
        "    matrix = parse_matrix(handle)",
        "try:",
        "    split_to_branching(matrix, RowSplit(matrix, ((0,), (1,), (2,))))",
        "except InternalError as exc:",
        "    print('raised:', exc)",
    ))
    src = str(Path(cfrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-O", "-c", script, str(chain)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert "debug: False" in result.stdout
    assert "raised: phylogeny sweep rejected a verified split" in result.stdout
    assert result.returncode == 0, result.stderr


def test_exact_incumbent_check_survives_python_optimize():
    # deciding every vertex twice leaves the first choice's cover behind,
    # so the search undercharges a branching; the incumbent check must
    # raise under -O
    script = "\n".join((
        "import cfrs.branching",
        "from cfrs import BinaryMatrix, InternalError, build_containment, exact_min_uncovered",
        "print('debug:', __debug__)",
        "cfrs.branching._decision_order = lambda dag: list(range(dag.n)) * 2",
        "fork = build_containment(BinaryMatrix(((1, 1, 1), (0, 1, 0), (0, 0, 1))))",
        "try:",
        "    exact_min_uncovered(fork)",
        "except InternalError as exc:",
        "    print('raised:', exc)",
    ))
    src = str(Path(cfrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env, timeout=120)
    assert "debug: False" in result.stdout
    assert "raised: exact search charged 3 for a branching costing 4" in result.stdout
    assert result.returncode == 0, result.stderr


def test_decision_order_matches_rescanning_reference():
    matrices = differential_corpus()
    matrices += [gen_block_tree(2, h) for h in range(2, 9)]
    matrices += [gen_block_tree(3, h) for h in range(2, 6)]
    matrices += [gen(graph) for graph in (k4(), k33(), q3(), prism(5, 1), prism(5, 2))
                 for gen in (gen_vc_reduction, gen_ib_reduction)]
    for matrix in matrices:
        digraph = build_containment(matrix)
        assert _decision_order(digraph) == reference_decision_order(digraph)
