import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import cfrs
from cfrs import (
    BudgetError,
    build_containment,
    evaluate,
    gen_block_tree,
    gen_random,
    gen_random_laminar,
    maximum_antichain,
    min_price_chain_partition,
    width,
)
from cfrs.matrix import bits_of, mask_of
from cfrs.poset import (
    is_antichain,
    is_chain_partition,
    is_monotone,
    is_tower,
    partition_price,
    tower_value,
)

from tests.helpers import (
    BRUTE_FORCE_CAP,
    GAP_DAG,
    Dag,
    brute_force_max_tower,
    brute_force_min_price,
    dag_arcs,
    dilworth_partition,
    gap_weights,
    nested_prefix,
    oracle_max_antichain_size,
    random_corpus,
    random_dag,
    random_monotone_weights,
    reference_maximum_antichain,
    reference_min_price_chain_partition,
)
from tests.strategies import dags


def chain_dag(t):
    return Dag(t, [(i, j) for i in range(t) for j in range(i + 1, t)])


def test_dilworth_on_chain_and_antichain():
    assert dilworth_partition(chain_dag(5)) == ((0, 1, 2, 3, 4),)
    assert dilworth_partition(Dag(4)) == ((0,), (1,), (2,), (3,))


def test_dilworth_block_tree_has_nine_chains():
    d = build_containment(gen_block_tree(3, 3))
    partition = dilworth_partition(d)
    assert len(partition) == 9 == oracle_max_antichain_size(d)
    assert is_chain_partition(d, partition)


def test_maximum_antichain_cases():
    assert 0 < maximum_antichain(chain_dag(4)) < 1 << 4
    assert maximum_antichain(chain_dag(4)).bit_count() == 1
    d = build_containment(gen_block_tree(3, 3))
    assert maximum_antichain(d) == (1 << 9) - 1
    assert maximum_antichain(GAP_DAG).bit_count() == 2 == oracle_max_antichain_size(GAP_DAG)


@settings(max_examples=100, deadline=None)
@given(dags())
def test_dilworth_partition_is_minimal(dag):
    partition = dilworth_partition(dag)
    assert is_chain_partition(dag, partition)
    assert len(partition) == width(dag)
    antichain = maximum_antichain(dag)
    assert is_antichain(dag, antichain)
    assert antichain.bit_count() == width(dag)


def test_dilworth_and_antichain_agree_with_width_on_corpus():
    digraphs = [build_containment(m) for m in random_corpus(80, max_side=9, seed=41)]
    digraphs += [build_containment(gen_random_laminar(m, k, 3))
                 for m, k in ((20, 30), (60, 90))]
    for dag in digraphs:
        partition = dilworth_partition(dag)
        antichain = maximum_antichain(dag)
        assert is_chain_partition(dag, partition)
        assert is_antichain(dag, antichain)
        assert len(partition) == antichain.bit_count() == width(dag)


def test_evaluate_basics():
    d = chain_dag(3)
    ones = [1, 1, 1]
    partition = ((0, 1, 2),)
    tower = (0b010,)
    assert is_tower(d, tower)
    assert evaluate(partition, tower, ones) == (1, 1)
    # constant weights make any tower's value the width
    d2 = Dag(3)
    tower2 = (0b001, 0b011, 0b111)
    assert is_tower(d2, tower2)
    assert tower_value(tower2, ones) == 3 == width(d2)
    assert tower_value(tower2, [5, 2, 7]) == 5 + 2 + 2


def _member_walk_value(tower, weights):
    return sum(min(weights[v] for v in bits_of(level)) for level in tower)


def test_tower_value_is_the_per_level_minimum():
    rng = random.Random(4545)
    for trial in range(600):
        n = rng.randint(1, 70)
        weights = [(rng.randint(0, 3), rng.randint(0, 10**6), 0, 7)[trial % 4]
                   for _ in range(n)]  # tied, spread, all zero, one weight
        tower = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 12))]
        tower += [1 << rng.randrange(n), (1 << n) - 1]
        assert tower_value(tower, weights) == _member_walk_value(tower, weights)
        assert tower_value(tower, tuple(weights)) == _member_walk_value(tower, weights)
    assert tower_value((), []) == tower_value((), [4, 1]) == 0
    for bad in (0, 1 << 3, 0b1001, -1):
        with pytest.raises(ValueError):
            tower_value((0b001, bad), [1, 2, 3])


def test_is_tower_rejects_bad_levels():
    dag = Dag(4, [(0, 1), (2, 3)])  # width 2: one of 0, 1 and one of 2, 3
    assert is_tower(dag, (0b0001, 0b0101))
    assert is_tower(dag, (0b1000, 0b1010))
    assert not is_tower(dag, (0b0001,))  # a level short
    assert not is_tower(dag, (0b0001, 0b0101, 0b1010))  # a level too many
    assert not is_tower(dag, (0b0101, 0b0101))  # the first level is too big
    assert not is_tower(dag, (0b0001, 0b0001))  # the second level is too small
    assert not is_tower(dag, (1 << 4, 0b0101))  # bit at n
    assert not is_tower(dag, (0b0001, 1 << 6 | 1))  # bit above n
    assert not is_tower(dag, (0b0001, 0b0011))  # 0 reaches 1
    assert not is_tower(dag, (0b1000, 0b1100))  # 2 reaches 3
    assert not is_antichain(dag, -1)
    assert is_antichain(dag, 0) and is_antichain(dag, 0b0110)


def test_evaluate_gap_partition():
    price = partition_price(((0, 2), (1, 3)), gap_weights(3, 5))
    assert price == 10


def test_monotonicity_check():
    assert is_monotone(GAP_DAG, [1, 2, 3, 4])
    assert not is_monotone(GAP_DAG, gap_weights(3, 5))
    with pytest.raises(ValueError):
        min_price_chain_partition(GAP_DAG, gap_weights(3, 5))
    with pytest.raises(ValueError):
        min_price_chain_partition(GAP_DAG, [1, 2, 3])
    with pytest.raises(ValueError):
        min_price_chain_partition(GAP_DAG, [1, 2, 3, -1])


def test_is_monotone_matches_the_per_arc_definition():
    rng = random.Random(29)
    seen = set()
    for _ in range(300):
        dag = random_dag(rng, max_vertices=12)
        for weights in ([rng.randint(0, 4) for _ in range(dag.n)],
                        random_monotone_weights(rng, dag, high=4)):
            expected = all(weights[u] <= weights[v] for u, v in dag_arcs(dag))
            assert is_monotone(dag, weights) == expected
            seen.add(expected)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="weights must be non-negative integers"):
        is_monotone(GAP_DAG, [1, 2, 3, -1])
    with pytest.raises(ValueError, match="expected 4 weights, got 3"):
        is_monotone(GAP_DAG, [1, 2, 3])


def test_min_price_constant_weights_recover_minimum_size():
    rng = random.Random(5)
    for _ in range(30):
        dag = random_dag(rng)
        partition, tower = min_price_chain_partition(dag, [1] * dag.n)
        price, value = evaluate(partition, tower, [1] * dag.n)
        assert price == value == width(dag)


def test_min_price_support_sizes_small_block_tree():
    d = build_containment(gen_block_tree(2, 2))
    sizes = [s.bit_count() for s in d.supports]
    partition, tower = min_price_chain_partition(d, sizes)
    price, value = evaluate(partition, tower, sizes)
    assert price == value == 3
    assert brute_force_min_price(d, sizes) == 3
    assert brute_force_max_tower(d, sizes) == 3


def test_min_price_support_sizes_block_tree_3_3():
    d = build_containment(gen_block_tree(3, 3))
    sizes = [s.bit_count() for s in d.supports]
    partition, tower = min_price_chain_partition(d, sizes)
    price, value = evaluate(partition, tower, sizes)
    assert price == value == 21
    assert len(partition) == 9


def test_brute_force_gap_instance():
    weights = gap_weights(3, 5)
    assert brute_force_min_price(GAP_DAG, weights) == 10
    assert brute_force_max_tower(GAP_DAG, weights) == 8


def test_brute_force_caps():
    big = Dag(11)
    with pytest.raises(BudgetError):
        brute_force_min_price(big, [0] * 11)
    with pytest.raises(BudgetError):
        brute_force_max_tower(big, [0] * 11)


def test_strong_duality_on_random_instances():
    rng = random.Random(99)
    for trial in range(1000):
        dag = random_dag(rng, max_vertices=BRUTE_FORCE_CAP,
                         arc_probability=(0.15, 0.35, 0.6)[trial % 3])
        # relabel so vertex ids are not a topological order
        perm = list(range(dag.n))
        rng.shuffle(perm)
        dag = Dag(dag.n, [(perm[u], perm[v]) for u, v in dag_arcs(dag)])
        weights = random_monotone_weights(rng, dag, high=(3, 20)[trial % 2])
        partition, tower = min_price_chain_partition(dag, weights)
        assert is_chain_partition(dag, partition)
        assert is_tower(dag, tower)
        price, value = evaluate(partition, tower, weights)
        assert price == value == brute_force_min_price(dag, weights)
        assert value == brute_force_max_tower(dag, weights)
        assert len(partition) == width(dag)


def test_min_price_on_laminar_containment_digraphs():
    for seed in range(3):
        dag = build_containment(gen_random_laminar(100, 150, seed))
        sizes = [s.bit_count() for s in dag.supports]
        partition, tower = min_price_chain_partition(dag, sizes)
        assert is_chain_partition(dag, partition)
        assert len(partition) == width(dag)
        assert is_tower(dag, tower)
        price, value = evaluate(partition, tower, sizes)
        assert price == value
        assert min_price_chain_partition(dag, sizes) == (partition, tower)


def test_weak_duality_with_arbitrary_weights():
    rng = random.Random(123)
    for _ in range(120):
        dag = random_dag(rng, max_vertices=8)
        weights = [rng.randint(0, 20) for _ in range(dag.n)]
        assert brute_force_min_price(dag, weights) >= brute_force_max_tower(dag, weights)


def test_zero_one_weights_need_no_monotonicity():
    # with 0/1 weights the brute-force optimum and tower value coincide even
    # on non-monotone inputs
    rng = random.Random(321)
    for _ in range(80):
        dag = random_dag(rng, max_vertices=7)
        weights = [rng.randint(0, 1) for _ in range(dag.n)]
        assert brute_force_min_price(dag, weights) == brute_force_max_tower(dag, weights)


def _relabelled(rng, dag):
    perm = list(range(dag.n))
    rng.shuffle(perm)
    return Dag(dag.n, [(perm[u], perm[v]) for u, v in dag_arcs(dag)])


def _min_price_corpus():
    """Seeded (digraph, weights) pairs: relabelled random DAGs with random
    monotone and with constant weights, then containment digraphs of random,
    laminar and block-tree matrices up to about 300 vertices."""
    rng = random.Random(1212)
    for trial in range(1000):
        dag = _relabelled(rng, random_dag(
            rng, max_vertices=(6, 12, 24)[trial % 3],
            arc_probability=(0.1, 0.3, 0.6)[trial % 4 % 3]))
        yield dag, random_monotone_weights(rng, dag, high=(2, 5, 50)[trial % 3])
        yield dag, [1] * dag.n
    matrices = [gen_random(m, n, density, seed)
                for seed, (m, n, density) in enumerate(
                    ((8, 20, 0.5), (20, 60, 0.3), (30, 150, 0.5), (40, 300, 0.2),
                     (12, 300, 0.5), (60, 200, 0.1)))]
    matrices += [gen_random_laminar(m, k, seed)
                 for seed, (m, k) in enumerate(((10, 15), (50, 80), (120, 200),
                                                (200, 300), (300, 300)))]
    matrices += [gen_block_tree(d, h) for d, h in ((2, 5), (2, 8), (3, 5), (4, 4))]
    for matrix in matrices:
        dag = build_containment(matrix)
        yield dag, [s.bit_count() for s in dag.supports]
        yield dag, [1] * dag.n


def test_min_price_and_antichain_match_the_reference_algorithm():
    # the references give frozensets; every level and antichain here is the
    # same vertex set as an int bitset
    checked = differences = 0
    for dag, weights in _min_price_corpus():
        partition, tower = reference_min_price_chain_partition(dag, weights)
        expected = (partition, tuple(map(mask_of, tower)))
        result = min_price_chain_partition(dag, weights)
        differences += result != expected
        differences += any(type(level) is not int for level in result[1])
        antichain = maximum_antichain(dag)
        differences += antichain != mask_of(reference_maximum_antichain(dag))
        differences += type(antichain) is not int
        checked += 1
    assert checked == 2000 + 2 * 15
    assert differences == 0


def test_maximum_antichain_by_reach_size_needs_no_topological_order():
    # vertices join in reach-size order, not Kahn's: the Koenig antichain
    # depends only on the members, so it is the reference's (also checked on
    # random DAGs above), and a containment digraph never builds its in-masks
    rng = random.Random(2828)
    matrices = [gen_random_laminar(m, k, seed) for m, k in ((20, 30), (100, 150))
                for seed in range(3)]
    matrices += [gen_random(m, n, p, seed) for m, n, p in ((12, 40, 0.3), (30, 60, 0.1))
                 for seed in range(3)]
    matrices += [nested_prefix(40, rng), gen_block_tree(3, 4)]
    for matrix in matrices:
        digraph = build_containment(matrix)
        antichain = maximum_antichain(digraph)
        assert "in_masks" not in digraph.__dict__
        assert antichain == mask_of(reference_maximum_antichain(digraph))


def test_min_price_on_large_inputs_needs_no_recursion():
    n = 3000
    path = Dag(n, [(i, i + 1) for i in range(n - 1)])
    partition, tower = min_price_chain_partition(path, list(range(n)))
    assert partition == (tuple(range(n)),)
    assert tower == (1 << n - 1,)

    nested = build_containment(nested_prefix(2000, random.Random(7)))
    sizes = [s.bit_count() for s in nested.supports]
    partition, tower = min_price_chain_partition(nested, sizes)
    assert len(partition) == 1 and len(tower) == 1
    assert [sizes[v] for v in partition[0]] == list(range(1, 2001))

    n = 1000
    partition, tower = min_price_chain_partition(Dag(n), [3] * n)
    assert partition == tuple((v,) for v in range(n))
    # the vertices join back heaviest index first, and all are free
    assert tower == tuple((1 << n) - (1 << n - i) for i in range(1, n + 1))


def test_dropped_tower_vertex_raises_under_python_optimize():
    # -O strips assert statements; a tower level that lost a vertex must
    # still fail the certificate check, whichever level it is
    script = "\n".join((
        "from cfrs import InternalError, build_containment, gen_block_tree",
        "from cfrs.matching import LiveMatching",
        "from cfrs.poset import min_price_chain_partition",
        "print('debug:', __debug__)",
        "dag = build_containment(gen_block_tree(3, 3))",
        "sizes = [s.bit_count() for s in dag.supports]",
        "antichain = LiveMatching.antichain",
        "for broken in range(9):",
        "    levels = []",
        "    def dropping(live):",
        "        levels.append(antichain(live))",
        "        level = levels[-1]",
        "        return level & (level - 1) if len(levels) == broken + 1 else level",
        "    LiveMatching.antichain = dropping",
        "    try:",
        "        min_price_chain_partition(dag, sizes)",
        "    except InternalError as exc:",
        "        print('raised:', broken, exc)",
    ))
    src = str(Path(cfrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "debug: False" in result.stdout
    assert [line for line in result.stdout.splitlines() if line.startswith("raised:")] == [
        f"raised: {i} min-price tower levels are not of sizes 1..width" for i in range(9)]
