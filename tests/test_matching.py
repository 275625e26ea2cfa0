import random

from cfrs import build_containment, gen_random, gen_random_laminar
from cfrs.matching import LiveMatching, maximum_bipartite_matching
from cfrs.matrix import bits_of, mask_of, select

from tests.helpers import (
    random_dag,
    reference_augment,
    reference_koenig_antichain,
    reference_maximum_bipartite_matching,
)


def _size(match_left):
    return sum(1 for v in match_left if v is not None)


def _assert_valid(adj, n_right, match_left, match_right):
    assert len(match_left) == len(adj) and len(match_right) == n_right
    for u, v in enumerate(match_left):
        if v is not None:
            assert v in adj[u] and match_right[v] == u
    for v, u in enumerate(match_right):
        if u is not None:
            assert match_left[u] == v


def test_staircase_matches_the_diagonal():
    n = 3000
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    match_left, match_right = maximum_bipartite_matching(adj, n)
    assert match_left == list(range(n))
    assert match_right == list(range(n))


def test_long_augmenting_path_needs_no_recursion():
    # the last left vertex augments along one path through all n vertices
    n = 3000
    adj = [[i, i + 1] for i in range(n - 1)] + [[0]]
    match_left, match_right = maximum_bipartite_matching(adj, n)
    _assert_valid(adj, n, match_left, match_right)
    assert _size(match_left) == n
    assert match_left == list(range(1, n)) + [0]


def test_matching_matches_recursive_reference():
    rng = random.Random(6060)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 40), rng.randint(0, 40)
        p = rng.choice((0.05, 0.15, 0.4))
        adj = [[v for v in range(n_right) if rng.random() < p] for _ in range(n_left)]
        for nbrs in adj:
            rng.shuffle(nbrs)
        match_left, match_right = maximum_bipartite_matching(adj, n_right)
        _assert_valid(adj, n_right, match_left, match_right)
        expected, _ = reference_maximum_bipartite_matching(adj, n_right)
        assert _size(match_left) == _size(expected)


def _augment_checked(live, v):
    """Augment v and return the mask of left vertices whose partner changed:
    none on failure, when v joins the free ones, else v among others."""
    before = list(live.match_left)
    matched = live.augment(v)
    changed = mask_of(u for u, (old, new) in enumerate(zip(before, live.match_left))
                      if old != new)
    assert matched == bool(changed) == bool(changed >> v & 1)
    assert (live.free_left >> v) & 1 == (not matched)
    return changed


def test_augment_changes_partners_only_on_success():
    rng = random.Random(1313)
    for _ in range(300):
        n_left, n_right = rng.randint(1, 30), rng.randint(0, 30)
        p = rng.choice((0.05, 0.15, 0.4))
        adj = [mask_of(w for w in range(n_right) if rng.random() < p)
               for _ in range(n_left)]
        live = LiveMatching(adj, n_right)
        order = list(range(n_left))
        rng.shuffle(order)
        for v in order:
            _augment_checked(live, v)


def test_kept_koenig_set_matches_a_fresh_pass_at_every_checkpoint():
    # vertices join as sources of the members, in a random such order, and
    # the antichain is read at random points between the augments; every
    # left vertex whose partner changed reaches the antichain, which is why
    # the min-price chains are the matching's own
    rng = random.Random(1414)
    reads = 0
    for trial in range(400):
        dag = random_dag(rng, max_vertices=(8, 16, 30)[trial % 3],
                         arc_probability=(0.1, 0.3, 0.6)[trial % 4 % 3])
        live = LiveMatching(dag.reach, dag.n)
        members, outside = 0, set(range(dag.n))
        while outside:
            v = rng.choice(sorted(u for u in outside if dag.reach[u] & ~members == 0))
            outside.remove(v)
            members |= 1 << v
            changed = _augment_checked(live, v)
            if changed:
                antichain = reference_koenig_antichain(live)
                assert all(dag.reach[u] & antichain for u in bits_of(changed))
            if rng.random() < 0.4:
                assert live.antichain() == reference_koenig_antichain(live)
                reads += 1
        assert live.antichain() == reference_koenig_antichain(live)
    assert reads > 1000


def _random_bipartite(rng):
    n_left, n_right = rng.randint(1, 40), rng.randint(0, 40)
    p = rng.choice((0.03, 0.1, 0.3, 0.6))
    adj = [mask_of(w for w in range(n_right) if rng.random() < p) for _ in range(n_left)]
    order = list(range(n_left))
    rng.shuffle(order)
    return adj, n_right, order


def _random_source_order(rng, dag):
    """The vertices of a DAG, each taken as a source of those taken so far."""
    order, members, outside = [], 0, set(range(dag.n))
    while outside:
        v = rng.choice(sorted(u for u in outside if dag.reach[u] & ~members == 0))
        outside.remove(v)
        members |= 1 << v
        order.append(v)
    return order


def _closure_graphs(rng):
    """Splits of DAG closures, with their vertices added as sources: random
    DAGs, and the containment digraphs of laminar and random matrices."""
    for trial in range(300):
        dag = random_dag(rng, max_vertices=(8, 16, 30)[trial % 3],
                         arc_probability=(0.1, 0.3, 0.6)[trial % 4 % 3])
        yield dag.reach, dag.n, _random_source_order(rng, dag)
    for seed in range(6):
        for matrix in (gen_random_laminar(40, 60, seed), gen_random(12, 40, 0.3, seed)):
            dag = build_containment(matrix)
            yield dag.reach, dag.n, _random_source_order(rng, dag)


def _state(live):
    return live.match_left, live.match_right, live.free_left, live.z_right


def _assert_matches_unpruned_search(adj, n_right, order):
    live, reference = LiveMatching(adj, n_right), LiveMatching(adj, n_right)
    for v in order:
        assert live.augment(v) == reference_augment(reference, v)
        assert _state(live) == _state(reference)


def test_pruned_search_matches_the_unpruned_one_on_random_graphs():
    # a search that starts with Koenig's right copies seen finds the same
    # path, so the matching and the set stay the reference's after each step
    rng = random.Random(2525)
    for _ in range(500):
        _assert_matches_unpruned_search(*_random_bipartite(rng))


def test_pruned_search_matches_the_unpruned_one_on_dag_closures():
    rng = random.Random(2626)
    for adj, n_right, order in _closure_graphs(rng):
        _assert_matches_unpruned_search(adj, n_right, order)


class _CountingAdj(list):
    """Adjacency bitsets that log the left vertex of every read."""

    def __init__(self, masks):
        super().__init__(masks)
        self.reads = []

    def __getitem__(self, u):
        self.reads.append(u)
        return super().__getitem__(u)


def _failed_searches(augment, adj, n_right, order):
    """Per failed augment, the left vertices whose neighbours the search
    read, and those that joined Koenig's set: the added vertex and the
    partners of the right copies that joined it."""
    counting = _CountingAdj(adj)
    live = LiveMatching(counting, n_right)
    failures = []
    for v in order:
        counting.reads.clear()
        z_right = live.z_right
        if not augment(live, v):
            joined = [v] + select(live.match_right, live.z_right & ~z_right)
            failures.append((sorted(counting.reads), sorted(joined)))
    return failures


def test_failed_searches_read_each_left_vertex_once_over_the_matching():
    rng = random.Random(2727)
    graphs = [_random_bipartite(rng) for _ in range(300)] + list(_closure_graphs(rng))
    rereads = 0
    for adj, n_right, order in graphs:
        failures = _failed_searches(LiveMatching.augment, adj, n_right, order)
        # a failed search reads only the vertices that join the set, once each
        assert all(reads == joined for reads, joined in failures)
        reads = [u for reads, _ in failures for u in reads]
        assert len(reads) == len(set(reads)) <= len(adj)
        unpruned = _failed_searches(reference_augment, adj, n_right, order)
        rereads += sum(len(reads) - len(joined) for reads, joined in unpruned)
    # the unpruned search walks the set again on every failure
    assert rereads > 1000
