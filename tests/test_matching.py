import random

from cfrs.matching import maximum_bipartite_matching

from tests.helpers import reference_maximum_bipartite_matching


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
