import random

from cfrs.matching import maximum_bipartite_matching

from tests.helpers import reference_maximum_bipartite_matching


def test_long_augmenting_path_needs_no_recursion():
    # the second phase augments along one path through all n left vertices
    n = 3000
    adj = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
    match_left, match_right = maximum_bipartite_matching(adj, n)
    assert match_left == list(range(n))
    assert match_right == list(range(n))


def test_matching_matches_recursive_reference():
    rng = random.Random(6060)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 40), rng.randint(0, 40)
        p = rng.choice((0.05, 0.15, 0.4))
        adj = [[v for v in range(n_right) if rng.random() < p] for _ in range(n_left)]
        for nbrs in adj:
            rng.shuffle(nbrs)
        assert maximum_bipartite_matching(adj, n_right) == \
            reference_maximum_bipartite_matching(adj, n_right)
