"""Chains, antichains, and minimum-price chain partitions of a DAG.

The functions read only a DAG's ``n`` and closure ``reach`` bitsets; the
hints name :class:`cfrs.containment.ContainmentDigraph`, the one DAG the
pipeline builds.  A tower's width is the size of :func:`maximum_antichain`.

A chain is a vertex sequence linked by the transitive closure; its price is
its maximum vertex weight.  A chain partition's price sums the chain prices.
A tower has one antichain, an int vertex bitset, of each size 1..width; its
value sums the per-level minimum weights in O(n log n + width log #weights).
For monotone weights the minimum partition price equals the maximum tower
value, and :func:`min_price_chain_partition` returns a partition together
with a tower of matching value as a machine-checkable optimality certificate.

All matching work runs on :class:`cfrs.matching.LiveMatching`: one maximum
matching of Fulkerson's bipartite split of the transitive closure, grown one
source at a time on the ``reach`` bitsets.  No adjacency list is built, and
each vertex that the min-price recursion adds back costs one augmenting-path
search, which skips the Koenig set that the matcher keeps, so the searches
that fail walk each vertex at most once in all; only when the width grows
is a tower level read off that set.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .containment import ContainmentDigraph
from .errors import InternalError
from .matching import LiveMatching
from .matrix import select, transpose

Chain = tuple[int, ...]
ChainPartition = tuple[Chain, ...]
Antichain = int  # a vertex bitset
Tower = tuple[Antichain, ...]


def _validated_weights(dag: ContainmentDigraph, weights: Sequence[int]) -> tuple[int, ...]:
    w = tuple(weights)
    if len(w) != dag.n:
        raise ValueError(f"expected {dag.n} weights, got {len(w)}")
    if any(not isinstance(x, int) or x < 0 for x in w):
        raise ValueError("weights must be non-negative integers")
    return w


def is_monotone(dag: ContainmentDigraph, weights: Sequence[int]) -> bool:
    """True iff weight(u) <= weight(v) for every arc (u, v), i.e. no vertex
    reaches a vertex strictly lighter than itself: weights that rise along
    every arc rise along every path."""
    w = _validated_weights(dag, weights)
    lighter: dict[int, int] = {}  # weight -> the vertices strictly lighter
    below = 0
    for v in sorted(range(dag.n), key=w.__getitem__):
        lighter.setdefault(w[v], below)
        below |= 1 << v
    return not any(map(int.__and__, dag.reach, map(lighter.__getitem__, w)))


def is_chain(dag: ContainmentDigraph, seq: Sequence[int]) -> bool:
    return all((dag.reach[a] >> b) & 1 for a, b in zip(seq, seq[1:]))


def is_chain_partition(dag: ContainmentDigraph, partition: Sequence[Sequence[int]]) -> bool:
    flat = [v for chain in partition for v in chain]
    return sorted(flat) == list(range(dag.n)) and all(
        is_chain(dag, chain) for chain in partition
    )


def is_antichain(dag: ContainmentDigraph, mask: Antichain) -> bool:
    return 0 <= mask < 1 << dag.n and not any(map(mask.__and__, select(dag.reach, mask)))


def is_tower(dag: ContainmentDigraph, tower: Sequence[Antichain]) -> bool:
    return len(tower) == maximum_antichain(dag).bit_count() and all(
        level.bit_count() == i + 1 and is_antichain(dag, level)
        for i, level in enumerate(tower)
    )


def partition_price(partition: Sequence[Sequence[int]], weights: Sequence[int]) -> int:
    return sum(max(weights[v] for v in chain) for chain in partition)


def tower_value(tower: Sequence[Antichain], weights: Sequence[int]) -> int:
    """Sum of the levels' minimum weights, by binary search over weight-prefix masks."""
    at_most, below = {}, 0  # weight -> the vertices at most that heavy
    for v in sorted(range(len(weights)), key=weights.__getitem__):
        below |= 1 << v
        at_most[weights[v]] = below
    if not all(0 < level <= below for level in tower):  # below: every vertex
        raise ValueError("a tower level is empty or names a non-vertex")
    lightest, prefixes = list(at_most), list(at_most.values())
    return sum(lightest[bisect_left(prefixes, 1, key=level.__and__)] for level in tower)


def evaluate(partition, tower, weights) -> tuple[int, int]:
    """Price of a chain partition and value of a tower, as a pair."""
    return partition_price(partition, weights), tower_value(tower, weights)


def _chains(live: LiveMatching) -> ChainPartition:
    """The chains of a matching on the split of a DAG's closure, sorted:
    each starts at a vertex whose right copy is free and follows partners."""
    chains = []
    for v, head in enumerate(live.match_right):
        if head is None:
            chain = [v]
            while live.match_left[chain[-1]] is not None:
                chain.append(live.match_left[chain[-1]])
            chains.append(tuple(chain))
    return tuple(sorted(chains))


def maximum_antichain(dag: ContainmentDigraph) -> Antichain:
    """An antichain of maximum cardinality, from a Koenig vertex cover."""
    reach = dag.reach
    live = LiveMatching(reach, dag.n)
    # by reach size every vertex joins after all it reaches, as a source
    for v in sorted(range(dag.n), key=lambda u: reach[u].bit_count()):
        live.augment(v)
    return live.antichain()


def min_price_chain_partition(
    dag: ContainmentDigraph, weights: Sequence[int]
) -> tuple[ChainPartition, Tower]:
    """Minimum-price chain partition with a tower certifying optimality.

    Requires a monotone weight function.  The returned partition has exactly
    width(D) chains and its price equals the returned tower's value, which
    certifies optimality since every partition's price is at least every
    tower's value.

    Removes minimum-weight sources one by one, then adds them back in
    reverse order to one live matching.  If the width grew, the new vertex
    is a singleton chain and the Koenig antichain a new tower level.  If
    not, each chain loses its prefix of ancestors of that antichain ``base``
    and is stitched under the matched path ending at its ``base`` vertex.
    That restitching is free, as the chains always follow the matched
    partners: a matched vertex outside Koenig's set reaches ``base`` along
    its partners (the first vertex of the set on that walk is in ``base``),
    and an augmenting path avoids the set, so every vertex whose partner
    changed is an ancestor of ``base`` and that partner is its restitched
    successor, while every other successor stays.  So each added vertex costs
    its augmenting path, and the chains are read off the final matching.
    """
    w = _validated_weights(dag, weights)
    if not is_monotone(dag, w):
        raise ValueError("weight function is not monotone on the digraph arcs")
    reached_by = transpose(dag.reach, dag.n)

    # by monotonicity the first remaining source in (weight, index) order has
    # minimum weight among the remaining vertices
    order = sorted(range(dag.n), key=lambda v: (w[v], v))
    remaining = (1 << dag.n) - 1
    removal: list[int] = []
    while order:
        i = next(i for i, u in enumerate(order) if not reached_by[u] & remaining)
        v = order.pop(i)
        remaining ^= 1 << v
        removal.append(v)

    live = LiveMatching(dag.reach, dag.n)
    tower: list[Antichain] = []
    for v in reversed(removal):
        if not live.augment(v):  # the width grew: v starts a new chain
            tower.append(live.antichain())
    partition = _chains(live)
    if [level.bit_count() for level in tower] != list(range(1, len(partition) + 1)):
        raise InternalError("min-price tower levels are not of sizes 1..width")
    if not is_chain_partition(dag, partition):
        raise InternalError("min-price chains do not partition the vertices")
    price, value = evaluate(partition, tower, w)
    if price != value:
        raise InternalError("certificate value does not match partition price")
    return partition, tuple(tower)
