"""Maximum bipartite matching on bitsets, grown one left vertex at a time.

This is the package's one matcher.  Left vertices join a maximum matching
one by one; before a vertex joins the matching is maximum, so (Berge) only
the new vertex can start an augmenting path, and each join costs one
breadth-first search for a shortest alternating path, with no recursion.
The matcher also keeps Koenig's set, which each search skips, so on
Fulkerson's bipartite split of a transitively closed DAG, where left and
right copies index the same vertices, a maximum antichain is read off it
without a further search.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalError
from .matrix import bits_of, mask_of, select


class LiveMatching:
    """Maximum matching of the left vertices added so far, with its Koenig set.

    ``adj[u]`` is the bitset of right vertices adjacent to left vertex u, and
    right vertices are 0..n_right-1.  On the split of a DAG's closure, left
    copy u is adjacent to right copy w iff u reaches w; adding vertices as
    sources keeps the members closed under reach, so this is a maximum
    matching of the members' split, and their width grows exactly when
    :meth:`augment` fails.

    Koenig's set Z holds the vertices that alternating paths from the free
    left copies reach.  It is the same for every maximum matching
    (Dulmage-Mendelsohn), so no augmenting path meets it and a matched
    vertex of Z keeps its partner: Z grows only when :meth:`augment` fails,
    by the right copies that the exhausted search reached (``z_right``) and
    their partners, which :meth:`antichain` folds in lazily.  Z is closed
    under alternating steps and holds no free right copy, so a search that
    starts with ``z_right`` seen meets the vertices outside Z in the same
    order and by the same links as one that does not, and finds the same
    path; a failed search expands only vertices that then join Z, so the
    failed searches read each left vertex's ``adj`` at most once in all.
    """

    def __init__(self, adj: Sequence[int], n_right: int):
        self.adj = adj
        self.free_left = 0  # members whose left copy is unmatched
        self.match_left: list[Optional[int]] = [None] * len(adj)
        self.match_right: list[Optional[int]] = [None] * n_right
        self.z_right = 0  # right copies in Koenig's set
        self._z_left = 0  # partners of the right copies in ``_folded``
        self._folded = 0

    def augment(self, v: int) -> bool:
        """Add left vertex v; True iff a shortest alternating path from it
        to a free right vertex matched it.  The search starts with Z's right
        copies seen, as no such path enters Z.  On False, v stays free and
        the right copies the search reached join ``z_right``."""
        adj, match_left, match_right = self.adj, self.match_left, self.match_right
        seen, via, frontier = self.z_right, {}, [v]
        while frontier:
            next_frontier = []
            for u in frontier:
                fresh = adj[u] & ~seen
                seen |= fresh
                for w in bits_of(fresh):
                    via[w] = u
                    if match_right[w] is None:
                        while w is not None:  # flip the path back to v
                            u = via[w]
                            match_right[w] = u
                            match_left[u], w = w, match_left[u]
                        return True
                    next_frontier.append(match_right[w])
            frontier = next_frontier
        self.free_left |= 1 << v
        self.z_right = seen
        return False

    def antichain(self) -> int:
        """On the split of a DAG's closure, a maximum antichain of the
        members, as a mask (Koenig): the left copies in Z, the free ones and
        the partners of Z's right copies, minus Z's right copies.  It
        depends on the members, not the matching."""
        fresh = self.z_right & ~self._folded
        if fresh:
            self._z_left |= mask_of(select(self.match_right, fresh))
            self._folded = self.z_right
        antichain = (self.free_left | self._z_left) & ~self.z_right
        if antichain.bit_count() != self.free_left.bit_count():
            raise InternalError("Koenig antichain size differs from the width")
        return antichain


def maximum_bipartite_matching(
    adj: Sequence[Sequence[int]], n_right: int
) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Compute a maximum matching of a bipartite graph.

    ``adj[u]`` lists the right-side neighbors of left vertex u; the result
    depends on these sets, not on their order.  Returns ``(match_left,
    match_right)`` with None marking unmatched vertices.
    """
    live = LiveMatching([mask_of(nbrs) for nbrs in adj], n_right)
    for u in range(len(adj)):
        live.augment(u)
    return live.match_left, live.match_right
