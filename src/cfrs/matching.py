"""Maximum bipartite matching via Hopcroft-Karp."""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

_UNSEEN = -1


def maximum_bipartite_matching(
    adj: Sequence[Sequence[int]], n_right: int
) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Compute a maximum matching of a bipartite graph.

    ``adj[u]`` lists the right-side neighbors of left vertex u.  The
    adjacency order fixes the returned matching, so callers should pass
    sorted lists when they need deterministic output.  Returns
    ``(match_left, match_right)`` with None marking unmatched vertices.
    """
    n_left = len(adj)
    match_left: list[Optional[int]] = [None] * n_left
    match_right: list[Optional[int]] = [None] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _UNSEEN
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_right[v]
                if w is None:
                    found = True
                elif dist[w] == _UNSEEN:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(u: int) -> None:
        """Depth-first search for an augmenting path along the BFS layers,
        on an explicit stack: ``path`` holds the left vertices above u and
        ``at`` the index of the neighbor each of them descended through;
        neighbors are tried in adjacency order, dead ends leave the layering."""
        path: list[int] = []
        at: list[int] = []
        i = 0
        while True:
            nbrs = adj[u]
            deeper = dist[u] + 1
            for i in range(i, len(nbrs)):
                w = match_right[nbrs[i]]
                if w is None:
                    path.append(u)
                    at.append(i)
                    for u, i in zip(path, at):
                        v = adj[u][i]
                        match_left[u] = v
                        match_right[v] = u
                    return
                if dist[w] == deeper:
                    path.append(u)
                    at.append(i)
                    u, i = w, 0
                    break
            else:
                dist[u] = _UNSEEN
                if not path:
                    return
                u, i = path.pop(), at.pop() + 1

    while bfs():
        for u in range(n_left):
            if match_left[u] is None:
                augment(u)
    return match_left, match_right
