"""The column-support containment digraph, the one digraph ``cfrs`` builds.

It has one vertex per distinct column support and an arc (u, v) for every
proper inclusion u < v, so it is acyclic and transitively closed by
construction: its out-neighbour bitsets are its own closure ``reach``, and
in-neighbour bitsets are derived on first use.  A conflict-free matrix's
supports form a tree, and its digraph costs one OR per support; others AND
the holder bitsets of every support's rows.  :func:`height` and
:func:`width` read only ``n`` and ``reach``; ``width`` serves
``cfrs analyze``.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_

from .matching import maximum_bipartite_matching
from .matrix import (BinaryMatrix, ConflictWitness, _first_rows, _laminar_tree, reduce_columns,
                     select, transpose)


def height(dag: ContainmentDigraph) -> int:
    """Maximum number of vertices on a directed path.  A vertex reaches only
    vertices reaching fewer, so taken by reach size each lands one level (a
    bitset) above the highest level its reach meets."""
    reach = dag.reach
    levels: list[int] = []
    for v in sorted(range(dag.n), key=lambda u: reach[u].bit_count()):
        h = len(levels)
        while h and not reach[v] & levels[h - 1]:
            h -= 1
        if h == len(levels):
            levels.append(0)
        levels[h] |= 1 << v
    return len(levels)


def width(dag: ContainmentDigraph) -> int:
    """Maximum antichain size: vertex count minus a maximum matching on the
    bipartite split of the transitive closure."""
    vertices = list(range(dag.n))
    adj = [select(vertices, reach) for reach in dag.reach]
    match_left, _ = maximum_bipartite_matching(adj, dag.n)
    return match_left.count(None)


class ContainmentDigraph:
    """Containment digraph of a binary matrix.

    Vertex i is the support of the i-th distinct column (first-appearance
    order), stored as a bitset over row indices; arcs are all proper
    inclusions, so the out-neighbour bitsets are the closure ``reach``.
    ``class_of`` maps original columns to vertices.

    The build first runs the sweep of :func:`~cfrs.matrix.build_phylogeny`
    over the matrix's ``col_masks`` and keeps its witness as ``conflict``
    (None iff conflict-free): a sort of the k supports plus O(k + m) steps,
    each an operation on an m-bit mask.  A laminar family's supersets of a
    support are its ancestors in that tree, so visiting the supports by
    decreasing size costs one OR per support.  Only a family with a crossing
    pair pays for the holder AND, one AND per (row, support) incidence.
    """

    def __init__(self, matrix: BinaryMatrix):
        red = reduce_columns(matrix)
        supports, m, k = red.supports, matrix.m, len(red.supports)
        # the sweep walks source columns, so its witness names them
        tree = _laminar_tree(matrix.col_masks, m, _first_rows(matrix))
        self.conflict = tree if isinstance(tree, ConflictWitness) else None
        if self.conflict is not None:  # support i lies in the supports holding its rows
            holders = transpose(supports, m)
            reach = tuple(reduce(and_, select(holders, mask), -1) ^ (1 << i)
                          for i, mask in enumerate(supports))
        else:  # the supersets of a support are its ancestors: parents first
            node_masks, parent, _ = tree
            up = [0] * (k + 1)  # node v's ancestors, bit u for node u
            for v in sorted(range(1, k + 1), key=lambda u: -node_masks[u].bit_count()):
                up[v] = up[parent[v]] | 1 << parent[v]
            reach = tuple(mask >> 1 for mask in up[1:])  # node v is vertex v - 1
        self.n = k
        self.reach = reach  # transitively closed: also the out-neighbour bitsets
        self.supports = supports
        self.n_rows = m
        self.class_of = red.class_of

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        return transpose(self.reach, self.n)

    @cached_property
    def _vertices(self) -> list[int]:
        return list(range(self.n))

    def out(self, v: int) -> tuple[int, ...]:
        return tuple(select(self._vertices, self.reach[v]))

    def is_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.reach[u] >> v & 1)


def build_containment(matrix: BinaryMatrix) -> ContainmentDigraph:
    """Containment digraph over the distinct column supports of a matrix."""
    return ContainmentDigraph(matrix)
