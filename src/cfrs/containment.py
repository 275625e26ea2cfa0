"""DAGs and the column-support containment digraph.

A :class:`Dag` stores out- and in-neighbour bitsets, the latter derived on
first use.  The containment digraph of a matrix has one vertex per distinct
column support and an arc (u, v) for every proper inclusion u < v, so it is
acyclic and transitively closed by construction; a plain Dag checks cycles.
A conflict-free matrix's supports form a tree, and its digraph costs one OR
per support; others AND the holder bitsets of every support's rows.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable

from .matching import maximum_bipartite_matching
from .matrix import (BinaryMatrix, ConflictWitness, _first_rows, _laminar_tree, bits_of,
                     reduce_columns, select, transpose)


class Dag:
    """Immutable directed acyclic graph on vertices 0..n-1.

    ``out_masks[u]`` has bit v set for each arc (u, v).  Construction validates
    vertex ids and acyclicity (Kahn's algorithm); all else is derived from the
    masks in increasing vertex order, so it is deterministic."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) is out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            out[u] |= 1 << v
        self.n = n
        self.out_masks = tuple(out)
        self.topological_order  # raises on a cycle

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        return transpose(self.out_masks, self.n)

    @cached_property
    def _vertices(self) -> list[int]:
        return list(range(self.n))

    def out(self, v: int) -> tuple[int, ...]:
        return tuple(select(self._vertices, self.out_masks[v]))

    def is_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.out_masks[u] >> v & 1)

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Kahn's order on a stack, pushing sources and out-bits in increasing order."""
        indeg = [mask.bit_count() for mask in self.in_masks]
        stack = [v for v in range(self.n) if indeg[v] == 0]
        order: list[int] = []
        while stack:
            v = stack.pop()
            order.append(v)
            for w in bits_of(self.out_masks[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        if len(order) != self.n:
            raise ValueError("digraph contains a cycle")
        return tuple(order)

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """Bitset per vertex of everything reachable by a non-trivial path."""
        masks = [0] * self.n
        for v in reversed(self.topological_order):
            masks[v] = reduce(or_, select(masks, self.out_masks[v]), self.out_masks[v])
        return tuple(masks)


def height(dag: Dag) -> int:
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


def width(dag: Dag) -> int:
    """Maximum antichain size: vertex count minus a maximum matching on the
    bipartite split of the transitive closure."""
    adj = [select(dag._vertices, reach) for reach in dag.reach]
    match_left, _ = maximum_bipartite_matching(adj, dag.n)
    return match_left.count(None)


class ContainmentDigraph(Dag):
    """Containment digraph of a binary matrix.

    Vertex i is the support of the i-th distinct column (first-appearance
    order), stored as a bitset over row indices; arcs are all proper
    inclusions.  ``class_of`` maps original columns to vertices.

    The build first runs the sweep of :func:`~cfrs.matrix.build_phylogeny`,
    in the order ``first_rows`` sets, and keeps its witness as ``conflict``
    (None iff conflict-free): a sort of the k supports plus O(k + m) steps,
    each an operation on an m-bit mask.  A laminar family's supersets of a
    support are its ancestors in that tree, so visiting the supports by
    decreasing size costs one OR per support.  Only a family with a crossing
    pair pays for the holder AND, one AND per (row, support) incidence.
    """

    def __init__(self, supports: tuple[int, ...], n_rows: int,
                 class_of: tuple[int, ...], first_rows: int):
        k = len(supports)
        if len(set(supports)) != k or 0 in supports:
            raise ValueError("vertex supports must be distinct and nonempty")
        self.class_of = tuple(class_of)
        # no cycle, so no Kahn pass; the sweep walks source columns, so its witness names them
        tree = _laminar_tree([supports[v] for v in self.class_of], n_rows, first_rows)
        self.conflict = tree if isinstance(tree, ConflictWitness) else None
        if self.conflict is not None:  # support i lies in the supports holding its rows
            holders = transpose(supports, n_rows)
            out = tuple(reduce(and_, select(holders, mask), -1) ^ (1 << i)
                        for i, mask in enumerate(supports))
        else:  # the supersets of a support are its ancestors: parents first
            node_masks, parent, _ = tree
            up = [0] * (k + 1)  # node v's ancestors, bit u for node u
            for v in sorted(range(1, k + 1), key=lambda u: -node_masks[u].bit_count()):
                up[v] = up[parent[v]] | 1 << parent[v]
            out = tuple(mask >> 1 for mask in up[1:])  # node v is vertex v - 1
        self.n = k
        self.out_masks = self.reach = out  # transitively closed
        self.supports = tuple(supports)
        self.n_rows = n_rows


def build_containment(matrix: BinaryMatrix) -> ContainmentDigraph:
    """Containment digraph over the distinct column supports of a matrix."""
    red = reduce_columns(matrix)
    return ContainmentDigraph(red.reduced.col_masks, matrix.m, red.class_of,
                              _first_rows(matrix))
