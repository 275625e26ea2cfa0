"""Branchings of the containment digraph and the splits they induce.

A branching picks at most one outgoing arc per vertex; it is encoded as an
out-choice tuple so the degree bound holds structurally.  Uncovered pairs
(r, v) are the rows of the induced split and the vertices owning at least
one uncovered pair are its distinct rows, which is what the exact solvers
minimize.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .containment import ContainmentDigraph, Dag
from .errors import BudgetError, InternalError, MatrixError
from .matrix import (
    BinaryMatrix,
    RowSplit,
    _distinct_supports,
    _laminar_tree,
    bits_of,
    reduce_columns,
    select,
    transpose,
    verify_row_split,
)

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class Branching:
    """Out-choice per vertex: ``choice[v]`` is v's successor or None."""

    choice: tuple[Optional[int], ...]

    @property
    def k(self) -> int:
        return len(self.choice)

    @classmethod
    def empty(cls, k: int) -> "Branching":
        return cls((None,) * k)


def _uncovered(supports: Sequence[int], choice: Sequence[Optional[int]]) -> list[int]:
    """Per vertex, the rows of its support outside every chosen in-neighbor's."""
    cover = [0] * len(choice)
    for u, v in enumerate(choice):
        if v is not None:
            cover[v] |= supports[u]
    return [mask & ~covered for mask, covered in zip(supports, cover)]


def _checked(digraph: Dag, branching: Branching) -> None:
    """Raise ValueError unless every chosen arc exists in the digraph."""
    if branching.k != digraph.n:
        raise ValueError(f"invalid branching: branching covers {branching.k} "
                         f"vertices, digraph has {digraph.n}")
    for u, v in enumerate(branching.choice):
        if v is not None and not digraph.is_arc(u, v):
            raise ValueError(f"invalid branching: ({u},{v}) is not an arc of the digraph")


def branching_split(matrix: BinaryMatrix, branching: Branching,
                    digraph: ContainmentDigraph) -> RowSplit:
    """The conflict-free row split induced by a branching.

    One split row per uncovered pair (r, v), holding a 1 in column j exactly
    when column j's support vertex is reachable from v along the branching;
    duplicate columns of the source are re-expanded so the split keeps all n
    columns.  Row r's group collects its own uncovered pairs.  Rows are
    ordered by (source row, vertex) for reproducible files.
    """
    if digraph.n_rows != matrix.m or len(digraph.class_of) != matrix.n:
        raise ValueError("digraph does not belong to this matrix")
    _checked(digraph, branching)
    supports = digraph.supports
    # for each row, the bitset of the vertices that keep it uncovered
    by_row = transpose(_uncovered(supports, branching.choice), digraph.n_rows)
    # column mask of everything reachable along the branching, incl. v
    # itself; choice targets have strictly larger supports, so fill the
    # memo by decreasing support size
    reach_cols = list(transpose([1 << v for v in digraph.class_of], digraph.n))
    for v in sorted(range(digraph.n), key=lambda u: supports[u].bit_count(), reverse=True):
        nxt = branching.choice[v]
        if nxt is not None:
            reach_cols[v] |= reach_cols[nxt]
    rows: list[int] = []
    groups = []
    for vertices in by_row:
        start = len(rows)
        rows.extend(select(reach_cols, vertices))
        groups.append(tuple(range(start, len(rows))))
    return RowSplit(BinaryMatrix.from_row_masks(matrix.n, rows), tuple(groups))


def split_to_branching(matrix: BinaryMatrix, split: RowSplit) -> Branching:
    """Extract from a verified conflict-free split a branching whose own
    split is a row subset of it.

    Reduces the columns of both matrices consistently and takes the
    elementary arcs (no two-arc shortcut) of the split's containment
    relation, mapped back to the source digraph.  The split's supports are
    laminar, so these are the parent arcs of its phylogeny, read off the
    sweep of :func:`build_phylogeny` over the split's distinct rows, as in
    :func:`find_conflict`.  Guarantees that the branching's
    uncovered-pair count is at most the split's row count and its
    irreducible-vertex count at most the split's distinct-row count.
    """
    verdict = verify_row_split(matrix, split)
    if not verdict:
        raise MatrixError(f"not a conflict-free row split: {verdict.reason}")
    red = reduce_columns(matrix)
    supports, rows = _distinct_supports(split.matrix)
    split_masks = tuple(supports[j] for j in red.representative)
    if len(set(split_masks)) != red.reduced.n:
        raise InternalError("two distinct source columns coincide in a verified split")
    tree = _laminar_tree(split_masks, rows)
    if tree is None:
        raise InternalError("phylogeny sweep rejected a verified split")
    # sweep node v + 1 is vertex v, and node 0 the all-rows root
    return Branching(tuple(p - 1 if p else None for p in tree[1][1:]))


def branching_state_count(digraph: Dag) -> int:
    """Number of branchings: the product over vertices of out-degree + 1."""
    total = 1
    for v in range(digraph.n):
        total *= digraph.out_masks[v].bit_count() + 1
    return total


def _decision_order(digraph: Dag) -> list[int]:
    """Topological order that gets arc heads fully decided early.

    Greedy Kahn: among available vertices take the one whose emission
    brings some head closest to having all its in-neighbors placed, the
    smallest such vertex on a tie.  That is the smallest (pending[u] - 1, w)
    over the arcs (w, u) out of available vertices, or (n + 1, w) for an
    available sink w.  A heap holds these pairs: each time a head's pending
    count or its smallest available in-neighbor changes, the head pushes
    its current pair, and a popped pair is skipped once it is outdated.
    """
    n = digraph.n
    out_masks, in_masks = digraph.out_masks, digraph.in_masks
    pending = [mask.bit_count() for mask in in_masks]
    heap: list[tuple[int, int, int]] = []
    available = 0

    def offer(u: int) -> None:
        ins = in_masks[u] & available
        if ins:
            heapq.heappush(heap, (pending[u] - 1, (ins & -ins).bit_length() - 1, u))

    def make_available(v: int) -> None:
        nonlocal available
        available |= 1 << v
        if not out_masks[v]:
            heapq.heappush(heap, (n + 1, v, -1))
        for u in bits_of(out_masks[v]):
            offer(u)

    for v in range(n):
        if not pending[v]:
            make_available(v)
    order: list[int] = []
    while heap:
        key, v, u = heapq.heappop(heap)
        if not available >> v & 1 or (u >= 0 and key != pending[u] - 1):
            continue
        order.append(v)
        available ^= 1 << v
        for u in bits_of(out_masks[v]):
            pending[u] -= 1
            if pending[u]:
                offer(u)
            else:
                make_available(u)
    if len(order) != n:
        raise InternalError(f"decision order placed {len(order)} of {n} vertices")
    return order


def _exact_minimize(
    digraph: ContainmentDigraph,
    cost: Callable[[int], int],
    budget: int,
) -> tuple[Branching, int]:
    """Shared exact solver: minimize the sum over vertices of
    ``cost(uncovered_mask)`` over all branchings.

    Depth-first over per-vertex out-choices (None first, then neighbors in
    index order) with branch-and-bound.  The running total is a look-ahead
    lower bound: vertex u is charged ``cost(supports[u] & ~cover[u] &
    ~suf[u])``, where ``suf[u]`` is the union of the supports of u's
    in-neighbors that have not chosen yet (suffix ORs over the decision
    order, precomputed once).  Only the out-neighbors of the vertex that
    just chose change their charge.  ``cover | suf`` can only shrink along
    a path and ``cost`` is monotone, so the total never overestimates any
    completion; at a leaf ``suf`` is empty and the total is the exact cost.
    At the root it already charges every source its full support.

    The search runs twice.  Choosing an arc only grows ``cover`` at its
    head and ``cost`` is monotone, so a None choice is never cheaper than an
    out-arc: the first pass skips None at every chooser, and its minimum is
    the optimum OPT.  It is primed with the empty branching and two greedy
    ones, and a subtree is entered only while its total is below the
    incumbent.  The second pass is the full search (None first), primed at
    OPT + 1 and stopped at its first leaf.  Until a search that is primed
    higher reaches a leaf of cost OPT, its incumbent stays above OPT, so it
    prunes no subtree holding one; the second pass therefore returns the
    same first optimum in the fixed search order, visiting only a subset
    of that search's nodes.
    """
    k = digraph.n
    states = branching_state_count(digraph)
    if states > budget:
        raise BudgetError(
            f"{states} branchings exceed the enumeration budget of {budget}"
        )
    supports = digraph.supports
    out_nbrs = [digraph.out(v) for v in range(k)]
    choosers = [v for v in _decision_order(digraph) if out_nbrs[v]]

    def total(choice: tuple[Optional[int], ...]) -> int:
        return sum(map(cost, _uncovered(supports, choice)))

    smallest = tuple(
        min(out_nbrs[v], key=lambda u: (supports[u].bit_count(), u))
        if out_nbrs[v] else None
        for v in range(k)
    )
    largest = tuple(
        max(out_nbrs[v], key=lambda u: (supports[u].bit_count(), -u))
        if out_nbrs[v] else None
        for v in range(k)
    )
    bound = min(total(c) for c in ((None,) * k, smallest, largest)) + 1

    # suf[u][p]: union of the supports of the last p in-neighbors of u to
    # choose; every in-neighbor has an out-arc, so it is a chooser
    suf: list[list[int]] = [[0] for _ in range(k)]
    for v in reversed(choosers):
        for u in out_nbrs[v]:
            suf[u].append(suf[u][-1] | supports[v])
    depth = len(choosers)

    def search(first: int, bound: int, floor: int) -> tuple[Optional[tuple], int]:
        """Depth-first from option ``first`` at every chooser (0 is None,
        i > 0 the i-th out-neighbor); the first leaf below ``bound`` becomes
        the incumbent, and the search returns once it costs at most ``floor``."""
        pending = [len(s) - 1 for s in suf]
        cover = [0] * k
        charge = [cost(supports[u] & ~suf[u][-1]) for u in range(k)]
        choice: list[Optional[int]] = [None] * k
        best = None
        # an explicit stack: depth t decides choosers[t], ``tried[t]`` is
        # the next option to take there and ``acc[t]`` the total on entering it
        tried = [first] * depth
        acc = [0] * (depth + 1)
        saved = [0] * depth
        olds = [[0] * len(out_nbrs[v]) for v in choosers]
        acc[0] = sum(charge)
        t = 0
        while t >= 0:
            if t == depth:
                if acc[t] < bound:
                    best, bound = tuple(choice), acc[t]
                    if total(best) != bound:
                        raise InternalError(f"exact search charged {bound} for a "
                                            f"branching costing {total(best)}")
                    if bound <= floor:
                        break
                t -= 1
                continue
            v = choosers[t]
            nbrs, old = out_nbrs[v], olds[t]
            i = tried[t]
            if i > first:  # undo option i - 1
                for j, u in enumerate(nbrs):
                    pending[u] += 1
                    charge[u] = old[j]
                if i > 1:
                    cover[nbrs[i - 2]] = saved[t]
                choice[v] = None
            if i > len(nbrs):
                tried[t] = first
                t -= 1
                continue
            tried[t] = i + 1
            if i:
                c = choice[v] = nbrs[i - 1]
                saved[t] = cover[c]
                cover[c] |= supports[v]
            delta = 0
            for j, u in enumerate(nbrs):
                pending[u] -= 1
                old[j] = charge[u]
                charge[u] = cost(supports[u] & ~(cover[u] | suf[u][pending[u]]))
                delta += charge[u] - old[j]
            if acc[t] + delta < bound:
                acc[t + 1] = acc[t] + delta
                t += 1
        return best, bound

    found, opt = search(1, bound, -1)
    if found is None:
        raise InternalError("exact search ended without reaching its primed bound")
    best, value = search(0, opt + 1, opt)
    if value != opt:
        raise InternalError(f"exact search's second pass ended at {value}, "
                            f"not at the optimum {opt}")
    return Branching(best), value


def exact_min_uncovered(digraph: ContainmentDigraph,
                        budget: int = DEFAULT_BUDGET) -> tuple[Branching, int]:
    """Branching minimizing the number of uncovered pairs, with that number.

    This equals the minimum row count over all conflict-free row splits of
    the digraph's matrix.
    """
    return _exact_minimize(digraph, int.bit_count, budget)


def exact_min_irreducible(digraph: ContainmentDigraph,
                          budget: int = DEFAULT_BUDGET) -> tuple[Branching, int]:
    """Branching minimizing the number of irreducible vertices, with that
    number: the minimum distinct-row count over all conflict-free splits."""
    return _exact_minimize(digraph, bool, budget)


def linear_from_chains(chains) -> Branching:
    """Turn a chain partition into the branching linking consecutive chain
    vertices (valid because the containment digraph is transitively closed)."""
    flat = [v for chain in chains for v in chain]
    k = len(flat)
    if sorted(flat) != list(range(k)):
        raise ValueError("chains must partition the vertices 0..k-1")
    choice: list[Optional[int]] = [None] * k
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            choice[a] = b
    return Branching(tuple(choice))
