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
from functools import partial, reduce
from itertools import islice
from operator import or_
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

# an undecided chooser of the exact search: its support and the heads where
# it can hold lone rows (see _lone_rows_bound)
Holder = tuple[int, tuple[int, ...]]


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
    tree = _laminar_tree(split_masks, rows, -1)
    if not isinstance(tree, tuple):  # a conflict witness
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
    outs = [list(bits_of(mask)) for mask in out_masks]
    pending = [mask.bit_count() for mask in in_masks]
    # a pair (key, w) for head u is the int (key << 2b) | (w << b) | (u + 1),
    # which the heap compares in C, unlike a tuple
    b = (n + 1).bit_length()
    low = (1 << b) - 1
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    available = 0
    # a vertex becomes available when its last in-neighbor is placed; it
    # then offers itself as a sink or to each of its heads
    fresh = [v for v in range(n) if not pending[v]]
    order: list[int] = []
    while True:
        for v in fresh:
            available |= 1 << v
            if not out_masks[v]:
                push(heap, (n + 1) << 2 * b | v << b)
            for u in outs[v]:
                ins = in_masks[u] & available
                push(heap, (pending[u] - 1) << 2 * b | ((ins & -ins).bit_length() - 1) << b
                     | u + 1)
        if not heap:
            break
        pair = pop(heap)
        v, u = pair >> b & low, (pair & low) - 1
        if not available >> v & 1 or (u >= 0 and pair >> 2 * b != pending[u] - 1):
            fresh = ()
            continue
        order.append(v)
        available ^= 1 << v
        fresh = []
        for u in outs[v]:
            pending[u] -= 1
            if pending[u]:
                ins = in_masks[u] & available
                if ins:
                    push(heap, (pending[u] - 1) << 2 * b
                         | ((ins & -ins).bit_length() - 1) << b | u + 1)
            else:
                fresh.append(u)
    if len(order) != n:
        raise InternalError(f"decision order placed {len(order)} of {n} vertices")
    return order


def _lone_rows_bound(holders: Sequence[Holder],
                     cover: Sequence[int], suf2: Sequence[Sequence[int]],
                     pending: Sequence[int], start: int, gap: float) -> int:
    """Rows, beyond the look-ahead's, that stay uncovered in every completion.

    ``holders[start:]`` are undecided choosers c, each with its support and
    some of its heads.  Row r of c is lone at head u when r is outside
    ``cover[u]`` and c is the only undecided in-neighbor of u holding it,
    that is outside ``suf2[u][pending[u]]``, the rows held by two or more
    of them.  The look-ahead charges none of these (head, row) pairs, and
    each belongs to one chooser.  c picks one head, so it leaves all its
    lone pairs uncovered but those at that head: at least all but those at
    its head with the most.  Stops once the sum reaches ``gap``.
    """
    extra = 0
    for mask, heads in islice(holders, start, None):
        held = most = 0
        for u in heads:
            lone = (mask & ~(cover[u] | suf2[u][pending[u]])).bit_count()
            held += lone
            if lone > most:
                most = lone
        extra += held - most
        if extra >= gap:
            break
    return extra


def _lone_heads_bound(holders: Sequence[Holder],
                      cover: Sequence[int], suf2: Sequence[Sequence[int]],
                      pending: Sequence[int], start: int, gap: float, *,
                      charge: Sequence[int]) -> int:
    """Heads, beyond the look-ahead's, that stay irreducible in every
    completion.

    With lone rows as in :func:`_lone_rows_bound`, a head u that the
    look-ahead does not charge needs the undecided chooser c to become
    reducible when c has a lone row there.  c picks one head, so at most
    one head of such a group becomes reducible.  Groups are taken in the
    order of ``holders`` and drop the heads of earlier groups, so no head
    is counted twice.  Stops once the sum reaches ``gap``.
    """
    extra = used = 0
    for mask, heads in islice(holders, start, None):
        group = 0
        for u in heads:
            if not charge[u] and mask & ~(cover[u] | suf2[u][pending[u]]):
                group |= 1 << u
        group &= ~used
        size = group.bit_count()
        if size > 1:
            extra += size - 1
            used |= group
            if extra >= gap:
                break
    return extra


def _suffix_tables(
    supports: Sequence[int], out_nbrs: Sequence[Sequence[int]], choosers: Sequence[int],
) -> tuple[list[list[int]], list[list[int]], list[Holder], list[int]]:
    """The exact search's tables over its decision order ``choosers``.

    ``suf[u][p]`` is the union of the supports of the last p in-neighbors
    of u to choose and ``suf2[u][p]`` the rows held by two or more of them;
    every in-neighbor has an out-arc, so it is a chooser.  A row of v can
    be lone at u (see :func:`_lone_rows_bound`) only if no later chooser of
    u holds it.  The holders are the choosers with such rows at two heads
    or more, each with its support and those heads, in decision order:
    ``holders[first_holder[t]:]`` are the undecided ones at depth t.
    """
    k, depth = len(supports), len(choosers)
    suf: list[list[int]] = [[0] for _ in range(k)]
    suf2: list[list[int]] = [[0] for _ in range(k)]
    holders: list[Holder] = []
    later_holders = [0] * (depth + 1)
    for t in reversed(range(depth)):
        v = choosers[t]
        mask, heads = supports[v], []
        for u in out_nbrs[v]:
            later = suf[u][-1]
            if mask & ~later:
                heads.append(u)
            suf2[u].append(suf2[u][-1] | (later & mask))
            suf[u].append(later | mask)
        if len(heads) > 1:
            holders.append((mask, tuple(heads)))
        later_holders[t] = len(holders)
    holders.reverse()
    return suf, suf2, holders, [len(holders) - n for n in later_holders]


def _exact_minimize(digraph: ContainmentDigraph, distinct: bool,
                    budget: int) -> tuple[Branching, int]:
    """Shared exact solver: minimize the sum over vertices of
    ``cost(uncovered_mask)`` over all branchings.

    Returns the first optimum in the fixed search order: choosers in the
    decision order, each trying None first, then its out-neighbors in index
    order.  Subtrees are bounded by a look-ahead lower bound: vertex u is
    charged ``cost(supports[u] & ~cover[u] & ~suf[u])``, where ``suf[u]``
    is the union of the supports of u's in-neighbors that have not chosen
    yet (suffix ORs over the decision order, precomputed once).  Only the
    out-neighbors of the vertex that just chose change their charge.
    ``cover | suf`` can only shrink along a path and ``cost`` is monotone,
    so the total never overestimates any completion; at a leaf ``suf`` is
    empty and the total is the exact cost.  At the root it already charges
    every source its full support.

    Wherever the look-ahead prunes, the lone-holder bound is added to it
    (:func:`_lone_rows_bound` for rows, :func:`_lone_heads_bound` for
    distinct rows): a row that only one undecided in-neighbor c of u holds
    and that u's cover lacks is relieved at u only if c picks u, and c
    picks one head.  Its pairs are disjoint from the look-ahead's and from
    other choosers', so the sum is still a lower bound.  It stops once it
    closes the gap to the incumbent, and the bounds return 0 once none
    remain of the undecided holders (see :func:`_suffix_tables`).

    Choosing an arc only grows ``cover`` at its head and ``cost`` is
    monotone, so a None choice is never cheaper than an out-arc, and the
    minimum of any subtree equals that of its None-free part.  Pass 1 is a
    None-free branch-and-bound, primed by the smallest-superset greedy
    branching, that enters a subtree only while its bound is below the
    incumbent, and stops at a leaf costing no more than the root's bound:
    it proves the optimum OPT, and it enters every subtree holding a leaf
    of cost OPT until it finds one, so its witness W is the first optimal
    None-free leaf in index order.  Pass 2 descends the decision order,
    keeping W the first optimal None-free completion of the choices made
    so far.  At chooser v, an out-neighbor before W's arc a has no optimal
    completion: turning its None choices into arcs would give an optimal
    None-free one before W.  So v asks only whether None's subtree holds
    a leaf of cost OPT, and takes a when it does not.  None is ruled out
    when its bound exceeds OPT.  It is taken at once when moving v in W
    from a to None keeps W at OPT, which changes only a's cost; W stays
    first, since a tail optimal under None is optimal under a.  Otherwise
    a None-free subsearch of the later choosers in index order, primed at
    OPT + 1 and stopped at its first leaf, decides: that leaf becomes W,
    and with no leaf v takes a.  The descent thus ends at the first
    optimal leaf of the full search order, the one a single full search
    would return.  Both passes run on one state, changed and restored in
    place.
    """
    k = digraph.n
    states = branching_state_count(digraph)
    if states > budget:
        raise BudgetError(
            f"{states} branchings exceed the enumeration budget of {budget}"
        )
    cost: Callable[[int], int] = bool if distinct else int.bit_count
    supports = digraph.supports
    out_nbrs = [digraph.out(v) for v in range(k)]
    choosers = [v for v in _decision_order(digraph) if out_nbrs[v]]

    def total(choice: tuple[Optional[int], ...]) -> int:
        return sum(map(cost, _uncovered(supports, choice)))

    smallest = tuple(min(nbrs, key=lambda u: (supports[u].bit_count(), u)) if nbrs else None
                     for nbrs in out_nbrs)
    bound = total(smallest) + 1

    suf, suf2, holders, first_holder = _suffix_tables(supports, out_nbrs, choosers)
    depth = len(choosers)

    # the state: depth t decides choosers[t]; ``acc[t]`` is the charged
    # total on entering depth t and ``tried[t]`` the number of
    # out-neighbors tried there
    pending = [len(s) - 1 for s in suf]
    cover = [0] * k
    charge = [cost(supports[u] & ~suf[u][-1]) for u in range(k)]
    choice: list[Optional[int]] = [None] * k
    acc = [sum(charge)] + [0] * depth
    tried = [0] * depth
    saved = [0] * depth
    olds = [[0] * len(out_nbrs[v]) for v in choosers]
    # beyond(first_holder[t], gap): the lone-holder bound at depth t
    if distinct:
        beyond = partial(_lone_heads_bound, holders, cover, suf2, pending, charge=charge)
    else:
        beyond = partial(_lone_rows_bound, holders, cover, suf2, pending)

    def decide(t: int, c: Optional[int]) -> int:
        """Let choosers[t] choose c (None for no arc); return the change
        of the charged total."""
        v = choosers[t]
        choice[v] = c
        if c is not None:
            saved[t] = cover[c]
            cover[c] |= supports[v]
        old = olds[t]
        delta = 0
        for j, u in enumerate(out_nbrs[v]):
            pending[u] -= 1
            old[j] = charge[u]
            charge[u] = cost(supports[u] & ~(cover[u] | suf[u][pending[u]]))
            delta += charge[u] - old[j]
        return delta

    def undecide(t: int) -> None:
        """Undo ``decide(t, choice[choosers[t]])``."""
        v = choosers[t]
        for j, u in enumerate(out_nbrs[v]):
            pending[u] += 1
            charge[u] = olds[t][j]
        if choice[v] is not None:
            cover[choice[v]] = saved[t]
        choice[v] = None

    def search(t0: int, bound: int, floor: int) -> tuple[Optional[tuple], int]:
        """None-free depth-first over choosers[t0:] from the state at depth
        t0, each trying its out-neighbors in index order.  The first leaf
        below ``bound`` becomes the incumbent, and the search stops once it
        costs at most ``floor``; with ``bound`` = ``floor`` + 1 that is the
        first leaf costing at most ``floor``.  The state is restored."""
        best = None
        t = t0
        while t >= t0:
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
            nbrs = out_nbrs[choosers[t]]
            s = tried[t]
            if s:  # undo the out-neighbor taken last
                undecide(t)
            if s == len(nbrs):
                tried[t] = 0
                t -= 1
                continue
            tried[t] = s + 1
            lower = acc[t] + decide(t, nbrs[s])
            if lower < bound and lower + beyond(first_holder[t + 1], bound - lower) < bound:
                acc[t + 1] = lower
                t += 1
        while t > t0:
            t -= 1
            undecide(t)
            tried[t] = 0
        return best, bound

    # a leaf at the root's lower bound is optimal
    floor = acc[0] + beyond(0, bound - acc[0])
    found, opt = search(0, bound, floor)
    if found is None:
        raise InternalError("exact search ended without reaching its primed bound")
    # pass 2: ``found`` is W, and ``into[h]`` the set of vertices choosing h in W
    def chosen_by(branching: Sequence[Optional[int]]) -> list[int]:
        masks = [0] * k
        for u, h in enumerate(branching):
            if h is not None:
                masks[h] |= 1 << u
        return masks

    into = chosen_by(found)
    for t, v in enumerate(choosers):
        lower = acc[t + 1] = acc[t] + decide(t, None)
        if lower <= opt and lower + beyond(first_holder[t + 1], opt + 1 - lower) <= opt:
            # moving v in W from head a to None changes only a's cost
            a = found[v]
            rest = reduce(or_, select(supports, into[a] ^ 1 << v), 0)
            if cost(supports[a] & ~rest) == cost(supports[a] & ~(rest | supports[v])):
                into[a] ^= 1 << v
                continue
            leaf = search(t + 1, opt + 1, opt)[0]
            if leaf is not None:
                found, into = leaf, chosen_by(leaf)
                continue
        undecide(t)
        acc[t + 1] = acc[t] + decide(t, found[v])
    best = tuple(choice)
    if total(best) != opt:
        raise InternalError(f"exact search's descent ended at a branching costing "
                            f"{total(best)}, not at the optimum {opt}")
    return Branching(best), opt


def exact_min_uncovered(digraph: ContainmentDigraph,
                        budget: int = DEFAULT_BUDGET) -> tuple[Branching, int]:
    """Branching minimizing the number of uncovered pairs, with that number.

    This equals the minimum row count over all conflict-free row splits of
    the digraph's matrix.
    """
    return _exact_minimize(digraph, False, budget)


def exact_min_irreducible(digraph: ContainmentDigraph,
                          budget: int = DEFAULT_BUDGET) -> tuple[Branching, int]:
    """Branching minimizing the number of irreducible vertices, with that
    number: the minimum distinct-row count over all conflict-free splits."""
    return _exact_minimize(digraph, True, budget)


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
