"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import io
import itertools
import random
from functools import reduce
from operator import or_
from typing import Iterator, Sequence

from cfrs import (
    BinaryMatrix,
    Branching,
    ContainmentDigraph,
    CubicGraph,
    PhyloTree,
    gen_block_tree,
    gen_random,
    gen_random_laminar,
    reduce_columns,
    verify_row_split,
)
from cfrs.errors import BudgetError, InternalError, MatrixError
from cfrs.io import format_split
from cfrs.matching import LiveMatching, maximum_bipartite_matching
from cfrs.matrix import (ACCEPT, ConflictWitness, RowSplit, Verdict, bits_of, find_conflict,
                         mask_of, select, transpose)
from cfrs.poset import _validated_weights, is_chain_partition, is_monotone, partition_price

# rows (1,1),(1,0),(0,1): the two column supports cross, so the matrix has a
# conflict and its digraph is two incomparable vertices
CROSSING_PAIR = BinaryMatrix(((1, 1), (1, 0), (0, 1)))

# rows (1,1),(0,1): supports {r1} and {r1,r2} are nested, conflict-free
NESTED_PAIR = BinaryMatrix(((1, 1), (0, 1)))

IDENTITY_2 = BinaryMatrix(((1, 0), (0, 1)))


def reference_kahn_order(n: int, arcs) -> tuple[int, ...]:
    """Kahn's algorithm on a stack over sorted adjacency lists: sources
    pushed in increasing order, then each popped vertex's out-neighbours in
    increasing order as their in-degree drops to zero."""
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in sorted(set(arcs)):
        out[u].append(v)
        indeg[v] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return tuple(order)


class Dag:
    """A DAG on vertices 0..n-1 from an arc list, for the tests' general DAGs.

    It has what the library reads off a :class:`ContainmentDigraph`: ``n``,
    the in-neighbour bitsets, the closure ``reach`` and the out-neighbours
    ``out``; its ``topological_order`` and cycle check are
    :func:`reference_kahn_order`'s."""

    def __init__(self, n: int, arcs=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        arcs = list(arcs)
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) is out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            out[u] |= 1 << v
        self.topological_order = reference_kahn_order(n, arcs)
        if len(self.topological_order) != n:
            raise ValueError("digraph contains a cycle")
        self.n, self._out = n, tuple(out)
        self.in_masks = transpose(self._out, n)
        reach = [0] * n
        for v in reversed(self.topological_order):
            reach[v] = reduce(or_, select(reach, out[v]), out[v])
        self.reach = tuple(reach)

    def out(self, v: int) -> tuple[int, ...]:
        return tuple(bits_of(self._out[v]))


# 4-vertex gap instance {a},{b},{a,b},{b,c} with inclusion arcs
GAP_DAG = Dag(4, [(0, 2), (1, 2), (1, 3)])


def stream(text: str) -> io.StringIO:
    """``text`` as the text stream that the file readers take."""
    return io.StringIO(text)


def split_text(split: RowSplit) -> str:
    """The split file that ``format_split`` writes for ``split``."""
    out = io.StringIO()
    format_split(split, out)
    return out.getvalue()


def gap_weights(z: int, Z: int) -> list[int]:
    return [z, Z, Z, z]


def k4() -> CubicGraph:
    return CubicGraph(4, tuple(itertools.combinations(range(4), 2)))


def k33() -> CubicGraph:
    return CubicGraph(6, tuple((a, b + 3) for a in range(3) for b in range(3)))


def q3() -> CubicGraph:
    return CubicGraph(8, tuple(
        (u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < (u ^ bit)
    ))


def prism(n: int, rim_step: int) -> CubicGraph:
    """Outer n-cycle, spokes and an inner cycle of the given step: the
    n-prism for step 1, the Petersen graph for n=5 and step 2."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + rim_step) % n) for i in range(n)]
    return CubicGraph(2 * n, tuple(outer + spokes + inner))


def random_corpus(count: int, max_side: int = 6, seed: int = 20240) -> list[BinaryMatrix]:
    """Deterministic corpus of small random matrices."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        m = rng.randint(1, max_side)
        n = rng.randint(1, max_side)
        density = rng.choice((0.3, 0.5, 0.7))
        corpus.append(gen_random(m, n, density, rng.randint(0, 10**9)))
    return corpus


def random_dag(rng: random.Random, max_vertices: int = 10,
               arc_probability: float = 0.35) -> Dag:
    n = rng.randint(1, max_vertices)
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < arc_probability
    ]
    return Dag(n, arcs)


def random_monotone_weights(rng: random.Random, dag: Dag,
                            high: int = 20) -> list[int]:
    weights = [rng.randint(0, high) for _ in range(dag.n)]
    for v in dag.topological_order:
        for u in bits_of(dag.in_masks[v]):
            weights[v] = max(weights[v], weights[u])
    return weights


def duplicate_column(matrix: BinaryMatrix, col: int) -> BinaryMatrix:
    """Append a copy of the given column."""
    return BinaryMatrix(tuple(row + (row[col],) for row in matrix.rows))


def nested_prefix(m: int, rng: random.Random) -> BinaryMatrix:
    """m x m matrix whose column j holds the first j+1 rows of a random row
    order: one chain of m supports."""
    order = list(range(m))
    rng.shuffle(order)
    cols = [1 << order[0]]
    for r in order[1:]:
        cols.append(cols[-1] | 1 << r)
    return BinaryMatrix.from_col_masks(m, cols)


def with_repeated_rows(matrix: BinaryMatrix, rng: random.Random) -> BinaryMatrix:
    """The rows of ``matrix``, each repeated 1-3 times, in shuffled order."""
    masks = [mask for mask in matrix.row_masks for _ in range(rng.randint(1, 3))]
    rng.shuffle(masks)
    return BinaryMatrix.from_row_masks(matrix.n, masks)


def with_repeated_split_rows(split: RowSplit, rng: random.Random) -> RowSplit:
    """The split with each split row repeated 1-3 times inside its own group
    and the split rows shuffled: every group still ORs to its source row."""
    copies = [[r] * rng.randint(1, 3) for r in range(split.matrix.m)]
    order = [r for group in copies for r in group]
    rng.shuffle(order)
    positions: dict[int, list[int]] = {}
    for pos, r in enumerate(order):
        positions.setdefault(r, []).append(pos)
    groups = tuple(tuple(pos for r in group for pos in positions[r])
                   for group in split.groups)
    masks = [split.matrix.row_masks[r] for r in order]
    return RowSplit(BinaryMatrix.from_row_masks(split.matrix.n, masks), groups)


def with_last_pair_crossing(matrix: BinaryMatrix) -> BinaryMatrix:
    """Append two columns that cross each other on three new rows and are
    disjoint from every old column: the last column pair is the only
    conflict when ``matrix`` is conflict-free."""
    rows = [row + (0, 0) for row in matrix.rows]
    zeros = (0,) * matrix.n
    rows += [zeros + (1, 0), zeros + (1, 1), zeros + (0, 1)]
    return BinaryMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Small library-shaped helpers the tests build on, written independently of
# the package's own code paths


def column_support(matrix: BinaryMatrix, col: int) -> frozenset[int]:
    """Row indices holding a 1 in the given column, read off the 0/1 rows."""
    if not 0 <= col < matrix.n:
        raise ValueError(f"unknown column index {col}")
    return frozenset(i for i, row in enumerate(matrix.rows) if row[col])


def count_distinct_cols(matrix: BinaryMatrix) -> int:
    return len(set(zip(*matrix.rows)))


def dag_arcs(dag: Dag) -> frozenset[tuple[int, int]]:
    """The arcs (u, v) of a DAG, read off its out-neighbour tuples."""
    return frozenset((u, v) for u in range(dag.n) for v in dag.out(u))


def tree_k(tree: PhyloTree) -> int:
    """The number of distinct supports in a phylogeny: its nodes but the root."""
    return len(tree.node_masks) - 1


def identity_split(matrix: BinaryMatrix) -> RowSplit:
    """The trivial split of a matrix into itself, one singleton group per row."""
    return RowSplit(matrix, tuple((i,) for i in range(matrix.m)))


def branching_from_arcs(k: int, arcs) -> Branching:
    """The branching on k vertices choosing the given arcs."""
    choice: list = [None] * k
    for u, v in arcs:
        if choice[u] is not None:
            raise ValueError(f"vertex {u} has two outgoing arcs")
        choice[u] = v
    return Branching(tuple(choice))


def uncovered_pairs(digraph: ContainmentDigraph, branching: Branching):
    """Pairs (row, vertex) with the row in the vertex's support but in no
    chosen in-neighbor's, sorted by (row, vertex)."""
    supports = digraph.supports
    covers = [0] * digraph.n
    for u, v in enumerate(branching.choice):
        if v is not None:
            covers[v] |= supports[u]
    return tuple(sorted((r, v) for v in range(digraph.n)
                        for r in bits_of(supports[v] & ~covers[v])))


def irreducible_vertices(digraph: ContainmentDigraph, branching: Branching) -> frozenset[int]:
    """Vertices keeping at least one uncovered row."""
    return frozenset(v for _, v in uncovered_pairs(digraph, branching))


def _walk(v, step):
    path = [v]
    while step[path[-1]] is not None:
        path.append(step[path[-1]])
    return path


def dilworth_partition(dag: Dag) -> tuple[tuple[int, ...], ...]:
    """A chain partition of exactly width(D) chains, sorted (Fulkerson): a
    maximum matching on the bipartite split of the closure, each chain
    starting at a vertex whose right copy is free and following partners."""
    match_left, match_right = maximum_bipartite_matching(
        [list(bits_of(reach)) for reach in dag.reach], dag.n)
    return tuple(sorted(tuple(_walk(v, match_left))
                        for v, head in enumerate(match_right) if head is None))


# ---------------------------------------------------------------------------
# Independent oracles


BRUTE_FORCE_CAP = 10


def _comparable(dag: Dag) -> list[int]:
    """Per vertex, the bitset of the vertices comparable to it, for the
    brute-force oracles; refuses DAGs above :data:`BRUTE_FORCE_CAP`."""
    if dag.n > BRUTE_FORCE_CAP:
        raise BudgetError(f"{dag.n} vertices exceed the brute-force cap of "
                          f"{BRUTE_FORCE_CAP}")
    return [out | into for out, into in zip(dag.reach, transpose(dag.reach, dag.n))]


def brute_force_min_price(dag: Dag, weights: Sequence[int]) -> int:
    """Exact minimum price over all chain partitions, by exhaustion.

    Test oracle: no monotonicity required.  Enumerates set partitions whose
    blocks are pairwise comparable (every such block is a chain).
    """
    w = _validated_weights(dag, weights)
    comparable = _comparable(dag)
    best = sum(w)  # all-singleton partition
    block_masks: list[int] = []
    block_price: list[int] = []

    def extend(v: int, total: int) -> None:
        nonlocal best
        if total >= best:
            return
        if v == dag.n:
            best = total
            return
        for b in range(len(block_masks)):
            if block_masks[b] & ~comparable[v]:
                continue
            old = block_price[b]
            new = max(old, w[v])
            block_masks[b] |= 1 << v
            block_price[b] = new
            extend(v + 1, total + new - old)
            block_masks[b] ^= 1 << v
            block_price[b] = old
        block_masks.append(1 << v)
        block_price.append(w[v])
        extend(v + 1, total + w[v])
        block_masks.pop()
        block_price.pop()

    extend(0, 0)
    return best


def brute_force_max_tower(dag: Dag, weights: Sequence[int]) -> int:
    """Exact maximum tower value, by enumerating every antichain.

    Level choices are independent, so the answer is the sum over sizes
    1..width of the best value among antichains of that exact size.
    """
    w = _validated_weights(dag, weights)
    comparable = _comparable(dag)
    best_by_size: dict[int, int] = {}
    for subset in range(1, 1 << dag.n):
        if any(subset & comparable[v] for v in bits_of(subset)):
            continue
        size = subset.bit_count()
        value = min(w[v] for v in bits_of(subset))
        if best_by_size.get(size, -1) < value:
            best_by_size[size] = value
    wdt = max(best_by_size)
    return sum(best_by_size[i] for i in range(1, wdt + 1))


def iter_branchings(digraph: Dag) -> Iterator[Branching]:
    """Every branching, in lexicographic order of the choice tuple."""
    options = [(None, *digraph.out(v)) for v in range(digraph.n)]
    for combo in itertools.product(*options):
        yield Branching(combo)


def chains_from_linear(branching: Branching):
    """Inverse of :func:`linear_from_chains` for linear branchings.

    Raises ValueError when some vertex is entered by two branching arcs.
    """
    heads = [v for v in branching.choice if v is not None]
    if len(heads) != len(set(heads)):
        raise ValueError("branching is not linear: a vertex has in-degree two")
    head_set = set(heads)
    chains = []
    for start in range(branching.k):
        if start in head_set:
            continue
        path = [start]
        while branching.choice[path[-1]] is not None:
            path.append(branching.choice[path[-1]])
            if len(path) > branching.k:
                raise ValueError("branching contains a cycle")
        chains.append(tuple(path))
    return tuple(chains)


def transitive_closure(dag: Dag) -> frozenset[tuple[int, int]]:
    """All pairs (u, v) connected by a non-trivial directed path."""
    return frozenset(
        (u, v) for u in range(dag.n) for v in bits_of(dag.reach[u])
    )


def elementary_arcs(dag: Dag) -> frozenset[tuple[int, int]]:
    """Arcs (u, v) with no vertex w such that (u, w) and (w, v) are both arcs.

    On a transitively closed digraph this is the transitive reduction.
    """
    in_ = dag.in_masks
    out = [mask_of(dag.out(u)) for u in range(dag.n)]
    return frozenset(
        (u, v) for u in range(dag.n) for v in dag.out(u) if not out[u] & in_[v]
    )


def is_laminar(matrix: BinaryMatrix) -> bool:
    """True iff every two column supports are nested or disjoint.

    Implemented by direct pairwise support comparison, independently of
    :func:`find_conflict`, so the two can cross-check each other.
    """
    masks = sorted(set(matrix.col_masks))
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            inter = masks[a] & masks[b]
            if inter and inter != masks[a] and inter != masks[b]:
                return False
    return True


def oracle_max_antichain_size(dag: Dag) -> int:
    """Maximum independent set of the comparability relation, by subsets."""
    reach = dag.reach
    best = 0
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(dag.n), size)
        for size in range(dag.n, 0, -1)
    ):
        ok = all(
            not (reach[a] >> b) & 1 and not (reach[b] >> a) & 1
            for a, b in itertools.combinations(subset, 2)
        )
        if ok:
            return len(subset)
    return best


def oracle_has_conflict(matrix: BinaryMatrix) -> bool:
    """Exhaustive scan over all column pairs and row triples."""
    for i, j in itertools.combinations(range(matrix.n), 2):
        for rows in itertools.permutations(range(matrix.m), 3):
            picked = [(matrix.rows[r][i], matrix.rows[r][j]) for r in rows]
            if picked == [(1, 1), (1, 0), (0, 1)]:
                return True
    return False


def oracle_longest_chain(dag: Dag) -> int:
    """Longest path vertex count by depth-first search over all paths."""
    best = 1 if dag.n else 0

    def walk(v: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w in dag.out(v):
            walk(w, length + 1)

    for v in range(dag.n):
        walk(v, 1)
    return best


def reference_branching_split(matrix: BinaryMatrix, branching, digraph):
    """Per-cell ``(rows, groups)`` of a branching's split: one 0/1 row per
    uncovered (row, vertex) pair in (row, vertex) order, with a 1 in every
    column whose vertex the branching path from the pair's vertex visits."""
    choice = branching.choice
    pairs = []
    for v in range(digraph.n):
        for r in range(matrix.m):
            covered = any(choice[u] == v and (digraph.supports[u] >> r) & 1
                          for u in range(digraph.n))
            if (digraph.supports[v] >> r) & 1 and not covered:
                pairs.append((r, v))
    pairs.sort()
    rows = []
    for _, v in pairs:
        path = {v}
        while choice[v] is not None:
            v = choice[v]
            path.add(v)
        rows.append(tuple(1 if digraph.class_of[j] in path else 0
                          for j in range(matrix.n)))
    groups = tuple(
        tuple(idx for idx, (r, _) in enumerate(pairs) if r == i)
        for i in range(matrix.m)
    )
    return tuple(rows), groups


def reference_distinct_2_split(matrix: BinaryMatrix):
    """Per-cell ``(rows, groups)`` of the distinct-2 split: every 1 of the
    column-reduced matrix becomes its own row, re-expanded to all columns
    of its class."""
    representative, class_of = [], []
    for j in range(matrix.n):
        column = [row[j] for row in matrix.rows]
        match = [c for c, rep in enumerate(representative)
                 if [row[rep] for row in matrix.rows] == column]
        if not match:
            representative.append(j)
        class_of.append(match[0] if match else len(representative) - 1)
    pairs = [(i, c) for i in range(matrix.m)
             for c, rep in enumerate(representative) if matrix.rows[i][rep]]
    rows = tuple(tuple(1 if class_of[j] == c else 0 for j in range(matrix.n))
                 for _, c in pairs)
    groups = tuple(tuple(idx for idx, (r, _) in enumerate(pairs) if r == i)
                   for i in range(matrix.m))
    return rows, groups


def reference_phylogeny(matrix: BinaryMatrix):
    """``(node_masks, parent, row_node)`` by exhaustive comparison: a node's
    parent is its smallest proper superset among the distinct supports (or
    the root 0), a row's node the smallest support holding it."""
    supports = []
    for mask in matrix.col_masks:
        if mask not in supports:
            supports.append(mask)
    nodes = [(1 << matrix.m) - 1] + supports
    parent = [None]
    for v in range(1, len(nodes)):
        above = [u for u in range(1, len(nodes))
                 if nodes[v] & ~nodes[u] == 0 and nodes[v] != nodes[u]]
        parent.append(min(above, key=lambda u: nodes[u].bit_count(), default=0))
    row_node = []
    for i in range(matrix.m):
        holding = [u for u in range(1, len(nodes)) if (nodes[u] >> i) & 1]
        row_node.append(min(holding, key=lambda u: nodes[u].bit_count(), default=0))
    return tuple(nodes), tuple(parent), tuple(row_node)


def reference_laminar_tree(matrix: BinaryMatrix):
    """``(node_masks, parent, row_node)`` of the phylogeny, or None when
    the supports are not laminar, by the earlier sweep: supports by
    decreasing size, each taking over every one of its rows."""
    node_masks = ((1 << matrix.m) - 1,) + tuple(dict.fromkeys(matrix.col_masks))
    parent = [None] + [0] * (len(node_masks) - 1)
    covered = [0] * len(node_masks)
    row_node = [0] * matrix.m
    for v in sorted(range(1, len(node_masks)), key=lambda u: -node_masks[u].bit_count()):
        mask = node_masks[v]
        p = row_node[(mask & -mask).bit_length() - 1]
        if mask & ~node_masks[p] or (p and mask == node_masks[p]) or mask & covered[p]:
            return None
        covered[p] |= mask
        parent[v] = p
        for r in range(matrix.m):
            if (mask >> r) & 1:
                row_node[r] = v
    return node_masks, tuple(parent), tuple(row_node)


def reference_transpose(masks, size: int) -> tuple[int, ...]:
    """Bitsets over the indices of ``masks``, one per bit position < size,
    set one bit at a time."""
    out = [0] * size
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return tuple(out)


def reference_row_masks(rows) -> tuple[int, tuple[int, ...]]:
    """The checks of ``BinaryMatrix(rows)`` as it was before rows of ints
    went through ``bytes()``: every entry through ``int()`` first, then each
    row checked in turn.  Returns ``(n, row_masks)`` for ``from_row_masks``,
    which checks the columns, or raises what the constructor raised."""
    cells = tuple(tuple(map(int, row)) for row in rows)
    if not cells or not cells[0]:
        raise MatrixError("matrix needs at least one row and one column")
    n = len(cells[0])
    masks = []
    for i, row in enumerate(cells):
        if len(row) != n:
            raise MatrixError(f"row {i + 1} has {len(row)} entries, expected {n}")
        if row.count(0) + row.count(1) != n:
            raise MatrixError(f"row {i + 1} contains a non-binary entry")
        mask = int(bytes(row).translate(bytes.maketrans(b"\x00\x01", b"01"))[::-1], 2)
        if not mask:
            raise MatrixError(f"row {i + 1} is all zeros")
        masks.append(mask)
    return n, tuple(masks)


def random_branching(rng: random.Random, digraph: Dag, p_arc: float = 0.6):
    """A branching choosing, for each vertex with out-arcs, no arc or a
    uniformly random one."""
    return Branching(tuple(
        rng.choice(digraph.out(v)) if digraph.out(v) and rng.random() < p_arc else None
        for v in range(digraph.n)
    ))


# ---------------------------------------------------------------------------
# Pairwise references for the containment digraph and the conflict check


def reference_containment(matrix: BinaryMatrix):
    """``(supports, arcs)``: the distinct column supports in first-appearance
    order and every proper inclusion between them, by comparing all pairs."""
    supports: list[int] = []
    for mask in matrix.col_masks:
        if mask not in supports:
            supports.append(mask)
    k = len(supports)
    arcs = frozenset((i, j) for i in range(k) for j in range(k)
                     if i != j and supports[i] & ~supports[j] == 0)
    return tuple(supports), arcs


def reference_height(n: int, arcs) -> int:
    """Longest path vertex count, by dynamic programming along Kahn's order."""
    best = [1] * n
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    for v in reference_kahn_order(n, arcs):
        for w in succ[v]:
            best[w] = max(best[w], best[v] + 1)
    return max(best, default=0)


def reference_width(n: int, closure) -> int:
    """Vertex count minus a maximum matching on the bipartite split of the
    given transitively closed arc set."""
    adj = [sorted(v for u, v in closure if u == w) for w in range(n)]
    match_left, _ = reference_maximum_bipartite_matching(adj, n)
    return n - sum(1 for v in match_left if v is not None)


def reference_sweep_conflict(matrix: BinaryMatrix):
    """The conflict witness that the laminarity sweep names, by a double
    loop over row sets: the distinct rows in first-appearance order, the
    distinct column supports over them in first-appearance order, stably
    sorted by size; v is the first support in that order that crosses an
    earlier one, u the first such earlier support in column order, and
    each row the first row of its pattern set."""
    distinct = list(dict.fromkeys(matrix.rows))
    cols = [frozenset(d for d, row in enumerate(distinct) if row[j])
            for j in range(matrix.n)]
    supports = sorted(dict.fromkeys(cols), key=len)
    for pos, v in enumerate(supports):
        crossing = [u for u in supports[:pos] if u & v and u - v and v - u]
        if crossing:
            u = min(crossing, key=cols.index)
            i, j = sorted((cols.index(u), cols.index(v)))
            sets = (cols[i] & cols[j], cols[i] - cols[j], cols[j] - cols[i])
            return ConflictWitness(i, j, tuple(matrix.rows.index(distinct[min(s)])
                                               for s in sets))
    return None


def differential_corpus() -> list[BinaryMatrix]:
    """Seeded random, laminar, block-tree and nested-prefix matrices, some
    with duplicate columns, some whose only conflict is the last column
    pair, and laminar ones with equal-size supports."""
    rng = random.Random(4104)
    corpus = random_corpus(60, max_side=8, seed=41)
    corpus += [gen_random(rng.randint(2, 30), rng.randint(2, 40), density,
                          rng.randint(0, 10**9))
               for density in (0.15, 0.5, 0.85) for _ in range(4)]
    laminar = [gen_random_laminar(m, k, seed)
               for seed in range(3) for m, k in ((5, 9), (20, 35), (40, 79))]
    # block trees: every level's supports are disjoint and of equal size
    laminar += [gen_block_tree(2, 4), gen_block_tree(3, 3), gen_block_tree(4, 2),
                BinaryMatrix(((1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1),
                              (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 1, 1)))]
    laminar += [nested_prefix(m, random.Random(m)) for m in (1, 2, 7, 30)]
    corpus += laminar
    corpus += [with_last_pair_crossing(matrix) for matrix in laminar[::2]]
    corpus += [duplicate_column(matrix, rng.randrange(matrix.n))
               for matrix in corpus[::3]]
    return corpus


# ---------------------------------------------------------------------------
# The exact search, its decision order and the matching as they were
# before their rewrites


def reference_decision_order(digraph: Dag) -> list[int]:
    """The exact solver's decision order by rescanning every available
    vertex at each step: greedy Kahn preferring the vertex whose emission
    brings some head closest to having all its in-neighbors placed."""
    n = digraph.n
    out = [digraph.out(v) for v in range(n)]
    head_pending = [mask.bit_count() for mask in digraph.in_masks]
    available = sorted(v for v in range(n) if head_pending[v] == 0)
    order: list[int] = []
    while available:
        best_v, best_score = None, None
        for v in available:
            score = min((head_pending[u] - 1 for u in out[v]), default=n + 1)
            if best_score is None or score < best_score:
                best_v, best_score = v, score
        order.append(best_v)
        available.remove(best_v)
        for u in out[best_v]:
            head_pending[u] -= 1
            if head_pending[u] == 0:
                available.append(u)
        available.sort()
    if len(order) != n:
        raise InternalError(f"decision order placed {len(order)} of {n} vertices")
    return order


def reference_exact_minimize(digraph, cost):
    """``(Branching, value)``: the first minimum of the summed ``cost`` of
    the uncovered masks in the exact solver's search order, by the earlier
    branch-and-bound that charges a vertex only once its last in-neighbor
    has chosen."""
    k = digraph.n
    supports = digraph.supports
    out_nbrs = [digraph.out(v) for v in range(k)]
    choosers = [v for v in reference_decision_order(digraph) if out_nbrs[v]]

    def total(choice):
        cover = [0] * k
        for u, c in enumerate(choice):
            if c is not None:
                cover[c] |= supports[u]
        return sum(cost(supports[v] & ~cover[v]) for v in range(k))

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

    pending = [mask.bit_count() for mask in digraph.in_masks]
    cover = [0] * k
    base = sum(cost(supports[v]) for v in range(k) if pending[v] == 0)
    choice = [None] * k
    best = None

    def descend(t, acc):
        nonlocal bound, best
        if t == len(choosers):
            if acc < bound:
                bound = acc
                best = tuple(choice)
            return
        v = choosers[t]
        for c in (None, *out_nbrs[v]):
            choice[v] = c
            saved = 0
            if c is not None:
                saved = cover[c]
                cover[c] |= supports[v]
            gained = 0
            for u in out_nbrs[v]:
                pending[u] -= 1
                if pending[u] == 0:
                    gained += cost(supports[u] & ~cover[u])
            if acc + gained < bound:
                descend(t + 1, acc + gained)
            for u in out_nbrs[v]:
                pending[u] += 1
            if c is not None:
                cover[c] = saved
            choice[v] = None

    descend(0, base)
    return Branching(best), bound


def reference_lookahead_minimize(digraph, cost):
    """``(Branching, value)``: the first minimum of the summed ``cost`` of
    the uncovered masks in the exact solver's search order, by one full
    depth-first search, no arc first, that skips a subtree once its lower
    bound reaches the best leaf so far.  The bound is recomputed from
    scratch at every node: each vertex is charged the rows outside the
    supports of its chosen and of its undecided in-neighbors."""
    k = digraph.n
    supports = digraph.supports
    out_nbrs = [digraph.out(v) for v in range(k)]
    choosers = [v for v in reference_decision_order(digraph) if out_nbrs[v]]
    choice = [None] * k
    best = bound = None

    def lower_bound(t):
        cover = [0] * k
        for u in choosers[:t]:
            if choice[u] is not None:
                cover[choice[u]] |= supports[u]
        for u in choosers[t:]:
            for w in out_nbrs[u]:
                cover[w] |= supports[u]
        return sum(cost(mask & ~covered) for mask, covered in zip(supports, cover))

    def descend(t):
        nonlocal best, bound
        value = lower_bound(t)
        if bound is not None and value >= bound:
            return
        if t == len(choosers):
            best, bound = tuple(choice), value
            return
        v = choosers[t]
        for c in (None, *out_nbrs[v]):
            choice[v] = c
            descend(t + 1)
        choice[v] = None

    descend(0)
    return Branching(best), bound


def reference_maximum_bipartite_matching(adj, n_right):
    """Hopcroft-Karp with a recursive augmenting-path search."""
    n_left = len(adj)
    match_left = [None] * n_left
    match_right = [None] * n_right
    dist = [0] * n_left
    unseen = -1

    def bfs():
        queue = []
        for u in range(n_left):
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = unseen
        found = False
        for u in queue:
            for v in adj[u]:
                w = match_right[v]
                if w is None:
                    found = True
                elif dist[w] == unseen:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u):
        for v in adj[u]:
            w = match_right[v]
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = unseen
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] is None:
                dfs(u)
    return match_left, match_right


def reference_split_to_branching(matrix: BinaryMatrix, split) -> Branching:
    """The branching of a verified conflict-free split, as it was found
    before the phylogeny sweep: the elementary arcs of the containment
    digraph of the split's columns on the source's representative columns,
    its inclusions found by comparing all pairs."""
    verdict = verify_row_split(matrix, split)
    if not verdict:
        raise MatrixError(f"not a conflict-free row split: {verdict.reason}")
    red = reduce_columns(matrix)
    k = len(red.supports)
    split_masks = tuple(split.matrix.col_masks[j] for j in red.representative)
    if len(set(split_masks)) != k:
        raise InternalError("two distinct source columns coincide in a verified split")
    elem = elementary_arcs(Dag(k, ((i, j) for i in range(k) for j in range(k)
                                   if i != j and split_masks[i] & ~split_masks[j] == 0)))
    choice = [None] * k
    for i, j in sorted(elem):
        if choice[i] is not None:
            raise InternalError(f"vertex {i} has two elementary out-arcs "
                                f"in a conflict-free split")
        choice[i] = j
    return Branching(tuple(choice))


def reference_augment(live: LiveMatching, v: int) -> bool:
    """:meth:`LiveMatching.augment` as first shipped: the breadth-first
    search starts with nothing seen, so it walks Koenig's set again, and on
    failure what it reached is ORed into ``z_right``."""
    adj, match_left, match_right = live.adj, live.match_left, live.match_right
    seen, via, frontier = 0, {}, [v]
    while frontier:
        next_frontier = []
        for u in frontier:
            fresh = adj[u] & ~seen
            seen |= fresh
            for w in bits_of(fresh):
                via[w] = u
                if match_right[w] is None:
                    while w is not None:
                        u = via[w]
                        match_right[w] = u
                        match_left[u], w = w, match_left[u]
                    return True
                next_frontier.append(match_right[w])
        frontier = next_frontier
    live.free_left |= 1 << v
    live.z_right |= seen
    return False


def reference_koenig_antichain(live: LiveMatching) -> int:
    """Koenig's maximum antichain of a live matching's members on the split
    of a DAG's closure, by a fresh breadth-first pass from the free left
    copies over the current matching."""
    adj, match_right = live.adj, live.match_right
    z_left = frontier = live.free_left
    z_right = 0
    while frontier:
        fresh = reduce(or_, select(adj, frontier), 0) & ~z_right
        z_right |= fresh
        frontier = mask_of(select(match_right, fresh))
        z_left |= frontier
    antichain = z_left & ~z_right
    if antichain.bit_count() != live.free_left.bit_count():
        raise InternalError("Koenig antichain size differs from the width")
    return antichain


def reference_maximum_antichain(dag: Dag) -> frozenset[int]:
    """Koenig's antichain of the whole DAG, its vertices added as sources."""
    live = LiveMatching(dag.reach, dag.n)
    for v in reversed(reference_kahn_order(dag.n, dag_arcs(dag))):
        live.augment(v)
    return frozenset(bits_of(reference_koenig_antichain(live)))


def reference_min_price_chain_partition(dag: Dag, weights):
    """Minimum-price chain partition and tower as first shipped: a Koenig
    pass after every added vertex, and every chain rebuilt as a new list
    after every successful augment."""
    w = tuple(weights)
    if not is_monotone(dag, w):
        raise ValueError("weight function is not monotone on the digraph arcs")
    reached_by = transpose(dag.reach, dag.n)

    order = sorted(range(dag.n), key=lambda v: (w[v], v))
    remaining = (1 << dag.n) - 1
    removal = []
    while order:
        i = next(i for i, u in enumerate(order) if not reached_by[u] & remaining)
        v = order.pop(i)
        remaining ^= 1 << v
        removal.append(v)

    live = LiveMatching(dag.reach, dag.n)
    chains = []
    tower = []
    for v in reversed(removal):
        if not live.augment(v):
            chains.append([v])
            tower.append(frozenset(bits_of(reference_koenig_antichain(live))))
            continue
        base = reference_koenig_antichain(live)
        ancestors = reduce(or_, select(reached_by, base), 0)
        for j, c in enumerate(chains):
            i = next((i for i, x in enumerate(c) if not (ancestors >> x) & 1), -1)
            if not (base >> c[i]) & 1:
                raise InternalError("chain misaligned with the antichain")
            chains[j] = _walk(c[i], live.match_right)[::-1] + c[i + 1:]

    partition = tuple(tuple(c) for c in sorted(chains))
    if not is_chain_partition(dag, partition):
        raise InternalError("min-price chains do not partition the vertices")
    # the tower's value by the first-shipped walk over its members
    value = sum(min(w[v] for v in level) for level in tower)
    if partition_price(partition, w) != value:
        raise InternalError("certificate value does not match partition price")
    return partition, tuple(tower)


def reference_verify_row_split(source: BinaryMatrix, candidate: RowSplit) -> Verdict:
    """``verify_row_split`` as it was before its one-pass partition check:
    every split-row index goes through a range test and a set."""
    split = candidate.matrix
    rows = split.m
    if split.n != source.n:
        raise MatrixError(
            f"column count mismatch: split has {split.n}, source has {source.n}"
        )
    if len(candidate.groups) != source.m:
        return Verdict(False, f"expected {source.m} groups, got {len(candidate.groups)}")
    seen: set[int] = set()
    for i, group in enumerate(candidate.groups):
        for idx in group:
            if not 0 <= idx < rows:
                return Verdict(False, f"group for row r{i + 1} "
                                      f"names split row {idx + 1}, out of range")
            if idx in seen:
                return Verdict(False, f"split row {idx + 1} appears in two groups")
            seen.add(idx)
    if len(seen) != rows:
        missing = next(i for i in range(rows) if i not in seen)
        return Verdict(False, f"split row {missing + 1} is in no group")
    for i, group in enumerate(candidate.groups):
        combined = 0
        for idx in group:
            combined |= split.row_masks[idx]
        if combined != source.row_masks[i]:
            return Verdict(False, f"group for row r{i + 1} does not OR to it")
    witness = find_conflict(split)
    if witness is not None:
        return Verdict(False, f"split is not conflict-free: {witness.describe()}",
                       witness)
    return ACCEPT
