"""Instance generators: structured families, hardness reductions, random corpora."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import BudgetError, InternalError, MatrixError
from .io import _content_lines
from .matrix import BinaryMatrix, mask_of

MAX_GENERATED_CELLS = 2_000_000


def _check_cells(m: int, n: int) -> None:
    """Refuse an m x n matrix over the size cap before anything is built."""
    if m * n > MAX_GENERATED_CELLS:
        raise ValueError(f"{m}x{n} exceeds the size cap of {MAX_GENERATED_CELLS} cells")


@dataclass(frozen=True)
class CubicGraph:
    """Simple 3-regular graph on vertices 0..n-1 with a sorted edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            if not (0 <= edge[0] and edge[1] < self.n):
                raise ValueError(f"edge {edge} out of range")
            seen.add(edge)
            norm.append(edge)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        degree = [0] * self.n
        for u, v in self.edges:
            degree[u] += 1
            degree[v] += 1
        bad = [v for v, d in enumerate(degree) if d != 3]
        if bad:
            raise ValueError(f"graph is not cubic: vertex {bad[0]} has degree "
                             f"{degree[bad[0]]}")

    def incident(self, v: int) -> tuple[int, ...]:
        """Indices into ``edges`` of the three edges at v."""
        return tuple(i for i, e in enumerate(self.edges) if v in e)


def parse_edge_list(text: str) -> CubicGraph:
    """Read a cubic graph from 'u v' lines; '#' starts a comment."""
    pairs = []
    numbers, lines, _ = _content_lines(text)
    for lineno, line in zip(numbers, lines):
        parts = line.split()
        if len(parts) != 2:
            raise MatrixError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise MatrixError(f"line {lineno}: non-integer vertex id") from exc
    if not pairs:
        raise MatrixError("edge list is empty")
    vertices = sorted({v for e in pairs for v in e})
    relabel = {v: i for i, v in enumerate(vertices)}
    try:
        return CubicGraph(len(vertices), tuple(
            (relabel[u], relabel[v]) for u, v in pairs
        ))
    except ValueError as exc:
        raise MatrixError(str(exc)) from exc


def gen_block_tree(d: int, h: int) -> BinaryMatrix:
    """Complete d-ary block hierarchy: d**(h-1) rows, (d**h - 1)/(d - 1) columns.

    Level-i columns (i = 1..h) are the aligned consecutive blocks of
    d**(i-1) rows, so the supports form the inclusion order of a complete
    d-ary tree of depth h.  Conflict-free by construction.
    """
    if d < 2 or h < 2:
        raise ValueError("need d >= 2 and h >= 2")
    # d**(h-1) >= max(d, 2**(h-1)) rows: refuse before taking a giant power
    if d > MAX_GENERATED_CELLS or h > MAX_GENERATED_CELLS.bit_length():
        raise ValueError(f"d**(h-1) rows exceed the size cap of {MAX_GENERATED_CELLS} cells")
    m = d ** (h - 1)
    n = (d ** h - 1) // (d - 1)
    _check_cells(m, n)
    masks = []
    for i in range(1, h + 1):
        size = d ** (i - 1)
        for j in range(d ** (h - i)):
            masks.append(mask_of(range(j * size, (j + 1) * size)))
    return BinaryMatrix.from_col_masks(m, tuple(masks))


def _check_distinct(masks: list[int], family: str) -> None:
    # a simple cubic graph gives pairwise distinct reduction columns
    if len(set(masks)) != len(masks):
        raise InternalError(f"{family} reduction produced duplicate columns")


def gen_vc_reduction(graph: CubicGraph) -> BinaryMatrix:
    """Height-2 matrix whose minimum split-row count is 8|V| plus the
    vertex-cover number of the cubic graph.

    Rows are the edges plus two extra rows x and y (in that order); columns
    are all-edges+x and, per vertex, incident+x, incident+y, incident+x+y.
    """
    e = len(graph.edges)
    x_bit = 1 << e
    y_bit = 1 << (e + 1)
    incident = [mask_of(graph.incident(v)) for v in range(graph.n)]
    all_edges = (1 << e) - 1
    masks = [all_edges | x_bit]
    masks += [incident[v] | x_bit for v in range(graph.n)]
    masks += [incident[v] | y_bit for v in range(graph.n)]
    masks += [incident[v] | x_bit | y_bit for v in range(graph.n)]
    _check_distinct(masks, "vc")
    return BinaryMatrix.from_col_masks(e + 2, tuple(masks))


def gen_ib_reduction(graph: CubicGraph) -> BinaryMatrix:
    """Height-2 matrix whose minimum distinct-split-row count is |E| plus the
    vertex-cover number of the cubic graph.

    Rows are the edges; columns are every edge singleton followed by every
    vertex's incident-edge triple.
    """
    e = len(graph.edges)
    masks = [1 << i for i in range(e)]
    masks += [mask_of(graph.incident(v)) for v in range(graph.n)]
    _check_distinct(masks, "ib")
    return BinaryMatrix.from_col_masks(e, tuple(masks))


def brute_force_vertex_cover(graph: CubicGraph, cap: int = 16) -> int:
    """Minimum vertex cover size by subset enumeration (test oracle)."""
    if graph.n > cap:
        raise BudgetError(f"{graph.n} vertices exceed the vertex-cover cap of {cap}")
    for size in range(graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return size
    raise AssertionError("unreachable: the full vertex set is a cover")


def gen_random(m: int, n: int, density: float, seed: int) -> BinaryMatrix:
    """Seeded Bernoulli matrix; all-zero rows and columns are resampled."""
    if m < 1 or n < 1:
        raise ValueError("need at least one row and one column")
    if not 0 < density < 1:
        raise ValueError("density must be strictly between 0 and 1")
    _check_cells(m, n)
    rng = random.Random(seed)
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    while True:
        dirty = False
        for i in range(m):
            while not any(rows[i]):
                dirty = True
                rows[i] = [1 if rng.random() < density else 0 for _ in range(n)]
        for j in range(n):
            while not any(row[j] for row in rows):
                dirty = True
                for i in range(m):
                    rows[i][j] = 1 if rng.random() < density else 0
        if not dirty:
            return BinaryMatrix(rows)


def gen_random_laminar(m: int, k: int, seed: int) -> BinaryMatrix:
    """Seeded conflict-free matrix with exactly k distinct column supports.

    Builds a random full binary split tree over the rows (2m-1 laminar
    blocks in total) and keeps the root plus k-1 random other blocks, so
    every row stays covered.  A laminar family of distinct nonempty sets
    over m rows has at most 2m-1 members, hence the cap on k.  The tree is
    built whatever k is, and its blocks hold about 2 m ln m row ids (a
    uniform random cut puts a row at depth about 2 ln m), so the size cap
    bounds m x 2 * bit length of m cells as well as the m x k matrix.
    """
    if m < 1:
        raise ValueError("need at least one row")
    if not 1 <= k <= 2 * m - 1:
        raise ValueError(
            f"a laminar family over {m} rows has at most {2 * m - 1} distinct "
            f"nonempty supports; got k={k}"
        )
    _check_cells(m, k)
    if m * 2 * m.bit_length() > MAX_GENERATED_CELLS:
        raise ValueError(f"a split tree over {m} rows exceeds the size cap of "
                         f"{MAX_GENERATED_CELLS} cells")
    rng = random.Random(seed)
    blocks: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [tuple(range(m))]
    while stack:
        block = stack.pop()
        blocks.append(block)
        if len(block) >= 2:
            members = list(block)
            rng.shuffle(members)
            cut = rng.randint(1, len(members) - 1)
            stack.append(tuple(sorted(members[cut:])))
            stack.append(tuple(sorted(members[:cut])))
    if len(blocks) != 2 * m - 1:
        raise InternalError(f"split tree over {m} rows has {len(blocks)} blocks, "
                            f"expected {2 * m - 1}")
    chosen = [blocks[0]] + (rng.sample(blocks[1:], k - 1) if k > 1 else [])
    chosen.sort(key=lambda block: (-len(block), block))
    return BinaryMatrix.from_col_masks(m, tuple(mask_of(b) for b in chosen))
