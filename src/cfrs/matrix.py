"""Binary matrices: conflicts, column reduction, row splits, phylogeny extraction.

A valid matrix has at least one row and one column and no all-zero row or
column.  Rows and columns are identified by 0-based position only; DOT output
and messages name row i "r{i+1}" and column j "c{j+1}".  A matrix is stored
as one int bitset per row (bit j for column j); column supports are bitsets
over row indices, so inclusion tests, row ORs and validation each cost one
mask operation.  :func:`transpose` turns one kind into the other with a
word-parallel bit-matrix transpose, and the conflict check, the phylogeny
and the containment digraph share one sweep over the distinct supports by
increasing size, which writes each row's tree node once and names the
witness of a conflict.  The conflict check sweeps the supports over the
distinct rows only, so a row that repeats costs one hash.  Dense 0/1 row
tuples are built only on request.
Passes over whole digraphs pick the items a mask names with :func:`select`,
in C steps; search loops, with small or sparse masks, walk :func:`bits_of`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import countOf, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ConflictError, MatrixError

Bits = tuple[int, ...]

# byte b"0"/b"1" -> 0/1, for turning a binary string into a 0/1 tuple
_CELLS = bytes.maketrans(b"01", b"\x00\x01")
# and back: byte 0/1 -> b"0"/b"1", for packing a 0/1 row into a mask
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# select renders masks with over 8 + bit_length/16 set bits and walks the
# rest.  Measured break-even, CPython 3.11 on an Intel Xeon: 6 set bits of 32,
# 19 of 150, 37 of 450, 75 of 1500
_SPARSE = 16


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def select(items: Sequence, mask: int) -> list:
    """``items[i]`` for each set bit i of the non-negative ``mask``, in
    increasing i; each bit must index ``items``.  A dense mask becomes 0/1
    bytes that ``compress`` walks in C, a sparse one is walked bit by bit."""
    count = mask.bit_count()
    if count == 1:  # half the supports of a laminar matrix
        return [items[mask.bit_length() - 1]]
    if count * _SPARSE > mask.bit_length() + 8 * _SPARSE:
        return list(compress(items, format(mask, "b").encode()[::-1].translate(_CELLS)))
    picked = []
    while mask:
        low = mask & -mask
        picked.append(items[low.bit_length() - 1])
        mask ^= low
    return picked


def mask_of(indices: Iterable[int]) -> int:
    """Pack an iterable of non-negative indices into a bitset."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _swap_selector(j: int) -> int:
    """Swap round j of a 64x64 tile stored as 64 words of 64 bits, word a
    holding row a: the cells (a, b) with bit j clear in a and set in b.
    Each trades places with cell (a + j, b - j), 63 * j bits higher."""
    word = (((1 << 64) - 1) // ((1 << j) + 1) << j).to_bytes(8, "little")
    return int.from_bytes((word * j + bytes(8 * j)) * (32 // j), "little")


# rows per pass of the transpose kernel; bounds its transient ints
_BAND = 4096
_ROUNDS = tuple((63 * j, _swap_selector(j)) for j in (32, 16, 8, 4, 2, 1))


def transpose(masks: Sequence[int], size: int) -> tuple[int, ...]:
    """Bitsets over the indices of ``masks``, one per bit position < size.

    Every mask must be non-negative and below ``2**size``.  Up to ``_BAND``
    rows at a time, each block of 64 columns is packed into one int of
    64x64 tiles, one per 64-row strip, and six masked swap rounds (Hacker's
    Delight, 7-3) transpose all its tiles at once.  Word a of every tile
    then belongs to column a of the block and is copied into one buffer of
    all the columns' words.  Cost: about cells/64 word operations per round,
    plus one Python step per row, per column and per block and strip.
    """
    if not masks or not size:
        return (0,) * size
    w = -(-size // 64)
    strips = -(-min(len(masks), _BAND) // 64)
    rounds = _ROUNDS  # with the selectors repeated over a full band's strips
    for doubling in range((strips - 1).bit_length()):
        rounds = [(shift, sel | sel << (4096 << doubling)) for shift, sel in rounds]
    height = -(-len(masks) // 64)  # words per column
    cols = [] if height == 1 else memoryview(bytearray(8 * height * size)).cast("Q")
    for start in range(0, len(masks), _BAND):
        band = masks[start:start + _BAND]
        strips = -(-len(band) // 64)
        if w == 1:
            blocks = [struct.pack(f"<{len(band)}Q", *band)]
        else:  # block q is word q of every row
            rows = b"".join([mask.to_bytes(8 * w, "little") for mask in band])
            words = memoryview(rows + bytes(8 * w * (64 * strips - len(band)))).cast("Q")
            blocks = [words[q::w] for q in range(w)]
        for q, block in enumerate(blocks):
            x = int.from_bytes(block, "little")
            for shift, sel in rounds:
                t = (x ^ (x >> shift)) & sel
                x ^= t | (t << shift)
            data = x.to_bytes(512 * strips, "little")
            count = min(64, size - 64 * q)
            if height == 1:  # one strip: column 64q + a is word a
                cols += struct.unpack_from(f"<{count}Q", data)
                continue
            # word a of tile i is word i of column 64q + a; the word views
            # only stride over the bytes and never read a value
            tiles = memoryview(data).cast("Q")
            first = 64 * q * height + start // 64
            for i in range(strips):
                cols[first + i:first + i + count * height:height] = tiles[64 * i:64 * i + count]
    if height == 1:
        return tuple(cols)
    return tuple(int.from_bytes(cols[c * height:(c + 1) * height], "little")
                 for c in range(size))


def _cells(row: Iterable) -> Sequence[int]:
    if type(row) in (tuple, list):  # not a buffer, whose memory bytes() would read
        try:  # one C call, entries read through __index__
            return bytes(row)
        except (TypeError, ValueError):  # a str or float entry, or one not in 0..255
            pass
    return tuple(map(int, row))


@dataclass(frozen=True, init=False)
class BinaryMatrix:
    """Immutable 0/1 matrix with no all-zero row or column.

    ``BinaryMatrix(rows)`` takes rows of entries that ``int()`` maps to 0 or
    1, an exact tuple or list of ints or bools by one ``bytes()`` call and
    any other row (str, generator, buffer) or entry (str, float) by ``int()``
    per entry; :meth:`from_row_masks` and :meth:`from_col_masks` take
    bitsets.  The matrix keeps ``row_masks`` and ``distinct_row_masks``, the
    distinct row bitsets in first-appearance order (``row_masks`` itself when
    no row repeats); ``rows`` (0/1 tuples) and ``col_masks`` are derived on
    first use, unless ``from_col_masks`` supplied ``col_masks``.
    Equality and hashing are by shape and entries.
    """

    n: int
    row_masks: tuple[int, ...]

    def __init__(self, rows: Iterable[Iterable]):
        cells = tuple(map(_cells, rows))  # every row, before any check
        if not cells or not cells[0]:
            raise MatrixError("matrix needs at least one row and one column")
        n = len(cells[0])
        masks = []
        for i, row in enumerate(cells):
            if len(row) != n:
                raise MatrixError(f"row {i + 1} has {len(row)} entries, expected {n}")
            if row.count(0) + row.count(1) != n:
                raise MatrixError(f"row {i + 1} contains a non-binary entry")
            if 1 not in row:
                raise MatrixError(f"row {i + 1} is all zeros")
            masks.append(int(bytes(row).translate(_DIGITS)[::-1], 2))
        self._set(n, tuple(masks))

    def _set(self, n: int, masks: tuple[int, ...]) -> None:
        """Validate row bitsets, then fill the fields.  Each distinct mask is
        checked once, in order of first appearance, so the first bad mask
        met is the first bad row."""
        if n < 1 or not masks:
            raise MatrixError("matrix needs at least one row and one column")
        distinct = tuple(dict.fromkeys(masks))
        union = 0
        for mask in distinct:
            if mask <= 0 or mask >> n:
                row = masks.index(mask) + 1
                if mask < 0:
                    raise MatrixError(f"row {row} contains a non-binary entry")
                if mask:
                    raise MatrixError(f"row {row} has {mask.bit_length()} entries, "
                                      f"expected {n}")
                raise MatrixError(f"row {row} is all zeros")
            union |= mask
        missing = ~union & ((1 << n) - 1)
        if missing:
            j = (missing & -missing).bit_length() - 1
            raise MatrixError(f"column {j + 1} is all zeros")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "row_masks", masks)
        object.__setattr__(self, "distinct_row_masks",
                           masks if len(distinct) == len(masks) else distinct)

    @classmethod
    def from_row_masks(cls, n: int, masks: Iterable[int]) -> "BinaryMatrix":
        """Build an n-column matrix whose i-th row has bit j set for a 1 in
        column j.  A mask with a bit at or above n is rejected."""
        matrix = cls.__new__(cls)
        matrix._set(n, tuple(masks))
        return matrix

    @classmethod
    def from_col_masks(cls, m: int, masks: Sequence[int]) -> "BinaryMatrix":
        """Build an m-row matrix whose j-th column support is ``masks[j]``.

        Bits at or above m are ignored.
        """
        if m < 1:
            raise MatrixError("matrix needs at least one row and one column")
        full = (1 << m) - 1
        cols = tuple(mask & full for mask in masks)
        matrix = cls.from_row_masks(len(cols), transpose(cols, m))
        matrix.__dict__["col_masks"] = cols
        return matrix

    @property
    def m(self) -> int:
        return len(self.row_masks)

    @cached_property
    def rows(self) -> tuple[Bits, ...]:
        """Rows as 0/1 tuples."""
        spec = f"0{self.n}b"
        return tuple(
            tuple(format(mask, spec)[::-1].encode("ascii").translate(_CELLS))
            for mask in self.row_masks
        )

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """Column supports as bitsets over row indices."""
        return transpose(self.row_masks, self.n)


@dataclass(frozen=True)
class ConflictWitness:
    """Column pair and row triple realizing the forbidden 3x2 pattern.

    The submatrix on rows ``(r, r2, r3)`` and columns ``(col_i, col_j)``
    equals (1,1),(1,0),(0,1) in that order.
    """

    col_i: int
    col_j: int
    rows: tuple[int, int, int]

    def describe(self) -> str:
        rs = ",".join(f"r{r + 1}" for r in self.rows)
        return f"columns c{self.col_i + 1},c{self.col_j + 1} on rows {rs}"


@dataclass(frozen=True)
class ColumnReduction:
    """A matrix's distinct column supports, plus the index mappings."""

    supports: tuple[int, ...]        # distinct column bitsets, first-appearance order
    class_of: tuple[int, ...]        # original column -> reduced column
    representative: tuple[int, ...]  # reduced column -> smallest original column


@dataclass(frozen=True)
class RowSplit:
    """A candidate split matrix together with its row partition.

    ``groups[i]`` lists the 0-based split-row indices whose bitwise OR is
    supposed to reproduce source row i.  Use :func:`verify_row_split` to
    check validity; construction performs no checks beyond the matrix's own.
    """

    matrix: BinaryMatrix
    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Verdict:
    """Accept/reject outcome with an explanation for rejections."""

    ok: bool
    reason: Optional[str] = None
    witness: Optional[ConflictWitness] = None

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = Verdict(True)


def _distinct_supports(matrix: BinaryMatrix) -> tuple[tuple[int, ...], int]:
    """Column supports over the distinct rows, and the distinct-row count.

    A repeated row cannot make or break a crossing pair, nor change which
    support contains which, so these supports have the conflicts and the
    inclusion tree of ``col_masks``.  With no repeated row they are
    ``col_masks``; otherwise the distinct rows alone are transposed.
    """
    rows = matrix.distinct_row_masks
    if len(rows) == matrix.m:
        return matrix.col_masks, matrix.m
    return transpose(rows, matrix.n), len(rows)


def find_conflict(matrix: BinaryMatrix) -> Optional[ConflictWitness]:
    """The laminarity sweep's conflict witness, or None if conflict-free.

    The sweep fails at v, the first column support by size over the
    distinct rows, then first appearance, that crosses an earlier one; u is
    the first such earlier support in column order.  The witness columns
    are u's and v's first columns in index order, its rows the first row of
    col_i & col_j, col_i - col_j and col_j - col_i.  Cost: one hash per row,
    the sweep on the d distinct rows, and O(n) mask operations to complete v.
    """
    tree = _laminar_tree(*_distinct_supports(matrix), -1)  # -1: all rows, all distinct
    if not isinstance(tree, ConflictWitness):
        return None
    first = [matrix.row_masks.index(matrix.distinct_row_masks[r]) for r in tree.rows]
    return ConflictWitness(tree.col_i, tree.col_j, tuple(first))


def _first_rows(matrix: BinaryMatrix) -> int:
    """Bitset of the rows that are the first with their pattern."""
    masks = matrix.row_masks
    if matrix.distinct_row_masks is masks:  # no row repeats
        return (1 << len(masks)) - 1
    flags = bytearray(len(masks))  # one store per pattern, not an OR on a growing int
    for i in dict(zip(masks[::-1], range(len(masks) - 1, -1, -1))).values():
        flags[i] = 1
    return int(flags.translate(_DIGITS)[::-1], 2)


def reduce_columns(matrix: BinaryMatrix) -> ColumnReduction:
    """Collapse identical columns, keeping the first occurrence of each; the
    supports of a matrix whose columns are already distinct are ``col_masks``."""
    class_of: list[int] = []
    representative: list[int] = []
    seen: dict[int, int] = {}  # support -> reduced column, in first-appearance order
    for j, mask in enumerate(matrix.col_masks):
        if mask not in seen:
            seen[mask] = len(representative)
            representative.append(j)
        class_of.append(seen[mask])
    supports = matrix.col_masks if len(seen) == matrix.n else tuple(seen)
    return ColumnReduction(supports, tuple(class_of), tuple(representative))


def count_distinct_rows(matrix: BinaryMatrix) -> int:
    return len(matrix.distinct_row_masks)


def _lists_rows_in_order(groups: Sequence[Sequence[int]], rows: int) -> bool:
    """True iff the groups, read in order, list split rows 0..rows-1 in
    order, as every branching split does: one C-level pass, which allocates
    nothing per row, since each difference of neighbours is the cached 1."""
    if sum(map(len, groups)) != rows:
        return False
    flat, ahead = chain.from_iterable(groups), chain.from_iterable(groups)
    return next(ahead, 0) == 0 and countOf(map(sub, ahead, flat), 1) == rows - 1


def verify_row_split(source: BinaryMatrix, candidate: RowSplit) -> Verdict:
    """Check that ``candidate`` is a conflict-free row split of ``source``.

    Accepts iff the groups partition the split rows, every group ORs to its
    source row, and the split matrix has no conflicting column pair.
    Rejections name the first failing row or carry the conflict witness.
    """
    split = candidate.matrix
    rows = split.m
    if split.n != source.n:
        raise MatrixError(
            f"column count mismatch: split has {split.n}, source has {source.n}"
        )
    if len(candidate.groups) != source.m:
        return Verdict(False, f"expected {source.m} groups, got {len(candidate.groups)}")
    if not _lists_rows_in_order(candidate.groups, rows):  # name the first failure
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


@dataclass(frozen=True)
class PhyloTree:
    """Rooted tree of distinct column supports ordered by inclusion.

    Node 0 is the synthetic root holding every row; nodes 1..k are the
    distinct supports in first-appearance column order.  ``row_node[i]`` is
    the node whose support is the smallest one containing row i.
    """

    node_masks: tuple[int, ...]
    parent: tuple[Optional[int], ...]
    row_node: tuple[int, ...]


def _crossing(supports: Sequence[int], first: int, v: int) -> ConflictWitness:
    """:func:`find_conflict`'s witness on the positions and rows of
    ``supports``, from v, the support where the sweep failed."""
    size, j = (v & first).bit_count(), supports.index(v)
    i = next(i for i, u in enumerate(supports)
             if u & v and u & ~v and v & ~u and ((u & first).bit_count(), i) < (size, j))
    i, j = sorted((i, j))
    a, b = supports[i], supports[j]
    return ConflictWitness(i, j, tuple(next(bits_of(s)) for s in (a & b, a & ~b, b & ~a)))


def _laminar_tree(supports: Sequence[int], m: int, first: int):
    """The sweep of :func:`build_phylogeny` over nonempty supports of m rows,
    by size over the rows ``first`` (:func:`_first_rows`; -1 when none
    repeats), so all sweeps of one matrix fail at one support: ``(node_masks,
    parent, row_node)`` of its tree, or the :func:`_crossing` witness.  A sort of the
    k supports plus O(k + m) steps, each an operation on an m-bit mask."""
    node_masks = ((1 << m) - 1,) + tuple(dict.fromkeys(supports))
    parent: list[Optional[int]] = [None] + [0] * (len(node_masks) - 1)
    top = list(range(len(node_masks)))  # union-find towards each tree's top
    row_node = [0] * m
    claimed = 0
    for v in sorted(range(1, len(node_masks)),
                    key=lambda u: (node_masks[u] & first).bit_count()):
        mask = node_masks[v]
        held = mask & claimed
        for r in bits_of(mask ^ held):
            row_node[r] = v
        claimed |= mask
        while held:
            u = row_node[(held & -held).bit_length() - 1]
            while top[u] != u:
                top[u] = top[top[u]]
                u = top[u]
            if node_masks[u] & ~mask:
                return _crossing(supports, first, mask)
            parent[u] = top[u] = v
            held ^= node_masks[u]
    return node_masks, tuple(parent), tuple(row_node)


def build_phylogeny(matrix: BinaryMatrix) -> PhyloTree:
    """Arrange the distinct column supports of a conflict-free matrix as a tree.

    The parent of a support is its unique inclusion-minimal proper superset
    among the supports, or the root.  Raises :class:`ConflictError`, carrying
    the witness of :func:`find_conflict`, when the matrix has a conflict.

    Supports are visited by increasing size.  Each claims the rows that no
    smaller support holds (``row_node`` is written once per row), then
    adopts, as its children, the current tops of the trees built so far
    that hold its other rows, found from those rows through ``row_node``
    and a union-find with path halving.  In a laminar family every such top
    lies inside it, and the first support to adopt a node is the node's
    smallest proper superset; a top sticking out of the support is a
    crossing pair, so the family is laminar iff no adoption fails.  Cost: a
    sort of the k supports, one ``row_node`` write per row and one
    union-find lookup per adoption (at most k), each with mask operations
    over the m rows.
    """
    tree = _laminar_tree(matrix.col_masks, matrix.m, _first_rows(matrix))
    if isinstance(tree, ConflictWitness):
        raise ConflictError(tree, f"cannot build a phylogeny: conflict between "
                                  f"{tree.describe()}")
    return PhyloTree(*tree)
