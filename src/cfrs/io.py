"""Text formats: matrix files, split files, DOT export.

Matrix file: optional '#' comment lines, a header line "m n", then m lines
each a string of n characters over {0,1}.  Split file: the split matrix in
the same format, a blank line, then m lines "i: j1 j2 ..." giving the
1-based split-row indices of each source row's group.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterator, TextIO

from .containment import ContainmentDigraph, Dag
from .errors import MatrixError
from .matrix import BinaryMatrix, PhyloTree, RowSplit, select

# characters per read and, roughly, per write of a matrix or split file
_CHUNK = 1 << 16


def format_matrix(matrix: BinaryMatrix) -> str:
    spec = f"0{matrix.n}b"
    lines = [f"{matrix.m} {matrix.n}"]
    lines += [format(mask, spec)[::-1] for mask in matrix.row_masks]
    return "\n".join(lines) + "\n"


def _content_lines(text: str, start: int = 0) -> tuple[list[int], list[str], int]:
    """The numbers and the stripped text of the lines left non-empty once
    '#' comments are cut, as two parallel lists in file order, and the count
    of all lines; the first line is numbered start + 1."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(map(str.strip, lines))
    numbers = range(start + 1, start + len(lines) + 1)
    return list(compress(numbers, lines)), list(compress(lines, lines)), len(lines)


def _content_pieces(source: TextIO) -> Iterator[tuple[list[int], list[str]]]:
    """``_content_lines`` of a text stream read ``_CHUNK`` characters at a
    time, numbered as in the whole file, for each piece that has any.  Each
    read is cut after its last newline and the rest carried, raw, into the
    next piece, so no line and no CR LF pair is split between two pieces.
    A read shorter than ``_CHUNK`` is the last, as io's text streams return
    fewer characters than asked only at the end, so a short file costs one
    read and one ``_content_lines`` call."""
    start, carry = 0, ""
    while True:
        chunk = source.read(_CHUNK)
        end = len(chunk) < _CHUNK
        cut = len(chunk) if end else chunk.rfind("\n") + 1
        if cut or end:
            numbers, lines, count = _content_lines(carry + chunk[:cut], start)
            start, carry = start + count, ""
            if lines:
                yield numbers, lines
        if end:
            return
        carry += chunk[cut:]


def _read_matrix(pieces: Iterator[tuple[list[int], list[str]]]
                 ) -> tuple[BinaryMatrix, list[int], list[str]]:
    """The matrix block at the head of ``pieces``, and the content lines
    left in the piece where it ends.  Only the distinct row texts and the
    masks are kept."""
    numbers, lines = next(pieces, ([], []))
    if not lines:
        raise MatrixError("empty matrix file")
    header = lines[0]
    parts = header.split()
    # isdecimal: isdigit also takes digits such as '²' that int() rejects
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise MatrixError(f"line {numbers[0]}: expected header 'm n', got {header!r}")
    m, n = int(parts[0]), int(parts[1])
    # each distinct row text is checked and converted once, in order of first
    # appearance, so the first bad text met is on the first bad line; its
    # error waits until the row count is known, as that is checked first
    table: dict[str, int] = {}
    masks: list[int] = []
    found, first, error = 0, 1, None
    while True:
        texts = lines[first:first + m - found]
        for line in dict.fromkeys(texts) if error is None else ():
            if line in table:
                continue
            # int(..., 2) alone would also take '_', '+', spaces and
            # non-ASCII digits; counting the 0s and 1s rejects them at
            # under half the cost per character of line.strip("01")
            if len(line) != n or line.count("0") + line.count("1") != n:
                error = MatrixError(f"line {numbers[first + texts.index(line)]}: expected "
                                    f"{n} characters over 01, got {line!r}")
                break
            table[line] = int(line[::-1], 2)
        if error is None:
            masks += map(table.__getitem__, texts)
        found += len(texts)
        if found == m:
            break
        (numbers, lines), first = next(pieces, ([], [])), 0
        if not lines:
            raise MatrixError(f"expected {m} matrix rows, found {found}")
    if error is not None:
        raise error
    end = first + len(texts)
    return BinaryMatrix.from_row_masks(n, masks), numbers[end:], lines[end:]


def parse_matrix(source: TextIO) -> BinaryMatrix:
    """The matrix in a text stream, read in pieces of ``_CHUNK`` characters."""
    pieces = _content_pieces(source)
    matrix, _, lines = _read_matrix(pieces)
    if lines or next(pieces, None):
        raise MatrixError("trailing content after the matrix rows")
    return matrix


def format_split(split: RowSplit, out: TextIO) -> None:
    """Write the split matrix as a matrix file, a blank line, then the group
    lines, to a text stream: the rows in batches of about ``_CHUNK``
    characters, each distinct row formatted once, and the group lines (one
    per source row) through one ``writelines``."""
    matrix = split.matrix
    spec = f"0{matrix.n}b"
    text = {mask: format(mask, spec)[::-1] + "\n" for mask in matrix.distinct_row_masks}
    rows = matrix.row_masks
    step = max(1, _CHUNK // (matrix.n + 1))
    out.write(f"{matrix.m} {matrix.n}\n")
    for start in range(0, len(rows), step):
        out.write("".join(map(text.__getitem__, rows[start:start + step])))
    out.write("\n")
    out.writelines(f"{i}: " + " ".join(map(str, map((1).__add__, group))) + "\n"
                   for i, group in enumerate(split.groups, start=1))


def parse_split(source: TextIO) -> RowSplit:
    """The split in a text stream, read in pieces of ``_CHUNK`` characters."""
    pieces = _content_pieces(source)
    matrix, numbers, lines = _read_matrix(pieces)
    groups: dict[int, tuple[int, ...]] = {}
    for numbers, lines in chain([(numbers, lines)], pieces):
        for lineno, line in zip(numbers, lines):
            head, sep, rest = line.partition(":")
            if not sep or not head.strip().isdecimal():
                raise MatrixError(f"line {lineno}: expected 'i: j1 j2 ...', got {line!r}")
            i = int(head)
            if i in groups:
                raise MatrixError(f"line {lineno}: duplicate group for row {i}")
            tokens = rest.split()
            if tokens and not "".join(tokens).isdecimal():
                raise MatrixError(f"line {lineno}: non-integer split-row index")
            members = tuple(map((-1).__add__, map(int, tokens)))
            if -1 in members:
                raise MatrixError(f"line {lineno}: split-row indices are 1-based")
            groups[i] = members
    if not groups:
        raise MatrixError("split file has no group lines")
    count = len(groups)
    if sorted(groups) != list(range(1, count + 1)):
        raise MatrixError("group lines must cover rows 1..m exactly once")
    return RowSplit(matrix, tuple(groups[i] for i in range(1, count + 1)))


def _row_sets(masks: tuple[int, ...], m: int) -> Iterator[str]:
    """Labels like "{r1,r3}" naming the rows in each mask by position, made
    one at a time."""
    names = [f"r{i + 1}" for i in range(m)]
    return ("{" + ",".join(select(names, mask)) + "}" for mask in masks)


def digraph_to_dot(digraph: Dag) -> str:
    """DOT rendering with one node per vertex and one edge per arc.

    Containment digraphs get support-set labels like "{r1,r3}", other
    digraphs their vertex numbers.
    """
    if isinstance(digraph, ContainmentDigraph):
        labels = _row_sets(digraph.supports, digraph.n_rows)
    else:
        labels = map(str, range(digraph.n))
    lines = ["digraph containment {"]
    lines.extend(f'  v{v} [label="{label}"];' for v, label in enumerate(labels))
    heads = [f"v{v};" for v in range(digraph.n)]
    for u, mask in enumerate(digraph.out_masks):
        lines.extend(map(f"  v{u} -> ".__add__, select(heads, mask)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def phylo_to_dot(tree: PhyloTree) -> str:
    """DOT rendering of a phylogeny: support nodes plus boxed row leaves."""
    lines = ["digraph phylogeny {"]
    for v, label in enumerate(_row_sets(tree.node_masks, len(tree.row_node))):
        lines.append(f'  n{v} [label="{label}"];')
    for v, parent in enumerate(tree.parent):
        if parent is not None:
            lines.append(f"  n{parent} -> n{v};")
    for i, node in enumerate(tree.row_node):
        lines.append(f'  r{i} [label="r{i + 1}" shape=box];')
        lines.append(f"  n{node} -> r{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
