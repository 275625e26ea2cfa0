"""Text formats: matrix files, split files, DOT export.

Matrix file: optional '#' comment lines, a header line "m n", then m lines
each a string of n characters over {0,1}.  Split file: the split matrix in
the same format, a blank line, then m lines "i: j1 j2 ..." giving the
1-based split-row indices of each source row's group.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator

from .containment import ContainmentDigraph, Dag
from .errors import MatrixError
from .matrix import BinaryMatrix, PhyloTree, RowSplit, select


def format_matrix(matrix: BinaryMatrix) -> str:
    spec = f"0{matrix.n}b"
    lines = [f"{matrix.m} {matrix.n}"]
    lines += [format(mask, spec)[::-1] for mask in matrix.row_masks]
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> tuple[list[int], list[str]]:
    """The 1-based numbers and the stripped text of the lines left non-empty
    once '#' comments are cut, as two parallel lists in file order."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = list(map(str.strip, lines))
    return list(compress(range(1, len(lines) + 1), lines)), list(compress(lines, lines))


def _parse_matrix_lines(numbers: list[int], lines: list[str]) -> BinaryMatrix:
    if not lines:
        raise MatrixError("empty matrix file")
    header = lines[0]
    parts = header.split()
    # isdecimal: isdigit also takes digits such as '²' that int() rejects
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise MatrixError(f"line {numbers[0]}: expected header 'm n', got {header!r}")
    m, n = int(parts[0]), int(parts[1])
    if len(lines) - 1 < m:
        raise MatrixError(f"expected {m} matrix rows, found {len(lines) - 1}")
    # each distinct row text is checked and converted once, in order of first
    # appearance, so the first bad text met is on the first bad line
    texts = lines[1:m + 1]
    table: dict[str, int] = {}
    for line in dict.fromkeys(texts):
        # int(..., 2) alone would also take '_', '+', spaces and
        # non-ASCII digits; counting the 0s and 1s rejects them at
        # under half the cost per character of line.strip("01")
        if len(line) != n or line.count("0") + line.count("1") != n:
            raise MatrixError(f"line {numbers[texts.index(line) + 1]}: expected {n} "
                              f"characters over 01, got {line!r}")
        table[line] = int(line[::-1], 2)
    return BinaryMatrix.from_row_masks(n, map(table.__getitem__, texts))


def parse_matrix(text: str) -> BinaryMatrix:
    numbers, lines = _content_lines(text)
    matrix = _parse_matrix_lines(numbers, lines)
    if len(lines) != matrix.m + 1:
        raise MatrixError("trailing content after the matrix rows")
    return matrix


def format_split(split: RowSplit) -> str:
    """The split matrix as a matrix file, a blank line, then the group lines;
    each distinct split row is formatted once."""
    matrix = split.matrix
    spec = f"0{matrix.n}b"
    text = {mask: format(mask, spec)[::-1] for mask in matrix.distinct_row_masks}
    lines = [f"{matrix.m} {matrix.n}", *map(text.__getitem__, matrix.row_masks), ""]
    lines += [f"{i}: " + " ".join(map(str, map((1).__add__, group)))
              for i, group in enumerate(split.groups, start=1)]
    return "\n".join(lines) + "\n"


def parse_split(text: str) -> RowSplit:
    numbers, lines = _content_lines(text)
    matrix = _parse_matrix_lines(numbers, lines)
    start = matrix.m + 1
    if len(lines) == start:
        raise MatrixError("split file has no group lines")
    groups: dict[int, tuple[int, ...]] = {}
    for lineno, line in zip(numbers[start:], lines[start:]):
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
