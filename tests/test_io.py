import io
import random
import re
import tracemalloc

import pytest

import cfrs.io
from cfrs import (
    approx_height,
    build_containment,
    build_phylogeny,
    gen_block_tree,
    parse_edge_list,
    verify_row_split,
)
from cfrs.errors import MatrixError
from cfrs.io import (
    digraph_to_dot,
    format_matrix,
    format_split,
    parse_matrix,
    parse_split,
    phylo_to_dot,
)

from tests.helpers import (
    CROSSING_PAIR,
    NESTED_PAIR,
    identity_split,
    nested_prefix,
    split_text,
    stream,
    with_repeated_rows,
)


@pytest.fixture(params=[1, 2, 3, 7, cfrs.io._CHUNK])
def chunk(request, monkeypatch):
    """Files read and written ``request.param`` characters at a time."""
    monkeypatch.setattr(cfrs.io, "_CHUNK", request.param)
    return request.param


@pytest.mark.usefixtures("chunk")
def test_matrix_round_trip():
    text = format_matrix(CROSSING_PAIR)
    assert text == "3 2\n11\n10\n01\n"
    assert parse_matrix(stream(text)).rows == CROSSING_PAIR.rows


@pytest.mark.usefixtures("chunk")
def test_matrix_parse_accepts_comments_and_blanks():
    text = "# a test matrix\n\n2 2\n# rows follow\n11\n01\n"
    assert parse_matrix(stream(text)).rows == ((1, 1), (0, 1))


@pytest.mark.usefixtures("chunk")
def test_matrix_parse_errors():
    for bad in ("", "2\n11\n01\n", "2 2\n11\n", "2 2\n11\n0x\n", "1 1\n1\nextra\n"):
        with pytest.raises(MatrixError):
            parse_matrix(stream(bad))
    # '²' passes str.isdigit but int() rejects it
    with pytest.raises(MatrixError, match="line 2: expected header 'm n'"):
        parse_matrix(stream("# header\n² 1\n1\n"))


@pytest.mark.usefixtures("chunk")
def test_header_and_group_numbers_accept_what_they_accepted():
    # decimal digits of other scripts were accepted and still are
    assert parse_matrix(stream("\u0661 \u0662\n11\n")) == parse_matrix(stream("1 2\n11\n"))
    assert parse_split(stream("1 1\n1\n\n\u0661: 1\n")).groups == ((0,),)


@pytest.mark.usefixtures("chunk")
def test_split_round_trip():
    split = identity_split(NESTED_PAIR)
    text = split_text(split)
    assert text == "2 2\n11\n01\n\n1: 1\n2: 2\n"
    back = parse_split(stream(text))
    assert back.matrix.rows == split.matrix.rows
    assert back.groups == split.groups


@pytest.mark.usefixtures("chunk")
def test_split_parse_errors():
    with pytest.raises(MatrixError):
        parse_split(stream("2 2\n11\n01\n"))  # no groups
    with pytest.raises(MatrixError):
        parse_split(stream("2 2\n11\n01\n\n1: 1\n1: 2\n"))  # duplicate group
    with pytest.raises(MatrixError):
        parse_split(stream("2 2\n11\n01\n\n1: 1\n3: 2\n"))  # gap in group ids
    with pytest.raises(MatrixError):
        parse_split(stream("2 2\n11\n01\n\n1: 0\n2: 2\n"))  # zero index
    with pytest.raises(MatrixError, match="line 5: expected 'i: j1 j2 ...'"):
        parse_split(stream("2 2\n11\n01\n\n²: 1\n2: 2\n"))  # isdigit, not int()


def test_digraph_dot_labels_supports():
    dot = digraph_to_dot(build_containment(NESTED_PAIR))
    assert 'v0 [label="{r1}"];' in dot
    assert 'v1 [label="{r1,r2}"];' in dot
    assert "v0 -> v1;" in dot


def test_plain_dag_dot_uses_numeric_labels():
    from cfrs import Dag

    dot = digraph_to_dot(Dag(2, [(0, 1)]))
    assert 'v0 [label="0"];' in dot
    assert "v0 -> v1;" in dot


def test_phylo_dot_contains_rows_and_edges():
    dot = phylo_to_dot(build_phylogeny(gen_block_tree(2, 2)))
    assert dot.count("shape=box") == 2
    assert "n0 -> n3;" in dot  # root to the full-support column node


@pytest.mark.usefixtures("chunk")
@pytest.mark.parametrize("row", ["1_0", "+10", "0b1", "１0", "1 0", "10 "])
def test_rows_that_int_would_accept_are_rejected(row):
    width = len(row)
    with pytest.raises(MatrixError, match=f"line 3: expected {width} characters over 01"):
        parse_matrix(stream(f"2 {width}\n{'1' * width}\n{row}\n"))
    with pytest.raises(MatrixError, match=f"line 4: expected {width} characters over 01"):
        parse_split(stream(f"# split\n2 {width}\n{'1' * width}\n{row}\n\n1: 1\n2: 2\n"))


@pytest.mark.usefixtures("chunk")
@pytest.mark.parametrize("token", ["1_0", "+1", "0b1"])
def test_group_indices_that_int_would_accept_are_rejected(token):
    with pytest.raises(MatrixError, match="line 5: non-integer split-row index"):
        parse_split(stream(f"2 2\n11\n10\n\n1: {token}\n2: 2\n"))


@pytest.mark.usefixtures("chunk")
def test_split_round_trip_keeps_masks():
    split = identity_split(gen_block_tree(3, 3))
    back = parse_split(stream(split_text(split)))
    assert back.matrix == split.matrix
    assert back.matrix.row_masks == split.matrix.row_masks


@pytest.mark.usefixtures("chunk")
def test_repeated_bad_row_names_its_first_line():
    with pytest.raises(MatrixError, match="line 4: expected 2 characters over 01, got '0x'"):
        parse_matrix(stream("4 2\n11\n01\n0x\n0x\n"))
    with pytest.raises(MatrixError, match="line 3: expected 2 characters over 01, got '1'"):
        parse_split(stream("3 2\n11\n1\n1\n\n1: 1\n2: 2\n3: 3\n"))


@pytest.mark.usefixtures("chunk")
def test_bad_row_after_many_copies_names_its_own_line():
    rows = "10\n" * 1000
    with pytest.raises(MatrixError, match="line 1002: expected 2 characters over 01"):
        parse_matrix(stream(f"1001 2\n{rows}1_\n"))
    with pytest.raises(MatrixError, match="line 1003: expected 2 characters over 01"):
        parse_split(stream(f"# split\n1001 2\n{rows}102\n\n1: 1\n"))


@pytest.mark.usefixtures("chunk")
def test_round_trips_keep_repeated_rows():
    rng = random.Random(11)
    for matrix in (with_repeated_rows(CROSSING_PAIR, rng),
                   with_repeated_rows(gen_block_tree(3, 3), rng)):
        back = parse_matrix(stream(format_matrix(matrix)))
        assert back == matrix
        assert back.row_masks == matrix.row_masks
    split = approx_height(nested_prefix(70, rng))[0]
    assert len(split.matrix.distinct_row_masks) < split.matrix.m
    back = parse_split(stream(split_text(split)))
    assert back.matrix.row_masks == split.matrix.row_masks
    assert back.groups == split.groups


# line numbers count every line of the file, comment-only and blank ones too
@pytest.mark.usefixtures("chunk")
@pytest.mark.parametrize("text, message", [
    ("# only a comment\n\n   \n", "empty matrix file"),
    ("# c\n\n  # c2\n2 x # trailing\n11\n01\n", "line 4: expected header 'm n', got '2 x'"),
    ("# c\n2 2 # header\n\n11 # row\n# mid\n\n0x # bad\n",
     "line 7: expected 2 characters over 01, got '0x'"),
    ("# c\n3 2\n11\n# gap\n\n01 # row\n", "expected 3 matrix rows, found 2"),
    # a short file is reported as short even when a row is also bad
    ("3 2\n0x\n# c\n11\n", "expected 3 matrix rows, found 2"),
    ("1 1 # c\n1\n# c\n\nextra # x\n", "trailing content after the matrix rows"),
])
def test_matrix_errors_count_comment_and_blank_lines(text, message):
    with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
        parse_matrix(stream(text))


# lines 1-7 hold the split matrix, comments and blanks; group lines start at 8
SPLIT_HEAD = "# split\n2 2\n11 # r1\n\n01\n# groups\n\n"


@pytest.mark.usefixtures("chunk")
@pytest.mark.parametrize("groups, message", [
    ("# none\n\n", "split file has no group lines"),
    ("1: 1\n# x\n2 2\n", "line 10: expected 'i: j1 j2 ...', got '2 2'"),
    ("1: 1 # g\n\n1: 2\n", "line 10: duplicate group for row 1"),
    ("1: 1\n# x\n2: 2 x # y\n", "line 10: non-integer split-row index"),
    ("1: 1\n\n2: 2 0 # z\n", "line 10: split-row indices are 1-based"),
    ("1: 1\n# x\n3: 2\n", "group lines must cover rows 1..m exactly once"),
])
def test_split_group_errors_count_comment_and_blank_lines(groups, message):
    with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
        parse_split(stream(SPLIT_HEAD + groups))


@pytest.mark.parametrize("text, message", [
    ("# graph\n0 1\n\n# c\n1 2 3 # x\n", "line 5: expected 'u v', got '1 2 3'"),
    ("0 1\n# c\n\n1 x\n", "line 4: non-integer vertex id"),
])
def test_edge_list_errors_count_comment_and_blank_lines(text, message):
    with pytest.raises(MatrixError, match=f"^{re.escape(message)}$"):
        parse_edge_list(text)


@pytest.mark.usefixtures("chunk")
def test_hand_written_split_parses_and_formats_canonically():
    text = ("# hand-written split of 11 / 01\n3 2\n10 # first\n\n01\n01\n"
            "# groups out of order, members not contiguous\n2: 2\n1:   3 1 # both\n")
    split = parse_split(stream(text))
    assert split.groups == ((2, 0), (1,))
    assert verify_row_split(NESTED_PAIR, split).ok
    assert split_text(split) == "3 2\n10\n01\n01\n\n1: 3 1\n2: 2\n"


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its result, or its error message."""
    try:
        return parse(stream(text))
    except MatrixError as exc:
        return str(exc)


# each text is read at every chunk size from 1 to its length, so a chunk
# edge falls at every position: inside a "\r\n", after a lone "\r", inside a
# '#' comment, inside a row longer than the chunk, and at the end of a file
# with no final newline
@pytest.mark.parametrize("parse, text, expected", [
    (parse_matrix, "# a\r\n2 2\r\n11\r\n01\r\n", ((1, 1), (0, 1))),
    (parse_matrix, "2 2\r11\r\r01\r", ((1, 1), (0, 1))),
    (parse_matrix, "# c#\n2 2 # h\n11#x\n  # y\n01\n", ((1, 1), (0, 1))),
    (parse_matrix, "2 12\n" + "1" * 12 + "\n" + "0" * 11 + "1", ((1,) * 12, (0,) * 11 + (1,))),
    (parse_matrix, "# a\r\n\r2 2\n11\r\r\n0x", "line 6: expected 2 characters over 01, got '0x'"),
    (parse_matrix, "1 2\r\n11\r\n# c\r\n\rextra", "trailing content after the matrix rows"),
    (parse_split, "2 2\r\n11\r\n01\r\n\r\n1: 1 # g\r\n2: 2", ((0,), (1,))),
    (parse_split, "2 2\r11\r01\r\r1: 1\r2: 2\r", ((0,), (1,))),
    (parse_split, "2 2\n11\n01\n\r\n# 1: 9\r\n2: 1 2\r1: ", ((), (0, 1))),
    (parse_split, "2 2\r\n11\r\n01\r\n\r\n1: 1\r\r\n2: x", "line 7: non-integer split-row index"),
    (parse_split, "2 2\n11\n01\n# 1: 1", "split file has no group lines"),
])
def test_reads_agree_at_every_chunk_edge(monkeypatch, parse, text, expected):
    found = _outcome(parse, text)
    if isinstance(found, str):
        assert found == expected
    elif parse is parse_matrix:
        assert found.rows == expected
    else:
        assert found.groups == expected
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(cfrs.io, "_CHUNK", size)
        assert _outcome(parse, text) == found, size


class _CountingStream(io.StringIO):
    def __init__(self, text):
        super().__init__(text)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


@pytest.mark.parametrize("text, groups", [
    ("# split\n2 2\n11\n01\n\n1: 1\n2: 2\n", ((0,), (1,))),
    ("1 1\n1\n\n1: 1", ((0,),)),
])
def test_a_file_shorter_than_a_chunk_costs_one_read_and_one_cut(monkeypatch, text, groups):
    calls = []
    real = cfrs.io._content_lines
    monkeypatch.setattr(cfrs.io, "_content_lines", lambda *a: calls.append(a) or real(*a))
    source = _CountingStream(text)
    assert parse_split(source).groups == groups
    assert (source.reads, len(calls)) == (1, 1)


def test_split_files_are_written_and_read_in_bounded_memory(tmp_path):
    # nested-prefix m=200 height: 20,100 rows of 200 characters, 4.15 MB;
    # building the whole text, or holding its lines, would take more than that
    split = approx_height(nested_prefix(200, random.Random(0)))[0]
    path = tmp_path / "split.txt"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            format_split(split, handle)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(path, encoding="utf-8") as handle:
            back = parse_split(handle)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert written < size and read < size, (written, read, size)
    assert back.matrix.row_masks == split.matrix.row_masks
    assert back.groups == split.groups
