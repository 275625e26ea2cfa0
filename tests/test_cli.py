import argparse
import json
import random
import time

import pytest

import cfrs.containment
import cfrs.matrix
from cfrs.cli import main
from cfrs.io import format_matrix
from cfrs.matrix import _laminar_tree
from cfrs import (ConflictError, build_containment, build_phylogeny, find_conflict,
                  gen_block_tree, gen_random, gen_random_laminar, verify_row_split)

from tests.helpers import (CROSSING_PAIR, differential_corpus, identity_split, k4,
                           reference_sweep_conflict, split_text, with_last_pair_crossing,
                           with_repeated_rows)


@pytest.fixture
def block_tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    assert main(["gen", "md", "--d", "3", "--h", "3", "--out", str(path)]) == 0
    return path


def write(path, text):
    path.write_text(text)
    return str(path)


def test_analyze_conflicted(tmp_path, capsys):
    path = write(tmp_path / "m.txt", format_matrix(CROSSING_PAIR))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "rows: 3" in out
    assert "cols: 2" in out
    assert "conflict_free: no" in out
    assert "conflict: columns c1,c2 on rows r1,r2,r3" in out


def test_analyze_runs_the_laminarity_sweep_once(tmp_path, capsys, monkeypatch):
    # the containment build's sweep already rejected the matrix and named
    # its witness, so analyze runs no sweep of its own
    calls = []

    def spy(*args):
        calls.append(args)
        return _laminar_tree(*args)

    for module in (cfrs.matrix, cfrs.containment):
        monkeypatch.setattr(module, "_laminar_tree", spy)
    matrix = gen_random(60, 1500, 0.5, 0)
    path = write(tmp_path / "wide.txt", format_matrix(matrix))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    monkeypatch.undo()
    assert "conflict_free: no" in out
    assert f"conflict: {find_conflict(matrix).describe()}\n" in out


def _analyze_conflict(path, capsys):
    """The witness text on ``cfrs analyze``'s conflict line, or None."""
    assert main(["analyze", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    return next((line.removeprefix("conflict: ") for line in lines
                 if line.startswith("conflict: ")), None)


def test_every_witness_source_names_the_sweep_pair(tmp_path, capsys):
    # find_conflict, verify's rejection, build_phylogeny's error and
    # analyze's line all read one sweep's failing support, also when rows
    # repeat and the sweeps over all rows and over the distinct rows differ
    rng = random.Random(2604)
    corpus = [with_repeated_rows(matrix, rng) for matrix in differential_corpus()]
    crossing = 0
    for i, matrix in enumerate(corpus):
        witness = find_conflict(matrix)
        assert witness == reference_sweep_conflict(matrix)
        assert verify_row_split(matrix, identity_split(matrix)).witness == witness
        described = _analyze_conflict(write(tmp_path / f"m{i}.txt", format_matrix(matrix)),
                                      capsys)
        if witness is None:
            assert described is None
            build_phylogeny(matrix)
            continue
        crossing += 1
        assert described == witness.describe()
        with pytest.raises(ConflictError) as err:
            build_phylogeny(matrix)
        assert err.value.witness == witness
    assert crossing > 30 and sum(m.m > len(m.distinct_row_masks) for m in corpus) > 100


def test_late_crossing_is_named_by_every_command(tmp_path, capsys):
    # the only crossing is the last column pair of a 1000x1500 laminar matrix
    matrix = with_last_pair_crossing(gen_random_laminar(1000, 1500, 0))
    pair = "columns c1501,c1502 on rows r1002,r1001,r1003"
    assert find_conflict(matrix).describe() == pair
    path = write(tmp_path / "late.txt", format_matrix(matrix))
    assert _analyze_conflict(path, capsys) == pair
    assert main(["tree", path, "--dot", str(tmp_path / "late.dot")]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot build a phylogeny: conflict between {pair}\n"


def test_analyze_block_tree(block_tree_file, capsys):
    assert main(["analyze", str(block_tree_file)]) == 0
    out = capsys.readouterr().out
    for line in ("rows: 9", "cols: 13", "distinct_cols: 13", "height: 3",
                 "width: 9", "conflict_free: yes"):
        assert line in out


def test_solve_linear_and_exact_reports(block_tree_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    split_path = tmp_path / "split.txt"
    code = main(["solve", str(block_tree_file), "--method", "linear",
                 "--out", str(split_path), "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report == {
        "method": "linear",
        "rows": 21,
        "distinct_rows": 13,
        "beta_lower_bound": 9,
        "tower_value": 21,
        "height": 3,
        "width": 9,
        "k": 13,
    }
    capsys.readouterr()
    assert main(["solve", str(block_tree_file), "--method", "exact-rows"]) == 0
    assert "rows: 9" in capsys.readouterr().out


def test_solve_then_verify_round_trip(block_tree_file, tmp_path, capsys):
    for method in ("exact-rows", "exact-distinct", "linear", "height",
                   "width", "distinct-2"):
        split_path = tmp_path / f"{method}.split"
        assert main(["solve", str(block_tree_file), "--method", method,
                     "--out", str(split_path)]) == 0
        assert main(["verify", str(block_tree_file), str(split_path)]) == 0
        assert "accept" in capsys.readouterr().out


def test_verify_rejects(tmp_path, capsys):
    matrix_path = write(tmp_path / "m.txt", format_matrix(CROSSING_PAIR))
    split_path = write(tmp_path / "s.txt",
                       split_text(identity_split(CROSSING_PAIR)))
    assert main(["verify", matrix_path, split_path]) == 1
    assert "reject" in capsys.readouterr().out


def test_bad_utf8_past_the_first_chunk_exits_1(tmp_path, capsys):
    # 24,000 rows "10" / "01" fill 72,000 characters, past the first chunk a
    # reader takes; the bad byte is in the matrix file's last row, or on a
    # line after the split file's last group line
    rows = "10\n01\n" * 12000
    matrix_path = write(tmp_path / "m.txt", f"24000 2\n{rows}")
    bad_matrix = tmp_path / "bad-m.txt"
    bad_matrix.write_bytes(f"24000 2\n{rows[:-3]}".encode() + b"0\xff\n")
    groups = "".join(f"{i}: {i}\n" for i in range(1, 24001))
    bad_split = tmp_path / "bad-s.txt"
    bad_split.write_bytes(f"24000 2\n{rows}\n{groups}".encode() + b"\xff\n")
    for argv in (["analyze", str(bad_matrix)], ["verify", str(bad_matrix), matrix_path],
                 ["verify", matrix_path, str(bad_split)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode")
        assert "Traceback" not in captured.err
    bad_split.write_bytes(f"24000 2\n{rows}\n{groups}".encode())
    assert main(["verify", matrix_path, str(bad_split)]) == 0
    assert capsys.readouterr().out == "accept\n"


def test_budget_exit_code(block_tree_file, capsys):
    # bt(3,3) needs 36 options
    assert main(["solve", str(block_tree_file), "--method", "exact-rows",
                 "--budget", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: exact search tried 5 options, its budget: the best branching so far "
        "has 9 rows, the root lower bound is 9\n")
    assert main(["solve", str(block_tree_file), "--method", "exact-rows",
                 "--budget", "36"]) == 0
    assert "rows: 9\n" in capsys.readouterr().out


def test_invalid_budget_exits_one_naming_its_source(block_tree_file, capsys, monkeypatch):
    solve = ["solve", str(block_tree_file), "--method", "exact-rows"]
    for budget in ("-3", "abc", "1.5", ""):
        assert main(solve + ["--budget", budget]) == 1
        assert "--budget must be a non-negative integer" in capsys.readouterr().err
    # 0 is a valid budget that refuses
    assert main(solve + ["--budget", "0"]) == 2
    capsys.readouterr()
    # the budget comes from --budget alone: no variable is read, and linear
    # has no budget
    monkeypatch.setenv("CFRS_BUDGET", "-1")
    assert main(["solve", str(block_tree_file), "--method", "linear"]) == 0
    assert main(solve) == 0
    capsys.readouterr()


def test_gen_over_the_size_cap_exits_one_fast(capsys):
    start = time.perf_counter()
    for command in (["md", "--d", "10", "--h", "5000"],
                    ["md", "--d", "10", "--h", "3000000"],
                    ["random", "--rows", "100000", "--cols", "100000",
                     "--density", "0.5", "--seed", "1"],
                    ["laminar", "--rows", "1001", "--k", "1999", "--seed", "1"]):
        assert main(["gen", *command]) == 1
        assert "the size cap of 2000000 cells" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


def test_exact_solve_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 3,066 options at the default budget
    matrix = gen_block_tree(2, 10)
    path = write(tmp_path / "bt.txt", format_matrix(matrix))
    assert main(["solve", path, "--method", "exact-rows"]) == 0
    assert "rows: 512" in capsys.readouterr().out


def test_unknown_flags_exit_one(capsys):
    assert main(["analyze", "--frobnicate", "x"]) == 1
    assert main(["solve", "f", "--method", "psychic"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_main_builds_no_parser_and_keeps_no_state_between_calls(
        block_tree_file, tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["solve", str(block_tree_file), "--method", "exact-rows",
                 "--budget", "0"]) == 2
    report_path = tmp_path / "report.json"
    assert main(["solve", str(block_tree_file), "--json", str(report_path)]) == 0
    assert built == []
    assert json.loads(report_path.read_text())["method"] == "linear"
    capsys.readouterr()
    md_path = tmp_path / "md.txt"
    assert main(["gen", "md", "--d", "2", "--h", "2", "--out", str(md_path)]) == 0
    assert capsys.readouterr().out == ""
    assert md_path.read_text().startswith("2 3\n")
    assert main(["gen", "random", "--rows", "3", "--cols", "3",
                 "--density", "0.5", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith("3 3\n")


def test_invalid_inputs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["analyze", missing]) == 1
    bad = write(tmp_path / "bad.txt", "1 2\n00\n")
    assert main(["analyze", bad]) == 1
    assert main(["gen", "laminar", "--rows", "3", "--k", "9",
                 "--seed", "1"]) == 1
    conflicted = write(tmp_path / "c.txt", format_matrix(CROSSING_PAIR))
    assert main(["tree", conflicted, "--dot", str(tmp_path / "t.dot")]) == 1
    capsys.readouterr()


def test_gen_families_and_analyze_round_trip(tmp_path, capsys):
    graph_path = write(tmp_path / "k4.txt",
                       "\n".join(f"{u} {v}" for u, v in k4().edges) + "\n")
    commands = [
        ["gen", "md", "--d", "2", "--h", "3"],
        ["gen", "vc-reduction", "--graph", graph_path],
        ["gen", "ib-reduction", "--graph", graph_path],
        ["gen", "random", "--rows", "5", "--cols", "4",
         "--density", "0.5", "--seed", "11"],
        ["gen", "laminar", "--rows", "6", "--k", "7", "--seed", "3"],
    ]
    for i, command in enumerate(commands):
        out_path = tmp_path / f"gen{i}.txt"
        assert main(command + ["--out", str(out_path)]) == 0
        assert main(["analyze", str(out_path)]) == 0
        capsys.readouterr()
        # stdout emission matches the file
        assert main(command) == 0
        assert capsys.readouterr().out == out_path.read_text()


def test_tree_and_digraph_dot(tmp_path, block_tree_file):
    tree_dot = tmp_path / "tree.dot"
    digraph_dot = tmp_path / "digraph.dot"
    assert main(["tree", str(block_tree_file), "--dot", str(tree_dot)]) == 0
    assert main(["digraph", str(block_tree_file), "--dot", str(digraph_dot)]) == 0
    assert tree_dot.read_text().startswith("digraph phylogeny {")
    assert digraph_dot.read_text().startswith("digraph containment {")
    assert 'label="{r1,r2,r3}"' in digraph_dot.read_text()


def test_byte_identical_reruns(tmp_path, capsys):
    graph_path = write(tmp_path / "k4.txt",
                       "\n".join(f"{u} {v}" for u, v in k4().edges) + "\n")
    matrix_path = tmp_path / "m.txt"
    assert main(["gen", "laminar", "--rows", "7", "--k", "10", "--seed", "5",
                 "--out", str(matrix_path)]) == 0

    def run_all(tag):
        paths = {}
        for name, command in {
            "md": ["gen", "md", "--d", "3", "--h", "2"],
            "vc": ["gen", "vc-reduction", "--graph", graph_path],
            "ib": ["gen", "ib-reduction", "--graph", graph_path],
            "random": ["gen", "random", "--rows", "6", "--cols", "6",
                       "--density", "0.4", "--seed", "9"],
            "laminar": ["gen", "laminar", "--rows", "7", "--k", "10",
                        "--seed", "5"],
        }.items():
            out = tmp_path / f"{name}.{tag}"
            assert main(command + ["--out", str(out)]) == 0
            paths[name] = out.read_bytes()
        for method in ("exact-rows", "exact-distinct", "linear", "height",
                       "width", "distinct-2"):
            split = tmp_path / f"{method}.split.{tag}"
            report = tmp_path / f"{method}.report.{tag}"
            assert main(["solve", str(matrix_path), "--method", method,
                         "--out", str(split), "--json", str(report)]) == 0
            paths[method] = split.read_bytes() + report.read_bytes()
        for kind in ("tree", "digraph"):
            dot = tmp_path / f"{kind}.{tag}.dot"
            assert main([kind, str(matrix_path), "--dot", str(dot)]) == 0
            paths[kind] = dot.read_bytes()
        capsys.readouterr()
        return paths

    assert run_all("a") == run_all("b")
