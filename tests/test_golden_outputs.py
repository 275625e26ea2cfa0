"""Golden-output check: command-line outputs stay byte-identical.

Runs ``cfrs.cli.main`` in-process on a small seeded corpus (laminar,
random, nested-prefix, block trees, the vc/ib reductions of K4) and compares
the sha256 of every output against ``tests/golden_outputs.json``: each
solve method's split file, ``--json`` report and stdout, ``analyze``
stdout, and the ``tree`` and ``digraph`` DOT files.  A second corpus of
wider matrices, whose row or column counts cross multiples of 64, pins
``analyze`` stdout and the ``tree`` and ``digraph`` DOT files, plus one
``height`` solve; one of them is sparse (3 % ones), so the row-name labels
come from both sides of the bit-selection kernel's density cutoff.  Two of
them are at benchmark scale: a row-shuffled nested prefix of 300 columns
(44,850 containment arcs) and a laminar 1000x1500 matrix (12,950 arcs).  The
``linear`` and ``width`` solves also run on two laminar matrices, 100x150
and 300x450, the sizes of the benchmark's linear solves.  The elapsed time
goes to stderr and is not compared.

A change that is meant to alter an output regenerates the digests with

    PYTHONPATH=src python -m tests.test_golden_outputs

and says why in its change notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from cfrs import (
    BinaryMatrix,
    gen_block_tree,
    gen_ib_reduction,
    gen_random,
    gen_random_laminar,
    gen_vc_reduction,
)
from cfrs.cli import METHODS, main
from cfrs.io import format_matrix

from tests.helpers import k4, nested_prefix

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _nested_prefix(m: int) -> BinaryMatrix:
    # column j holds rows 0..j: one chain of m supports
    return BinaryMatrix.from_col_masks(m, [(1 << (j + 1)) - 1 for j in range(m)])


def corpus() -> dict[str, BinaryMatrix]:
    return {
        "laminar-12x16": gen_random_laminar(12, 16, 0),
        "laminar-20x30": gen_random_laminar(20, 30, 1),
        "random-6x8": gen_random(6, 8, 0.5, 3),
        "random-7x9": gen_random(7, 9, 0.4, 7),
        "nested-prefix-9": _nested_prefix(9),
        "block-tree-2-3": gen_block_tree(2, 3),
        "block-tree-3-2": gen_block_tree(3, 2),
        "vc-k4": gen_vc_reduction(k4()),
        "ib-k4": gen_ib_reduction(k4()),
    }


def wide_corpus() -> dict[str, BinaryMatrix]:
    return {
        "nested-prefix-65": _nested_prefix(65),
        "nested-prefix-130": _nested_prefix(130),
        "random-70x130": gen_random(70, 130, 0.5, 0),
        "laminar-100x150": gen_random_laminar(100, 150, 0),
        "sparse-random-70x130": gen_random(70, 130, 0.03, 0),
        "shuffled-nested-prefix-300": nested_prefix(300, random.Random(300)),
        "laminar-1000x1500": gen_random_laminar(1000, 1500, 0),
    }


def scale_solve_corpus() -> dict[str, BinaryMatrix]:
    # laminar inputs of benchmark scale: the min-price chain partition and
    # the width matching each run on k = 150 and k = 450 supports
    return {
        "laminar-100x150": gen_random_laminar(100, 150, 0),
        "laminar-300x450": gen_random_laminar(300, 450, 0),
    }


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _run(argv: list[str], files: dict[str, Path]) -> dict[str, object]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    record: dict[str, object] = {"exit": code, "stdout": _digest(stdout.getvalue())}
    for name, path in files.items():
        if path.exists():
            record[name] = _digest(path.read_text(encoding="utf-8"))
            path.unlink()
    return record


def compute_digests(workdir: Path) -> dict[str, dict[str, object]]:
    digests: dict[str, dict[str, object]] = {}
    for name, matrix in corpus().items():
        source = workdir / f"{name}.txt"
        source.write_text(format_matrix(matrix), encoding="utf-8")
        out, report, dot = (workdir / "split.txt", workdir / "report.json",
                            workdir / "out.dot")
        for method in METHODS:
            digests[f"{name} solve {method}"] = _run(
                ["solve", str(source), "--method", method,
                 "--out", str(out), "--json", str(report)],
                {"out": out, "json": report})
        digests[f"{name} analyze"] = _run(["analyze", str(source)], {})
        for command in ("tree", "digraph"):
            digests[f"{name} {command}"] = _run(
                [command, str(source), "--dot", str(dot)], {"dot": dot})
    for name, matrix in wide_corpus().items():
        source = workdir / f"{name}.txt"
        source.write_text(format_matrix(matrix), encoding="utf-8")
        dot = workdir / "out.dot"
        digests[f"{name} analyze"] = _run(["analyze", str(source)], {})
        for command in ("tree", "digraph"):
            digests[f"{name} {command}"] = _run(
                [command, str(source), "--dot", str(dot)], {"dot": dot})
    out, report = workdir / "split.txt", workdir / "report.json"
    digests["nested-prefix-65 solve height"] = _run(
        ["solve", str(workdir / "nested-prefix-65.txt"), "--method", "height",
         "--out", str(out), "--json", str(report)], {"out": out, "json": report})
    for name, matrix in scale_solve_corpus().items():
        source = workdir / f"{name}.txt"
        source.write_text(format_matrix(matrix), encoding="utf-8")
        for method in ("linear", "width"):
            digests[f"{name} solve {method}"] = _run(
                ["solve", str(source), "--method", method,
                 "--out", str(out), "--json", str(report)],
                {"out": out, "json": report})
    return digests


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
