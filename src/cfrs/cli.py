"""Command-line front end.

Subcommands: analyze, solve, verify, gen, tree, digraph.  Exit codes:
0 success (and accepted verifications), 1 invalid input, rejected
verification or failed internal self-check, 2 exact-solve budget exceeded.
Identical inputs and flags produce byte-identical output files; the only
non-deterministic output is the elapsed time, which goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as formats
from .branching import DEFAULT_BUDGET
from .containment import build_containment, height, width
from .errors import BudgetError, CfrsError
from .instances import (
    gen_block_tree,
    gen_ib_reduction,
    gen_random,
    gen_random_laminar,
    gen_vc_reduction,
    parse_edge_list,
)
from .matrix import BinaryMatrix, build_phylogeny, verify_row_split
from .solvers import (
    approx_distinct_2,
    approx_height,
    approx_width,
    solve_exact,
    solve_linear_heuristic,
)

# method name -> its solve call, given the matrix and the exact budget.  Each
# solver is looked up by name when called, so a module attribute swapped at
# run time (a timing wrapper, say) is the one that runs.
METHODS = {
    "exact-rows": lambda matrix, budget: solve_exact(matrix, "rows", budget),
    "exact-distinct": lambda matrix, budget: solve_exact(matrix, "distinct", budget),
    "linear": lambda matrix, budget: solve_linear_heuristic(matrix),
    "height": lambda matrix, budget: approx_height(matrix),
    "width": lambda matrix, budget: approx_width(matrix),
    "distinct-2": lambda matrix, budget: approx_distinct_2(matrix),
}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_matrix(path: str) -> BinaryMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        return formats.parse_matrix(handle)


def build_parser() -> argparse.ArgumentParser:
    """The ``cfrs`` parser; each subcommand sets ``handler``, each gen
    family ``build`` (its matrix from the parsed arguments)."""
    parser = argparse.ArgumentParser(
        prog="cfrs",
        description="Solve, approximate, and certify conflict-free row splits "
                    "of binary matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print matrix statistics")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("solve", help="compute a conflict-free row split")
    p.add_argument("file")
    p.add_argument("--method", choices=METHODS, default="linear")
    p.add_argument("--out", help="write the split to this file")
    p.add_argument("--json", help="write the report to this file")
    p.add_argument("--budget", help="options the exact methods may try, a "
                   "non-negative integer; each takes a few microseconds (default: "
                   f"{DEFAULT_BUDGET})")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="check a split file against a matrix")
    p.add_argument("matrix")
    p.add_argument("split")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("gen", help="generate an instance")
    p.set_defaults(handler=_cmd_gen)
    gen_sub = p.add_subparsers(dest="family", required=True)

    g = gen_sub.add_parser("md", help="complete d-ary block-tree family")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--h", type=int, required=True)
    g.set_defaults(build=lambda a: gen_block_tree(a.d, a.h))

    g = gen_sub.add_parser("vc-reduction",
                           help="vertex-cover reduction of a cubic graph")
    g.add_argument("--graph", required=True, help="edge-list file")
    g.set_defaults(build=lambda a: gen_vc_reduction(parse_edge_list(_read(a.graph))))

    g = gen_sub.add_parser("ib-reduction",
                           help="distinct-rows reduction of a cubic graph")
    g.add_argument("--graph", required=True, help="edge-list file")
    g.set_defaults(build=lambda a: gen_ib_reduction(parse_edge_list(_read(a.graph))))

    g = gen_sub.add_parser("random", help="seeded random matrix")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--density", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.set_defaults(build=lambda a: gen_random(a.rows, a.cols, a.density, a.seed))

    g = gen_sub.add_parser("laminar", help="seeded conflict-free matrix")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.set_defaults(build=lambda a: gen_random_laminar(a.rows, a.k, a.seed))

    for g in gen_sub.choices.values():
        g.add_argument("--out")

    p = sub.add_parser("tree", help="export the phylogeny as DOT")
    p.add_argument("file")
    p.add_argument("--dot", required=True)
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("digraph", help="export the containment digraph as DOT")
    p.add_argument("file")
    p.add_argument("--dot", required=True)
    p.set_defaults(handler=_cmd_digraph)

    return parser


def _cmd_analyze(args) -> int:
    matrix = _load_matrix(args.file)
    digraph = build_containment(matrix)
    print(f"rows: {matrix.m}")
    print(f"cols: {matrix.n}")
    print(f"distinct_cols: {digraph.n}")
    print(f"height: {height(digraph)}")
    print(f"width: {width(digraph)}")
    print(f"conflict_free: {'yes' if digraph.conflict is None else 'no'}")
    if digraph.conflict is not None:  # named by the build's sweep
        print(f"conflict: {digraph.conflict.describe()}")
    return 0


def _budget(text: str | None) -> int:
    """The exact methods' budget from --budget, else DEFAULT_BUDGET."""
    if text is None:
        return DEFAULT_BUDGET
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"--budget must be a non-negative integer, got {text!r}")
    return budget


def _cmd_solve(args) -> int:
    matrix = _load_matrix(args.file)
    split, report = METHODS[args.method](matrix, _budget(args.budget))
    for key, value in report.to_json_dict().items():
        print(f"{key}: {value}")
    print(f"elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            formats.format_split(split, handle)
    if args.json:
        _write(args.json, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    matrix = _load_matrix(args.matrix)
    with open(args.split, "r", encoding="utf-8") as handle:
        split = formats.parse_split(handle)
    verdict = verify_row_split(matrix, split)
    if verdict.ok:
        print("accept")
        return 0
    print(f"reject: {verdict.reason}")
    return 1


def _cmd_gen(args) -> int:
    text = formats.format_matrix(args.build(args))
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_tree(args) -> int:
    matrix = _load_matrix(args.file)
    tree = build_phylogeny(matrix)
    _write(args.dot, formats.phylo_to_dot(tree))
    return 0


def _cmd_digraph(args) -> int:
    matrix = _load_matrix(args.file)
    _write(args.dot, formats.digraph_to_dot(build_containment(matrix)))
    return 0


# built once per process: main() only parses and dispatches
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit 2 is reserved for exceeded
        # budgets, so remap (keep 0 for --help)
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CfrsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
