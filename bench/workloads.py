"""The four seeded workloads: their inputs, the cfrs commands run on them, and
the checks on every output.

Every input is generated from the seed and written to a file; cfrs sees only
the files.  The checks use facts computed here from the generated matrix
with plain mask arithmetic, the known closed forms (block trees, the vertex
cover reductions), the written files and the ``--json`` report, so they do
not depend on the solvers' own asserts, which ``python -O`` strips.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

from cfrs import instances, io as formats
from cfrs.instances import CubicGraph, brute_force_vertex_cover
from cfrs.matrix import BinaryMatrix

SOLVE, VERIFY, ANALYZE = "solve", "verify", "analyze"
OK, REFUSED, FAILED, WRONG, SKIPPED = "ok", "refused", "failed", "wrong", "skipped"


def _graph(n: int, edges) -> CubicGraph:
    return CubicGraph(n, tuple(edges))


def _prism(n: int, rim_step: int) -> CubicGraph:
    """Outer n-cycle, spokes, inner cycle with the given step (1 gives the
    n-prism, 2 on n=5 gives the Petersen graph)."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + rim_step) % n) for i in range(n)]
    return _graph(2 * n, outer + spokes + inner)


GRAPHS = {
    "K4": _graph(4, itertools.combinations(range(4), 2)),
    "K33": _graph(6, ((a, b + 3) for a in range(3) for b in range(3))),
    "Q3": _graph(8, ((u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit)),
    "prism5": _prism(5, 1),
    "petersen": _prism(5, 2),
}


@dataclass(frozen=True)
class Facts:
    """Properties of an input matrix computed without the cfrs solvers."""

    m: int
    n: int
    k: int                # distinct column supports
    incidences: int       # (row, distinct support) pairs
    sources: int          # supports that contain no other support
    distinct_rows: int
    conflict_free: bool


def facts_of(matrix: BinaryMatrix) -> Facts:
    supports = sorted(set(matrix.col_masks), key=int.bit_count)
    # a proper subset has fewer bits, so it sorts earlier
    sources = sum(
        1 for i, s in enumerate(supports)
        if not any(t & ~s == 0 for t in supports[:i])
    )
    crossing = any(
        a & b and a & ~b and b & ~a
        for i, a in enumerate(supports) for b in supports[i + 1:]
    )
    return Facts(
        m=matrix.m,
        n=matrix.n,
        k=len(supports),
        incidences=sum(s.bit_count() for s in supports),
        sources=sources,
        distinct_rows=len(set(matrix.rows)),
        conflict_free=not crossing,
    )


# An expectation on an exact solve: (method, report, facts) -> error or None.
Expect = Callable[[str, dict, Facts], Optional[str]]


@dataclass(frozen=True)
class Input:
    """One generated input file and the commands run on it."""

    name: str
    make: Callable[[], BinaryMatrix]
    methods: tuple[str, ...] = ()
    tree: bool = False
    shape: tuple[Optional[int], Optional[int]] = (None, None)  # known (height, width)
    expect: Optional[Expect] = None


@dataclass(frozen=True)
class Op:
    """One cfrs command.  ``needs`` names the op whose output it reads; it
    is skipped, not attempted, when that op did not succeed.  Exact solves
    may refuse: their budget is part of the program's answer."""

    id: str
    kind: str
    argv: tuple[str, ...]
    input: str
    method: str = ""
    outputs: tuple[str, ...] = ()
    needs: str = ""
    may_refuse: bool = False


@dataclass(frozen=True)
class Plan:
    inputs: tuple[Input, ...]
    ladder: tuple[tuple[str, int], ...]   # (op id, size), smallest first; last is the top rung


# --- input families -------------------------------------------------------


def nested_prefix(m: int, rng: random.Random) -> BinaryMatrix:
    """m x m matrix whose column j holds the first j+1 rows of a random row
    order: one chain, k = m, m(m+1)/2 incidences.  Only the row labels
    depend on the seed; the digraph and the work on it do not."""
    order = list(range(m))
    rng.shuffle(order)
    masks, acc = [], 0
    for r in order:
        acc |= 1 << r
        masks.append(acc)
    return BinaryMatrix.from_col_masks(m, masks)


def _rows_permuted(matrix: BinaryMatrix, rng: random.Random) -> BinaryMatrix:
    order = list(range(matrix.m))
    rng.shuffle(order)
    return BinaryMatrix(tuple(matrix.rows[i] for i in order))


def _exact_value(field: str, value: int) -> Expect:
    def expect(method: str, report: dict, facts: Facts) -> Optional[str]:
        got = report[field]
        return None if got == value else f"{field} {got}, expected {value}"
    return expect


def _block_tree_expect(d: int, h: int) -> Expect:
    # rows: acceptance criterion 1; distinct: the d^(h-1) singleton leaves
    # are sources (a lower bound) and the m distinct rows are an upper bound
    def expect(method: str, report: dict, facts: Facts) -> Optional[str]:
        field = "rows" if method == "exact-rows" else "distinct_rows"
        return _exact_value(field, d ** (h - 1))(method, report, facts)
    return expect


def _laminar_expect(method: str, report: dict, facts: Facts) -> Optional[str]:
    # conflict-free input: the row optimum is m; the distinct optimum lies
    # between the number of sources and the number of distinct rows
    if method == "exact-rows":
        return _exact_value("rows", facts.m)(method, report, facts)
    got = report["distinct_rows"]
    if facts.sources <= got <= facts.distinct_rows:
        return None
    return f"distinct_rows {got} outside [{facts.sources}, {facts.distinct_rows}]"


def _fixed_permuted(make: Callable[[], BinaryMatrix], seed: int,
                    salt: int) -> Callable[[], BinaryMatrix]:
    """A fixed instance whose rows the seed permutes: runs with other seeds
    read other files but do the same work, so their spread is run-to-run
    noise, not a change of instance."""
    return lambda: _rows_permuted(make(), random.Random(seed * 7919 + salt))


def _small_laminar(seed: int, methods: tuple[str, ...]) -> Input:
    """Laminar 12 x 16 through the given solves, in a workload whose own
    ops leave a layer (poset, split building, exact search) unused: every
    per-layer time then stays a measurement, never a constant 0."""
    return Input("laminar-12-16", _fixed_permuted(
        lambda: instances.gen_random_laminar(12, 16, 0), seed, 12),
        methods=methods, expect=_laminar_expect)


def linear_laminar(seed: int, tiny: bool) -> Plan:
    ks = (9, 12, 15) if tiny else (150, 300, 450)
    # the small input first, so that every pass, also a last one cut
    # short, samples it
    inputs = (_small_laminar(seed, ("exact-rows",)),) + tuple(
        Input(f"laminar-k{k}", _fixed_permuted(
            lambda k=k: instances.gen_random_laminar(2 * k // 3, k, 0), seed, k),
            methods=("linear",))
        for k in ks
    )
    return Plan(inputs, tuple((f"solve-linear-laminar-k{k}", k) for k in ks))


def split_roundtrip(seed: int, tiny: bool) -> Plan:
    ms = (4, 6, 8) if tiny else (100, 150, 200)
    inputs = (_small_laminar(seed, ("linear", "exact-rows")),) + tuple(
        Input(f"nested-m{m}", lambda m=m: nested_prefix(m, random.Random(seed * 7919 + m)),
              methods=("height", "distinct-2"), shape=(m, 1))
        for m in ms
    )
    return Plan(inputs, tuple((f"solve-height-nested-m{m}", m) for m in ms))


def exact_reductions(seed: int, tiny: bool) -> Plan:
    # Branch-and-bound work depends on the column (vertex) order, so the
    # instances are fixed and the seed only permutes their rows: the files
    # differ by seed, the search does not.
    rng = random.Random(seed)
    graphs = ("K4", "K33", "Q3") if tiny else ("K4", "K33", "Q3", "prism5", "petersen")
    inputs = []
    for name in graphs:
        g = GRAPHS[name]
        tau = brute_force_vertex_cover(g)
        inputs.append(Input(
            f"vc-{name}", lambda g=g, r=rng.random(): _rows_permuted(
                instances.gen_vc_reduction(g), random.Random(r)),
            methods=("exact-rows",), shape=(2, None),
            expect=_exact_value("rows", 8 * g.n + tau)))
        inputs.append(Input(
            f"ib-{name}", lambda g=g, r=rng.random(): _rows_permuted(
                instances.gen_ib_reduction(g), random.Random(r)),
            methods=("exact-distinct",), shape=(2, None),
            expect=_exact_value("distinct_rows", len(g.edges) + tau)))
    # bt(2,5) has 3.2e18 branchings and is refused by the upfront budget
    # check, although branch-and-bound solves it at once; it stays in the
    # op set so that a budget on real work shows up here.
    for d, h in ((2, 4), (3, 3), (2, 5)):
        inputs.append(Input(
            f"bt-{d}-{h}", lambda d=d, h=h, r=rng.random(): _rows_permuted(
                instances.gen_block_tree(d, h), random.Random(r)),
            methods=("exact-rows", "exact-distinct"), shape=(h, d ** (h - 1)),
            expect=_block_tree_expect(d, h)))
    inputs.append(Input(
        "laminar-12-16", lambda r=rng.random(): _rows_permuted(
            instances.gen_random_laminar(12, 16, 0), random.Random(r)),
        methods=("exact-rows", "exact-distinct", "linear"), expect=_laminar_expect))
    ladder_graphs = ("K4", "K33", "Q3") if tiny else ("K4", "Q3", "petersen")
    return Plan(tuple(inputs), tuple(
        (f"solve-exact-distinct-ib-{g}", len(GRAPHS[g].edges)) for g in ladder_graphs
    ))


def analyze_wide(seed: int, tiny: bool) -> Plan:
    ms = (10, 20, 40) if tiny else (250, 500, 1000)
    lam_m, lam_k, rand_m, rand_n = (40, 60, 10, 60) if tiny else (1000, 1500, 60, 1500)
    # a small round trip, so that solve and verify time exist here too; ops
    # under ~0.5 s here read too noisily next to the large ones.  The small
    # inputs come first, so that every pass, also a last one cut short,
    # samples them.
    inputs = [
        Input("random-40-200", _fixed_permuted(
            lambda: instances.gen_random(40, 200, 0.5, 0), seed, 3), methods=("distinct-2",)),
        _small_laminar(seed, ("linear", "height", "exact-rows")),
    ]
    inputs += [
        Input(f"nested-m{m}", lambda m=m: nested_prefix(m, random.Random(seed * 7919 + m)),
              tree=m == ms[-1], shape=(m, 1))
        for m in ms
    ]
    inputs.append(Input(f"laminar-{lam_m}-{lam_k}", _fixed_permuted(
        lambda: instances.gen_random_laminar(lam_m, lam_k, 0), seed, 1), tree=True))
    inputs.append(Input(f"random-{rand_m}-{rand_n}", _fixed_permuted(
        lambda: instances.gen_random(rand_m, rand_n, 0.5, 0), seed, 2)))
    return Plan(tuple(inputs), tuple((f"analyze-nested-m{m}", m) for m in ms))


WORKLOADS: dict[str, Callable[[int, bool], Plan]] = {
    "linear-laminar": linear_laminar,
    "split-roundtrip": split_roundtrip,
    "exact-reductions": exact_reductions,
    "analyze-wide": analyze_wide,
}


# --- ops and checks -------------------------------------------------------


def input_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, "inputs", name + ".txt")


def plan_ops(plan: Plan, workdir: str) -> list[Op]:
    out = os.path.join(workdir, "out")
    ops = []
    for inp in plan.inputs:
        path = input_path(workdir, inp.name)
        for method in inp.methods:
            sid = f"solve-{method}-{inp.name}"
            split, report = os.path.join(out, sid + ".split"), os.path.join(out, sid + ".json")
            ops.append(Op(sid, SOLVE, ("solve", path, "--method", method, "--out", split,
                                       "--json", report),
                          inp.name, method, (split, report),
                          may_refuse=method.startswith("exact-")))
            ops.append(Op(f"verify-{method}-{inp.name}", VERIFY, ("verify", path, split),
                          inp.name, method, needs=sid))
        ops.append(Op(f"analyze-{inp.name}", ANALYZE, ("analyze", path), inp.name))
        if inp.tree:
            dot = os.path.join(out, f"tree-{inp.name}.dot")
            ops.append(Op(f"tree-{inp.name}", ANALYZE, ("tree", path, "--dot", dot),
                          inp.name, outputs=(dot,)))
    return ops


def write_input(workdir: str, name: str, matrix: BinaryMatrix) -> str:
    """Write the matrix file of an input; returns its text."""
    text = formats.format_matrix(matrix)
    with open(input_path(workdir, name), "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


@dataclass(frozen=True)
class Outcome:
    rc: Optional[int]          # None when the op hit its cap or crashed
    stdout: str
    error: str
    files: dict[str, bytes]


def _key_values(text: str) -> dict[str, str]:
    pairs = (line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return {key: value for key, value in pairs}


def _check_solve(op: Op, outcome: Outcome, inp: Input, facts: Facts) -> Optional[str]:
    split_path, report_path = op.outputs
    report = json.loads(outcome.files[report_path])
    header = outcome.files[split_path].split(b"\n", 1)[0].split()
    if report["method"] != op.method:
        return f"report method {report['method']!r}"
    if report["k"] != facts.k:
        return f"report k {report['k']}, input has {facts.k} distinct columns"
    if [int(x) for x in header] != [report["rows"], facts.n]:
        return f"split file header {header}, report rows {report['rows']}"
    rows = report["rows"]
    if op.method == "linear":
        if report["tower_value"] != rows:
            return f"price {rows} != tower value {report['tower_value']}"
        if not facts.m <= rows <= facts.incidences:
            return f"rows {rows} outside [{facts.m}, {facts.incidences}]"
    elif op.method == "height":
        if rows != facts.incidences:
            return f"rows {rows}, expected {facts.incidences} (row, support) incidences"
    elif op.method == "distinct-2":
        if (rows, report["distinct_rows"]) != (facts.incidences, facts.k):
            return (f"rows/distinct {rows}/{report['distinct_rows']}, expected "
                    f"{facts.incidences}/{facts.k}")
    elif inp.expect is not None:
        return inp.expect(op.method, report, facts)
    return None


def _check_analyze(op: Op, outcome: Outcome, inp: Input, facts: Facts) -> Optional[str]:
    got = _key_values(outcome.stdout)
    want = {"rows": str(facts.m), "cols": str(facts.n), "distinct_cols": str(facts.k),
            "conflict_free": "yes" if facts.conflict_free else "no"}
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: {got.get(key)}, expected {value}"
    h, w = int(got["height"]), int(got["width"])
    # Mirsky/Dilworth: k vertices fit in h antichains and in w chains
    if not (1 <= h <= facts.k and 1 <= w <= facts.k and h * w >= facts.k):
        return f"height {h} / width {w} impossible for k={facts.k}"
    for name, value, known in (("height", h, inp.shape[0]), ("width", w, inp.shape[1])):
        if known is not None and value != known:
            return f"{name} {value}, expected {known}"
    return None


def _check_tree(op: Op, outcome: Outcome, inp: Input, facts: Facts) -> Optional[str]:
    text = outcome.files[op.outputs[0]].decode()
    nodes, arcs = text.count("[label="), text.count(" -> ")
    # root + k support nodes + m row leaves; every node but the root has a parent
    if (nodes, arcs) != (facts.k + 1 + facts.m, facts.k + facts.m):
        return f"tree has {nodes} nodes / {arcs} arcs for k={facts.k}, m={facts.m}"
    return None


def check(op: Op, outcome: Outcome, inp: Input, facts: Facts) -> tuple[str, str]:
    """Classify an op's outcome as (status, reason).

    A wrong answer is an op that ran to completion with output that fails
    a check, or a verification that rejects a written split.  A budget
    refusal (exit 2) of an op allowed to refuse is not an error; any other
    non-zero exit, cap or crash is a failure.
    """
    if outcome.rc is None:
        return FAILED, outcome.error
    if op.kind == VERIFY:
        if outcome.rc != 0 or outcome.stdout.strip() != "accept":
            return WRONG, f"split rejected: {outcome.stdout.strip() or outcome.error}"
        return OK, ""
    if outcome.rc == 2 and op.may_refuse:
        return REFUSED, outcome.error.strip()
    if outcome.rc != 0:
        return FAILED, f"exit {outcome.rc}: {outcome.error.strip()}"
    if op.kind == SOLVE:
        reason = _check_solve(op, outcome, inp, facts)
    elif op.argv[0] == "tree":
        reason = _check_tree(op, outcome, inp, facts)
    else:
        reason = _check_analyze(op, outcome, inp, facts)
    return (WRONG, reason) if reason else (OK, "")
