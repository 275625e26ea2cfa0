"""The benchmark's traced run wraps cfrs stage functions by module and name
and reads the size of each containment digraph it sees; a rename in ``src/``
would break only that run, so the names it relies on are checked here."""

import importlib

from cfrs import build_containment, gen_block_tree, gen_random_laminar
from cfrs.cli import main
from cfrs.io import format_matrix

from bench.tracing import STAGES, Tracer
from tests.helpers import dag_arcs


def test_every_traced_stage_resolves_to_a_function():
    for module_name, func_name, _, _, _ in STAGES:
        function = getattr(importlib.import_module(module_name), func_name, None)
        assert callable(function), f"{module_name}.{func_name}"


def test_containment_counter_reads_the_digraph():
    (after,) = [after for _, _, span, _, after in STAGES if span == "containment.build"]
    digraph = build_containment(gen_block_tree(3, 3))
    assert digraph.n == 13
    assert after(digraph) == {"containment.k": 13, "containment.arcs": len(dag_arcs(digraph))}


def test_traced_analyze_counts_the_width_matching(tmp_path):
    # width hands the matcher one adjacency list per vertex: its closure arcs
    matrix = gen_random_laminar(12, 16, 0)
    path = tmp_path / "laminar.txt"
    path.write_text(format_matrix(matrix))
    with Tracer() as tracer:
        with tracer.op("analyze"):
            assert main(["analyze", str(path)]) == 0
    arcs = len(dag_arcs(build_containment(matrix)))
    assert arcs == 33
    assert tracer.counts["matching.calls"] == 1
    assert tracer.counts["matching.adj_entries"] == arcs
