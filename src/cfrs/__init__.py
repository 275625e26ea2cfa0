"""Conflict-free row splits of binary matrices.

Split each row of a binary matrix into a bitwise OR of rows so that the
result admits a perfect phylogeny, minimizing either the total or the
distinct row count.  Both problems reduce to optimizing branchings of the
column-support containment digraph; this package provides the exact
budgeted solvers, a certified heuristic over path-shaped branchings built
on a minimum-price chain partition routine (a weighted strengthening of
Dilworth's theorem), approximation algorithms, instance generators, and a
command-line front end.
"""

from .branching import (
    Branching,
    branching_split,
    branching_state_count,
    exact_min_irreducible,
    exact_min_uncovered,
    linear_from_chains,
    split_to_branching,
)
from .containment import (
    ContainmentDigraph,
    build_containment,
    height,
    width,
)
from .errors import BudgetError, CfrsError, ConflictError, InternalError, MatrixError
from .instances import (
    CubicGraph,
    brute_force_vertex_cover,
    gen_block_tree,
    gen_ib_reduction,
    gen_random,
    gen_random_laminar,
    gen_vc_reduction,
    parse_edge_list,
)
from .matrix import (
    BinaryMatrix,
    ColumnReduction,
    ConflictWitness,
    PhyloTree,
    RowSplit,
    Verdict,
    build_phylogeny,
    count_distinct_rows,
    find_conflict,
    reduce_columns,
    verify_row_split,
)
from .poset import (
    evaluate,
    is_antichain,
    is_chain,
    is_chain_partition,
    is_monotone,
    is_tower,
    maximum_antichain,
    min_price_chain_partition,
    partition_price,
    tower_value,
)
from .solvers import (
    SolveReport,
    approx_distinct_2,
    approx_height,
    approx_width,
    solve_exact,
    solve_linear_heuristic,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix", "Branching", "BudgetError", "CfrsError", "ColumnReduction",
    "ConflictError", "ConflictWitness", "ContainmentDigraph", "CubicGraph",
    "InternalError", "MatrixError", "PhyloTree", "RowSplit",
    "SolveReport", "Verdict",
    "approx_distinct_2", "approx_height", "approx_width", "branching_split",
    "branching_state_count", "brute_force_vertex_cover", "build_containment",
    "build_phylogeny", "count_distinct_rows", "evaluate",
    "exact_min_irreducible", "exact_min_uncovered", "find_conflict",
    "gen_block_tree", "gen_ib_reduction", "gen_random", "gen_random_laminar",
    "gen_vc_reduction", "height",
    "is_antichain", "is_chain", "is_chain_partition", "is_monotone",
    "is_tower", "linear_from_chains", "maximum_antichain",
    "min_price_chain_partition", "parse_edge_list", "partition_price",
    "reduce_columns", "solve_exact", "solve_linear_heuristic",
    "split_to_branching", "tower_value", "verify_row_split", "width",
]
