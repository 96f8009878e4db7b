"""Zero-free disks for chromatic polynomials of claw-free graphs.

The package classifies graphs into the two hereditary classes the disk
theorem covers, enumerates Penrose forests and verifies the underlying
interval partition, reproduces the disk constants by one-dimensional
optimization, and certifies on concrete graphs that all chromatic roots lie
inside the predicted disk.
"""

from .bounds import (
    BoundResult,
    ConstantsRow,
    REFERENCE_TABLE,
    constants_table,
    fixed_a_bound,
    kappa_for_bounds,
    minimize_c,
    ratio_bound,
    solve_x,
)
from .chromatic import (
    PolynomialRoot,
    chromatic_deletion_contraction,
    polynomial_roots,
)
from .errors import (
    ConditioningError,
    ContractViolationError,
    DegenerateDegreeError,
    DomainError,
    EnumerationCapError,
    GraphFormatError,
)
from .genfun import (
    BranchingParams,
    TreeCountTable,
    degree_tree_bound,
    envelope_bound,
    tree_count_table,
    tree_series,
)
from .graphs import (
    ClassMembership,
    Graph,
    NeighborhoodStats,
    classify,
    format_graph,
    is_claw_free,
    is_diamond_free,
    is_square_free,
    neighborhood_stats,
    parse_graph,
)
from .intpoly import IntPolynomial
from .penrose import (
    Forest,
    ObstructionResult,
    RootedTreeView,
    SchemeCounterexample,
    SchemeReport,
    VertexOrdering,
    chromatic_to_forest,
    chromatic_via_penrose,
    enumerate_penrose_forests,
    forest_polynomial,
    forest_to_chromatic,
    is_penrose_forest,
    is_penrose_tree,
    obstruction_check,
    penrose_closure,
    penrose_polynomial,
    penrose_tree_series,
    penrose_trees_containing,
    ratio_R,
    verify_partition_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BranchingParams",
    "ClassMembership",
    "ConditioningError",
    "ConstantsRow",
    "ContractViolationError",
    "DegenerateDegreeError",
    "DomainError",
    "EnumerationCapError",
    "Forest",
    "Graph",
    "GraphFormatError",
    "IntPolynomial",
    "NeighborhoodStats",
    "ObstructionResult",
    "PolynomialRoot",
    "REFERENCE_TABLE",
    "RootedTreeView",
    "SchemeCounterexample",
    "SchemeReport",
    "TreeCountTable",
    "VertexOrdering",
    "chromatic_deletion_contraction",
    "chromatic_to_forest",
    "chromatic_via_penrose",
    "classify",
    "constants_table",
    "degree_tree_bound",
    "enumerate_penrose_forests",
    "envelope_bound",
    "fixed_a_bound",
    "forest_polynomial",
    "forest_to_chromatic",
    "format_graph",
    "is_claw_free",
    "is_diamond_free",
    "is_penrose_forest",
    "is_penrose_tree",
    "is_square_free",
    "kappa_for_bounds",
    "minimize_c",
    "neighborhood_stats",
    "obstruction_check",
    "parse_graph",
    "penrose_closure",
    "penrose_polynomial",
    "penrose_tree_series",
    "penrose_trees_containing",
    "polynomial_roots",
    "ratio_R",
    "ratio_bound",
    "solve_x",
    "tree_count_table",
    "tree_series",
    "verify_partition_scheme",
]
