"""Extremal subspaces of R^n built from weighted series-parallel graphs.

The star space of a 2-connected series-parallel graph on k+1 vertices and
n edges, equipped with the induced edge weights computed here, deviates
from every coordinate k-subspace by exactly arccos(1/sqrt(n)) in the
largest principal angle.  This package constructs those subspaces,
verifies the exact spectral identities behind that value, counts the
symmetry classes, and searches for extremal subspaces from scratch by
randomized hill climbing.
"""

__version__ = "0.1.0"

from .sptree import (
    Decomposition,
    Leaf,
    MultiGraph,
    Parallel,
    Series,
    SpTreeError,
    TreeParseError,
    canonicalize,
    check_invariants,
    class_counts,
    class_key,
    decompose,
    dualize,
    enumerate_rooted,
    format_tree,
    leaf_count,
    leaf_ids,
    make_leaf,
    make_parallel,
    make_series,
    parallel_rooted,
    parse_tree,
    rank,
    realize,
    reverse_tree,
    skeleton_key,
)
from .weights import (
    TreeSums,
    induced_coefficients,
    induced_weights,
    spanning_trees,
    tree_sums,
    weights_from_json,
    weights_to_json,
)
from .numeric import (
    BruteForceCapError,
    RankDeficientError,
    SingularMatrixError,
    Subspace,
    bareiss,
    incidence_matrix,
    laplacian,
    match_sign_diagonal,
    orthonormalize,
    principal_angles,
    target,
    transfer_current,
)
from .extremal import (
    ExtremalInstance,
    build,
    check_attained,
    check_degenerate,
    check_dual,
    check_eigen,
    class_table,
    count_classes,
    planar_dual,
    verify_instance,
)
from .search import (
    SearchConfig,
    SearchResult,
    ViolationReport,
    accumulate,
    sample_uniform,
    symmetry_equivalent,
)
