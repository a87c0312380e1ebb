"""Extremal subspaces of R^n built from weighted series-parallel graphs.

The star space of a 2-connected series-parallel graph on k+1 vertices and
n edges, equipped with the induced edge weights computed here, deviates
from every coordinate k-subspace by exactly arccos(1/sqrt(n)) in the
largest principal angle.  This package constructs those subspaces,
verifies the exact spectral identities behind that value, counts the
symmetry classes, and searches for extremal subspaces from scratch by
randomized hill climbing (spextremal.search).  The names exported here
are the ones the README and the demos use; everything else is imported
from its module.
"""

__version__ = "0.1.0"

from .extremal import (
    build, check_degenerate, check_dual, check_eigen, class_table,
    count_classes, planar_dual, verify_instance,
)
from .numeric import BruteForceCapError, incidence_matrix, target
from .sptree import (
    SpTreeError, TreeParseError, dualize, enumerate_rooted, format_tree,
    leaf_count, parse_tree, rank, realize,
)
from .weights import induced_weights, spanning_trees

__all__ = [
    "build", "check_degenerate", "check_dual", "check_eigen", "class_table",
    "count_classes", "dualize", "enumerate_rooted", "format_tree",
    "incidence_matrix", "induced_weights", "leaf_count", "parse_tree",
    "planar_dual", "rank", "realize", "spanning_trees", "target",
    "verify_instance",
    # the exceptions a caller catches
    "SpTreeError", "TreeParseError", "BruteForceCapError",
]
