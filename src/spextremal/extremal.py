"""Assembled extremal instances and their verification.

build() turns a decomposition tree into the full bundle: realized graph,
induced weights, incidence matrix, the transfer current matrix Y held
only as the integer pair (D, D Y), D the least positive integer that
makes D Y integral (one gcd over the pair transfer_current returns), the
float projector read off that pair, the orthonormalized star-space basis,
and the tree's layout for the induced coefficients.  The check_* family
verifies the spectral facts that make the subspace extremal; the exact
ones are integer comparisons and integer determinants on D Y, so each
spanning tree and each subset costs no setup and no Fraction arithmetic.
check_dual cross-checks the planar-dual instance, and count_classes folds
the enumerated trees into symmetry classes of the resulting subspaces by
sptree.class_key, which reads the class off the tree without building an
instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .numeric import (
    Subspace,
    bareiss,
    incidence_matrix,
    match_sign_diagonal,
    orthonormalize,
    projection,
    target,
    to_float,
    transfer_current,
)
from .sptree import (
    MultiGraph,
    SpTree,
    class_key,
    dualize,
    enumerate_rooted,
    format_tree,
    parallel_rooted,
    realize,
)
from .weights import (
    coefficient_layout,
    induced_weights,
    scaled_coefficients,
    spanning_trees,
    weights_to_json,
)


@dataclass
class ExtremalInstance:
    tree: SpTree
    graph: MultiGraph
    weights: dict
    B: np.ndarray
    P: np.ndarray
    subspace: Subspace
    D: int            # the least positive integer that makes D Y integral
    DY: np.ndarray    # D Y, an object array of Python ints
    layout: tuple     # weights.coefficient_layout of the realized tree


def build(tree, directions=None) -> ExtremalInstance:
    """Realize the tree and assemble every derived object.

    Accepts a series-rooted tree too (a closed dual chain), rewriting it
    through parallel_rooted first.
    """
    tree = parallel_rooted(tree)
    graph = realize(tree, directions)
    w = induced_weights(tree)
    B = incidence_matrix(graph)
    T, TY = transfer_current(B, w)
    g = math.gcd(T, *TY.flat)
    D, DY = T // g, TY // g
    P = projection(D, DY, w)
    n = len(graph.edges)
    root = np.sqrt([float(w[e]) for e in range(n)])
    scaled = root[:, None] * to_float(B).T
    # dropping one vertex column keeps the span: the columns sum to zero
    subspace = orthonormalize(scaled[:, 1:])
    return ExtremalInstance(tree, graph, w, B, P, subspace, D, DY,
                            coefficient_layout(tree, directions))


def check_eigen(inst: ExtremalInstance, tau) -> bool:
    """Exact check that the induced coefficients on tau are an eigenvector
    of the tau submatrix of Y with eigenvalue exactly 1/n.

    With y the coefficients times their common denominator, it tests
    n (D Y)[tau, tau] y == D y in integers.
    """
    n = len(inst.graph.edges)
    _, y = scaled_coefficients(inst.layout, tau)
    idx = list(y)
    vec = np.array(list(y.values()), dtype=object)
    return bool((n * inst.DY[np.ix_(idx, idx)].dot(vec) == inst.D * vec).all())


def check_degenerate(inst: ExtremalInstance, subset) -> bool:
    """Exact-zero determinant of the Y submatrix on a non-tree subset,
    tested as det (D Y)[S, S] == 0 by one integer elimination."""
    idx = sorted(subset)
    det, _ = bareiss(inst.DY[np.ix_(idx, idx)].tolist())
    return det == 0


def check_target(inst: ExtremalInstance, tol: float = 1e-9) -> bool:
    """Deviation cosine within tol of 1/sqrt(n)."""
    angle, _ = target(inst.subspace)
    n = len(inst.graph.edges)
    return abs(math.cos(angle) - 1.0 / math.sqrt(n)) <= tol


def check_dual(inst: ExtremalInstance, tol: float = 1e-9):
    """Cross-checks against the planar-dual instance.

    (a) dual weights are componentwise reciprocal up to one common factor,
    (b) some +-1 diagonal D maps I - P onto the dual projector,
    (c) the dual instance reaches the same deviation value.
    Returns (ok, diagnostics).
    """
    dual = build(dualize(inst.tree))
    products = {e: dual.weights[e] * inst.weights[e] for e in inst.weights}
    reciprocal_ok = len(set(products.values())) == 1
    complement = np.eye(len(inst.weights)) - inst.P
    signs = match_sign_diagonal(dual.P, complement, tol)
    complement_ok = signs is not None
    target_ok = check_target(dual, tol)
    diagnostics = {
        "weight_product": str(next(iter(products.values()))),
        "reciprocal_ok": reciprocal_ok,
        "complement_ok": complement_ok,
        "dual_target_ok": target_ok,
    }
    return reciprocal_ok and complement_ok and target_ok, diagnostics


# ---------------------------------------------------------------------------
# symmetry classes
# ---------------------------------------------------------------------------

def count_classes(n: int, k: int) -> int:
    """Number of symmetry classes among all (n, k) instances."""
    return len({class_key(t) for t in enumerate_rooted(n, k)})


def class_table(n_max: int, n_min: int = 2) -> list[list[int]]:
    """Triangle of class counts; row n holds k = 1..n-1."""
    return [[count_classes(n, k) for k in range(1, n)]
            for n in range(n_min, n_max + 1)]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def verify_instance(inst: ExtremalInstance, tol: float = 1e-9) -> dict:
    """Run every check on one instance and report the outcome."""
    n = len(inst.graph.edges)
    k = inst.subspace.dim
    trees = spanning_trees(inst.graph)
    tree_set = set(trees)
    eigen_ok = all(check_eigen(inst, tau) for tau in trees)
    degenerate_ok = all(check_degenerate(inst, s)
                        for s in combinations(range(n), k)
                        if s not in tree_set)
    angle, _ = target(inst.subspace)
    target_ok = abs(math.cos(angle) - 1.0 / math.sqrt(n)) <= tol
    dual_ok, _ = check_dual(inst, tol)
    return {
        "tree": format_tree(inst.tree),
        "weights": weights_to_json(inst.weights),
        "n": n,
        "k": k,
        "target_cos": math.cos(angle),
        "eigen_ok": eigen_ok,
        "degenerate_ok": degenerate_ok,
        "target_ok": target_ok,
        "dual_ok": dual_ok,
    }

