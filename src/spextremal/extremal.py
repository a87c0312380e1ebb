"""Assembled extremal instances and their verification.

build() turns a decomposition tree into the full bundle: realized graph,
the tree's post-order layout and the induced weights read off it,
incidence matrix, the transfer current matrix Y held only as the integer
pair (D, D Y), D the least positive integer that makes D Y integral (one
gcd over the pair transfer_current returns), the float projector read off
that pair, and the orthonormalized star-space basis.  The check_* family
verifies the spectral facts that make the subspace extremal; the exact
ones are integer products with D Y, one per instance each: check_eigen
multiplies D Y by the coefficient vectors of all the spanning trees it is
given, stacked from one pass over the layout, and check_degenerate by a
cycle basis, which certifies every non-tree minor zero without looking at
a single subset.  Nothing on the verify path sweeps the k-subsets: the
spanning trees come from one batched determinant (weights.spanning_trees)
per instance, the target is scored over them alone, because every other
coordinate submatrix of the star space is singular, and check_dual scores
the planar-dual instance over their complements, which are the dual's
spanning trees.  count_classes folds the enumerated trees into symmetry
classes of the resulting subspaces by sptree.class_key, which reads the
class off the tree without building an instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import (
    Subspace,
    incidence_matrix,
    match_sign_diagonal,
    orthonormalize,
    projection,
    target,
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
    _layout_weights,
    coefficient_layout,
    cycle_basis,
    spanning_trees,
    stacked_coefficients,
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
    layout = coefficient_layout(tree, directions)
    w = _layout_weights(layout)
    B = incidence_matrix(graph)
    T, TY = transfer_current(B, w)
    g = math.gcd(T, *TY.flat)
    D, DY = T // g, TY // g
    P = projection(D, DY, w)
    n = len(graph.edges)
    root = np.sqrt([float(w[e]) for e in range(n)])
    scaled = root[:, None] * B.astype(float).T
    # dropping one vertex column keeps the span: the columns sum to zero
    subspace = orthonormalize(scaled[:, 1:])
    return ExtremalInstance(tree, graph, w, B, P, subspace, D, DY, layout)


def check_eigen(inst: ExtremalInstance, trees) -> bool:
    """Exact check that on every spanning tree tau in trees the induced
    coefficients are an eigenvector of Y[tau, tau] with eigenvalue exactly
    1/n.

    Column j of the integer matrix C holds tree j's coefficients times
    their common denominator, zero off tau_j, all columns from one pass
    over the layout (weights.stacked_coefficients), so the one product
    (D Y) C holds every tree's image, and the test is
    n (D Y C)[e, j] == D C[e, j] for each e in tau_j.  Raises SpTreeError
    when some tau is not a spanning tree, and when trees is empty: a
    connected graph has a spanning tree, so an empty list means its source
    failed, not that the identity holds.
    """
    n = len(inst.graph.edges)
    _, C, on = stacked_coefficients(inst.layout, trees)
    return bool((n * inst.DY.dot(C)[on] == inst.D * C[on]).all())


def check_degenerate(inst: ExtremalInstance) -> bool:
    """Exact certificate that every non-tree k-minor of Y is zero.

    With Z = weights.cycle_basis(graph), it tests B Z == 0 and
    (D Y) Z == 0 in integers.  Why that is a proof: B Z = 0 puts Z's
    columns in the cycle space, and Z spans it (full column rank n - k).
    A k-subset S of the edges that is not a spanning tree of the k + 1
    vertices contains a circuit C, and C's signed vector z_C, supported on
    S, lies in the cycle space and so in Z's span.  So (D Y) z_C = 0, which
    makes z_C restricted to S a nonzero kernel vector of (D Y)[S, S]:
    det Y[S, S] = 0.
    """
    Z = cycle_basis(inst.graph)
    return bool((inst.B.dot(Z) == 0).all() and (inst.DY.dot(Z) == 0).all())


def check_target(inst: ExtremalInstance, trees, tol: float = 1e-9) -> bool:
    """Deviation cosine within tol of 1/sqrt(n), the target scored over
    trees, the graph's spanning trees in lexicographic order
    (numeric.target says why that is the sweep)."""
    angle, _ = target(inst.subspace, trees)
    n = len(inst.graph.edges)
    return abs(math.cos(angle) - 1.0 / math.sqrt(n)) <= tol


def check_dual(inst: ExtremalInstance, trees, tol: float = 1e-9):
    """Cross-checks against the planar-dual instance.

    (a) dual weights are componentwise reciprocal up to one common factor,
    (b) some +-1 diagonal D maps I - P onto the dual projector,
    (c) the dual instance reaches the same deviation value.
    trees are the primal's spanning trees.  The dual shares the edge ids,
    and its spanning trees are exactly their complements, so (c) scores
    the dual on the sorted complements.  Returns (ok, diagnostics).
    """
    dual = build(dualize(inst.tree))
    products = {e: dual.weights[e] * inst.weights[e] for e in inst.weights}
    reciprocal_ok = len(set(products.values())) == 1
    complement = np.eye(len(inst.weights)) - inst.P
    signs = match_sign_diagonal(dual.P, complement, tol)
    complement_ok = signs is not None
    edges = frozenset(inst.weights)
    complements = sorted(tuple(sorted(edges.difference(tau))) for tau in trees)
    target_ok = check_target(dual, complements, tol)
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
    eigen_ok = check_eigen(inst, trees)
    degenerate_ok = check_degenerate(inst)
    angle, _ = target(inst.subspace, trees)
    target_ok = abs(math.cos(angle) - 1.0 / math.sqrt(n)) <= tol
    dual_ok, _ = check_dual(inst, trees, tol)
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

