"""Assembled extremal instances and their exact verification.

build() turns a decomposition tree into the full bundle: the tree in
two-terminal form with its direction signs, the realized graph and
induced weights read off it, incidence matrix, and the transfer current
matrix Y held only as the integer pair (D, D Y) that transfer_current
returns, D the least positive integer that makes D Y integral.  That is
the one elimination an instance needs.  The orthonormalized star-space
basis is not part of it: the search and the demos read it as
inst.subspace, computed from the weights and B on first use, and verify
never does.  The check_* family proves the facts that make the subspace
extremal by integer products with D Y, with no tolerance: check_eigen
multiplies it by the coefficient vectors of all the given spanning
trees, stacked from one pass over the tree; check_degenerate proves by
four identities that D Y is D times the transfer current, which makes
every non-tree minor zero without looking at a single subset;
check_attained proves the bound attained on one tree, which verify takes
to be the first spanning tree; and check_dual reads the planar dual off
that proof, with two tests of the dual's graph and weights, read off the
primal's tree with its kinds swapped: nothing after build re-lists a
tree.
build also keeps W, the weights as coprime positive integers
(numeric.integer_weights), and every check states its identities with W
alone: none needs W^(-1).
check_eigen and check_degenerate hand their operands to
numeric.fixed_width with the bit-length bound of what they form from
them, so their products run in int64 when that bound proves that nothing
wraps and in Python ints otherwise, the same expressions either way;
check_dual multiplies int64 entries in {-1, 0, 1} and the two weight
vectors in Python ints, and check_attained stays in Python ints.
Nothing on the verify path sweeps the k-subsets or takes a float
decomposition: the spanning trees come from one batched determinant
(weights.spanning_trees), and together the exact checks fix the cosine
at 1/sqrt(n), so verify reports verdicts and no float target.
count_classes reads the symmetry classes off their generating function
(sptree.class_counts), with no tree enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numeric import (
    Subspace,
    bareiss,
    bit_length,
    fixed_width,
    incidence_matrix,
    integer_weights,
    orthonormalize,
    transfer_current,
)
from .sptree import (
    MultiGraph,
    class_counts,
    dualize,
    format_tree,
    realize,
    two_terminal_layout,
)
from .weights import (
    induced_weights,
    spanning_trees,
    stacked_coefficients,
    weights_to_json,
)


@dataclass
class ExtremalInstance:
    """One extremal instance: its tree, graph and weights, with the integer
    objects the exact checks read, the pair (D, D Y) and the coprime
    weight vector W, kept as w."""

    tree: tuple       # two-terminal, with its signs; graph, weights, report and dual read it
    graph: MultiGraph
    weights: dict
    B: np.ndarray
    D: int            # the least positive integer that makes D Y integral
    DY: np.ndarray    # D Y: int64 when its entries fit, else Python ints
    w: np.ndarray     # W: the weights as coprime positive integers, Python ints

    @cached_property
    def subspace(self) -> Subspace:
        """The star space range(W^(1/2) B^T) as an orthonormal basis, from
        weights and B, computed the first time it is read."""
        n = self.B.shape[1]
        root = np.sqrt([float(self.weights[e]) for e in range(n)])
        scaled = root[:, None] * self.B.astype(float).T
        # dropping one vertex column keeps the span: the columns sum to zero
        return orthonormalize(scaled[:, 1:])


def build(tree) -> ExtremalInstance:
    """Realize the tree, with its leaf signs, and assemble every derived
    object but the basis, which inst.subspace computes when read.

    Accepts a series-rooted tree too (a closed dual chain), rewriting it
    through two_terminal_layout first.
    """
    tree = two_terminal_layout(tree)
    graph = realize(tree)
    w = induced_weights(tree)
    B = incidence_matrix(graph)
    W = integer_weights(w)
    D, DY = transfer_current(B, W)
    return ExtremalInstance(tree, graph, w, B, D, DY, W)


def check_eigen(inst: ExtremalInstance, trees) -> bool:
    """Exact check that on every spanning tree tau in trees the induced
    coefficients are an eigenvector of Y[tau, tau] with eigenvalue exactly
    1/n.

    Column j of the integer matrix C holds tree j's coefficients times
    their common denominator, zero off tau_j, all columns from one pass
    over the tree (weights.stacked_coefficients), so the one product
    (D Y) C holds every tree's image, and the test is
    n (D Y C)[e, j] == D C[e, j] for each e in tau_j.  With bx, bc and bd
    the bit lengths of D Y, C and D, an entry of n (D Y C) is a sum of
    n * n products below 2**(bx + bc), and D C one below 2**(bd + bc):
    the bound fixed_width is given.  Raises SpTreeError when some tau is
    not a spanning tree, and when trees is empty: a connected graph has a
    spanning tree, so an empty list means its source failed, not that the
    identity holds.
    """
    _, C, on = stacked_coefficients(inst.tree, trees)
    return _eigen_holds(inst, C, on)


def _eigen_holds(inst: ExtremalInstance, C, on) -> bool:
    n, D = len(inst.graph.edges), inst.D
    bits = bit_length(C) + max(bit_length(inst.DY), bit_length(D))
    X, C = fixed_width((inst.DY, C), bits, n * n)
    return bool((n * X.dot(C)[on] == D * C[on]).all())


def check_degenerate(inst: ExtremalInstance) -> bool:
    """Exact proof that D Y is D times the transfer current, which makes
    every non-tree k-minor of Y zero.

    With X = D Y, W = inst.w, a positive multiple of the weights, and k
    the vertex count less one, the rank of B (realize glues a connected
    graph), it tests four integer identities: (a) B X == D B;
    (b) X X == D X; (c) trace X == k D; and (d) X W, entry X[e, f] W_f,
    is symmetric.  B's entries lie in {-1, 0, 1}, so with bx, bd and bw
    the bit lengths of X, D and W, each value formed, k D included, is a
    sum of at most n terms below 2**(bx + max(bx, bd, bw)): the bound
    fixed_width is given.
    Why that is a proof: (d) says Y^T = W^(-1) Y W, so Y is self-adjoint
    for <a, b> = a^T W^(-1) b, and by (b) it is idempotent: an orthogonal
    projection for that product.  (d) turns (a), B Y = B, into
    Y W B^T = W B^T: Y fixes range(W B^T), of dimension k, and by (c)
    its rank, which is its trace, is k.  So Y is the projection onto
    range(W B^T) along the complement orthogonal to it for that product,
    ker B: the transfer current.  A k-subset S of the edges that is not a spanning tree of
    the k + 1 vertices contains a circuit C, whose signed vector z_C,
    supported on S, lies in ker B.  So Y z_C = 0, which makes z_C
    restricted to S a nonzero kernel vector of Y[S, S]: det Y[S, S] = 0.
    """
    D, bx = inst.D, bit_length(inst.DY)
    bits = bx + max(bx, bit_length(D), bit_length(inst.w))
    X, B, W = fixed_width((inst.DY, inst.B, inst.w), bits, len(inst.DY))
    K = X * W
    return bool((B.dot(X) == D * B).all() and X.trace() == (len(B) - 1) * D
                and (K == K.T).all() and (X.dot(X) == D * X).all())


def check_attained(inst: ExtremalInstance, tau, c) -> bool:
    """Exact proof that P[tau, tau], P the projector onto the star space,
    has least eigenvalue 1/n; c is tau's column of stacked_coefficients.

    With A = n (D Y)[tau, tau] - D I and W = inst.w on tau, the integer
    matrix M = A W is n D W^(1/2) (P[tau, tau] - I/n) W^(1/2), congruent
    to P[tau, tau] - I/n, since P = W^(-1/2) Y W^(1/2).  A, M, A c and the
    elimination stay in Python ints.  M must be symmetric, A c == 0 with
    c != 0, which is the eigen identity on tau and puts W^(-1) c, with c's
    support, in M's kernel, and M positive definite less the row and
    column of an edge with c_e != 0; then, by Cauchy interlacing, M is
    semidefinite with kernel spanned by W^(-1) c.  With check_eigen and
    check_degenerate this makes the target exactly arccos(1/sqrt(n)).
    """
    n, idx = len(inst.graph.edges), list(tau)
    A = (n * inst.DY[np.ix_(idx, idx)].astype(object)
         - inst.D * np.eye(len(idx), dtype=object))
    M = A * inst.w[idx]
    c = np.asarray(c, dtype=object)[idx]
    support = np.flatnonzero(c)
    if not support.size or (M != M.T).any() or A.dot(c).any():
        return False
    rest = np.delete(np.arange(len(idx)), support[-1])
    return bareiss(M[np.ix_(rest, rest)].tolist()) is not None


def planar_dual(inst: ExtremalInstance):
    """The planar dual's graph, weights and signs s, read off the primal.

    The dual is dualize(inst.tree), every edge natural; its closed chain
    is rooted at the primal root's first branch (two_terminal_layout),
    which leaves every other branch reversed, so s_e is +1 on that branch,
    -1 off it, times e's own direction sign; check_dual tests
    B S B*^T == 0 rather than assume it.
    """
    dual = two_terminal_layout(dualize(inst.tree))
    first = inst.tree[-1][0][0]  # post-order: its leaves come first
    signs = np.empty(len(inst.weights), dtype=np.int64)
    for i, (kids, _, _, eid, sign) in enumerate(inst.tree):
        if not kids:
            signs[eid] = sign if i <= first else -sign
    return realize(dual), induced_weights(dual), signs


def check_dual(inst: ExtremalInstance) -> bool:
    """Exact check of the planar dual, read off the primal.

    With planar_dual's graph, weights w* and signs s, and B* the dual
    incidence matrix: (a) B S B*^T == 0; (b) w* is positive and
    reciprocal to w up to one factor: with W and W* their integer_weights,
    every W*_e > 0 and the products W_e W*_e are all equal.  B, B* and S
    are int64 with entries in {-1, 0, 1}, so no sum in (a) exceeds n.
    With check_degenerate's proof that Y is the transfer current, these
    give the dual's Y* = S (I - Y^T) S, so the primal's D clears it too.
    Why: the dual graph is connected on
    n - k + 1 vertices (Euler's formula), so by (a) S range(B*^T), of
    dimension n - k, is ker B, and S range(B^T) = ker B*.  I - Y^T
    projects onto W^(-1) ker B along range(B^T), and by (b) W* is
    proportional to W^(-1), so S (I - Y^T) S projects onto
    range(W* B*^T) along ker B*: it is Y*.
    The dual's target is the primal's: the dual star space is S V^perp,
    and its spanning trees are the complements of the primal's.  For V
    and a coordinate subspace E of equal dimension, the orthogonal
    [E E^perp]^T [V V^perp] has diagonal blocks E^T V and
    E^perp^T V^perp whose squared singular values are 1 minus those of
    one off-diagonal block, up to extra ones: both least singular values,
    the deviation cosines, agree.
    """
    graph, dual_w, signs = planar_dual(inst)
    dual = integer_weights(dual_w)
    return bool(not inst.B.dot(signs[:, None] * incidence_matrix(graph).T).any()
                and min(dual) > 0 and len(set(inst.w * dual)) == 1)


# ---------------------------------------------------------------------------
# symmetry classes
# ---------------------------------------------------------------------------

def count_classes(n: int, k: int) -> int:
    """Number of symmetry classes among all (n, k) instances."""
    if n < 2 or k < 1 or k >= n:
        return 0
    return class_counts(n)[n][k]


def class_table(n_max: int) -> list[list[int]]:
    """Triangle of class counts; row n holds k = 1..n-1."""
    rows = class_counts(n_max)
    return [list(rows[n][1:n]) for n in range(2, n_max + 1)]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def verify_instance(inst: ExtremalInstance) -> dict:
    """Run every check on one instance and report the outcome; the eigen
    check and the attainment proof, on the first spanning tree, share one
    pass over the tree.  k is the rank of B, the vertex count less one."""
    trees = spanning_trees(inst.graph)
    _, C, on = stacked_coefficients(inst.tree, trees)
    return {
        "tree": format_tree(inst.tree),
        "weights": weights_to_json(inst.weights),
        "n": len(inst.graph.edges),
        "k": len(inst.B) - 1,
        "eigen_ok": _eigen_holds(inst, C, on),
        "degenerate_ok": check_degenerate(inst),
        "target_ok": check_attained(inst, trees[0], C[:, 0]),
        "dual_ok": check_dual(inst),
    }
