"""Dense linear algebra for the construction: exact core, float geometry.

The exact side has one elimination routine, bareiss, a fraction-free
integer Gauss-Jordan that returns a determinant and an adjugate.  A single
such elimination of the grounded integer Laplacian gives the weighted
spanning-tree count T and the integer matrix T Y, where Y is the transfer
current matrix; transfer_current returns that pair and nothing else, so
Y itself is never formed.  The spectral identities are checked on an
integer multiple of Y as integer comparisons and integer determinants,
with zero tolerance, and the float projector is read off the same pair by
one correctly rounded integer division per entry.  The float side covers
orthonormal bases, principal angles, and the deviation target, where
double precision is the natural currency.  Orthonormalization and the
target also take stacks of bases, so a batch of search walkers is bumped
and scored with one SVD call each (the target in bounded slices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .weights import BruteForceCapError

DEFAULT_SUBSET_CAP = 12
# Most k-by-k coordinate submatrices gathered for one batched SVD; a larger
# stack of bases is scored a slice at a time, which bounds its memory.
STACK_SUBMATRICES = 1 << 14


class SingularMatrixError(ValueError):
    pass


class RankDeficientError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact matrices (numpy object arrays of Fraction or Python int)
# ---------------------------------------------------------------------------

def bareiss(rows):
    """Determinant and adjugate of a square integer matrix, exactly.

    Fraction-free Gauss-Jordan elimination on [A | I] (Bareiss, Math.
    Comp. 22, 1968): each update divides by the previous pivot, and the
    division is exact, so every entry stays an integer.  The left block
    ends as det(A) I and the right block as adj(A).  Returns (0, None)
    when A is singular.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev, sign = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        pv = top[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(pv * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = pv
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def to_float(a: np.ndarray) -> np.ndarray:
    return a.astype(float)


# ---------------------------------------------------------------------------
# graph matrices
# ---------------------------------------------------------------------------

def incidence_matrix(graph) -> np.ndarray:
    """Vertex-by-edge matrix, +1 at the head and -1 at the tail of each edge."""
    m, n = graph.num_vertices, len(graph.edges)
    B = np.zeros((m, n), dtype=object)
    for tail, head, eid in graph.edges:
        B[head, eid] = 1
        B[tail, eid] = -1
    return B


def _weight_column(weights, n: int) -> np.ndarray:
    col = np.empty(n, dtype=object)
    for e in range(n):
        col[e] = weights[e]
    return col


def laplacian(B: np.ndarray, weights) -> np.ndarray:
    """Weighted graph Laplacian B W B^T, exact."""
    w = _weight_column(weights, B.shape[1])
    return (B * w[None, :]).dot(B.T)


def transfer_current(B: np.ndarray, weights):
    """(T, T Y) for the transfer current matrix Y = W B^T L^+ B, in integers.

    Y is an oblique projection: entry (e, f) is the current through e,
    taken along e's own direction, when a unit current is driven from f's
    tail to f's head.  It is unchanged when all weights scale together, so
    they are scaled to coprime integers first.  Grounding vertex 0 leaves
    the reduced Laplacian L0 = B0 W B0^T (B0 is B without row 0),
    nonsingular exactly when the graph is connected.  One integer
    elimination gives T = det L0, the weighted spanning-tree count of the
    scaled weights, and adj(L0), and then T Y = W B0^T adj(L0) B0 is an
    integer matrix (an object array of Python ints).
    """
    n = B.shape[1]
    w = [Fraction(weights[e]) for e in range(n)]
    common = math.lcm(*(x.denominator for x in w))
    w_int = [x.numerator * (common // x.denominator) for x in w]
    g = math.gcd(*w_int)
    w_int = _weight_column([x // g for x in w_int], n)
    B0 = B[1:]
    det, adj = bareiss(laplacian(B0, w_int).tolist())
    if det == 0:
        raise SingularMatrixError(
            "reduced Laplacian is singular; the graph is disconnected")
    adj = np.array(adj, dtype=object)
    return det, B0.T.dot(adj).dot(B0) * w_int[:, None]


def projection(s: int, sY: np.ndarray, weights) -> np.ndarray:
    """Float orthogonal projector onto the column space of W^(1/2) B^T.

    Read off any integer multiple sY = s Y of the transfer current matrix
    Y = W B^T L^+ B: the projector is W^(-1/2) Y W^(1/2), i.e.
    P[i, j] = Y[i, j] sqrt(w_j / w_i).  With w_i = p_i / q_i it is
    evaluated as the exact symmetric core Y[i, j] / w_i, the integer true
    division sY[i, j] q_i / (s p_i), which rounds once and correctly, times
    sqrt(w_i) sqrt(w_j), so P is exactly symmetric.
    """
    n = sY.shape[0]
    w = [Fraction(weights[i]) for i in range(n)]
    core = np.array([[x * wi.denominator / (s * wi.numerator) for x in row]
                     for row, wi in zip(sY.tolist(), w)])
    root = np.sqrt([float(wi) for wi in w])
    return core * np.outer(root, root)


# ---------------------------------------------------------------------------
# float subspace geometry
# ---------------------------------------------------------------------------

@dataclass
class Subspace:
    """A k-dimensional subspace of R^n held as an orthonormal n-by-k basis."""

    ambient: int
    dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (self.ambient, self.dim):
            raise ValueError("basis shape does not match the declared dimensions")
        require_orthonormal(b)
        self.basis = b


def require_orthonormal(bases: np.ndarray) -> None:
    """Raise ValueError unless the columns of the n-by-k basis, or of every
    basis in an (R, n, k) stack, are orthonormal to within 1e-12."""
    gram = np.swapaxes(bases, -1, -2) @ bases
    if not (np.abs(gram - np.eye(bases.shape[-1])) <= 1e-12).all():
        raise ValueError("basis columns are not orthonormal")


def orthonormal_stack(mats: np.ndarray):
    """Orthonormal bases for the column spaces of an (R, n, k) stack.

    One batched SVD; returns the left singular vectors and a mask of the
    matrices of full column rank, those whose smallest singular value is
    above 1e-10.
    """
    u, s, _ = np.linalg.svd(mats, full_matrices=False)
    return u, s[:, -1] > 1e-10


def orthonormalize(mat) -> Subspace:
    """Orthonormal basis with the same column space.

    Raises RankDeficientError when the smallest singular value is at or
    below 1e-10.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1] or m.shape[1] == 0:
        raise ValueError("need a tall matrix with at least one column")
    u, full_rank = orthonormal_stack(m[None])
    if not full_rank[0]:
        raise RankDeficientError("matrix does not have full column rank")
    return Subspace(m.shape[0], m.shape[1], u[0])


def principal_angles(u: Subspace, v: Subspace) -> np.ndarray:
    """Ascending principal angles (radians) between equal-shape subspaces."""
    if u.ambient != v.ambient or u.dim != v.dim:
        raise ValueError("subspaces must share ambient dimension and dimension")
    s = np.linalg.svd(u.basis.T @ v.basis, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


@lru_cache(maxsize=None)
def coordinate_subsets(n: int, k: int):
    """The k-subsets of range(n) in lexicographic order, as a tuple of
    tuples and as a read-only (C(n, k), k) index array."""
    subsets = tuple(combinations(range(n), k))
    index = np.array(subsets)
    index.flags.writeable = False
    return subsets, index


def stacked_target(bases: np.ndarray):
    """The target of every basis in an (R, n, k) stack.

    Batched SVDs of the (R, C(n, k), k, k) coordinate submatrices, taken
    as whole bases at most STACK_SUBMATRICES submatrices at a time; every
    submatrix is decomposed on its own, so the slicing changes no bit.
    Returns the R angles and, for each, the position of its argmin subset
    in coordinate_subsets(n, k); ties go to the lexicographically first.
    """
    _, n, k = bases.shape
    if n > DEFAULT_SUBSET_CAP:
        raise BruteForceCapError(
            f"target sweep needs at most {DEFAULT_SUBSET_CAP} ambient dimensions, got {n}")
    _, index = coordinate_subsets(n, k)
    step = max(1, STACK_SUBMATRICES // len(index))
    sigma_min = np.concatenate([
        np.linalg.svd(bases[i:i + step, index, :], compute_uv=False)[..., -1]
        for i in range(0, len(bases), step)])
    cos_best = np.clip(sigma_min.max(axis=1), 0.0, 1.0)
    angles = np.array([math.acos(c) for c in cos_best.tolist()])
    return angles, np.argmax(sigma_min, axis=1)


def target(sub: Subspace):
    """Least deviation from the coordinate k-subspaces, with its argmin.

    The deviation from a coordinate subspace is the largest principal
    angle, i.e. arccos of the smallest singular value of the k-by-k row
    submatrix of the basis; the sweep is exhaustive over all C(n, k)
    subsets.  Ties go to the lexicographically first subset.
    """
    angles, best = stacked_target(sub.basis[None])
    subsets, _ = coordinate_subsets(sub.ambient, sub.dim)
    return float(angles[0]), subsets[best[0]]


def match_sign_diagonal(A: np.ndarray, B: np.ndarray, tol: float):
    """Signs s with A == diag(s) B diag(s) within tol, or None.

    Relative signs propagate over entries of B that are safely nonzero;
    independent connected components are resolved by trying both signs.
    """
    n = A.shape[0]
    if A.shape != B.shape or np.max(np.abs(np.abs(A) - np.abs(B))) > tol:
        return None
    thresh = max(10.0 * tol, 1e-7)
    component = [-1] * n
    base_sign = [1.0] * n
    comps = 0
    for start in range(n):
        if component[start] != -1:
            continue
        component[start] = comps
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and component[j] == -1 and abs(B[i, j]) > thresh:
                    component[j] = comps
                    ratio = A[i, j] / B[i, j]
                    base_sign[j] = base_sign[i] * (1.0 if ratio > 0 else -1.0)
                    stack.append(j)
        comps += 1
    base = np.array(base_sign)
    comp = np.array(component)
    for bits in range(1 << comps):
        flips = np.array([1.0 if not (bits >> c) & 1 else -1.0 for c in range(comps)])
        s = base * flips[comp]
        if np.max(np.abs(A - np.outer(s, s) * B)) <= tol:
            return s
    return None
