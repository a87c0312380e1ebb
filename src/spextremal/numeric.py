"""Dense linear algebra for the construction: exact core, float geometry.

The exact side is fraction-free integer elimination (Bareiss).  bareiss
returns a determinant and an adjugate: one such elimination of the
grounded integer Laplacian gives the weighted spanning-tree count T and
adj(L0), and transfer_current reduces them to the integer pair (D, D Y),
D the least positive integer that makes D Y integral, where Y is the
transfer current matrix; Y itself is never formed, and rational weights
enter the integers only as integer_weights' coprime W.  The elimination
takes no pivots, because it only sees matrices that must be positive
definite (the reduced Laplacian of a connected graph and the minor of
the attainment proof), and it decides Sylvester's criterion from its
pivots on the way.  The spectral identities are checked on D Y as
integer products and comparisons, with zero tolerance: in int64 where
fixed_width proves from the operands' bit lengths that no product or sum
reaches 2**63, in Python ints otherwise.  The float side covers
orthonormal bases, principal angles, and the deviation target, where
double precision is the natural currency; the search runs on it, and
verify, whose verdicts are exact, calls none of it.  The target of one
basis is one batched SVD of its k-by-k coordinate submatrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

# The most edges, i.e. coordinates, that an exhaustive sweep takes: the
# spanning trees, the target, the search's climb, and the enumerate and
# verify commands.
MAX_EDGES = 12


class BruteForceCapError(RuntimeError):
    """An exhaustive subset sweep would exceed MAX_EDGES."""


class SingularMatrixError(ValueError):
    pass


class RankDeficientError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact matrices: int64 arrays where fixed_width proves that nothing wraps,
# numpy object arrays of Python ints (exact at any size) elsewhere
# ---------------------------------------------------------------------------

def bit_length(x) -> int:
    """Bit length of the largest magnitude among the integers of x, a
    nonempty integer array or a Python int, measured exactly: every
    magnitude in x is below 2**bit_length(x)."""
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(int(x.max()), -int(x.min())).bit_length()


def fixed_width(arrays, bits: int, terms: int = 1) -> list:
    """The integer arrays, all as int64 when terms * 2**bits <= 2**63, and
    all as object arrays of Python ints otherwise.

    The caller forms from them sums of at most terms products, each below
    2**bits in magnitude: bits adds up the factors' bit_length, and a
    factor with entries in {-1, 0, 1} adds none.  Every partial sum is then
    below terms * 2**bits, so int64 never wraps, and past that budget the
    same expressions run exactly on Python ints.
    """
    dtype = np.int64 if terms << bits <= 1 << 63 else object
    return [np.asarray(a).astype(dtype, copy=False) for a in arrays]


def bareiss(rows):
    """(det A, adj A) of a symmetric integer matrix A, exactly, or None
    when A is not positive definite.

    Fraction-free Gauss-Jordan elimination on [A | I] without pivoting
    (Bareiss, Math. Comp. 22, 1968): each update divides by the previous
    pivot, and the division is exact, so every entry stays an integer.
    The pivot of column j is the leading principal minor of order j + 1,
    so by Sylvester's criterion every pivot of a positive definite matrix
    is positive, and the elimination returns None at the first that is
    not.  Otherwise the left block ends as det(A) I and the right block
    as adj(A).
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        top = m[col]
        pv = top[col]
        if pv <= 0:
            return None
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(pv * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = pv
    return prev, [row[n:] for row in m]


def require_edge_limit(n: int) -> None:
    """Raise BruteForceCapError when n edges exceed MAX_EDGES."""
    if n > MAX_EDGES:
        raise BruteForceCapError(f"{n} edges exceed the limit of {MAX_EDGES}")


# ---------------------------------------------------------------------------
# graph matrices
# ---------------------------------------------------------------------------

def incidence_matrix(graph) -> np.ndarray:
    """Vertex-by-edge int64 matrix, +1 at the head and -1 at the tail of
    each edge, so a loop's column is zero."""
    m, n = graph.num_vertices, len(graph.edges)
    B = np.zeros((m, n), dtype=np.int64)
    for tail, head, eid in graph.edges:
        B[head, eid] += 1
        B[tail, eid] -= 1
    return B


def integer_weights(weights) -> np.ndarray:
    """The weights p / q of edges 0..n-1, ints or Fractions, as coprime
    Python ints W = w lcm(q) / g, g the gcd of w lcm(q), or 1 when it is
    0: positive where the weights are, and unchanged when given W."""
    n = len(weights)
    common = math.lcm(*(weights[e].denominator for e in range(n)))
    scaled = [weights[e].numerator * (common // weights[e].denominator) for e in range(n)]
    g = math.gcd(*scaled) or 1
    return np.array([x // g for x in scaled], dtype=object)


def laplacian(B: np.ndarray, weights) -> np.ndarray:
    """Weighted graph Laplacian B W B^T, exact."""
    w = np.array([weights[e] for e in range(B.shape[1])], dtype=object)
    return (B * w[None, :]).dot(B.T)


def transfer_current(B: np.ndarray, weights):
    """(D, D Y) for the transfer current matrix Y = W B^T L^+ B, in
    integers, D the least positive integer that makes D Y integral; D Y is
    int64 when its entries fit, else Python ints.

    Y is an oblique projection: entry (e, f) is the current through e,
    taken along e's own direction, when a unit current is driven from f's
    tail to f's head.  It is unchanged when all weights scale together, so
    they are taken as integer_weights' W first.  Grounding vertex 0 leaves
    the reduced Laplacian L0 = B0 W B0^T (B0 is B without row 0),
    nonsingular exactly when the graph is connected.  One integer
    elimination gives T = det L0, the weighted spanning-tree count of the
    scaled weights, and adj(L0), and T Y = W B0^T adj(L0) B0.  Both are
    divided by the gcd of T and adj(L0) before that product, and by the
    gcd of what is left and the product after it, which leaves D.  The
    elimination and the gcds run on Python ints, which never overflow; the
    product goes through fixed_width, as each of its entries is one weight
    times a sum of at most 4 entries of the reduced adj(L0): a column of
    B0 has at most two nonzero entries, each +-1.
    """
    w_int = integer_weights(weights)
    B0 = B[1:]
    eliminated = bareiss(laplacian(B0, w_int).tolist())
    if eliminated is None:
        raise SingularMatrixError("reduced Laplacian is not positive definite; "
                                  "the graph is disconnected or a weight is not positive")
    det, adj = eliminated
    g = math.gcd(det, *chain.from_iterable(adj))
    adj = np.array(adj, dtype=object) // g
    adj, w_int = fixed_width((adj, w_int), bit_length(adj) + bit_length(w_int), 4)
    TY = B0.T.dot(adj).dot(B0) * w_int[:, None]  # (T / g) Y
    h = math.gcd(det // g, *TY.flat)
    DY = TY // h
    return det // g // h, fixed_width([DY], bit_length(DY))[0]


# ---------------------------------------------------------------------------
# float subspace geometry
# ---------------------------------------------------------------------------

@dataclass
class Subspace:
    """A k-dimensional subspace of R^n held as an orthonormal n-by-k basis;
    ambient and dim, n and k, are read off the basis's shape."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be an n-by-k array")
        require_orthonormal_gram(b.T @ b)
        self.basis = b

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@lru_cache(maxsize=None)
def _identity(k: int) -> np.ndarray:
    """The read-only k-by-k identity, built once per k."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def require_orthonormal_gram(gram: np.ndarray) -> None:
    """Raise ValueError unless the k-by-k Gram matrix U^T U, or every one
    of a stack, is the identity to within 1e-12 entrywise: the columns of
    U are orthonormal."""
    if not (np.abs(gram - _identity(gram.shape[-1])) <= 1e-12).all():
        raise ValueError("basis columns are not orthonormal")


def orthonormalize(mat) -> Subspace:
    """Orthonormal basis with the same column space: the left singular
    vectors of the matrix.

    Raises RankDeficientError when the smallest singular value is at or
    below 1e-10.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1] or m.shape[1] == 0:
        raise ValueError("need a tall matrix with at least one column")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if not s[-1] > 1e-10:
        raise RankDeficientError("matrix does not have full column rank")
    return Subspace(u)


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
    index = np.array(subsets, dtype=int).reshape(len(subsets), k)
    index.flags.writeable = False
    return subsets, index


def target(sub: Subspace):
    """Least deviation from the coordinate k-subspaces, with its argmin.

    The deviation from a coordinate subspace is the largest principal
    angle, i.e. arccos of the smallest singular value of the k-by-k row
    submatrix of the basis.  The sweep is exhaustive over all C(n, k)
    subsets, in lexicographic order, and ties go to the first subset.
    """
    require_edge_limit(sub.ambient)
    subsets, index = coordinate_subsets(sub.ambient, sub.dim)
    sigma_min = np.linalg.svd(sub.basis[index, :], compute_uv=False)[:, -1]
    best = int(np.argmax(sigma_min))
    return math.acos(float(np.clip(sigma_min[best], 0.0, 1.0))), subsets[best]
