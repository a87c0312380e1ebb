"""Randomized search for maximally deviating subspaces.

Riemannian gradient descent on the Grassmannian (Absil, Mahony and
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008) on a
log-sum-exp smoothing (Nesterov, Math. Program. 103, 2005) of the
target's cosine, max_S sigma_min(U[S, :]) over the coordinate k-subsets
S.  Walkers climb in lockstep on an (R, n, k) stack of bases, under one
schedule of STEPS steps: each step takes the least eigenpair of every
coordinate subset's k-by-k Gram matrix for the gradient, in closed form
at k = 2 and by one batched eigh otherwise, checks every basis
orthonormal, retracts by modified Gram-Schmidt, and keeps each walker's
best iterate.  No step takes an SVD or draws noise, and each walker
follows exactly the path it would follow alone.

The accumulation loop restarts from uniform samples and collects one
representative per symmetry class of the extremal subspaces it reaches; a
subspace beating the arccos(1/sqrt(n)) bound would be returned as a
distinguished violation result.  The method is fixed: the step count
STEPS, the extremality tolerance EPS and the class tolerance DEDUP_TOL are
constants, and a search's only settings, in SearchConfig, are its attempt
budget and its seed.  Restarts are launched in batches as large
as the remaining attempt budget, which is the least number of restarts
still to run, but holding no more than STACK_SUBMATRICES
coordinate Gram matrices, which bounds a batch's memory whatever the
budget.  Their results are taken in restart order, so a run does exactly
the restarts a one-at-a-time loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric import (
    Subspace,
    coordinate_subsets,
    orthonormalize,
    principal_angles,
    require_edge_limit,
    require_orthonormal_gram,
    target,
)

# Most k-by-k coordinate Gram matrices that one search batch gathers: a
# batch launches no more walkers than this many over C(n, k), which bounds
# its memory whatever the attempt budget.
STACK_SUBMATRICES = 1 << 14

# Extremality tolerance, cosine scale: a climb whose score lies within EPS
# of 1/sqrt(n) has reached the bound, and one below 1/sqrt(n) - EPS breaks it.
EPS = 1e-4

# Gradient steps per restart, over which _schedule runs from its start to
# its end.
STEPS = 500

# Principal-angle tolerance for class identity: climbs end up to 2e-3 from
# their class at (8,2), and distinct classes at n <= 9 lie more than 0.2
# apart.
DEDUP_TOL = 1e-2


@dataclass(frozen=True)
class SearchConfig:
    """The two settings of a search: its attempt budget and its seed."""

    attempts: int = 200          # consecutive fruitless restarts before stopping
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")


@dataclass
class ViolationReport:
    """A subspace deviating beyond arccos(1/sqrt(n)); never observed."""

    subspace: Subspace
    deviation_cos: float
    subset: tuple


@dataclass
class SearchResult:
    """Accumulated classes, each a (subspace, cosine score) pair."""

    classes: list
    violation: ViolationReport | None
    restarts: int


def sample_uniform(n: int, k: int, rng) -> Subspace:
    """Uniform draw on the Grassmannian: orthonormalized Gaussian matrix."""
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    return orthonormalize(rng.standard_normal((n, k)))


def _retract(bases: np.ndarray, xi: np.ndarray, eta: float) -> np.ndarray:
    """Step every basis of an (R, n, k) stack by -eta along its tangent xi
    and retract it onto the Grassmannian: the Q factor of U - eta xi by
    modified Gram-Schmidt, with no LAPACK call.

    xi is a unit tangent, orthogonal to U, so U - eta xi has condition
    number at most sqrt(1 + eta^2) and one pass leaves its columns
    orthonormal to rounding; the next _tangent checks them.  Each dot
    product is a stacked matmul over one walker's entries, so a walker's
    bits do not depend on the stack.  On one CPU core with numpy 2.4 this
    takes 10 us at (5,2) with 2 walkers and 12 us with 40, against 21 and
    40 us for a batched LAPACK qr and its separate check.
    """
    moved = bases - eta * xi
    k = moved.shape[2]
    for j in range(k):
        col = moved[:, :, j:j + 1]
        col /= np.sqrt(np.swapaxes(col, 1, 2) @ col)
        if j + 1 < k:
            rest = moved[:, :, j + 1:]
            rest -= col @ (np.swapaxes(col, 1, 2) @ rest)
    return moved


def _least_eigenpairs(grams: np.ndarray):
    """The least eigenvalue and a unit eigenvector of each symmetric
    matrix in a (..., k, k) stack.

    At k = 2 both come in closed form, one Jacobi rotation, elementwise
    over the stack: [[a, b], [b, c]] with h = (a - c)/2 and r = hypot(h, b)
    has lambda_min = (a + c)/2 - r.  Its top eigenvector is (r + h, b) or
    (b, r - h), whichever the sign of h keeps free of cancellation, and the
    least one is that vector turned by a right angle; when G = aI both
    formulas give 0, and any unit vector serves.  On one CPU core with
    numpy 2.4, the Gram stack of 40 walkers at (5,2) takes about 20 us this
    way and 130 to 165 us by a batched eigh, nearly all of it per-matrix
    LAPACK call overhead.  Every other k keeps eigh: a vectorized cyclic Jacobi over
    the stack took 1634 us against eigh's 767 at (6,3) with 40 walkers, and
    6997 against 2327 at (8,4) with 20.
    """
    if grams.shape[-1] != 2:
        lam, vec = np.linalg.eigh(grams)
        return lam[..., 0], vec[..., 0]
    a, b, c = grams[..., 0, 0], grams[..., 0, 1], grams[..., 1, 1]
    h = 0.5 * (a - c)
    r = np.hypot(h, b)
    up = h >= 0.0
    x = np.where(up, -b, h - r)
    y = np.where(up, r + h, b)
    x[(x == 0.0) & (y == 0.0)] = 1.0
    norm = np.hypot(x, y)
    return 0.5 * (a + c) - r, np.stack([x / norm, y / norm], axis=-1)


def _tangent(bases: np.ndarray, member: np.ndarray, beta: float):
    """Each walker's top sigma_min, and the unit tangent xi along the
    gradient of its smoothed objective; the climb steps along -xi.

    member is a one-hot (count, n) matrix whose rows are coordinate
    subsets S.  The Gram matrix U[S]^T U[S] is the sum of the outer
    products r_i r_i^T of the rows i in S, so one matmul with member
    gathers all of them, and _least_eigenpairs gives each lambda_min and
    its unit eigenvector v_S, in closed form at k = 2 and by one batched
    eigh otherwise; sigma_S = sqrt(max(lambda_min, 0)), since
    rounding can leave a singular subset's lambda_min below 0.  The
    softmax weights p_S = exp(beta (sigma_S - max sigma)) have exponents
    at most 0, so they cannot overflow, and are left unnormalized, since
    xi is normalized.  The gradient of sigma_S in row i of S is
    (r_i . v_S) v_S / sigma_S, so M_S = p_S / sigma_S v_S v_S^T (0 where
    sigma_S is 0) is scattered to the rows by member's transpose, row i
    of the Euclidean gradient G is Q_i r_i with Q_i the sum of M_S over
    the subsets holding i, and xi is G - U U^T G scaled to unit norm.
    Every sum runs over one walker's entries, so a walker's result does
    not depend on the others in the stack.  The same outer products sum
    to U^T U, which is checked to be the identity, so every basis the
    climb scores is orthonormal.  Returns the (R,) top sigmas and the
    (R, n, k) tangents.
    """
    walkers, n, k = bases.shape
    outer = (bases[..., :, None] * bases[..., None, :]).reshape(walkers, n, k * k)
    require_orthonormal_gram(outer.sum(axis=1).reshape(walkers, k, k))
    lam, v = _least_eigenpairs((member @ outer).reshape(walkers, -1, k, k))
    sigma = np.sqrt(np.maximum(lam, 0.0))
    top = sigma.max(axis=1)
    p = np.exp(beta * (sigma - top[:, None]))
    scale = np.divide(p, sigma, out=np.zeros_like(p), where=sigma > 0.0)
    weights = scale[..., None, None] * v[..., :, None] * v[..., None, :]
    rows = (member.T @ weights.reshape(walkers, -1, k * k)).reshape(walkers, n, k, k)
    grad = (rows @ bases[..., None])[..., 0]
    xi = (grad - bases @ (np.swapaxes(bases, 1, 2) @ grad)).reshape(walkers, -1, 1)
    norm = np.sqrt(np.swapaxes(xi, 1, 2) @ xi)
    return top, (xi / np.where(norm > 0.0, norm, 1.0)).reshape(bases.shape)


def _schedule(step: int, steps: int) -> tuple[float, float]:
    """The climb's inverse temperature beta and step size eta at step
    `step` of `steps`: the values np.geomspace(20, 1e6, steps) and
    np.geomspace(0.05, 1e-5, steps) take there, start^(1-t) stop^t at
    t = step / (steps - 1), exact at both ends; one step takes the start.
    """
    t = step / (steps - 1) if steps > 1 else 0.0
    return 20.0 ** (1.0 - t) * 1e6 ** t, 0.05 ** (1.0 - t) * 1e-5 ** t


def _climb(bases: np.ndarray) -> np.ndarray:
    """Riemannian gradient descent from every basis of an (R, n, k) stack, in lockstep.

    The objective is the log-sum-exp smoothing, at inverse temperature
    beta, of max_S sigma_min(U[S, :]) over the coordinate k-subsets S: the
    cosine of the target angle, which the climb lowers.  Each step takes
    each walker's top sigma_min and unit gradient tangent xi from _tangent,
    which gathers the coordinate subsets' Gram matrices with one fixed
    one-hot membership matrix, and retracts U - eta xi with _retract.
    Over STEPS steps _schedule raises beta geometrically from 20 to
    1e6 and lowers eta from 0.05 to 1e-5, the same for every walker, one
    step at a time, so a long schedule takes no memory.  Returns each
    walker's best iterate, the one with the lowest max sigma_min; with
    STEPS 0 that is its start.
    """
    bases = np.array(bases, dtype=float)
    walkers, n, k = bases.shape
    require_edge_limit(n)
    _, index = coordinate_subsets(n, k)
    member = np.zeros((len(index), n))
    np.put_along_axis(member, index, 1.0, axis=1)
    best, best_score = bases.copy(), np.full(walkers, np.inf)
    for step in range(STEPS + 1):
        # the pass after the last step only scores, so its beta is never used
        beta, eta = _schedule(min(step, STEPS - 1), STEPS)
        top, xi = _tangent(bases, member, beta)
        np.copyto(best, bases, where=(top < best_score)[:, None, None])
        np.minimum(best_score, top, out=best_score)
        if step == STEPS:
            return best
        bases = _retract(bases, xi, eta)


def symmetry_equivalent(a: Subspace, b: Subspace, tol: float = 1e-3) -> bool:
    """Does some signed coordinate permutation carry col(a) onto col(b)?

    Backtracks over placements of a's coordinate i on a free coordinate j
    of b with a sign s, the first coordinate with +1, since a global sign
    leaves the projector unchanged.  A moved basis within tol of b has a
    projector P' with |P' - Pb| <= sin(tol) < tol entrywise, since
    ||P' - Pb||_2 is the sine of the largest principal angle, so a
    placement is kept only while |Pa[i,i] - Pb[j,j]| <= tol and
    |s s_t Pa[i,t] - Pb[j,perm[t]]| <= tol for every placed t.  A complete
    placement is accepted when the moved basis lies within tol (largest
    principal angle) of b.
    """
    if (a.ambient, a.dim) != (b.ambient, b.dim):
        return False
    n = a.ambient
    pa = (a.basis @ a.basis.T).tolist()
    pb = (b.basis @ b.basis.T).tolist()
    perm: list[int] = []
    signs: list[float] = []

    def place(i: int) -> bool:
        if i == n:
            moved = np.empty_like(a.basis)
            moved[perm] = np.array(signs)[:, None] * a.basis
            return principal_angles(Subspace(n, a.dim, moved), b)[-1] <= tol
        for j in range(n):
            if j in perm or abs(pa[i][i] - pb[j][j]) > tol:
                continue
            for s in ((1.0,) if i == 0 else (1.0, -1.0)):
                if all(abs(s * signs[t] * pa[i][t] - pb[j][perm[t]]) <= tol
                       for t in range(i)):
                    perm.append(j)
                    signs.append(s)
                    if place(i + 1):
                        return True
                    perm.pop()
                    signs.pop()
        return False

    return place(0)


def accumulate(n: int, k: int, cfg: SearchConfig) -> SearchResult:
    """Restart until the class set plateaus or the bound breaks.

    Each restart draws a uniform subspace, climbs from it, and scores it in
    cosine scale.  A score below 1/sqrt(n) - EPS disproves the bound and
    returns immediately as a violation; scores within EPS of the bound
    join the set when not symmetric, within DEDUP_TOL, to a known member,
    resetting the attempt budget.  Per-restart generators are derived from
    the seed, so results are reproducible and independent of how restarts
    are batched.
    """
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    bound = 1.0 / math.sqrt(n)
    members: list[tuple[Subspace, float]] = []
    budget = cfg.attempts
    restarts = 0
    cap = max(1, STACK_SUBMATRICES // math.comb(n, k))
    while budget > 0:
        # every restart of the batch is one the serial rule runs: a result
        # lowers the budget by at most one, so it stays positive until the last
        starts = np.stack([
            sample_uniform(n, k, np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))).basis
            for i in range(restarts, restarts + min(budget, cap))])
        for basis in _climb(starts):
            sub = Subspace(n, k, basis)
            restarts += 1
            angle, subset = target(sub)
            score = math.cos(angle)
            if score < bound - EPS:
                return SearchResult(list(members),
                                    ViolationReport(sub, score, subset), restarts)
            if abs(score - bound) <= EPS and not any(
                    symmetry_equivalent(sub, member, DEDUP_TOL)
                    for member, _ in members):
                members.append((sub, score))
                budget = cfg.attempts
            else:
                budget -= 1
    return SearchResult(members, None, restarts)
