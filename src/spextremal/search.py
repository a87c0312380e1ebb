"""Randomized search for maximally deviating subspaces.

Riemannian gradient descent on the Grassmannian (Absil, Mahony and
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008) on a
log-sum-exp smoothing (Nesterov, Math. Program. 103, 2005) of the
target's cosine, max_S sigma_min(U[S, :]) over the coordinate k-subsets
S.  Walkers climb in lockstep on an (R, n, k) stack of bases, under one
schedule of STEPS steps: each step gathers every coordinate subset's
k-by-k Gram matrix and U^T U with one matmul, checks U^T U = I, takes
each Gram matrix's least eigenvalue and the projector onto its
eigenvector for the gradient, in closed form at k = 2 and by one batched
eigh otherwise, retracts by modified Gram-Schmidt, and keeps each
walker's best iterate.  No step takes an SVD or draws noise, and each
walker follows exactly the path it would follow alone.  At (5,2) a step
takes about 36 us with 2 walkers and 66 us with 40 (one CPU core, numpy
2.4), nearly all of it per-call numpy overhead.

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
budget.  A round climbs W such batches at once, W the CPUs in the
process's affinity: the first in the caller, the next W - 1 ahead of need
in forked workers.  Results are taken in restart order, so a run does
exactly the restarts a one-at-a-time loop would, at every W.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import chain

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
from .workers import cpus, in_order

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
        col /= np.sqrt(col.mT @ col)
        if j + 1 < k:
            rest = moved[:, :, j + 1:]
            rest -= col @ (col.mT @ rest)
    return moved


def _least_eigenprojectors(grams: np.ndarray):
    """The least eigenvalue of each symmetric matrix in a (..., k, k)
    stack, and the projector v v^T onto its unit eigenvector, returned as
    two factors whose elementwise product it is.

    At k = 2 both come in closed form, elementwise over the stack:
    [[a, b], [b, c]] with h = (a - c)/2 and r = hypot(h, b) has
    lambda_min = (a + c)/2 - r, and the projector onto its eigenvector is
    (lambda_max I - G)/(lambda_max - lambda_min)
    = [[r - h, -b], [-b, r + h]]/(2r), so no eigenvector is formed, signed
    or normalized; the first factor is 1.0.  Where r - h cancels, its
    error is about one ulp of r, so the entry's is about one ulp of 1.  At
    G = aI any unit vector is an eigenvector: h is lowered by the least
    subnormal, 5e-324, which moves no h of normal size, and there turns
    0/0 into the projector e1 e1^T.  Every other k keeps one batched eigh,
    and the factors are v as a column and as a row, so a weight s times
    them rounds as (s v_i) v_j.  On one CPU core with numpy 2.4, the Gram
    stack of 40 walkers at (5,2) takes about 12 us this way, 18 us as a
    signed, normalized eigenvector, and 128 us by a batched eigh, nearly
    all of it per-matrix LAPACK call overhead; at k >= 3 a vectorized
    cyclic Jacobi over the stack took 1634 us against eigh's 767 at (6,3)
    with 40 walkers, and 6997 against 2327 at (8,4) with 20.
    """
    if grams.shape[-1] != 2:
        lam, vec = np.linalg.eigh(grams)
        col = vec[..., :1]
        return lam[..., 0], col, col.mT
    a, b, c = grams[..., 0, 0], grams[..., 0, 1], grams[..., 1, 1]
    h = 0.5 * (a - c) - 5e-324
    r = np.hypot(h, b)
    proj = -grams
    proj[..., 0, 0] = r - h
    proj[..., 1, 1] = r + h
    return 0.5 * (a + c) - r, 1.0, proj / (2.0 * r)[..., None, None]


def _tangent(bases: np.ndarray, member: np.ndarray, beta: float):
    """Each walker's top sigma_min, and the unit tangent xi along the
    gradient of its smoothed objective; the climb steps along -xi.

    member is a one-hot (count + 1, n) matrix whose rows are coordinate
    subsets S, and whose last row is all ones.  The Gram matrix
    U[S]^T U[S] is the sum of the outer products r_i r_i^T of the rows i
    in S, so one matmul with member gathers all of them and, from the
    last row, U^T U, which is checked to be the identity, so every basis
    the climb scores is orthonormal.  _least_eigenprojectors gives each
    lambda_min and the projector v_S v_S^T onto its unit eigenvector,
    in closed form at k = 2 and by one batched eigh otherwise;
    sigma_S = sqrt(max(lambda_min, 0)), since rounding can leave a
    singular subset's lambda_min below 0.  The softmax weights
    p_S = exp(beta (sigma_S - max sigma)) have exponents at most 0, so
    they cannot overflow, and are left unnormalized, since xi is
    normalized.  The gradient of sigma_S in row i of S is
    (r_i . v_S) v_S / sigma_S, so it takes v_S only through the projector:
    M_S = p_S / sigma_S v_S v_S^T (0 where sigma_S is 0) is scattered to
    the rows by the subset rows' transpose, row i of the Euclidean
    gradient G is Q_i r_i with Q_i the sum of M_S over the subsets
    holding i, and xi is G - U U^T G scaled to unit norm.  Every sum runs
    over one walker's entries, so a walker's result does not depend on
    the others in the stack.  Returns the (R,) top sigmas and the
    (R, n, k) tangents.
    """
    walkers, n, k = bases.shape
    outer = (bases[..., :, None] * bases[..., None, :]).reshape(walkers, n, k * k)
    grams = (member @ outer).reshape(walkers, -1, k, k)
    require_orthonormal_gram(grams[:, -1])
    lam, left, right = _least_eigenprojectors(grams[:, :-1])
    sigma = np.sqrt(np.maximum(lam, 0.0))
    top = sigma.max(axis=1)
    p = np.exp(beta * (sigma - top[:, None]))
    weights = (p / np.where(sigma > 0.0, sigma, np.inf))[..., None, None] * left * right
    rows = (member[:-1].T @ weights.reshape(walkers, -1, k * k)).reshape(walkers, n, k, k)
    grad = (rows @ bases[..., None])[..., 0]
    xi = (grad - bases @ (bases.mT @ grad)).reshape(walkers, -1, 1)
    norm = np.sqrt(xi.mT @ xi)
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
    # the subsets' one-hot rows, and a row of ones that gathers U^T U
    member = np.ones((len(index) + 1, n))
    member[:-1] = 0.0
    np.put_along_axis(member[:-1], index, 1.0, axis=1)
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
            return principal_angles(Subspace(moved), b)[-1] <= tol
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


def _climbed(n: int, k: int, seed: int, count: int, first: int) -> np.ndarray:
    """_climb from the uniform starts of restarts first .. first + count - 1,
    each drawn from its own generator, spawned from the seed by its index."""
    return _climb(np.stack([
        sample_uniform(n, k, np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,)))).basis
        for i in range(first, first + count)]))


def accumulate(n: int, k: int, cfg: SearchConfig) -> SearchResult:
    """Restart until the class set plateaus or the bound breaks.

    Each restart draws a uniform subspace, climbs from it, and scores it in
    cosine scale.  A score below 1/sqrt(n) - EPS disproves the bound and
    returns immediately as a violation; scores within EPS of the bound
    join the set when not symmetric, within DEDUP_TOL, to a known member,
    resetting the attempt budget.  Per-restart generators are derived from
    the seed, so results are reproducible and independent of how restarts
    are batched.

    A round runs W batches of s = min(budget, cap) restarts at once, W the
    CPUs in the process's affinity: the caller climbs restarts [r, r + s),
    every one of which the serial rule runs, since a result lowers the
    budget by at most one, and forked workers climb the next W - 1 batches
    of s ahead of need.  The caller takes their results in restart order,
    stops when the budget runs out or a violation appears, killing the
    workers it no longer needs, and starts the next round at the first
    restart it did not take.  With W = 1 nothing is forked.  A batch of
    exactly the serial rule's restarts was kept over a larger one: on
    seeds 0-15 with 40 attempts, batches of budget + budget/4, dropping
    the restarts past the stop, took 28% less CPU time at (5,2) and 5% less
    at (8,2), where a step is mostly per-call overhead, but 3% more at
    (6,3), where it is mostly eigh's work on every walker.
    """
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    bound = 1.0 / math.sqrt(n)
    members: list[tuple[Subspace, float]] = []
    budget = cfg.attempts
    restarts = 0
    cap = max(1, STACK_SUBMATRICES // math.comb(n, k))
    width = cpus()
    while budget > 0:
        size = min(budget, cap)
        firsts = range(restarts, restarts + width * size, size)
        with closing(in_order(partial(_climbed, n, k, cfg.seed, size), firsts)) as batches:
            for basis in chain.from_iterable(batches):
                if budget == 0:
                    break
                sub = Subspace(basis)
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
