"""Randomized search for maximally deviating subspaces.

Riemannian gradient descent on the Grassmannian (Absil, Mahony and
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008) on a
log-sum-exp smoothing (Nesterov, Math. Program. 103, 2005) of the
target's cosine, max_S sigma_min(U[S, :]) over the coordinate k-subsets
S.  Walkers climb in lockstep on an (R, n, k) stack of bases, under one
schedule: each step takes one batched SVD of the coordinate submatrices
for the gradient and one for the retraction, and keeps each walker's best
iterate.  No step draws noise, and each walker follows exactly the path
it would follow alone.

The accumulation loop restarts from uniform samples and collects one
representative per symmetry class of the extremal subspaces it reaches; a
subspace beating the arccos(1/sqrt(n)) bound would be returned as a
distinguished violation result.  Restarts are launched in batches as large
as the remaining attempt budget, which is the least number of restarts
still to run, but no larger than one slice of the batched target
(numeric.STACK_SUBMATRICES coordinate submatrices), which bounds a
batch's memory whatever the budget.  Their results are taken in restart
order, so a run does exactly the restarts a one-at-a-time loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import numeric
from .numeric import (
    Subspace,
    coordinate_subsets,
    match_sign_diagonal,
    orthonormal_stack,
    orthonormalize,
    principal_angles,
    require_edge_limit,
    require_orthonormal,
    target,
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the climber and the accumulation loop."""

    attempts: int = 200          # consecutive fruitless restarts before stopping
    eps: float = 1e-4            # extremality tolerance, cosine scale
    steps: int = 500             # gradient steps per restart
    seed: int = 0
    dedup_tol: float = 1e-3      # principal-angle tolerance for class identity

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.dedup_tol <= 0.0:
            raise ValueError("dedup_tol must be positive")


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
    config: SearchConfig


def sample_uniform(n: int, k: int, rng) -> Subspace:
    """Uniform draw on the Grassmannian: orthonormalized Gaussian matrix."""
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    return orthonormalize(rng.standard_normal((n, k)))


def _retract(bases: np.ndarray, xi: np.ndarray, eta: float) -> np.ndarray:
    """Step every basis of an (R, n, k) stack by -eta along its tangent xi
    and retract it onto the Grassmannian with orthonormal_stack.

    xi is orthogonal to its basis, so each step has full column rank and
    needs no redraw; the retracted stack is checked to be orthonormal.
    """
    moved, full_rank = orthonormal_stack(bases - eta * xi)
    assert full_rank.all()
    require_orthonormal(moved)
    return moved


def _climb(bases: np.ndarray, cfg: SearchConfig) -> np.ndarray:
    """Riemannian gradient descent from every basis of an (R, n, k) stack, in lockstep.

    The objective is the log-sum-exp smoothing, at inverse temperature
    beta, of max_S sigma_min(U[S, :]) over the coordinate k-subsets S: the
    cosine of the target angle, which the climb lowers.  Each step takes
    one batched SVD (u, s, vh) of the (R, C(n, k), k, k) coordinate
    submatrices.  Its softmax weights p_S = exp(beta (sigma_S - max sigma))
    have exponents at most 0, so they cannot overflow, and are left
    unnormalized, since the step is normalized.  The Euclidean gradient
    G = sum_S p_S u_S v_S^T (u_S, v_S the singular vectors of sigma_min) is
    scattered to its rows by one fixed one-hot matmul and projected onto
    the tangent space, xi = G - U U^T G.  The step U - eta xi / |xi| is
    retracted by _retract.  Over cfg.steps steps beta rises geometrically
    from 20 to 1e6 and eta falls from 0.05 to 1e-5, the same for every
    walker.
    Every sum over a walker's entries is a per-walker matmul or SVD, so a
    walker's path does not depend on the others in the stack.  Returns
    each walker's best iterate, the one with the lowest max sigma_min; with
    cfg.steps 0 that is its start.
    """
    bases = np.array(bases, dtype=float)
    walkers, n, k = bases.shape
    require_edge_limit(n)
    _, index = coordinate_subsets(n, k)
    scatter = np.zeros((n, index.size))
    scatter[index.ravel(), np.arange(index.size)] = 1.0
    betas = np.geomspace(20.0, 1e6, cfg.steps)
    etas = np.geomspace(0.05, 1e-5, cfg.steps)
    best, best_score = bases.copy(), np.full(walkers, np.inf)
    for step in range(cfg.steps + 1):
        u, s, vh = np.linalg.svd(bases[:, index, :])
        sigma = s[..., -1]
        top = sigma.max(axis=1)
        better = top < best_score
        best[better], best_score[better] = bases[better], top[better]
        if step == cfg.steps:
            return best
        p = np.exp(betas[step] * (sigma - top[:, None]))
        grad = p[..., None, None] * u[..., :, -1:] * vh[..., -1:, :]
        grad = scatter @ grad.reshape(walkers, index.size, k)
        xi = (grad - bases @ (np.swapaxes(bases, 1, 2) @ grad)).reshape(walkers, -1, 1)
        norm = np.sqrt(np.swapaxes(xi, 1, 2) @ xi)
        xi = (xi / np.where(norm > 0.0, norm, 1.0)).reshape(bases.shape)
        bases = _retract(bases, xi, etas[step])


def symmetry_equivalent(a: Subspace, b: Subspace, tol: float = 1e-3) -> bool:
    """Does some signed coordinate permutation carry col(a) onto col(b)?

    Matches projector row norms first, then backtracks over permutations
    pruned by |projector| consistency; a candidate permutation is accepted
    when the sign-resolved basis lands within tol (largest principal
    angle) of b.
    """
    if (a.ambient, a.dim) != (b.ambient, b.dim):
        return False
    n = a.ambient
    Pa = a.basis @ a.basis.T
    Pb = b.basis @ b.basis.T
    ra = np.linalg.norm(Pa, axis=1)
    rb = np.linalg.norm(Pb, axis=1)
    if np.max(np.abs(np.sort(ra) - np.sort(rb))) > tol:
        return False

    perm = [-1] * n
    used = [False] * n

    def aligns() -> bool:
        basis = np.zeros_like(a.basis)
        for i in range(n):
            basis[perm[i], :] = a.basis[i, :]
        signs = match_sign_diagonal(Pb, basis @ basis.T, tol)
        if signs is None:
            return False
        moved = Subspace(a.ambient, a.dim, signs[:, None] * basis)
        return principal_angles(moved, b)[-1] <= tol

    def place(i: int) -> bool:
        if i == n:
            return aligns()
        for j in range(n):
            if used[j] or abs(ra[i] - rb[j]) > tol:
                continue
            if any(abs(abs(Pa[i, t]) - abs(Pb[j, perm[t]])) > tol for t in range(i)):
                continue
            perm[i] = j
            used[j] = True
            if place(i + 1):
                return True
            used[j] = False
            perm[i] = -1
        return False

    return place(0)


def accumulate(n: int, k: int, cfg: SearchConfig) -> SearchResult:
    """Restart until the class set plateaus or the bound breaks.

    Each restart draws a uniform subspace, climbs from it, and scores it in
    cosine scale.  A score below 1/sqrt(n) - eps disproves the bound and
    returns immediately as a violation; scores within eps of the bound
    join the set when not symmetric to a known member, resetting the
    attempt budget.  Per-restart generators are derived from the seed, so
    results are reproducible and independent of how restarts are batched.
    """
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    bound = 1.0 / math.sqrt(n)
    members: list[tuple[Subspace, float]] = []
    budget = cfg.attempts
    restarts = 0
    cap = max(1, numeric.STACK_SUBMATRICES // math.comb(n, k))
    while budget > 0:
        # every restart of the batch is one the serial rule runs: a result
        # lowers the budget by at most one, so it stays positive until the last
        starts = np.stack([
            sample_uniform(n, k, np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))).basis
            for i in range(restarts, restarts + min(budget, cap))])
        for basis in _climb(starts, cfg):
            sub = Subspace(n, k, basis)
            restarts += 1
            angle, subset = target(sub)
            score = math.cos(angle)
            if score < bound - cfg.eps:
                return SearchResult(list(members),
                                    ViolationReport(sub, score, subset),
                                    restarts, cfg)
            if abs(score - bound) <= cfg.eps and not any(
                    symmetry_equivalent(sub, member, cfg.dedup_tol)
                    for member, _ in members):
                members.append((sub, score))
                budget = cfg.attempts
            else:
                budget -= 1
    return SearchResult(members, None, restarts, cfg)
