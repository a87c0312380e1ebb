"""Randomized search for maximally deviating subspaces.

Hill climbing on the Grassmannian: bump the current basis with
Gaussian noise, keep strict improvements of the deviation target, shrink
the step on every rejection.  Walkers climb in lockstep on an (R, n, k)
stack of bases.  Each step bumps every walker still climbing with noise
from its own generator, orthonormalizes the bumped stack with one batched
SVD and scores it with one batched SVD of the coordinate submatrices, so
each walker follows exactly the path it would follow alone.

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
    match_sign_diagonal,
    orthonormal_stack,
    orthonormalize,
    principal_angles,
    require_orthonormal,
    stacked_target,
    target,
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the climber and the accumulation loop."""

    attempts: int = 200          # consecutive fruitless restarts before stopping
    eps: float = 1e-4            # extremality tolerance, cosine scale
    init_magnitude: float = 0.5
    decay: float = 0.99          # slower decay buys the accuracy the eps gate needs
    max_steps: int = 100_000
    min_magnitude: float = 1e-7
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
        if self.init_magnitude <= 0.0:
            raise ValueError("init_magnitude must be positive")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        if self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
        if self.min_magnitude <= 0.0:
            raise ValueError("min_magnitude must be positive")
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


def _bump(bases: np.ndarray, magnitudes: np.ndarray, rngs) -> np.ndarray:
    """One Gaussian bump per walker of an (R, n, k) stack, re-orthonormalized.

    Walker r scales rngs[r]'s noise by magnitudes[r].  A bump that is not of
    full column rank (a measure-zero degeneracy) is drawn again from the
    same walker's generator.
    """
    shape = bases.shape[1:]
    noise = np.stack([rng.standard_normal(shape) for rng in rngs])
    out, full_rank = orthonormal_stack(bases + magnitudes[:, None, None] * noise)
    while not full_rank.all():
        redo = np.flatnonzero(~full_rank)
        noise = np.stack([rngs[r].standard_normal(shape) for r in redo])
        out[redo], full_rank[redo] = orthonormal_stack(
            bases[redo] + magnitudes[redo, None, None] * noise)
    require_orthonormal(out)
    return out


def _climb(bases: np.ndarray, rngs, cfg: SearchConfig) -> np.ndarray:
    """Accept-improving walks from every basis of an (R, n, k) stack, in lockstep.

    Walker r draws only from rngs[r].  At each step it keeps its candidate
    when the target angle strictly grows and otherwise multiplies its step
    size by cfg.decay.  It retires once the step size is below
    cfg.min_magnitude, and all walkers stop after cfg.max_steps steps.
    Returns the final stack.
    """
    bases, rngs = np.array(bases, dtype=float), list(rngs)
    out = np.empty_like(bases)          # filled as walkers retire
    walkers = np.arange(len(bases))     # the walker in each row of bases
    angles, _ = stacked_target(bases)
    magnitudes = np.full(len(bases), cfg.init_magnitude)
    for _ in range(cfg.max_steps):
        retiring = magnitudes < cfg.min_magnitude
        if retiring.any():
            out[walkers[retiring]] = bases[retiring]
            keep = ~retiring
            walkers, bases = walkers[keep], bases[keep]
            angles, magnitudes = angles[keep], magnitudes[keep]
            rngs = [rng for rng, kept in zip(rngs, keep) if kept]
            if not rngs:
                break
        candidates = _bump(bases, magnitudes, rngs)
        candidate_angles, _ = stacked_target(candidates)
        better = candidate_angles > angles
        bases[better] = candidates[better]
        angles[better] = candidate_angles[better]
        magnitudes[~better] *= cfg.decay
    out[walkers] = bases
    return out


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
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                             spawn_key=(i,)))
                for i in range(restarts, restarts + min(budget, cap))]
        starts = np.stack([sample_uniform(n, k, rng).basis for rng in rngs])
        for basis in _climb(starts, rngs, cfg):
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
