"""Test oracle for the lockstep climber: the one-walker-at-a-time search.

Each restart draws a uniform start, then perturbs, orthonormalizes and
scores one candidate at a time with plain two- and three-dimensional numpy
calls and one Subspace per candidate.  search._bump, search._climb and
search.accumulate stack their walkers and must reproduce this bit for bit.
"""

import math
from itertools import combinations

import numpy as np

from spextremal.numeric import Subspace
from spextremal.search import (
    SearchResult,
    ViolationReport,
    symmetry_equivalent,
)


def orthonormalize(mat):
    """Subspace spanned by the columns, or None when rank deficient."""
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s[-1] <= 1e-10:
        return None
    return Subspace(mat.shape[0], mat.shape[1], u)


def target(sub):
    n, k = sub.ambient, sub.dim
    subsets = list(combinations(range(n), k))
    stack = sub.basis[np.array(subsets), :]
    sigma_min = np.linalg.svd(stack, compute_uv=False)[:, -1]
    best = int(np.argmax(sigma_min))
    cos_best = float(np.clip(sigma_min[best], 0.0, 1.0))
    return math.acos(cos_best), subsets[best]


def sample_uniform(n, k, rng):
    sub = orthonormalize(rng.standard_normal((n, k)))
    if sub is None:
        raise ValueError("rank-deficient start")
    return sub


def perturb(sub, magnitude, rng):
    while True:
        bumped = sub.basis + magnitude * rng.standard_normal(sub.basis.shape)
        candidate = orthonormalize(bumped)
        if candidate is not None:
            return candidate


def optimize(sub, cfg, rng):
    angle, _ = target(sub)
    magnitude = cfg.init_magnitude
    for _ in range(cfg.max_steps):
        if magnitude < cfg.min_magnitude:
            break
        candidate = perturb(sub, magnitude, rng)
        candidate_angle, _ = target(candidate)
        if candidate_angle > angle:
            sub, angle = candidate, candidate_angle
        else:
            magnitude *= cfg.decay
    return sub


def accumulate(n, k, cfg):
    bound = 1.0 / math.sqrt(n)
    members = []
    budget = cfg.attempts
    restarts = 0
    while budget > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restarts,)))
        restarts += 1
        sub = optimize(sample_uniform(n, k, rng), cfg, rng)
        angle, subset = target(sub)
        score = math.cos(angle)
        if score < bound - cfg.eps:
            return SearchResult(list(members), ViolationReport(sub, score, subset),
                                restarts, cfg)
        if abs(score - bound) <= cfg.eps and not any(
                symmetry_equivalent(sub, member, cfg.dedup_tol)
                for member, _ in members):
            members.append((sub, score))
            budget = cfg.attempts
        else:
            budget -= 1
    return SearchResult(members, None, restarts, cfg)
