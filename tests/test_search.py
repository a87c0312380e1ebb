import itertools
import math
import os

import numpy as np
import pytest

import spextremal as sp
import spextremal.search as search_mod
from spextremal.numeric import (
    Subspace,
    coordinate_subsets,
    orthonormalize,
    principal_angles,
)
from spextremal.search import (
    SearchConfig,
    _climb,
    _least_eigenprojectors,
    _retract,
    _schedule,
    _tangent,
    accumulate,
    sample_uniform,
    symmetry_equivalent,
)
from spextremal.workers import WorkerError

from exact_oracles import class_key
from forking import affinity, assert_no_child_left


def rng_for(entropy, index=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy,
                                                        spawn_key=(index,)))


class TestSampleUniform:
    def test_orthonormal_output(self):
        rng = rng_for(1)
        for _ in range(50):
            s = sample_uniform(6, 3, rng)
            assert np.allclose(s.basis.T @ s.basis, np.eye(3), atol=1e-12)

    def test_seed_determinism_bitwise(self):
        a = sample_uniform(5, 2, np.random.default_rng(123))
        b = sample_uniform(5, 2, np.random.default_rng(123))
        assert a.basis.tobytes() == b.basis.tobytes()

    def test_uniform_line_second_moment(self):
        # cos^2 of the angle between a uniform line in the plane and the
        # first axis averages 1/2
        rng = np.random.default_rng(77)
        m = rng.standard_normal((100_000, 2))
        cos2 = m[:, 0] ** 2 / (m ** 2).sum(axis=1)
        assert abs(cos2.mean() - 0.5) < 0.02

    def test_rotation_invariance_of_scores(self):
        # the deviation score of rotated samples matches in distribution
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        plain, rotated = [], []
        for i in range(400):
            s = sample_uniform(4, 2, rng_for(1000, i))
            plain.append(math.cos(sp.target(s)[0]))
            moved = Subspace(q @ s.basis)
            rotated.append(math.cos(sp.target(orthonormalize(moved.basis))[0]))
        assert abs(np.mean(plain) - np.mean(rotated)) < 0.02


def tangent_stack(bases, rng):
    """One random unit tangent direction per basis of an (R, n, k) stack."""
    g = rng.standard_normal(bases.shape)
    xi = g - bases @ (np.swapaxes(bases, 1, 2) @ g)
    return xi / np.linalg.norm(xi, axis=(1, 2), keepdims=True)


def membership(n, k):
    """The one-hot (C(n, k), n) matrix of the coordinate k-subsets, and
    below it the all-ones row that gathers U^T U."""
    _, index = coordinate_subsets(n, k)
    member = np.zeros((len(index) + 1, n))
    for row, subset in zip(member, index):
        row[subset] = 1.0
    member[-1] = 1.0
    return member


def svd_tangent(bases, index, beta):
    """The climber's step by one SVD of each coordinate submatrix: the
    gradient of sigma_min(U[S, :]) is u_S v_S^T, with u_S and v_S its
    singular vectors.  Returns each subset's sigma_min and the gap to the
    next singular value, each walker's top sigma_min, and the unit
    tangent of the softmax-weighted gradient."""
    u, s, vh = np.linalg.svd(bases[:, index, :])
    sigma = s[..., -1]
    gap = s[..., -2] - sigma
    top = sigma.max(axis=1)
    p = np.exp(beta * (sigma - top[:, None]))
    grad = np.zeros(bases.shape)
    for c, subset in enumerate(index):
        grad[:, subset, :] += p[:, c, None, None] * u[:, c, :, -1:] * vh[:, c, -1:, :]
    xi = grad - bases @ (np.swapaxes(bases, 1, 2) @ grad)
    xi /= np.linalg.norm(xi, axis=(1, 2), keepdims=True)
    return sigma, gap, top, xi


def qr_retract(bases, xi, eta):
    """The retraction by one batched LAPACK QR: the Q factor of U - eta xi
    for every basis of the stack."""
    return np.linalg.qr(bases - eta * xi)[0]


def brute_symmetry_equivalent(a, b, tol):
    """The oracle: every signed coordinate permutation of a, the first sign
    +1 since a global sign moves no subspace, accepted when some moved
    basis lies within tol (largest principal angle) of b."""
    n = a.ambient
    perms = np.array(list(itertools.permutations(range(n))))
    signs = np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=n - 1)])
    moved = signs[None, :, :, None] * a.basis[perms][:, None]
    s = np.linalg.svd(np.swapaxes(moved, -1, -2) @ b.basis, compute_uv=False)
    return bool((np.arccos(np.clip(s[..., -1], 0.0, 1.0)) <= tol).any())


def moved_copy(sub, rng, angle=0.0):
    """sub under a random signed coordinate permutation and a random
    rotation of its basis, with its first basis vector then turned by angle
    toward a random unit vector orthogonal to the subspace: the largest
    principal angle to the moved sub is exactly angle."""
    n, k = sub.ambient, sub.dim
    basis = np.empty_like(sub.basis)
    basis[rng.permutation(n)] = rng.choice([-1.0, 1.0], size=(n, 1)) * sub.basis
    basis = basis @ np.linalg.qr(rng.standard_normal((k, k)))[0]
    if angle:
        w = rng.standard_normal(n)
        w -= basis @ (basis.T @ w)
        basis[:, 0] = math.cos(angle) * basis[:, 0] + math.sin(angle) * w / np.linalg.norm(w)
    return Subspace(basis)


def climb(starts, steps):
    """_climb over a schedule of `steps` steps in place of STEPS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "STEPS", steps)
        return _climb(starts)


def serial_accumulate(n, k, cfg):
    """One restart at a time, each climbed alone: the rule accumulate batches."""
    bound = 1.0 / math.sqrt(n)
    members, budget, restarts = [], cfg.attempts, 0
    while budget > 0:
        start = sample_uniform(n, k, rng_for(cfg.seed, restarts)).basis
        sub = Subspace(_climb(start[None])[0])
        restarts += 1
        score = math.cos(sp.target(sub)[0])
        assert score >= bound - search_mod.EPS
        if abs(score - bound) <= search_mod.EPS and not any(
                symmetry_equivalent(sub, member, search_mod.DEDUP_TOL)
                for member, _ in members):
            members.append((sub, score))
            budget = cfg.attempts
        else:
            budget -= 1
    return members, restarts


class TestPerturb:
    """The climber's step: a move along a unit tangent, retracted."""

    def test_zero_magnitude_is_identity(self):
        starts = np.stack([sample_uniform(5, 2, rng_for(3, i)).basis for i in range(4)])
        moved = _retract(starts, tangent_stack(starts, rng_for(3, 99)), 0.0)
        residual = moved - starts @ (np.swapaxes(starts, 1, 2) @ moved)
        assert np.abs(residual).max() <= 1e-12

    def test_output_orthonormal(self):
        starts = np.stack([sample_uniform(5, 2, rng_for(4, i)).basis for i in range(4)])
        xi = tangent_stack(starts, rng_for(4, 99))
        for mag in (1e-6, 0.1, 10.0):
            moved = _retract(starts, xi, mag)
            gram = np.swapaxes(moved, 1, 2) @ moved
            assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_displacement_grows_with_magnitude(self):
        # a step of eta along a tangent xi turns the subspace by
        # arctan(eta * sigma_max(xi)) at most
        start = sample_uniform(4, 2, rng_for(6)).basis[None]
        xi = tangent_stack(start, rng_for(6, 1))
        sigma = np.linalg.svd(xi[0], compute_uv=False)[0]
        mags = np.geomspace(1e-2, 1.0, 12)
        angles = [principal_angles(Subspace(start[0]),
                                   Subspace(_retract(start, xi, mag)[0]))[-1]
                  for mag in mags]
        assert (np.diff(angles) > 0).all()
        assert np.allclose(angles, np.arctan(mags * sigma), atol=1e-7)

    @pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 3)])
    def test_candidate_stack_is_checked(self, monkeypatch, n, k):
        # a retraction whose result is not orthonormal must stop the climb,
        # at k = 1, at the closed-form k = 2 and at an eigh k
        monkeypatch.setattr(search_mod, "_retract", lambda bases, xi, eta: bases - eta * xi)
        start = sample_uniform(n, k, rng_for(22)).basis[None]
        with pytest.raises(ValueError, match="orthonormal"):
            climb(start, 3)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_qr_oracle(self, n):
        # Gram-Schmidt spans what LAPACK's Q factor spans, with orthonormal
        # columns, at every k < n and step sizes from 0 to 10
        for k in range(1, n):
            starts = np.stack([sample_uniform(n, k, rng_for(23, 100 * n + k + i)).basis
                               for i in range(4)])
            xi = tangent_stack(starts, rng_for(24, 100 * n + k))
            for eta in (0.0, 1e-6, 0.05, 10.0):
                got = _retract(starts, xi, eta)
                want = qr_retract(starts, xi, eta)
                gram = np.swapaxes(got, 1, 2) @ got
                assert np.abs(gram - np.eye(k)).max() <= 1e-12
                projector = got @ np.swapaxes(got, 1, 2)
                want_projector = want @ np.swapaxes(want, 1, 2)
                assert np.abs(projector - want_projector).max() <= 1e-13


class TestTangent:
    """The Gram-eigen step against the SVD step it replaced."""

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (6, 3), (8, 4)])
    def test_matches_svd_oracle(self, n, k):
        starts = np.stack([sample_uniform(n, k, rng_for(60 + n, i)).basis
                           for i in range(8)])
        # climbed bases too, where several subsets tie near the top
        bases = np.concatenate([starts, climb(starts, 100)])
        _, index = coordinate_subsets(n, k)
        member = membership(n, k)
        for beta in (20.0, 1e3):
            sigma, gap, top, xi = svd_tangent(bases, index, beta)
            got_top, got_xi = _tangent(bases, member, beta)
            assert np.abs(got_top - top).max() <= 1e-12
            # where every subset's gradient is well defined, so is the sum
            sound = ((sigma > 1e-3) & (gap > 1e-3)).all(axis=1)
            assert sound.sum() >= len(bases) // 2
            assert np.abs(got_xi - xi)[sound].max() <= 1e-9
            # each subset alone: its sigma and its gradient's unit tangent
            for c in range(len(index)):
                one_sigma, one_xi = _tangent(bases, member[[c, -1]], beta)
                _, _, _, want_xi = svd_tangent(bases, index[c:c + 1], beta)
                live = sigma[:, c] > 1e-3
                assert np.abs(one_sigma - sigma[:, c])[live].max() <= 1e-12
                live &= gap[:, c] > 1e-3
                assert np.abs(one_xi - want_xi)[live].max() <= 1e-9

    def test_singular_subsets_carry_no_weight(self):
        # every non-tree coordinate submatrix of a star space is singular:
        # its term is dropped, and the tangent stays finite and unit
        basis = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))")).subspace.basis[None]
        n, k = basis.shape[1:]
        top, xi = _tangent(basis, membership(n, k), 1e3)
        assert abs(top[0] - math.cos(sp.target(Subspace(basis[0]))[0])) <= 1e-12
        assert np.isfinite(xi).all()
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-12


class TestLeastEigenprojectors:
    """The closed-form 2-by-2 eigenprojector against LAPACK's eigh."""

    # (a, b, c) of [[a, b], [b, c]]: h = (a - c)/2 positive and negative,
    # also with |b| far below |h|, where r - h cancels; diagonal with a > c
    # and with a < c, h = 0 with b != 0, equal eigenvalues, rank 1 and zero
    CRAFTED = [(3.0, 1.0, 1.0), (1.0, 0.5, 3.0), (0.9, -0.7, 0.2),
               (0.2, -0.7, 0.9), (2.0, 1e-7, 1.0), (1.0, 1e-7, 2.0),
               (2.0, 0.0, 1.0), (1.0, 0.0, 2.0),
               (0.5, 0.3, 0.5), (1.5, 0.0, 1.5), (0.36, 0.48, 0.64),
               (0.64, -0.48, 0.36), (1e-20, 0.0, 1.0), (0.0, 0.0, 0.0)]

    # G = aI, the zero matrix and rank 1, where the eigenvalues tie or one
    # of them is 0
    DEGENERATE = [(1.0, 0.0, 1.0), (1.5, 0.0, 1.5), (1e-300, 0.0, 1e-300),
                  (0.0, 0.0, 0.0), (0.36, 0.48, 0.64), (0.64, -0.48, 0.36),
                  (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.5)]

    def grams(self):
        crafted = np.array([[[a, b], [b, c]] for a, b, c in self.CRAFTED])
        # and the coordinate Gram matrices of climbed (5,2) bases
        starts = np.stack([sample_uniform(5, 2, rng_for(70, i)).basis
                           for i in range(8)])
        bases = climb(starts, 100)
        _, index = coordinate_subsets(5, 2)
        sub = bases[:, index, :]
        return np.concatenate([crafted, (np.swapaxes(sub, -1, -2) @ sub).reshape(-1, 2, 2)])

    def test_matches_eigh(self):
        grams = self.grams()
        lam, left, right = _least_eigenprojectors(grams)
        proj = left * right
        want_lam, want_vec = np.linalg.eigh(grams)
        assert np.abs(lam - want_lam[:, 0]).max() <= 1e-15
        # the projector is unique where the eigenvalues differ
        apart = want_lam[:, 1] - want_lam[:, 0] > 1e-12
        assert apart.sum() >= len(grams) - 2
        want = want_vec[..., :, :1] * want_vec[..., None, :, 0]
        assert np.abs(proj - want)[apart].max() <= 1e-12

    def test_degenerate_is_a_rank_one_eigenprojector(self):
        grams = np.array([[[a, b], [b, c]] for a, b, c in self.DEGENERATE])
        lam, left, right = _least_eigenprojectors(grams)
        proj = left * right
        assert np.isfinite(proj).all()
        assert np.array_equal(proj, np.swapaxes(proj, 1, 2))
        assert np.abs(proj @ proj - proj).max() <= 1e-15
        assert np.abs(np.trace(proj, axis1=1, axis2=2) - 1.0).max() <= 1e-15
        assert np.abs(grams @ proj - lam[:, None, None] * proj).max() <= 1e-15
        assert np.abs(lam - np.linalg.eigvalsh(grams)[:, 0]).max() <= 1e-15
        # at G = aI, any unit vector is an eigenvector, and e1 is taken
        for gram, p in zip(grams, proj):
            if gram[0, 1] == 0.0 and gram[0, 0] == gram[1, 1]:
                assert np.array_equal(p, [[1.0, 0.0], [0.0, 0.0]])

    def test_other_sizes_take_eigh(self):
        # eigh's eigenvector as a column and a row: a weight times them
        # rounds as (s v_i) v_j
        rng = rng_for(71)
        for k in (1, 3, 4):
            m = rng.standard_normal((6, k, k))
            grams = m @ np.swapaxes(m, 1, 2)
            scale = rng.random(6)
            lam, left, right = _least_eigenprojectors(grams)
            want_lam, want_vec = np.linalg.eigh(grams)
            v = want_vec[..., 0]
            assert lam.tobytes() == want_lam[:, 0].tobytes()
            weights = scale[:, None, None] * left * right
            want = scale[:, None, None] * v[..., :, None] * v[..., None, :]
            assert weights.tobytes() == want.tobytes()


class TestOptimize:
    def test_output_orthonormal(self):
        starts = np.stack([sample_uniform(5, 2, rng_for(40, i)).basis for i in range(8)])
        for steps in (1, 10, 200):
            out = climb(starts, steps)
            assert out.shape == starts.shape
            gram = np.swapaxes(out, 1, 2) @ out
            assert np.abs(gram - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 500])
    def test_schedule_matches_geomspace(self, steps):
        got = np.array([_schedule(step, steps) for step in range(steps)])
        want = np.stack([np.geomspace(20.0, 1e6, steps),
                         np.geomspace(0.05, 1e-5, steps)], axis=1)
        assert np.abs(got / want - 1.0).max() <= 1e-14
        # both ends exactly, as geomspace gives them
        assert got[0].tolist() == [20.0, 0.05]
        assert got[-1].tolist() == ([20.0, 0.05] if steps == 1 else [1e6, 1e-5])

    def test_schedule_of_a_huge_budget_is_finite(self):
        # each step's values come alone, so no schedule of 10**20 steps is
        # held in memory; only its ends are evaluated here
        steps = 10 ** 20
        assert _schedule(0, steps) == (20.0, 0.05)
        assert _schedule(steps - 1, steps) == (1e6, 1e-5)

    def test_zero_steps_returns_the_starts(self):
        starts = np.stack([sample_uniform(4, 2, rng_for(41, i)).basis for i in range(5)])
        out = climb(starts, 0)
        assert out.tobytes() == starts.tobytes()

    def test_never_decreases_target(self):
        # the climb returns each walker's best iterate, the start among them
        starts = np.stack([sample_uniform(5, 2, rng_for(50, i)).basis for i in range(40)])
        for steps in (1, 5, 500):
            out = climb(starts, steps)
            for start, end in zip(starts, out):
                assert sp.target(Subspace(end))[0] >= sp.target(Subspace(start))[0]

    def test_plane_line_converges(self):
        starts = np.stack([sample_uniform(2, 1, rng_for(51, i)).basis for i in range(5)])
        for basis in _climb(starts):
            final = Subspace(basis)
            assert abs(math.cos(sp.target(final)[0]) - 1 / math.sqrt(2)) < 1e-6

    def test_matches_serial_oracle_bitwise(self):
        # a walker's path does not depend on the walkers beside it: the
        # stacked climb equals each walker climbed alone
        for n, k in ((2, 1), (4, 2), (5, 2), (6, 3), (8, 4), (12, 2), (9, 4)):
            starts = np.stack([sample_uniform(n, k, rng_for(52, i)).basis
                               for i in range(6)])
            together = climb(starts, 50)
            for i in range(len(starts)):
                alone = climb(starts[i:i + 1], 50)[0]
                assert together[i].tobytes() == alone.tobytes()


class TestSymmetryEquivalent:
    def test_permutation_and_signs(self):
        rng = np.random.default_rng(12)
        s = sample_uniform(5, 2, rng)
        perm = rng.permutation(5)
        signs = rng.choice([-1.0, 1.0], size=5)
        moved_basis = np.zeros_like(s.basis)
        for i in range(5):
            moved_basis[perm[i], :] = signs[i] * s.basis[i, :]
        moved = Subspace(moved_basis)
        assert symmetry_equivalent(s, moved, 1e-8)

    def test_distinct_classes_are_inequivalent(self):
        reps = [sp.build(t).subspace for t in sp.enumerate_rooted(5, 2)]
        keys = {}
        for t in sp.enumerate_rooted(5, 2):
            inst = sp.build(t)
            keys.setdefault(class_key(t), inst.subspace)
        a, b = list(keys.values())[:2]
        assert not symmetry_equivalent(a, b, 1e-3)
        assert len(reps) >= 2


    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_brute_force_oracle(self, n):
        # constructive pairs, each moved by a signed permutation and a
        # rotation; random pairs; and near-threshold pairs, a moved copy
        # turned by 0.5 tol to 2 tol, so both verdicts occur among them
        rng, tol = rng_for(20, n), 1e-3
        pairs, near = [], []
        for k in range(1, n):
            built = [sp.build(t).subspace for t in sp.enumerate_rooted(n, k)]
            pairs += [(a, moved_copy(b, rng)) for a in built for b in built]
            randoms = [sample_uniform(n, k, rng) for _ in range(6)]
            pairs += list(zip(randoms, randoms[1:]))
            near += [(a, moved_copy(a, rng, rng.uniform(0.5, 2.0) * tol))
                     for a in built + randoms for _ in range(3)]
        got = [symmetry_equivalent(a, b, tol) for a, b in pairs + near]
        assert got == [brute_symmetry_equivalent(a, b, tol) for a, b in pairs + near]
        assert 0 < sum(got[len(pairs):]) < len(near)


class TestAccumulate:
    def test_two_one_single_class(self):
        res = accumulate(2, 1, SearchConfig(seed=7, attempts=40))
        assert res.violation is None
        assert len(res.classes) == 1

    def test_three_two_single_class_matches_construction(self):
        res = accumulate(3, 2, SearchConfig(seed=7, attempts=40))
        assert res.violation is None
        assert len(res.classes) == 1
        constructive = sp.build(sp.parse_tree("P(e,S(e,e))")).subspace
        member, _ = res.classes[0]
        assert symmetry_equivalent(member, constructive, 1e-3)

    def test_deterministic_repeat(self):
        cfg = SearchConfig(seed=11, attempts=25)
        a = accumulate(2, 1, cfg)
        b = accumulate(2, 1, cfg)
        assert len(a.classes) == len(b.classes)
        for (ma, _), (mb, _) in zip(a.classes, b.classes):
            assert ma.basis.tobytes() == mb.basis.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="attempts must be at least 1"):
            SearchConfig(attempts=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SearchConfig(seed=-1)

    def test_violation_is_a_distinguished_return(self, monkeypatch):
        # a score below the bound must stop the run and carry a report;
        # fabricate one since no real subspace has ever produced it; it
        # comes from the caller's own batch, and the workers climbing the
        # next ones are killed and reaped
        def fake_target(sub):
            return math.acos(0.2), (0,)

        monkeypatch.setattr(search_mod, "target", fake_target)
        monkeypatch.setattr(search_mod, "STEPS", 5)
        for cpus in (1, 3):
            affinity(monkeypatch, cpus)
            res = accumulate(3, 1, SearchConfig(seed=1, attempts=50))
            assert res.violation is not None
            assert res.restarts == 1
            assert abs(res.violation.deviation_cos - 0.2) < 1e-12
            assert res.violation.subset == (0,)
            assert_no_child_left()

    def test_batches_are_capped_and_change_no_bit(self, monkeypatch):
        # a batch launches at most STACK_SUBMATRICES // C(n, k) restarts, so
        # its memory does not grow with the budget; batching changes no bit,
        # on one CPU, where every climb runs in this process, or on two
        cfg = SearchConfig(seed=7, attempts=10)
        affinity(monkeypatch, 1)
        whole = accumulate(3, 2, cfg)
        sizes = []

        def counting_climb(bases):
            sizes.append(len(bases))
            return _climb(bases)

        monkeypatch.setattr(search_mod, "_climb", counting_climb)
        monkeypatch.setattr(search_mod, "STACK_SUBMATRICES", 12)
        capped = accumulate(3, 2, cfg)
        assert max(sizes) == 12 // math.comb(3, 2) and len(sizes) > 2
        affinity(monkeypatch, 2)
        for got in (capped, accumulate(3, 2, cfg)):
            assert got.restarts == whole.restarts and got.violation is None
            assert len(got.classes) == len(whole.classes) > 0
            for (a, score_a), (b, score_b) in zip(got.classes, whole.classes):
                assert a.basis.tobytes() == b.basis.tobytes()
                assert score_a.hex() == score_b.hex()
        assert_no_child_left()

    @pytest.mark.parametrize("n, k, seed", [(2, 1, 7), (3, 2, 7), (4, 2, 7), (5, 2, 1)])
    def test_matches_serial_oracle(self, monkeypatch, n, k, seed):
        # the same restarts, classes and bits whatever the number of CPUs
        cfg = SearchConfig(seed=seed, attempts=40)
        want, restarts = serial_accumulate(n, k, cfg)
        for cpus in (1, 2, 3):
            affinity(monkeypatch, cpus)
            got = accumulate(n, k, cfg)
            assert got.violation is None
            assert got.restarts == restarts
            assert len(got.classes) == len(want)
            for (a, score_a), (b, score_b) in zip(got.classes, want):
                assert a.basis.tobytes() == b.basis.tobytes()
                assert score_a.hex() == score_b.hex()
            assert_no_child_left()

    def test_worker_without_a_result(self, monkeypatch):
        # (5,2) seed 1 needs 42 restarts, so it takes the worker's batch
        # after its own first 40
        parent = os.getpid()

        def climb(bases):
            if os.getpid() != parent:
                os._exit(9)
            return _climb(bases)

        monkeypatch.setattr(search_mod, "_climb", climb)
        affinity(monkeypatch, 2)
        with pytest.raises(WorkerError, match=r"^a worker ended without a result \(exit status 9\)$"):
            accumulate(5, 2, SearchConfig(seed=1, attempts=40))
        assert_no_child_left()

    @pytest.mark.parametrize("seed", [2, 10, 12])
    def test_each_class_once_at_eight_two(self, seed):
        # on these seeds a climb ends about 2e-3 from its class, within eps
        # of the bound: it must join its class, not count as a sixth
        res = accumulate(8, 2, SearchConfig(seed=seed, attempts=40))
        assert res.violation is None
        assert len(res.classes) == sp.count_classes(8, 2) == 5
        constructive = [sp.build(t).subspace for t in sp.enumerate_rooted(8, 2)]
        for member, _ in res.classes:
            assert any(symmetry_equivalent(member, c, 1e-3) for c in constructive)

    @pytest.mark.long
    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_class_at_n_two(self, n):
        # the README's claim: at (n,2), n <= 8, every class and no violation
        # on each of seeds 0-15 with 40 fruitless restarts
        for seed in range(16):
            res = accumulate(n, 2, SearchConfig(seed=seed, attempts=40))
            assert res.violation is None
            assert len(res.classes) == sp.count_classes(n, 2), seed

    @pytest.mark.parametrize("n, k, attempts, least", [
        (6, 3, 40, 4),
        pytest.param(7, 3, 40, 8, marks=pytest.mark.long),
        pytest.param(8, 4, 20, 10, marks=pytest.mark.long),
    ])
    def test_reaches_the_bound_past_five(self, n, k, attempts, least):
        # every class found is a constructive one, and at (6,3) and (7,3)
        # all of them are found
        res = accumulate(n, k, SearchConfig(seed=1, attempts=attempts))
        assert res.violation is None
        assert least <= len(res.classes) <= sp.count_classes(n, k)
        constructive = [sp.build(t).subspace for t in sp.enumerate_rooted(n, k)]
        for member, _ in res.classes:
            assert any(symmetry_equivalent(member, c, 1e-3) for c in constructive)
