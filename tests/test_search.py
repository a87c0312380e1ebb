import math

import numpy as np
import pytest
from scipy import stats

import spextremal as sp
import spextremal.search as search_mod
from spextremal import numeric
from spextremal.numeric import Subspace, orthonormalize, principal_angles
from spextremal.search import (
    SearchConfig,
    _bump,
    _climb,
    accumulate,
    sample_uniform,
    symmetry_equivalent,
)

import serial_search
from exact_oracles import class_key


def rng_for(entropy, index=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy,
                                                        spawn_key=(index,)))


def bump_one(sub, magnitude, rng):
    """One walker's bump: _bump on a one-row stack."""
    basis = _bump(sub.basis[None], np.array([magnitude], dtype=float), [rng])[0]
    return Subspace(sub.ambient, sub.dim, basis)


def climb_one(sub, cfg, rng):
    """One walker's climb: _climb on a one-row stack."""
    return Subspace(sub.ambient, sub.dim, _climb(sub.basis[None], [rng], cfg)[0])


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
            moved = Subspace(4, 2, q @ s.basis)
            rotated.append(math.cos(sp.target(orthonormalize(moved.basis))[0]))
        assert abs(np.mean(plain) - np.mean(rotated)) < 0.02


class TestPerturb:
    def test_zero_magnitude_is_identity(self):
        rng = np.random.default_rng(3)
        s = sample_uniform(5, 2, rng)
        moved = bump_one(s, 0.0, rng)
        residual = moved.basis - s.basis @ (s.basis.T @ moved.basis)
        assert np.linalg.norm(residual, 2) <= 1e-12

    def test_output_orthonormal(self):
        rng = np.random.default_rng(4)
        s = sample_uniform(5, 2, rng)
        for mag in (1e-6, 0.1, 10.0):
            moved = bump_one(s, mag, rng)
            assert np.allclose(moved.basis.T @ moved.basis, np.eye(2), atol=1e-12)

    def test_displacement_grows_with_magnitude(self):
        rng = np.random.default_rng(6)
        s = sample_uniform(4, 2, rng)
        mags = np.geomspace(1e-4, 1.0, 12)
        angles = []
        for mag in mags:
            trial = [principal_angles(s, bump_one(s, mag, rng))[-1]
                     for _ in range(80)]
            angles.append(np.mean(trial))
        rho, _ = stats.spearmanr(mags, angles)
        assert rho > 0

    def test_rank_deficient_bump_is_drawn_again(self):
        # walker 0's first noise cancels its basis, so it alone draws again
        starts = [sample_uniform(4, 2, rng_for(20, i)) for i in range(2)]
        magnitudes = (1.0, 0.3)

        class Collapsing:
            def __init__(self, rng):
                self.rng, self.first = rng, True

            def standard_normal(self, shape):
                if self.first:
                    self.first = False
                    return -starts[0].basis
                return self.rng.standard_normal(shape)

        got = [Collapsing(rng_for(21, 0)), rng_for(21, 1)]
        want = [Collapsing(rng_for(21, 0)), rng_for(21, 1)]
        out = _bump(np.stack([s.basis for s in starts]), np.array(magnitudes), got)
        for i, magnitude in enumerate(magnitudes):
            ref = serial_search.perturb(starts[i], magnitude, want[i])
            assert out[i].tobytes() == ref.basis.tobytes()
        assert got[0].rng.bit_generator.state == want[0].rng.bit_generator.state
        assert got[1].bit_generator.state == want[1].bit_generator.state

    def test_candidate_stack_is_checked(self, monkeypatch):
        # bumps left un-orthonormalized must stop the climb
        monkeypatch.setattr(search_mod, "orthonormal_stack",
                            lambda mats: (mats, np.ones(len(mats), dtype=bool)))
        start = sample_uniform(4, 2, rng_for(22)).basis[None]
        with pytest.raises(ValueError, match="orthonormal"):
            _climb(start, [rng_for(23)], SearchConfig(max_steps=3))


class TestOptimize:
    def test_never_decreases_target(self):
        cfg = SearchConfig(seed=0, max_steps=300)
        for i in range(5):
            rng = rng_for(50, i)
            start = sample_uniform(4, 2, rng)
            before = sp.target(start)[0]
            after = sp.target(climb_one(start, cfg, rng))[0]
            assert after >= before

    def test_plane_line_converges(self):
        cfg = SearchConfig(seed=0)
        for i in range(5):
            rng = rng_for(51, i)
            final = climb_one(sample_uniform(2, 1, rng), cfg, rng)
            assert abs(math.cos(sp.target(final)[0]) - 1 / math.sqrt(2)) < 1e-6

    def test_matches_serial_oracle_bitwise(self):
        cfg = SearchConfig(seed=0)
        for n, k in ((4, 2), (5, 2)):
            for i in range(3):
                got_rng, want_rng = rng_for(52, i), rng_for(52, i)
                got = climb_one(sample_uniform(n, k, got_rng), cfg, got_rng)
                want = serial_search.optimize(
                    serial_search.sample_uniform(n, k, want_rng), cfg, want_rng)
                assert got.basis.tobytes() == want.basis.tobytes()
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_lockstep_walkers_retire_apart_and_match_serial(self):
        # fast decay: some walkers retire at min_magnitude, others at max_steps
        cfg = SearchConfig(decay=0.5, min_magnitude=1e-3, max_steps=12)

        class Counting:
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def standard_normal(self, shape):
                self.draws += 1
                return self.rng.standard_normal(shape)

        walkers = 16
        rngs = [Counting(rng_for(53, i)) for i in range(walkers)]
        starts = np.stack([sample_uniform(5, 2, r.rng).basis for r in rngs])
        finals = _climb(starts, rngs, cfg)
        steps = [r.draws for r in rngs]
        assert max(steps) == cfg.max_steps and min(steps) < cfg.max_steps
        for i in range(walkers):
            rng = rng_for(53, i)
            want = serial_search.optimize(serial_search.sample_uniform(5, 2, rng),
                                          cfg, rng)
            assert finals[i].tobytes() == want.basis.tobytes(), i


class TestSymmetryEquivalent:
    def test_permutation_and_signs(self):
        rng = np.random.default_rng(12)
        s = sample_uniform(5, 2, rng)
        perm = rng.permutation(5)
        signs = rng.choice([-1.0, 1.0], size=5)
        moved_basis = np.zeros_like(s.basis)
        for i in range(5):
            moved_basis[perm[i], :] = signs[i] * s.basis[i, :]
        moved = Subspace(5, 2, moved_basis)
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
        with pytest.raises(ValueError):
            SearchConfig(attempts=0)
        with pytest.raises(ValueError):
            SearchConfig(eps=2.0)
        with pytest.raises(ValueError):
            SearchConfig(decay=1.5)
        with pytest.raises(ValueError):
            SearchConfig(dedup_tol=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(dedup_tol=0.0)
        with pytest.raises(ValueError):
            SearchConfig(max_steps=-1)
        with pytest.raises(ValueError, match="min_magnitude must be positive"):
            SearchConfig(min_magnitude=0.0)
        with pytest.raises(ValueError, match="min_magnitude must be positive"):
            SearchConfig(min_magnitude=-1.0)
        for name in ("eps", "init_magnitude", "decay", "min_magnitude", "dedup_tol"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SearchConfig(**{name: value})
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SearchConfig(seed=-1)
        assert SearchConfig(max_steps=0).max_steps == 0

    def test_violation_is_a_distinguished_return(self, monkeypatch):
        # a score below the bound must stop the run and carry a report;
        # fabricate one since no real subspace has ever produced it
        import spextremal.search as search_mod

        def fake_target(sub):
            return math.acos(0.2), (0,)

        monkeypatch.setattr(search_mod, "target", fake_target)
        res = accumulate(3, 1, SearchConfig(seed=1, attempts=50, max_steps=5))
        assert res.violation is not None
        assert res.restarts == 1
        assert abs(res.violation.deviation_cos - 0.2) < 1e-12
        assert res.violation.subset == (0,)

    def test_batches_are_capped_and_change_no_bit(self, monkeypatch):
        # a batch launches at most STACK_SUBMATRICES // C(n, k) restarts, so
        # its memory does not grow with the budget; batching changes no bit
        cfg = SearchConfig(seed=7, attempts=10)
        whole = accumulate(3, 2, cfg)
        sizes = []
        climb = search_mod._climb

        def counting_climb(bases, rngs, cfg):
            sizes.append(len(bases))
            return climb(bases, rngs, cfg)

        monkeypatch.setattr(search_mod, "_climb", counting_climb)
        monkeypatch.setattr(numeric, "STACK_SUBMATRICES", 12)
        capped = accumulate(3, 2, cfg)
        assert max(sizes) == 12 // math.comb(3, 2) and len(sizes) > 2
        assert capped.restarts == whole.restarts and capped.violation is None
        assert len(capped.classes) == len(whole.classes) > 0
        for (a, score_a), (b, score_b) in zip(capped.classes, whole.classes):
            assert a.basis.tobytes() == b.basis.tobytes()
            assert score_a.hex() == score_b.hex()

    @pytest.mark.parametrize("n, k, seed", [(2, 1, 7), (3, 2, 7), (4, 2, 7), (5, 2, 1)])
    def test_matches_serial_oracle(self, n, k, seed):
        cfg = SearchConfig(seed=seed, attempts=40)
        got = accumulate(n, k, cfg)
        want = serial_search.accumulate(n, k, cfg)
        assert got.violation is None and want.violation is None
        assert got.restarts == want.restarts
        assert len(got.classes) == len(want.classes)
        for (a, score_a), (b, score_b) in zip(got.classes, want.classes):
            assert a.basis.tobytes() == b.basis.tobytes()
            assert score_a.hex() == score_b.hex()
