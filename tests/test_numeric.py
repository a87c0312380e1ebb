import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

import spextremal as sp
from spextremal import numeric
from spextremal.numeric import (
    RankDeficientError,
    SingularMatrixError,
    Subspace,
    laplacian,
    orthonormalize,
    principal_angles,
    require_orthonormal_gram,
    transfer_current,
)
from spextremal.sptree import MultiGraph

from exact_oracles import (
    bareiss,
    fraction_projection,
    fraction_y,
    orient,
    rational_det,
    rational_matrix,
    transfer_current_combinatorial,
    tree_sums,
)


def exact_equal(a, b):
    return a.shape == b.shape and bool((a == b).all())


def subspace_gap(a, b):
    """Largest sine of the principal angles; resolves tiny angles where the
    arccos route bottoms out at sqrt(machine epsilon)."""
    residual = b.basis - a.basis @ (a.basis.T @ b.basis)
    return np.linalg.norm(residual, 2)


def unit_weights(n):
    return {e: Fraction(1) for e in range(n)}


def leibniz_det(a):
    """Permutation-expansion determinant, the oracle for both eliminations."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


def random_int_matrices(seed, count):
    """Square integer matrices up to 5x5; every third one has its last row a
    multiple of its first, which makes it singular when it has two rows."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if i % 3 == 0:
            c = rng.randint(-2, 2)
            a[-1] = [c * x for x in a[0]]
        yield a


def identity(n):
    return rational_matrix([[int(i == j) for j in range(n)] for i in range(n)])


class TestBareiss:
    def test_det_matches_leibniz(self):
        for a in random_int_matrices(11, 300):
            det, adj = bareiss(a)
            assert det == leibniz_det(a)
            assert (adj is None) == (det == 0)

    def test_adjugate_identity(self):
        nonsingular = 0
        for a in random_int_matrices(13, 300):
            det, adj = bareiss(a)
            if det == 0:
                continue
            nonsingular += 1
            A = np.array(a, dtype=object)
            adj = np.array(adj, dtype=object)
            scaled_identity = identity(len(a)) * det
            assert exact_equal(A.dot(adj), scaled_identity)
            assert exact_equal(adj.dot(A), scaled_identity)
        assert nonsingular > 100


class TestRationalCore:
    def test_inverse_round_trip(self):
        # with D clearing the row denominators of a, the inverse of a is
        # adj(D a) D / det(D a)
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = rational_matrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                  for _ in range(n)] for _ in range(n)])
            assert rational_det(a) == leibniz_det(a.tolist())
            scales = [math.lcm(*(x.denominator for x in row)) for row in a]
            det, adj = bareiss([[int(x * s) for x in row] for row, s in zip(a, scales)])
            if det == 0:
                continue
            inv = np.array(adj, dtype=object).dot(np.diag(scales).astype(object))
            assert exact_equal(a.dot(inv) * Fraction(1, det), identity(n))

    def test_det_of_singular(self):
        a = rational_matrix([[1, 2], [2, 4]])
        assert rational_det(a) == 0

    def test_rank(self):
        # rank 2 of 3: singular for the exact determinant and for bareiss
        a = rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rational_det(a) == 0
        assert bareiss([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == (0, None)


class TestFixedWidth:
    def test_bit_length_is_exact(self):
        # every magnitude is below 2**bit_length, at the int64 extremes too
        low = np.iinfo(np.int64).min
        assert numeric.bit_length(np.array([low, 3])) == 64
        assert numeric.bit_length(np.array([-(2**62), 2**62 - 1])) == 63
        assert numeric.bit_length(np.array([[0, -1], [1, 0]])) == 1
        assert numeric.bit_length(np.array([-(2**70), 5], dtype=object)) == 71
        assert numeric.bit_length(np.zeros((2, 2), dtype=np.int64)) == 0
        assert numeric.bit_length(-(2**80)) == 81

    def test_int64_exactly_while_terms_times_two_to_the_bits_fit(self):
        # sums of t products below 2**b stay below t 2**b: int64 up to
        # t 2**b = 2**63 and Python ints one bit past it, whatever t is
        x = np.array([[1, -2], [3, 4]], dtype=object)
        for terms in (1, 2, 3, 7, 8, 9, 64, 144):
            bits = 63 - (terms - 1).bit_length()
            fit, = numeric.fixed_width([x], bits, terms)
            past, = numeric.fixed_width([x], bits + 1, terms)
            assert fit.dtype == np.int64 and exact_equal(fit, x)
            assert past.dtype == object and exact_equal(past, x)
            assert all(type(v) is int for v in past.flat)

    def test_sums_at_the_budget_do_not_wrap(self):
        # every entry at its largest magnitude, every product of one sign:
        # the int64 sum of the most terms the budget admits is exact
        for terms in (1, 2, 3, 8, 144):
            bits = 63 - (terms - 1).bit_length()
            left, right = bits // 2, bits - bits // 2
            a = np.full((1, terms), -(2**left - 1), dtype=object)
            b = np.full((terms, 1), 2**right - 1, dtype=object)
            a64, b64 = numeric.fixed_width((a, b), left + right, terms)
            assert a64.dtype == b64.dtype == np.int64
            exact = -terms * (2**left - 1) * (2**right - 1)
            assert int(a64.dot(b64)[0, 0]) == a.dot(b)[0, 0] == exact


class TestPositiveDefinite:
    """numeric.bareiss, which takes no pivots, returns None exactly when a
    symmetric matrix is not positive definite, and otherwise the pivoting
    oracle's determinant and adjugate."""

    def test_matches_leading_minors_and_spectrum(self):
        # G^T G shifted by a multiple of I: definite, semidefinite and
        # indefinite matrices, decided by the Leibniz leading minors
        rng = random.Random(13)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            shift = rng.randint(-4, 4)
            a = [[sum(g[r][i] * g[r][j] for r in range(n)) + shift * (i == j)
                  for j in range(n)] for i in range(n)]
            want = all(leibniz_det([row[:m] for row in a[:m]]) > 0
                       for m in range(1, n + 1))
            got = numeric.bareiss(a)
            assert (got is not None) == want
            if want:
                assert got == bareiss(a)
            least = np.linalg.eigvalsh(np.array(a, dtype=float))[0]
            if abs(least) > 1e-9:
                assert want == (least > 0)
            seen.add(want)
        assert seen == {True, False}

    def test_small_cases(self):
        assert numeric.bareiss([]) == (1, [])
        # a zero first pivot ends the elimination before it divides by it
        assert numeric.bareiss([[0, 1], [1, 1]]) is None
        assert numeric.bareiss([[1, 2], [2, 1]]) is None
        assert numeric.bareiss([[2, -1], [-1, 2]]) == (3, [[2, 1], [1, 2]])
        big = 10 ** 40
        assert numeric.bareiss([[big, big - 1], [big - 1, big]]) is not None
        assert numeric.bareiss([[big, big + 1], [big + 1, big]]) is None


class TestIncidence:
    def test_single_edge_column(self):
        g = MultiGraph(2, ((0, 1, 0),), (0, 1))
        B = sp.incidence_matrix(g)
        assert list(B[:, 0]) == [Fraction(-1), Fraction(1)]

    def test_column_sums_zero(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,P(e,e)))"))
        B = sp.incidence_matrix(g)
        assert all(sum(B[:, e]) == 0 for e in range(B.shape[1]))

    def test_rank_is_vertices_minus_one(self):
        for n in range(2, 8):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    # B has full row rank once a vertex is dropped exactly
                    # when the reduced unit-weight Laplacian is nonsingular
                    L = laplacian(sp.incidence_matrix(g), unit_weights(n))
                    assert rational_det(L[1:, 1:]) != 0

    def test_loop_is_a_zero_column(self):
        # a loop, inserted at any edge id and hung at any vertex, leaves the
        # Laplacian as it is and adds a zero row and column to Y
        looped = MultiGraph(2, ((0, 1, 0), (1, 0, 1), (1, 1, 2)), (0, 1))
        assert not sp.incidence_matrix(looped)[:, 2].any()
        L = laplacian(sp.incidence_matrix(looped), unit_weights(3))
        assert exact_equal(L, rational_matrix([[2, -2], [-2, 2]]))
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g, w = sp.realize(t), sp.induced_weights(t)
                    B = sp.incidence_matrix(g)
                    Y = fraction_y(*transfer_current(B, w))
                    for v in range(g.num_vertices):
                        at = v % (n + 1)
                        edges = [(a, b, e + (e >= at)) for a, b, e in g.edges]
                        edges.insert(at, (v, v, at))
                        loop = MultiGraph(g.num_vertices, tuple(edges), g.terminals)
                        w_loop = {e + (e >= at): x for e, x in w.items()}
                        w_loop[at] = Fraction(3, 7)
                        B_loop = sp.incidence_matrix(loop)
                        assert exact_equal(B_loop, np.insert(B, at, 0, axis=1))
                        assert exact_equal(laplacian(B_loop, w_loop), laplacian(B, w))
                        Y_loop = fraction_y(*transfer_current(B_loop, w_loop))
                        padded = np.insert(np.insert(Y, at, 0, axis=0), at, 0, axis=1)
                        assert exact_equal(Y_loop, padded), (sp.format_tree(t), v)


class TestLaplacian:
    def test_single_unit_edge(self):
        g = MultiGraph(2, ((0, 1, 0),), (0, 1))
        L = laplacian(sp.incidence_matrix(g), unit_weights(1))
        assert exact_equal(L, rational_matrix([[1, -1], [-1, 1]]))

    def test_banana_scales(self):
        n = 5
        t = sp.parse_tree("P(e,e,e,e,e)")
        L = laplacian(sp.incidence_matrix(sp.realize(t)), unit_weights(n))
        assert exact_equal(L, rational_matrix([[n, -n], [-n, n]]))

    def test_triangle_pattern(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,e))"))
        L = laplacian(sp.incidence_matrix(g), unit_weights(3))
        assert exact_equal(L, rational_matrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))


class TestTransferCurrent:
    def test_banana_two(self):
        t = sp.parse_tree("P(e,e)")
        g = sp.realize(t)
        Y = fraction_y(*transfer_current(sp.incidence_matrix(g), unit_weights(2)))
        half = Fraction(1, 2)
        assert exact_equal(Y, rational_matrix([[half, half], [half, half]]))

    def test_triangle_consistent_orientation(self):
        t = sp.parse_tree("P(e,S(e,e))")
        g = sp.realize(orient(t, [False, True, True]))
        Y = fraction_y(*transfer_current(sp.incidence_matrix(g), unit_weights(3)))
        third = Fraction(1, 3)
        expected = rational_matrix(
            [[1 - third, -third, -third],
             [-third, 1 - third, -third],
             [-third, -third, 1 - third]])
        assert exact_equal(Y, expected)

    def test_combinatorial_oracle_agrees(self):
        rng = random.Random(23)
        for n in range(2, 8):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    w = {e: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                         for e in range(n)}
                    Y = fraction_y(*transfer_current(sp.incidence_matrix(g), w))
                    assert exact_equal(Y, transfer_current_combinatorial(g, w))

    def test_disconnected_rejected(self):
        g = MultiGraph(3, ((0, 1, 0),), (0, 1))
        with pytest.raises(SingularMatrixError):
            transfer_current(sp.incidence_matrix(g), unit_weights(1))

    def test_reduced_determinant_is_tree_count(self):
        # matrix-tree theorem: grounding vertex 0 leaves det L0 = T(G)
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    w = sp.induced_weights(t)
                    L = laplacian(sp.incidence_matrix(sp.realize(t)), w)
                    assert rational_det(L[1:, 1:]) == tree_sums(t, w).trees

    def test_burton_pemantle_minors(self, instances_to_7):
        # det Y[S,S] is the probability that the weighted uniform spanning
        # tree contains S: w(S)/T(G) for a spanning tree S, else 0
        for inst in instances_to_7:
            n, k = len(inst.graph.edges), inst.subspace.dim
            total = tree_sums(inst.tree, inst.weights).trees
            trees = set(sp.spanning_trees(inst.graph))
            for s in combinations(range(n), k):
                expected = (math.prod(inst.weights[e] for e in s) / total
                            if s in trees else 0)
                idx = list(s)
                Y = fraction_y(inst.D, inst.DY[np.ix_(idx, idx)])
                assert rational_det(Y) == expected

    def test_diagonal_strictly_inside_unit_interval(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    Y = transfer_current_combinatorial(g, sp.induced_weights(t))
                    assert all(0 < Y[e, e] < 1 for e in range(n))


class TestProjection:
    def test_triangle_equals_transfer_current(self):
        # unit weights make the projector and the transfer current coincide
        g = sp.realize(orient(sp.parse_tree("P(e,S(e,e))"), [False, True, True]))
        w = unit_weights(3)
        P = fraction_projection(fraction_y(*transfer_current(sp.incidence_matrix(g), w)), w)
        assert np.allclose(P, np.eye(3) - np.full((3, 3), 1.0 / 3.0), atol=1e-14)

    def test_symmetric_idempotent(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    w = sp.induced_weights(t)
                    P = fraction_projection(fraction_y(*transfer_current(sp.incidence_matrix(g), w)), w)
                    assert np.allclose(P, P.T, atol=1e-12)
                    assert np.allclose(P @ P, P, atol=1e-12)

    def test_entrywise_square_matches_exact_product(self):
        for tree_text in ("P(e,S(e,P(e,e)))", "P(e,e,S(e,e))"):
            t = sp.parse_tree(tree_text)
            g = sp.realize(t)
            w = sp.induced_weights(t)
            T, TY = transfer_current(sp.incidence_matrix(g), w)
            Y = fraction_y(T, TY)
            P = fraction_projection(Y, w)
            Q = (Y * Y.T).astype(float)
            assert np.max(np.abs(P * P - Q)) < 1e-12


class TestOrthonormalize:
    def test_identity_unchanged(self):
        s = orthonormalize(np.eye(4)[:, :2])
        assert np.allclose(np.abs(s.basis), np.eye(4)[:, :2], atol=1e-14)

    def test_diagonal_line(self):
        s = orthonormalize(np.array([[1.0], [1.0]]))
        assert np.allclose(np.abs(s.basis), np.full((2, 1), 1 / math.sqrt(2)))

    def test_column_space_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((6, 3))
            a = orthonormalize(m)
            # reference basis from a QR factorization of the same input
            q, _ = np.linalg.qr(m)
            ref = Subspace(q)
            assert subspace_gap(a, ref) <= 1e-10

    def test_column_space_invariant_under_right_multiplication(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((6, 3))
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            g = q * rng.uniform(0.5, 2.0, size=3)  # well conditioned
            a = orthonormalize(m)
            b = orthonormalize(m @ g)
            assert subspace_gap(a, b) <= 1e-10

    def test_rank_deficient_rejected(self):
        m = np.ones((4, 2))
        with pytest.raises(RankDeficientError):
            orthonormalize(m)

    def test_orthonormality_checked_per_basis_and_per_stack(self):
        rng = np.random.default_rng(3)
        stack = np.stack([orthonormalize(rng.standard_normal((5, 2))).basis
                          for _ in range(3)])
        require_orthonormal_gram(stack.mT @ stack)
        stack[1, 0, 0] += 1e-9
        with pytest.raises(ValueError, match="orthonormal"):
            require_orthonormal_gram(stack.mT @ stack)
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(stack[1])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_orthonormality_bound_is_entrywise(self, k):
        # 2**-40 < 1e-12 < 2**-39, each exact beside 1.0 and 0.0, on the
        # diagonal and off it, alone and in a stack
        for i, j in ((0, 0), (0, k - 1), (k - 1, 0)):
            for delta, ok in ((2.0 ** -40, True), (-2.0 ** -40, True), (2.0 ** -39, False)):
                gram = np.eye(k)
                gram[i, j] += delta
                for checked in (gram, np.stack([np.eye(k), gram, np.eye(k)])):
                    if ok:
                        require_orthonormal_gram(checked)
                    else:
                        with pytest.raises(ValueError, match="orthonormal"):
                            require_orthonormal_gram(checked)

    def test_shape_is_read_off_the_basis(self):
        sub = Subspace(np.eye(5)[:, :2])
        assert (sub.ambient, sub.dim) == (5, 2)
        with pytest.raises(AttributeError):
            sub.ambient = 4
        for basis in (np.array([1.0, 0.0]), np.eye(3)[None, :, :2]):
            with pytest.raises(ValueError, match="n-by-k"):
                Subspace(basis)


class TestPrincipalAngles:
    def test_equal_subspaces(self):
        s = orthonormalize(np.eye(3)[:, :2])
        assert np.allclose(principal_angles(s, s), 0.0, atol=1e-12)

    def test_orthogonal_lines(self):
        a = orthonormalize(np.eye(2)[:, :1])
        b = orthonormalize(np.eye(2)[:, 1:])
        assert np.allclose(principal_angles(a, b), [math.pi / 2], atol=1e-12)

    def test_diagonal_line_against_axis(self):
        a = orthonormalize(np.array([[1.0], [1.0]]))
        b = orthonormalize(np.eye(2)[:, :1])
        assert np.allclose(principal_angles(a, b), [math.pi / 4], atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        a = orthonormalize(np.eye(3)[:, :1])
        b = orthonormalize(np.eye(4)[:, :1])
        with pytest.raises(ValueError):
            principal_angles(a, b)

    def test_svd_matches_eigenvalue_route(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = orthonormalize(rng.standard_normal((6, 2)))
            b = orthonormalize(rng.standard_normal((6, 2)))
            m = a.basis.T @ b.basis
            s = np.linalg.svd(m, compute_uv=False)
            eigs = np.sqrt(np.clip(np.linalg.eigvalsh(m.T @ m), 0.0, None))[::-1]
            assert np.max(np.abs(s - eigs)) < 1e-10


class TestTarget:
    def test_coordinate_subspace_is_at_zero(self):
        s = orthonormalize(np.eye(5)[:, :2])
        angle, subset = sp.target(s)
        assert angle <= 1e-12
        assert subset == (0, 1)

    def test_diagonal_line_in_r4(self):
        s = orthonormalize(np.full((4, 1), 0.5))
        angle, subset = sp.target(s)
        assert abs(angle - math.pi / 3) < 1e-12
        assert subset == (0,)

    def test_triangle_star_space(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,e))"))
        angle, _ = sp.target(inst.subspace)
        assert abs(math.cos(angle) - 1 / math.sqrt(3)) < 1e-12

    def test_invariant_under_signed_permutations(self):
        rng = np.random.default_rng(31)
        s = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))")).subspace
        angle, subset = sp.target(s)
        for _ in range(20):
            perm = rng.permutation(s.ambient)
            signs = rng.choice([-1.0, 1.0], size=s.ambient)
            moved_basis = np.zeros_like(s.basis)
            for i in range(s.ambient):
                moved_basis[perm[i], :] = signs[i] * s.basis[i, :]
            moved = Subspace(moved_basis)
            angle2, _ = sp.target(moved)
            assert abs(angle2 - angle) <= 1e-12
            # the image of the optimal subset still attains the optimum
            image = sorted(int(perm[i]) for i in subset)
            smin = np.linalg.svd(moved.basis[image, :], compute_uv=False)[-1]
            assert abs(smin - math.cos(angle)) <= 1e-12

    def test_cap_enforced(self):
        s = orthonormalize(np.eye(13)[:, :2])
        with pytest.raises(sp.BruteForceCapError):
            sp.target(s)
