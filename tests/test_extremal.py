import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import spextremal as sp
from spextremal import numeric
from spextremal.extremal import check_attained
from spextremal.numeric import orthonormalize, transfer_current
from spextremal.weights import stacked_coefficients

import exact_oracles as oracle
from exact_oracles import canonicalize, class_key, decompose, orient, rational_matrix
from matrix_canon import canonical_matrix_form, oracle_key, squared_projector


def exact_equal(a, b):
    return a.shape == b.shape and bool((a == b).all())


def positive_definite(rows):
    return numeric.bareiss(rows) is not None


def degenerate_identities(inst, X, D):
    """check_degenerate's four identities for the pair (D, X), each on its
    own: B X == D B, X X == D X, trace X == k D and diag(1/w) X symmetric."""
    B, n = inst.B, len(X)
    p = np.array([inst.weights[e].numerator for e in range(n)], dtype=object)
    q = np.array([inst.weights[e].denominator for e in range(n)], dtype=object)
    K = X * np.outer(q, p)
    return [bool((B.dot(X) == D * B).all()), bool((X.dot(X) == D * X).all()),
            X.trace() == (len(B) - 1) * D, bool((K == K.T).all())]


class TestBuild:
    def test_two_cycle(self):
        inst = sp.build(sp.parse_tree("P(e,e)"))
        angle, _ = sp.target(inst.subspace)
        assert abs(math.cos(angle) - 1 / math.sqrt(2)) < 1e-12
        assert np.allclose(np.abs(inst.subspace.basis), 1 / math.sqrt(2))

    def test_triangle_transfer_current(self):
        inst = sp.build(orient(sp.parse_tree("P(e,S(e,e))"), [False, True, True]))
        third = Fraction(1, 3)
        expected = rational_matrix(
            [[1 - third, -third, -third],
             [-third, 1 - third, -third],
             [-third, -third, 1 - third]])
        assert exact_equal(oracle.fraction_y(inst.D, inst.DY), expected)

    def test_banana_line(self):
        n = 5
        t = sp.parse_tree("P(e,e,e,e,e)")
        inst = sp.build(t)
        assert inst.subspace.dim == 1
        assert np.allclose(np.abs(inst.subspace.basis), 1 / math.sqrt(n))

    def test_series_rooted_input_accepted(self):
        dual = sp.dualize(sp.parse_tree("P(e,S(e,e,e))"))
        inst = sp.build(dual)
        assert len(inst.graph.edges) == 4
        assert inst.subspace.dim == 1


class TestCheckEigen:
    def test_triangle_hand_values(self):
        inst = sp.build(orient(sp.parse_tree("P(e,S(e,e))"), [False, True, True]))
        tau = (1, 2)
        sub = oracle.fraction_y(inst.D, inst.DY)[np.ix_(tau, tau)]
        expected = rational_matrix(
            [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]])
        assert exact_equal(sub, expected)
        _, C, _ = stacked_coefficients(inst.tree, [tau])
        assert C[1, 0] == C[2, 0]  # proportional to (1, 1)
        assert sp.check_eigen(inst, [tau])

    def test_banana_single_edges(self):
        n = 4
        t = sp.parse_tree("P(e,e,e,e)")
        inst = sp.build(t)
        Y = oracle.fraction_y(inst.D, inst.DY)
        for e in range(n):
            assert Y[e, e] == Fraction(1, n)
            assert sp.check_eigen(inst, [(e,)])

    def test_holds_for_every_spanning_tree_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(t)
                    trees = sp.spanning_trees(inst.graph)
                    assert sp.check_eigen(inst, trees)
                    assert all(sp.check_eigen(inst, [tau]) for tau in trees)

    def test_rejects_non_tree(self):
        # a cycle, too few edges, too many, a repeated edge, an edge id >= n
        # and a negative one, alone and anywhere in a batch of trees
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        trees = sp.spanning_trees(inst.graph)
        for bad in [(2, 3), (1,), (0, 1, 2), (1, 1), (0, 4), (-1, 0)]:
            for batch in ([bad], trees + [bad], [bad] + trees):
                with pytest.raises(sp.SpTreeError):
                    sp.check_eigen(inst, batch)

    def test_rejects_empty_tree_list(self):
        # a connected graph has a spanning tree: no tree to check is a fault
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        with pytest.raises(sp.SpTreeError):
            sp.check_eigen(inst, [])


class TestCheckDegenerate:
    def test_diamond_parallel_pair(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        assert oracle.check_degenerate(inst, (2, 3))
        assert sp.check_degenerate(inst)

    def test_banana_has_no_degenerate_subsets(self):
        t = sp.parse_tree("P(e,e,e)")
        inst = sp.build(t)
        trees = set(sp.spanning_trees(inst.graph))
        non_trees = [s for s in combinations(range(3), 1) if s not in trees]
        assert non_trees == []
        assert sp.check_degenerate(inst)

    def test_all_non_tree_subsets_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(t)
                    assert sp.check_degenerate(inst)
                    trees = set(sp.spanning_trees(inst.graph))
                    for s in combinations(range(n), k):
                        if s not in trees:
                            assert oracle.check_degenerate(inst, s)

    def test_each_identity_is_needed(self, instances_to_6):
        # changes of X = D Y that keep three identities and break one, with
        # z, z' columns of D I - X (they span ker B), |z|^2 = z . (winv z)
        # for winv = lcm(p) q / p, and u a vertex's row of B: S X S, S
        # flipping one edge's sign, breaks B X == D B; adding
        # |z'|^2 z (winv z)^T - |z|^2 z' (winv z')^T keeps the trace and
        # breaks X X == D X, which needs two independent cycles; D I breaks
        # the trace; adding z u^T breaks the symmetry
        two_cycles = 0
        for inst in instances_to_6:
            X, D, n = inst.DY, inst.D, len(inst.DY)
            name = sp.format_tree(inst.tree)
            assert degenerate_identities(inst, X, D) == [True] * 4, name
            assert sp.check_degenerate(inst), name
            p = [inst.weights[e].numerator for e in range(n)]
            q = [inst.weights[e].denominator for e in range(n)]
            winv = np.array([math.lcm(*p) * q[e] // p[e] for e in range(n)], dtype=object)
            kernel = np.diag(np.full(n, D, dtype=object)) - X
            z = kernel[:, np.flatnonzero(kernel.any(axis=0))[0]]
            flip = np.ones(n, dtype=object)
            flip[0] = -1
            changed = {0: X * np.outer(flip, flip), 2: np.diag(np.full(n, D, dtype=object)),
                       3: X + np.outer(z, inst.B[1])}
            for j in range(n):
                z2 = kernel[:, j]
                E = (z2.dot(winv * z2) * np.outer(z, winv * z)
                     - z.dot(winv * z) * np.outer(z2, winv * z2))
                if E.any():
                    changed[1] = X + E
                    two_cycles += 1
                    break
            for broken, bad in changed.items():
                holds = degenerate_identities(inst, bad, D)
                assert holds == [i != broken for i in range(4)], (name, broken)
                assert not sp.check_degenerate(dataclasses.replace(inst, DY=bad)), name
        assert two_cycles > 0


def flipped(tree):
    """The tree oriented by one fixed pseudo-random direction set."""
    rng = random.Random(sp.format_tree(tree))
    return orient(tree, [rng.random() < 0.5 for _ in range(sp.leaf_count(tree))])


def assert_stacked_matches_per_tree(inst, trees):
    """All trees' coefficients from one pass equal the per-tree pass, scale,
    values and support, as Python ints; and the trees' complements, sorted,
    are exactly the dual's spanning trees, which check_dual relies on."""
    n = len(inst.graph.edges)
    name = sp.format_tree(inst.tree)
    scale, C, on = stacked_coefficients(inst.tree, trees)
    assert C.shape == on.shape == (n, len(trees)), name
    for j, tau in enumerate(trees):
        s, y = oracle.scaled_coefficients(inst.tree, tau)
        assert type(scale[j]) is int and scale[j] == s, name
        assert all(type(x) is int for x in C[:, j]), name
        assert np.flatnonzero(on[:, j]).tolist() == sorted(y), name
        assert {e: C[e, j] for e in y} == y and not C[~on[:, j], j].any(), name
    complements = [tuple(e for e in range(n) if e not in tau) for tau in trees]
    dual = sp.realize(sp.dualize(inst.tree))
    assert sorted(complements) == sp.spanning_trees(dual), name


def assert_agrees_with_oracles(inst):
    """Integer checks equal the Fraction oracles: the eigen check on each
    spanning tree and on all of them at once, and the transfer-current
    proof with the sweep over every non-tree k-subset.  The batched
    determinant lists the union-find sweep's trees, and the target over
    them equals the exhaustive one bit for bit, angle and subset."""
    n, k = len(inst.graph.edges), inst.subspace.dim
    trees = sp.spanning_trees(inst.graph)
    name = sp.format_tree(inst.tree)
    assert trees == oracle.spanning_trees(inst.graph), name
    assert_stacked_matches_per_tree(inst, trees)
    (angle, best), (whole_angle, whole_best) = (
        sp.target(inst.subspace, trees), sp.target(inst.subspace))
    assert angle.hex() == whole_angle.hex() and best == whole_best, name
    tree_set = set(trees)
    eigen_all = minors_zero = True
    for s in combinations(range(n), k):
        if s in tree_set:
            scale, C, _ = stacked_coefficients(inst.tree, [s])
            y = oracle.induced_coefficients(inst.tree, s, inst.graph)
            assert sorted(y) == list(s), name
            assert all(Fraction(C[e, 0], scale[0]) == y[e] for e in s), name
            eigen = oracle.check_eigen(inst, s)
            assert sp.check_eigen(inst, [s]) == eigen, name
            eigen_all = eigen_all and eigen
        else:
            with pytest.raises(sp.SpTreeError):
                stacked_coefficients(inst.tree, [s])
            minors_zero = minors_zero and oracle.check_degenerate(inst, s)
    assert sp.check_eigen(inst, trees) == eigen_all, name
    assert sp.check_degenerate(inst) == minors_zero, name


def assert_build_matches_fraction_route(inst):
    """transfer_current returns ints, and D is the least that clears Y."""
    weights = sp.induced_weights(inst.tree)
    assert list(inst.weights.items()) == list(weights.items())
    assert all(type(w) is Fraction for w in inst.weights.values())
    T, TY = transfer_current(inst.B, inst.weights)
    assert type(T) is int and all(type(x) is int for x in TY.flat)
    assert math.gcd(inst.D, *inst.DY.flat) == 1
    Y = oracle.fraction_y(T, TY)
    assert exact_equal(oracle.fraction_y(inst.D, inst.DY), Y)


def assert_dual_matches_build(inst):
    """planar_dual's graph and weights, and X = S (D I - (D Y)^T) S formed
    with its signs, equal the dual instance's own elimination: graph,
    weights, D and D Y, all Python ints; the signs satisfy B S B*^T = 0;
    and check_dual accepts it."""
    name = sp.format_tree(inst.tree)
    graph, weights, signs = sp.planar_dual(inst)
    identity = np.diag(np.full(len(signs), inst.D, dtype=object))
    X = (identity - inst.DY.T) * np.outer(signs, signs)
    dual = sp.build(sp.dualize(inst.tree))
    assert graph == dual.graph and weights == dual.weights, name
    assert dual.D == inst.D and exact_equal(X, dual.DY), name
    assert all(type(x) is int for x in X.flat), name
    assert len(signs) == len(inst.weights) and set(signs.tolist()) <= {1, -1}, name
    assert not inst.B.dot(signs[:, None] * dual.B.T).any(), name
    assert sp.check_dual(inst), name


def assert_attained_on_every_tree(inst):
    """check_attained proves the bound on every spanning tree, not only on
    the one the target picks, and the float least eigenvalue agrees."""
    n = len(inst.graph.edges)
    trees = sp.spanning_trees(inst.graph)
    _, C, _ = stacked_coefficients(inst.tree, trees)
    P = oracle.fraction_projection(oracle.fraction_y(inst.D, inst.DY), inst.weights)
    for j, tau in enumerate(trees):
        assert check_attained(inst, tau, C[:, j]), (sp.format_tree(inst.tree), tau)
        least = np.linalg.eigvalsh(P[np.ix_(tau, tau)])[0]
        assert abs(least - 1 / n) < 1e-9


class TestIntegerChecksMatchOracles:
    def test_every_instance_to_7(self, instances_to_7):
        for natural in instances_to_7:
            for inst in (natural, sp.build(flipped(natural.tree))):
                assert_agrees_with_oracles(inst)
                assert_build_matches_fraction_route(inst)
                assert_dual_matches_build(inst)
                assert_attained_on_every_tree(inst)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_every_instance_long(self, n):
        for k in range(1, n):
            for t in sp.enumerate_rooted(n, k):
                for inst in (sp.build(t), sp.build(flipped(t))):
                    assert_agrees_with_oracles(inst)
                    assert_build_matches_fraction_route(inst)
                    assert_dual_matches_build(inst)
                    assert_attained_on_every_tree(inst)

    def test_bumped_entry_fails_eigen(self, instances_to_6):
        # every coefficient is nonzero, so a changed entry of a tree's block
        # moves that tree's n (D Y) y away from D y; an entry in no tree's
        # block is not read
        for inst in instances_to_6:
            n = len(inst.graph.edges)
            trees = sp.spanning_trees(inst.graph)
            DY = inst.DY.copy()
            bumped = dataclasses.replace(inst, DY=DY)
            for e in range(n):
                for f in range(n):
                    read = any(e in tau and f in tau for tau in trees)
                    for delta in (1, -1):
                        DY[e, f] += delta
                        assert sp.check_eigen(bumped, trees) == (not read)
                        DY[e, f] -= delta
            assert sp.check_eigen(bumped, trees)

    def test_bumped_entry_fails_certificate(self, instances_to_6):
        # no edge of a 2-connected graph is a loop, so a changed entry
        # (e, f) changes column f of B (D Y) in the rows of e's two ends
        for inst in instances_to_6:
            n = len(inst.graph.edges)
            DY = inst.DY.copy()
            bumped = dataclasses.replace(inst, DY=DY)
            for e in range(n):
                for f in range(n):
                    for delta in (1, -1):
                        DY[e, f] += delta
                        assert not sp.check_degenerate(bumped)
                        DY[e, f] -= delta
            assert sp.check_degenerate(bumped)


class TestCheckTarget:
    """The target verdict: check_attained proves cos(target) = 1/sqrt(n)."""

    def test_small_instances(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(t)
                    trees = sp.spanning_trees(inst.graph)
                    _, tau = sp.target(inst.subspace, trees)
                    _, C, _ = stacked_coefficients(inst.tree, [tau])
                    assert check_attained(inst, tau, C[:, 0])

    def test_corrupted_weights_fail(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        bad = dict(inst.weights)
        bad[2] = Fraction(7, 2)
        g = inst.graph
        B = sp.incidence_matrix(g)
        root = np.sqrt([float(bad[e]) for e in range(4)])
        basis = orthonormalize((root[:, None] * B.astype(float).T)[:, 1:])
        T, TY = transfer_current(B, bad)
        corrupted = dataclasses.replace(inst, weights=bad, B=B, subspace=basis,
                                        D=T, DY=TY)
        trees = sp.spanning_trees(g)
        _, C, _ = stacked_coefficients(corrupted.tree, trees)
        assert not any(check_attained(corrupted, tau, C[:, j])
                       for j, tau in enumerate(trees))

    def test_zero_column_fails(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        assert not check_attained(inst, (0, 1), [0, 0, 0, 0])

    def test_kernel_alone_is_not_enough(self, instances_to_6):
        # adding t u v^T to M through D Y, v orthogonal to c, keeps M c == 0:
        # with u = -v and t large M gains a negative eigenvalue, which the
        # elimination catches; with u = e_0, M is no longer symmetric, and on
        # some trees only the symmetry test catches that
        symmetry_only = 0
        for inst in instances_to_6:
            n, k = len(inst.graph.edges), inst.subspace.dim
            if k < 2:
                continue
            trees = sp.spanning_trees(inst.graph)
            _, C, _ = stacked_coefficients(inst.tree, trees)
            for j, tau in enumerate(trees):
                idx, c = list(tau), C[list(tau), j]
                w = [inst.weights[e] for e in idx]
                lcm = math.lcm(*(x.numerator for x in w))
                a = [lcm // x.numerator * x.denominator for x in w]
                v = np.zeros(k, dtype=object)
                v[0], v[1] = c[1], -c[0]
                big = 1 + int(np.abs(inst.DY).sum()) * inst.D * lcm
                for u, t in ((-v, big), (np.eye(k, dtype=int)[0].astype(object), 1)):
                    DY = inst.DY.copy()
                    step = math.lcm(*a) * t * np.outer(u, v)
                    DY[np.ix_(idx, idx)] += np.array([step[i] // a[i] for i in range(k)])
                    bumped = dataclasses.replace(inst, DY=DY)
                    assert not check_attained(bumped, tau, C[:, j])
                    M = n * np.array(a, dtype=object)[:, None] * DY[np.ix_(idx, idx)] \
                        - np.diag(inst.D * np.array(a, dtype=object))
                    assert not M.dot(c).any()
                    symmetry_only += t == 1 and positive_definite(M[:-1, :-1].tolist())
        assert symmetry_only > 0

    def test_claiming_one_over_n_minus_one_fails(self, instances_to_6):
        # D n and D Y (n - 1) state Y's eigenvalue on c as 1/(n - 1): the
        # kernel test fails on every tree, and the positive definiteness
        # test of the same M agrees with the float spectrum of its minor
        rejected = 0
        for inst in instances_to_6:
            n = len(inst.graph.edges)
            claim = dataclasses.replace(inst, D=inst.D * n, DY=inst.DY * (n - 1))
            trees = sp.spanning_trees(inst.graph)
            _, C, _ = stacked_coefficients(inst.tree, trees)
            Y = oracle.fraction_y(inst.D, inst.DY)
            for j, tau in enumerate(trees):
                assert not check_attained(claim, tau, C[:, j])
                rows = [[((n - 1) * Y[e, f] - (e == f)) / inst.weights[e] for f in tau]
                        for e in tau]
                scale = math.lcm(*(x.denominator for row in rows for x in row))
                M = [[int(x * scale) for x in row] for row in rows]
                assert not positive_definite(M)
                minor = [row[1:] for row in M[1:]]
                least = np.linalg.eigvalsh(np.array(minor, dtype=float))[0] if minor else 1.0
                if abs(least) <= 1e-9 * max(abs(x) for row in M for x in row):
                    # lambda_2 is exactly 1/(n - 1): the minor is singular
                    assert oracle.rational_det(np.array(minor, dtype=object)) == 0
                    least = 0.0
                assert positive_definite(minor) == (least > 0)
                rejected += least <= 0
        assert rejected > 0


class TestCheckDual:
    def test_banana_cycle_pair(self):
        t = sp.parse_tree("P(e,e,e,e)")
        assert sp.check_dual(sp.build(t))

    def test_triangle(self):
        assert sp.check_dual(sp.build(sp.parse_tree("P(e,S(e,e))")))

    def test_all_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    assert sp.check_dual(sp.build(t)), sp.format_tree(t)

    def test_bumped_entry_fails(self, instances_to_6):
        # the dual is read off D Y, so the verdict on it rests on the proof
        # that D Y is right: a changed entry fails it
        for inst in instances_to_6:
            n = len(inst.graph.edges)
            DY = inst.DY.copy()
            bumped = dataclasses.replace(inst, DY=DY)
            for e in range(n):
                for f in range(n):
                    for delta in (1, -1):
                        DY[e, f] += delta
                        assert not (sp.check_degenerate(bumped) and sp.check_dual(bumped))
                        DY[e, f] -= delta
            assert sp.check_degenerate(bumped) and sp.check_dual(bumped)

    def test_flipped_sign_fails(self, instances_to_6, monkeypatch):
        # flipping s_e adds -2 s_e B[:, e] B*[:, e]^T to B S B*^T, which
        # is nonzero because neither graph has a loop
        import spextremal.extremal as extremal
        real = extremal.planar_dual
        flip = []

        def flipped(inst):
            graph, weights, signs = real(inst)
            signs = signs.copy()
            signs[flip] *= -1
            return graph, weights, signs

        monkeypatch.setattr(extremal, "planar_dual", flipped)
        for inst in instances_to_6:
            for e in range(len(inst.graph.edges)):
                flip[:] = [e]
                assert not sp.check_dual(inst), (sp.format_tree(inst.tree), e)
            flip.clear()
            assert sp.check_dual(inst)

    def test_bumped_dual_weight_fails(self, instances_to_6, monkeypatch):
        import spextremal.extremal as extremal
        real = extremal.induced_weights
        bump = {}

        def bumped(tree):
            w = real(tree)
            for e, delta in bump.items():
                w[e] += delta
            return w

        monkeypatch.setattr(extremal, "induced_weights", bumped)
        for inst in instances_to_6:
            for e in range(len(inst.graph.edges)):
                for delta in (1, -1):
                    bump.clear()
                    bump[e] = delta
                    assert not sp.check_dual(inst), (sp.format_tree(inst.tree), e)
            bump.clear()
            assert sp.check_dual(inst)

    def test_zero_dual_weights_fail(self, instances_to_6, monkeypatch):
        # all-zero dual weights make every cross product zero, which proves
        # no reciprocity: the common factor must not be zero
        import spextremal.extremal as extremal
        real = extremal.induced_weights
        monkeypatch.setattr(extremal, "induced_weights",
                            lambda tree: {e: 0 * w for e, w in real(tree).items()})
        for inst in instances_to_6:
            assert not sp.check_dual(inst), sp.format_tree(inst.tree)


def same_partition(items, key_a, key_b):
    """Whether key_a and key_b split items into the same classes."""
    pairs = {(key_a(x), key_b(x)) for x in items}
    return (len(pairs) == len({a for a, _ in pairs})
            == len({b for _, b in pairs}))


class TestClassKey:
    def test_invariant_under_edge_relabeling(self):
        t = sp.parse_tree("P(e,S(e,P(e,e)))")
        # the same network with the parallel pair and outer branches swapped
        other = sp.parse_tree("P(S(P(e,e),e),e)")
        assert class_key(other) == class_key(t)
        assert class_key(canonicalize(other)) == class_key(t)

    def test_invariant_under_direction_flips(self):
        # the key reads no directions; the squared projector it stands for
        # must not see them either
        rng = random.Random(9)
        t = sp.parse_tree("P(e,e,S(e,e))")
        base = oracle_key(sp.build(t))
        for _ in range(5):
            dirs = [rng.random() < 0.5 for _ in range(4)]
            assert oracle_key(sp.build(orient(t, dirs))) == base

    def test_terminal_choices_merge(self):
        a, b = sp.enumerate_rooted(4, 2)
        assert class_key(a) == class_key(b)

    @pytest.mark.parametrize("text, other", [
        # Whitney twist of the middle chain
        ("P(e,S(P(e,e),e,P(e,e)))", "P(e,S(e,P(e,e),P(e,e)))"),
        # two-element root bonds merge into one polygon
        ("P(e,S(e,e,e))", "P(S(e,e),S(e,e))"),
        ("P(e,S(e,P(e,e)))", "P(e,e,S(e,e))"),
    ])
    def test_equivalent_trees_agree_with_oracle(self, text, other):
        a, b = sp.parse_tree(text), sp.parse_tree(other)
        assert class_key(a) == class_key(b)
        assert oracle_key(sp.build(a)) == oracle_key(sp.build(b))

    def test_independent_of_terminal_edge(self, instances_to_7):
        for inst in instances_to_7:
            key = class_key(inst.tree)
            for tail, head, _ in inst.graph.edges:
                tree = decompose(inst.graph, tail, head).tree
                assert class_key(tree) == key, sp.format_tree(inst.tree)

    def test_partition_matches_oracle(self, instances_to_7):
        assert same_partition(instances_to_7,
                              lambda inst: class_key(inst.tree), oracle_key)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_partition_matches_oracle_long(self, n):
        insts = [sp.build(t) for k in range(1, n) for t in sp.enumerate_rooted(n, k)]
        assert same_partition(insts, lambda inst: class_key(inst.tree),
                              oracle_key)

    def test_collision_safety_permutation_exists(self):
        by_key = {}
        for t in sp.enumerate_rooted(5, 2):
            by_key.setdefault(class_key(t), []).append(sp.build(t))
        for group in by_key.values():
            q0 = squared_projector(group[0])
            _, p0 = canonical_matrix_form(q0)
            for other in group[1:]:
                q1 = squared_projector(other)
                _, p1 = canonical_matrix_form(q1)
                n = q0.shape[0]
                # composing the canonical permutations maps q1 onto q0
                mapping = {p1[i]: p0[i] for i in range(n)}
                assert all(q1[i, j] == q0[mapping[i], mapping[j]]
                           for i in range(n) for j in range(n))


class TestCountClasses:
    def test_named_entries(self):
        assert sp.count_classes(5, 2) == 2
        assert sp.count_classes(7, 4) == 8

    def test_small_triangle(self):
        assert sp.class_table(5) == [[1], [1, 1], [1, 1, 1], [1, 2, 2, 1]]

    def test_matches_enumeration(self):
        for n in range(0, 11):
            for k in range(-1, n + 2):
                assert sp.count_classes(n, k) == oracle.enumerated_class_count(n, k), (n, k)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [11, 12])
    def test_matches_enumeration_long(self, n):
        for k in range(1, n):
            assert sp.count_classes(n, k) == oracle.enumerated_class_count(n, k), (n, k)

    def test_table_reads_the_same_counts(self):
        assert sp.class_table(30)[1:] == [[sp.count_classes(n, k) for k in range(1, n)]
                                          for n in range(3, 31)]
        assert sp.class_table(1) == []

    @pytest.mark.parametrize("n", range(2, 31))
    def test_closed_forms(self, n):
        row = [sp.count_classes(n, k) for k in range(1, n)]
        # duality pairs rank k with n - k
        assert row == row[::-1]
        assert row[0] == row[-1] == 1
        if n >= 3:
            # rank 2: a triangle whose three bundle sizes partition n
            assert row[1] == round(n * n / 12)

    @pytest.mark.parametrize("n, k", [(5, 5), (5, 6), (5, 0), (5, -1), (1, 1),
                                      (1, 0), (0, 0), (-1, 1), (31, 31)])
    def test_out_of_range_is_zero(self, n, k):
        assert sp.count_classes(n, k) == 0


class TestReports:
    def test_verify_instance_shape(self):
        report = sp.verify_instance(sp.build(sp.parse_tree("P(e,e)")))
        assert report["n"] == 2 and report["k"] == 1
        assert abs(report["target_cos"] - 1 / math.sqrt(2)) < 1e-12
        assert report["eigen_ok"] and report["degenerate_ok"] and report["dual_ok"]

    def test_least_eigenvalue_observation_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(t)
                    for _, eig in oracle.least_eigenvalue_report(inst):
                        assert abs(eig - 1.0 / n) < 1e-8

    def test_verify_relists_no_tree(self, monkeypatch):
        # every module's binding of the re-listing helper counts its calls:
        # build and verify only map a tree's nodes in place or compose
        # whole trees, and never re-list one in post-order
        import sys
        from spextremal import sptree
        real = sptree._relist
        cases = [tree for n in range(2, 8) for k in range(1, n)
                 for t in sp.enumerate_rooted(n, k) for tree in (t, flipped(t))]
        relisted = []

        def counted(*args):
            relisted.append(args)
            return real(*args)

        for name, module in list(sys.modules.items()):
            held = getattr(module, "_relist", None)
            if name.split(".")[0] == "spextremal" and held is real:
                monkeypatch.setattr(module, "_relist", counted)
        for tree in cases:
            report = sp.verify_instance(sp.build(tree))
            assert report["dual_ok"] and relisted == [], sp.format_tree(tree)
        assert sp.enumerate_rooted(4, 2) and relisted  # the count sees calls
