import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import spextremal as sp

import exact_oracles as oracle
from exact_oracles import rational_matrix
from matrix_canon import canonical_matrix_form, oracle_key, squared_projector


def exact_equal(a, b):
    return a.shape == b.shape and bool((a == b).all())


class TestBuild:
    def test_two_cycle(self):
        inst = sp.build(sp.parse_tree("P(e,e)"))
        angle, _ = sp.target(inst.subspace)
        assert abs(math.cos(angle) - 1 / math.sqrt(2)) < 1e-12
        assert np.allclose(np.abs(inst.subspace.basis), 1 / math.sqrt(2))

    def test_triangle_transfer_current(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,e))"), [False, True, True])
        third = Fraction(1, 3)
        expected = rational_matrix(
            [[1 - third, -third, -third],
             [-third, 1 - third, -third],
             [-third, -third, 1 - third]])
        assert exact_equal(oracle.fraction_y(inst.D, inst.DY), expected)

    def test_banana_line(self):
        n = 5
        t = sp.make_parallel([sp.make_leaf(i) for i in range(n)])
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
        inst = sp.build(sp.parse_tree("P(e,S(e,e))"), [False, True, True])
        tau = (1, 2)
        sub = oracle.fraction_y(inst.D, inst.DY)[np.ix_(tau, tau)]
        expected = rational_matrix(
            [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]])
        assert exact_equal(sub, expected)
        y = sp.induced_coefficients(inst.tree, tau, inst.graph)
        assert y[1] == y[2]  # proportional to (1, 1)
        assert sp.check_eigen(inst, tau)

    def test_banana_single_edges(self):
        n = 4
        t = sp.make_parallel([sp.make_leaf(i) for i in range(n)])
        inst = sp.build(t)
        Y = oracle.fraction_y(inst.D, inst.DY)
        for e in range(n):
            assert Y[e, e] == Fraction(1, n)
            assert sp.check_eigen(inst, (e,))

    def test_holds_for_every_spanning_tree_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(t)
                    for tau in sp.spanning_trees(inst.graph):
                        assert sp.check_eigen(inst, tau)

    def test_rejects_non_tree(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        with pytest.raises(sp.SpTreeError):
            sp.check_eigen(inst, (2, 3))


class TestCheckDegenerate:
    def test_diamond_parallel_pair(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        assert sp.check_degenerate(inst, (2, 3))

    def test_banana_has_no_degenerate_subsets(self):
        t = sp.make_parallel([sp.make_leaf(i) for i in range(3)])
        inst = sp.build(t)
        trees = set(sp.spanning_trees(inst.graph))
        non_trees = [s for s in combinations(range(3), 1) if s not in trees]
        assert non_trees == []

    def test_all_non_tree_subsets_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(t)
                    trees = set(sp.spanning_trees(inst.graph))
                    for s in combinations(range(n), k):
                        if s not in trees:
                            assert sp.check_degenerate(inst, s)


def flipped_directions(tree):
    """One fixed pseudo-random direction set per tree."""
    rng = random.Random(sp.format_tree(tree))
    return [rng.random() < 0.5 for _ in range(sp.leaf_count(tree))]


def assert_agrees_with_oracles(inst):
    """Integer checks equal the Fraction oracles on every k-subset."""
    n, k = len(inst.graph.edges), inst.subspace.dim
    trees = set(sp.spanning_trees(inst.graph))
    name = sp.format_tree(inst.tree)
    for s in combinations(range(n), k):
        if s in trees:
            y = sp.induced_coefficients(inst.tree, s, inst.graph)
            assert y == oracle.induced_coefficients(inst.tree, s, inst.graph), name
            assert sp.check_eigen(inst, s) == oracle.check_eigen(inst, s), name
        else:
            with pytest.raises(sp.SpTreeError):
                sp.induced_coefficients(inst.tree, s, inst.graph)
            assert sp.check_degenerate(inst, s) == oracle.check_degenerate(inst, s), name


def assert_build_matches_fraction_route(inst):
    """transfer_current returns ints, D is the least that clears Y, and P
    is bitwise the projector the Fraction route reads off Y."""
    T, TY = sp.transfer_current(inst.B, inst.weights)
    assert type(T) is int and all(type(x) is int for x in TY.flat)
    assert math.gcd(inst.D, *inst.DY.flat) == 1
    Y = oracle.fraction_y(T, TY)
    assert exact_equal(oracle.fraction_y(inst.D, inst.DY), Y)
    want = oracle.fraction_projection(Y, inst.weights)
    assert inst.P.shape == want.shape and inst.P.tobytes() == want.tobytes()


class TestIntegerChecksMatchOracles:
    def test_every_instance_to_7(self, instances_to_7):
        for natural in instances_to_7:
            for inst in (natural, sp.build(natural.tree, flipped_directions(natural.tree))):
                assert_agrees_with_oracles(inst)
                assert_build_matches_fraction_route(inst)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_every_instance_long(self, n):
        for k in range(1, n):
            for t in sp.enumerate_rooted(n, k):
                for inst in (sp.build(t), sp.build(t, flipped_directions(t))):
                    assert_agrees_with_oracles(inst)
                    assert_build_matches_fraction_route(inst)

    def test_bumped_entry_fails_eigen(self, instances_to_6):
        # every coefficient is nonzero, so any changed entry of the tau
        # block moves n (D Y) y away from D y
        for inst in instances_to_6:
            DY = inst.DY.copy()
            bumped = dataclasses.replace(inst, DY=DY)
            for tau in sp.spanning_trees(inst.graph):
                for e in tau:
                    for f in tau:
                        DY[e, f] += 1
                        assert not sp.check_eigen(bumped, tau)
                        DY[e, f] -= 1
                assert sp.check_eigen(bumped, tau)

    def test_nonzero_minor_fails_degenerate(self, instances_to_6):
        nonzero = 0
        for inst in instances_to_6:
            n, k = len(inst.graph.edges), inst.subspace.dim
            trees = set(sp.spanning_trees(inst.graph))
            DY = inst.DY.copy()
            bumped = dataclasses.replace(inst, DY=DY)
            for s in combinations(range(n), k):
                if s in trees:
                    continue
                idx = list(s)
                for e in s:
                    DY[e, e] += 1
                    det = oracle.rational_det(DY[np.ix_(idx, idx)] * Fraction(1, inst.D))
                    assert sp.check_degenerate(bumped, s) == (det == 0)
                    nonzero += det != 0
                    DY[e, e] -= 1
        assert nonzero > 0


class TestCheckTarget:
    def test_small_instances(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    assert sp.check_target(sp.build(t))

    def test_corrupted_weights_fail(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        bad = dict(inst.weights)
        bad[2] = Fraction(7, 2)
        g = inst.graph
        B = sp.incidence_matrix(g)
        root = np.sqrt([float(bad[e]) for e in range(4)])
        basis = sp.orthonormalize((root[:, None] * B.astype(float).T)[:, 1:])
        T, TY = sp.transfer_current(B, bad)
        corrupted = dataclasses.replace(inst, weights=bad, B=B, P=sp.projection(T, TY, bad),
                                        subspace=basis, D=T, DY=TY)
        assert not sp.check_target(corrupted)


class TestCheckDual:
    def test_banana_cycle_pair(self):
        t = sp.make_parallel([sp.make_leaf(i) for i in range(4)])
        ok, diag = sp.check_dual(sp.build(t))
        assert ok, diag

    def test_triangle(self):
        ok, diag = sp.check_dual(sp.build(sp.parse_tree("P(e,S(e,e))")))
        assert ok, diag

    def test_all_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    ok, diag = sp.check_dual(sp.build(t))
                    assert ok, (sp.format_tree(t), diag)


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
        assert sp.class_key(other) == sp.class_key(t)
        assert sp.class_key(sp.canonicalize(other)) == sp.class_key(t)

    def test_invariant_under_direction_flips(self):
        # the key reads no directions; the squared projector it stands for
        # must not see them either
        rng = random.Random(9)
        t = sp.parse_tree("P(e,e,S(e,e))")
        base = oracle_key(sp.build(t))
        for _ in range(5):
            dirs = [rng.random() < 0.5 for _ in range(4)]
            assert oracle_key(sp.build(t, dirs)) == base

    def test_terminal_choices_merge(self):
        a, b = sp.enumerate_rooted(4, 2)
        assert sp.class_key(a) == sp.class_key(b)

    @pytest.mark.parametrize("text, other", [
        # Whitney twist of the middle chain
        ("P(e,S(P(e,e),e,P(e,e)))", "P(e,S(e,P(e,e),P(e,e)))"),
        # two-element root bonds merge into one polygon
        ("P(e,S(e,e,e))", "P(S(e,e),S(e,e))"),
        ("P(e,S(e,P(e,e)))", "P(e,e,S(e,e))"),
    ])
    def test_equivalent_trees_agree_with_oracle(self, text, other):
        a, b = sp.parse_tree(text), sp.parse_tree(other)
        assert sp.class_key(a) == sp.class_key(b)
        assert oracle_key(sp.build(a)) == oracle_key(sp.build(b))

    def test_independent_of_terminal_edge(self, instances_to_7):
        for inst in instances_to_7:
            key = sp.class_key(inst.tree)
            for tail, head, _ in inst.graph.edges:
                tree = sp.decompose(inst.graph, tail, head).tree
                assert sp.class_key(tree) == key, sp.format_tree(inst.tree)

    def test_partition_matches_oracle(self, instances_to_7):
        assert same_partition(instances_to_7,
                              lambda inst: sp.class_key(inst.tree), oracle_key)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_partition_matches_oracle_long(self, n):
        insts = [sp.build(t) for k in range(1, n) for t in sp.enumerate_rooted(n, k)]
        assert same_partition(insts, lambda inst: sp.class_key(inst.tree),
                              oracle_key)

    def test_collision_safety_permutation_exists(self):
        by_key = {}
        for t in sp.enumerate_rooted(5, 2):
            by_key.setdefault(sp.class_key(t), []).append(sp.build(t))
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
