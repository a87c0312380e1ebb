import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import spextremal as sp
from spextremal import extremal, numeric
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
    own: B X == D B, X X == D X, trace X == k D and X W symmetric."""
    B = inst.B
    K = X * inst.w
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


    def test_basis_is_computed_once_on_first_read(self, monkeypatch):
        calls = []
        real = extremal.orthonormalize
        monkeypatch.setattr(extremal, "orthonormalize",
                            lambda m: calls.append(m) or real(m))
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        assert calls == []
        first = inst.subspace
        assert inst.subspace is first and len(calls) == 1

    def test_replaced_fields_give_their_own_basis(self):
        # the basis is derived, not a field: a copy with other weights and
        # B reads its own, range(W^(1/2) B^T) of the new fields
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        original = inst.subspace.basis
        bad = dict(inst.weights)
        bad[2] = Fraction(7, 2)
        B = inst.B[:, [1, 0, 2, 3]]
        copy = dataclasses.replace(inst, weights=bad, B=B)
        root = np.sqrt([float(bad[e]) for e in range(4)])
        expected = orthonormalize((root[:, None] * B.astype(float).T)[:, 1:]).basis
        basis = copy.subspace.basis
        assert np.allclose(basis @ basis.T, expected @ expected.T, atol=1e-12)
        assert not np.allclose(basis @ basis.T, original @ original.T, atol=1e-6)
        assert inst.subspace.basis is original


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

    def test_each_identity_is_needed(self, instances_to_6):
        # changes of X = D Y that keep three identities and break one, with
        # Z = D I - X, whose columns span ker B and for which Z W is
        # symmetric, and u a vertex's row of B: S X S, S flipping one edge's
        # sign, breaks B X == D B; E_j = Z[:, j] Z[j, :] has columns in
        # ker B, E_j W symmetric and trace E_j = D Z[j, j], so adding
        # Z[i, i] E_j - Z[j, j] E_i keeps the trace and breaks X X == D X,
        # which needs two independent cycles; D I breaks the trace; adding
        # Z[:, i] u^T breaks the symmetry; the W^(-1) form of the four
        # identities rejects each change too
        two_cycles = 0
        for inst in instances_to_6:
            X, D, n = inst.DY, inst.D, len(inst.DY)
            name = sp.format_tree(inst.tree)
            assert degenerate_identities(inst, X, D) == [True] * 4, name
            assert sp.check_degenerate(inst), name
            Z = np.diag(np.full(n, D, dtype=object)) - X
            i = np.flatnonzero(Z.any(axis=0))[0]
            flip = np.ones(n, dtype=object)
            flip[0] = -1
            changed = {0: X * np.outer(flip, flip), 2: np.diag(np.full(n, D, dtype=object)),
                       3: X + np.outer(Z[:, i], inst.B[1])}
            for j in range(n):
                E = Z[i, i] * np.outer(Z[:, j], Z[j]) - Z[j, j] * np.outer(Z[:, i], Z[i])
                if E.any():
                    changed[1] = X + E
                    two_cycles += 1
                    break
            for broken, bad in changed.items():
                holds = degenerate_identities(inst, bad, D)
                assert holds == [r != broken for r in range(4)], (name, broken)
                corrupted = dataclasses.replace(inst, DY=bad)
                assert not sp.check_degenerate(corrupted), name
                assert not oracle.degenerate_by_inverse(corrupted), name
        assert two_cycles > 0


def flipped(tree):
    """The tree oriented by one fixed pseudo-random direction set."""
    rng = random.Random(sp.format_tree(tree))
    return orient(tree, [rng.random() < 0.5 for _ in range(sp.leaf_count(tree))])


def assert_stacked_matches_per_tree(inst, trees):
    """All trees' coefficients from one pass equal the per-tree pass, scale,
    values and support, in int64, whose bound holds this far; and the
    trees' complements, sorted, are exactly the dual's spanning trees,
    which check_dual relies on."""
    n = len(inst.graph.edges)
    name = sp.format_tree(inst.tree)
    scale, C, on = stacked_coefficients(inst.tree, trees)
    assert C.shape == on.shape == (n, len(trees)), name
    assert C.dtype == scale.dtype == np.int64, name
    for j, tau in enumerate(trees):
        s, y = oracle.scaled_coefficients(inst.tree, tau)
        assert scale[j] == s, name
        assert np.flatnonzero(on[:, j]).tolist() == sorted(y), name
        assert {e: C[e, j] for e in y} == y and not C[~on[:, j], j].any(), name
    complements = [tuple(e for e in range(n) if e not in tau) for tau in trees]
    dual = sp.realize(sp.dualize(inst.tree))
    assert sorted(complements) == sp.spanning_trees(dual), name


def assert_agrees_with_oracles(inst):
    """Integer checks equal the Fraction oracles: the eigen check on each
    spanning tree and on all of them at once, and the transfer-current
    proof with the sweep over every non-tree k-subset.  The batched
    determinant lists the union-find sweep's trees."""
    n, k = len(inst.graph.edges), len(inst.B) - 1
    trees = sp.spanning_trees(inst.graph)
    name = sp.format_tree(inst.tree)
    assert trees == oracle.spanning_trees(inst.graph), name
    assert_stacked_matches_per_tree(inst, trees)
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
    """transfer_current returns a Python int D and an int64 D Y, D the
    least that clears Y, and build keeps that pair."""
    weights = sp.induced_weights(inst.tree)
    assert list(inst.weights.items()) == list(weights.items())
    assert all(type(w) is Fraction for w in inst.weights.values())
    D, DY = transfer_current(inst.B, inst.weights)
    assert type(D) is int and DY.dtype == inst.DY.dtype == np.int64
    assert D == inst.D and exact_equal(DY, inst.DY)
    assert math.gcd(D, *DY.flat) == 1
    Y = oracle.transfer_current_combinatorial(inst.graph, inst.weights)
    assert exact_equal(oracle.fraction_y(D, DY), Y)


def assert_dual_matches_build(inst):
    """planar_dual's graph and weights, and X = S (D I - (D Y)^T) S formed
    with its signs, equal the dual instance's own elimination: graph,
    weights, D and D Y, with X in Python ints; the signs satisfy B S B*^T = 0;
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


class TestIntegerChecksMatchOracles:
    def test_every_instance_to_7(self, instances_to_7):
        for natural in instances_to_7:
            for inst in (natural, sp.build(flipped(natural.tree))):
                assert_agrees_with_oracles(inst)
                assert_build_matches_fraction_route(inst)
                assert_dual_matches_build(inst)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_every_instance_long(self, n):
        for k in range(1, n):
            for t in sp.enumerate_rooted(n, k):
                for inst in (sp.build(t), sp.build(flipped(t))):
                    assert_agrees_with_oracles(inst)
                    assert_build_matches_fraction_route(inst)
                    assert_dual_matches_build(inst)

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
                        assert not oracle.degenerate_by_inverse(bumped)
                        DY[e, f] -= delta
            assert sp.check_degenerate(bumped)


def verdicts(inst, trees, C, on):
    """verify_instance's four exact verdicts: eigen, degenerate, attained
    on the first spanning tree, and dual."""
    return (extremal._eigen_holds(inst, C, on), sp.check_degenerate(inst),
            check_attained(inst, trees[0], C[:, 0]), sp.check_dual(inst))


def python_ints(arrays, bits, terms=1):
    """numeric.fixed_width past its budget: every array as Python ints."""
    return [np.asarray(a).astype(object) for a in arrays]


def with_dtypes_taken(monkeypatch):
    """Record the dtype each call of extremal's fixed_width returns."""
    taken = []

    def spy(arrays, bits, terms=1):
        out = numeric.fixed_width(arrays, bits, terms)
        taken.append(out[0].dtype)
        return out

    monkeypatch.setattr(extremal, "fixed_width", spy)
    return taken


class TestFixedWidth:
    def test_same_verdicts_in_both_dtypes(self, instances_to_7, monkeypatch):
        # with every product forced into Python ints, as past the budget,
        # transfer_current and the stacked coefficients give the same
        # values; and each instance, as built and with D Y bumped at (0, 0),
        # an entry every check but the dual's reads, gets the same verdicts
        # from int64 operands, from the same values handed over as Python
        # ints, and from Python-int products
        for natural in instances_to_7:
            for built in (natural, sp.build(flipped(natural.tree))):
                n = len(built.graph.edges)
                trees = sp.spanning_trees(built.graph)
                scale, C, on = stacked_coefficients(built.tree, trees)
                factors = sum(len(node[0]) for node in built.tree if node[2])
                assert numeric.bit_length(C) <= factors * n.bit_length() + 1
                T, TY = transfer_current(built.B, built.weights)
                with monkeypatch.context() as m:
                    m.setattr(numeric, "fixed_width", python_ints)
                    T_ints, TY_ints = transfer_current(built.B, built.weights)
                    scale_ints, C_ints, _ = stacked_coefficients(built.tree, trees)
                assert TY_ints.dtype == C_ints.dtype == scale_ints.dtype == object
                assert T_ints == T and exact_equal(TY_ints, TY)
                assert exact_equal(C_ints, C) and exact_equal(scale_ints, scale)
                bumped = built.DY.copy()
                bumped[0, 0] += 1
                for DY, expected in ((built.DY, (True,) * 4),
                                     (bumped, (False, False, False, True))):
                    inst = dataclasses.replace(built, DY=DY)
                    assert inst.DY.dtype == C.dtype == np.int64
                    assert verdicts(inst, trees, C, on) == expected
                    handed = dataclasses.replace(inst, DY=DY.astype(object))
                    assert verdicts(handed, trees, C.astype(object), on) == expected
                    with monkeypatch.context() as m:
                        m.setattr(extremal, "fixed_width", python_ints)
                        assert verdicts(handed, trees, C_ints, on) == expected

    def test_scaled_past_the_budget_takes_python_ints(self, instances_to_6, monkeypatch):
        # D and D Y times 2**40 keep every identity, and a bumped entry
        # breaks the same ones: check_degenerate, whose X X is past 2**80,
        # now gets Python ints from fixed_width, and every verdict stays
        taken = with_dtypes_taken(monkeypatch)
        for built in instances_to_6:
            trees = sp.spanning_trees(built.graph)
            _, C, on = stacked_coefficients(built.tree, trees)
            bumped = built.DY.copy()
            bumped[0, 0] += 1
            for DY in (built.DY, bumped):
                inst = dataclasses.replace(built, DY=DY)
                scaled = dataclasses.replace(inst, D=inst.D << 40, DY=DY.astype(object) << 40)
                taken.clear()
                expected = verdicts(inst, trees, C, on)
                assert taken == [np.int64] * 2
                taken.clear()
                assert verdicts(scaled, trees, C, on) == expected
                assert taken[1] == object

    def test_int64_up_to_each_checks_bound(self, monkeypatch):
        # D and D Y times 2**s: the eigen check takes int64 exactly while
        # n * n products of bit_length(C) + max(bit_length(D Y),
        # bit_length(D)) bits fit 2**63, and check_degenerate while n
        # products of bx + max(bx, bit_length(D), bit_length(W)) do,
        # bx = bit_length(D Y)
        taken = with_dtypes_taken(monkeypatch)
        for text in ("P(e,S(e,P(e,e)))", "P(e,S(e,e,P(e,S(e,e))))"):
            built = sp.build(sp.parse_tree(text))
            n = len(built.graph.edges)
            trees = sp.spanning_trees(built.graph)
            _, C, on = stacked_coefficients(built.tree, trees)
            bc, bw = numeric.bit_length(C), numeric.bit_length(built.w)
            seen = set()
            for shift in range(64):
                inst = dataclasses.replace(built, D=built.D << shift,
                                           DY=built.DY.astype(object) << shift)
                bx, bd = numeric.bit_length(inst.DY), numeric.bit_length(inst.D)
                fits = [n * n << bc + max(bx, bd) <= 1 << 63,
                        n << bx + max(bx, bd, bw) <= 1 << 63]
                taken.clear()
                assert verdicts(inst, trees, C, on) == (True,) * 4
                assert taken == [np.int64 if f else object for f in fits], (text, shift)
                seen.update(enumerate(fits))
            assert seen == {(0, True), (0, False), (1, True), (1, False)}


    def test_reduced_adjugate_keeps_the_product_in_int64(self, monkeypatch):
        # transfer_current divides det L0 and adj(L0) by their gcd before it
        # forms W B0^T adj B0: on this 10-edge instance the undivided
        # adjugate's product is past fixed_width's budget, and the divided
        # one is not; D and D Y are still the least pair that clears Y
        t = sp.parse_tree("P(e,e,e,S(e,P(e,S(e,P(e,S(e,P(e,e)))))))")
        g, w = sp.realize(t), sp.induced_weights(t)
        B = sp.incidence_matrix(g)
        scale = math.lcm(*(x.denominator for x in w.values()))
        w_int = np.array([int(w[e] * scale) for e in range(10)], dtype=object)
        w_int //= math.gcd(*w_int)
        _, adj = numeric.bareiss(numeric.laplacian(B[1:], w_int).tolist())
        undivided = numeric.bit_length(np.array(adj, dtype=object))
        assert 4 << undivided + numeric.bit_length(w_int) > 1 << 63
        taken = []
        real = numeric.fixed_width

        def spy(arrays, bits, terms=1):
            out = real(arrays, bits, terms)
            taken.append(out[0].dtype)
            return out

        monkeypatch.setattr(numeric, "fixed_width", spy)
        D, DY = transfer_current(B, w)
        assert taken == [np.int64, np.int64]
        Y = oracle.transfer_current_combinatorial(g, w)
        assert D == math.lcm(*(y.denominator for y in Y.flat))
        assert exact_equal(DY, Y * D)


class TestInverseForms:
    """check_degenerate and check_attained state W^(-1) facts with W; the
    oracles' lcm(p) q / p forms must give the same verdicts."""

    def test_every_instance_to_7(self, instances_to_7):
        # natural and random directions, as criterion 9 takes them, on every
        # spanning tree: the coefficient column, the column bumped at the
        # tree's first edge, and D and D Y negated
        for natural in instances_to_7:
            for inst in (natural, sp.build(flipped(natural.tree))):
                name = sp.format_tree(inst.tree)
                assert sp.check_degenerate(inst) == oracle.degenerate_by_inverse(inst), name
                trees = sp.spanning_trees(inst.graph)
                assert oracle.first_spanning_tree(inst.graph) == trees[0], name
                _, C, _ = stacked_coefficients(inst.tree, trees)
                mirrored = dataclasses.replace(inst, D=-inst.D, DY=-inst.DY)
                for j, tau in enumerate(trees):
                    bumped = C[:, j].copy()
                    bumped[tau[0]] += 1
                    for claim, c in ((inst, C[:, j]), (inst, bumped), (mirrored, C[:, j])):
                        assert (check_attained(claim, tau, c)
                                == oracle.attained_by_inverse(claim, tau, c)), (name, tau)


class TestThirtyEdges:
    """Past MAX_EDGES no sweep runs, yet every exact check does, and there
    check_degenerate and the eigen check take Python ints from
    fixed_width; spanning_trees stops at 12 edges, so the union-find
    oracle gives the first spanning tree."""

    TREE = ("P(S(P(S(P(S(P(S(e,e),e),e),S(e,e),e),P(e,e)),S(P(S(P(S(P(e,e),e),e),"
            "P(e,S(e,e)),e),S(P(e,e,e),e,e),e,e),e)),P(e,e),e),S(e,e))")

    def test_every_check_holds(self, monkeypatch):
        taken = with_dtypes_taken(monkeypatch)
        inst = sp.build(sp.parse_tree(self.TREE))
        assert len(inst.graph.edges) == 30 and len(inst.B) - 1 == 15
        tau = oracle.first_spanning_tree(inst.graph)
        _, C, _ = stacked_coefficients(inst.tree, [tau])
        assert sp.check_degenerate(inst) and sp.check_dual(inst)
        assert sp.check_eigen(inst, [tau]) and check_attained(inst, tau, C[:, 0])
        assert taken == [object, object]
        bumped = inst.DY.copy()
        bumped[tau[0], tau[1]] += 1
        corrupted = dataclasses.replace(inst, DY=bumped)
        assert not sp.check_degenerate(corrupted)
        assert not check_attained(corrupted, tau, C[:, 0])


class TestCheckTarget:
    """The target verdict: check_attained proves cos(target) = 1/sqrt(n)."""

    def test_corrupted_weights_fail(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        bad = dict(inst.weights)
        bad[2] = Fraction(7, 2)
        g = inst.graph
        B = sp.incidence_matrix(g)
        D, DY = transfer_current(B, bad)
        corrupted = dataclasses.replace(inst, weights=bad, B=B, D=D, DY=DY,
                                        w=numeric.integer_weights(bad))
        trees = sp.spanning_trees(g)
        _, C, _ = stacked_coefficients(corrupted.tree, trees)
        for j, tau in enumerate(trees):
            assert not check_attained(corrupted, tau, C[:, j])
            assert not oracle.attained_by_inverse(corrupted, tau, C[:, j])

    def test_zero_column_fails(self):
        inst = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
        assert not check_attained(inst, (0, 1), [0, 0, 0, 0])

    def test_kernel_alone_is_not_enough(self, instances_to_6):
        # adding u v^T to (D Y)[tau, tau], v orthogonal to c, keeps A c == 0
        # and adds n u (W v)^T to M = A W: with u = -big W v, M gains a
        # negative eigenvalue, which the elimination catches; with
        # u = e_0, M is no longer symmetric, and on some trees only the
        # symmetry test catches that; the W^(-1) form rejects both
        symmetry_only = 0
        for inst in instances_to_6:
            n, k = len(inst.graph.edges), inst.subspace.dim
            if k < 2:
                continue
            trees = sp.spanning_trees(inst.graph)
            _, C, _ = stacked_coefficients(inst.tree, trees)
            for j, tau in enumerate(trees):
                idx, c = list(tau), C[list(tau), j].astype(object)
                W = inst.w[idx]
                v = np.zeros(k, dtype=object)
                v[0], v[1] = c[1], -c[0]
                big = 1 + int(np.abs(inst.DY).sum()) * inst.D * int(W.max())
                for u in (-big * W * v, np.eye(k, dtype=int)[0].astype(object)):
                    DY = inst.DY.astype(object)  # big can take it past int64
                    DY[np.ix_(idx, idx)] += np.outer(u, v)
                    bumped = dataclasses.replace(inst, DY=DY)
                    assert not check_attained(bumped, tau, C[:, j])
                    assert not oracle.attained_by_inverse(bumped, tau, C[:, j])
                    A = n * DY[np.ix_(idx, idx)] - inst.D * np.eye(k, dtype=object)
                    assert not A.dot(c).any()
                    M = A * W
                    asymmetric = (M != M.T).any()
                    symmetry_only += asymmetric and positive_definite(M[:-1, :-1].tolist())
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
                assert not oracle.attained_by_inverse(claim, tau, C[:, j])
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
        # all-zero dual weights make every product W_e W*_e zero, which
        # proves no reciprocity, and their gcd of 0 must not divide
        assert_dual_weights_times(0, instances_to_6, monkeypatch)

    def test_negated_dual_weights_fail(self, instances_to_6, monkeypatch):
        # negated dual weights keep every product W_e W*_e equal, but no
        # star space has negative weights
        assert_dual_weights_times(-1, instances_to_6, monkeypatch)


def assert_dual_weights_times(factor, instances, monkeypatch):
    """check_dual rejects every instance, without raising, when the dual's
    weights are multiplied by factor."""
    real = extremal.induced_weights
    monkeypatch.setattr(extremal, "induced_weights",
                        lambda tree: {e: factor * w for e, w in real(tree).items()})
    for inst in instances:
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
        for text in ("P(e,e)", "P(e,S(e,P(e,e)))", "P(e,S(e,e,P(e,e)))"):
            inst = sp.build(sp.parse_tree(text))
            report = sp.verify_instance(inst)
            assert list(report) == ["tree", "weights", "n", "k", "eigen_ok",
                                    "degenerate_ok", "target_ok", "dual_ok"]
            assert report["n"] == len(inst.graph.edges)
            assert report["k"] == inst.subspace.dim
            assert report["eigen_ok"] and report["degenerate_ok"]
            assert report["target_ok"] and report["dual_ok"]

    def test_every_instance_built_from_its_dual(self, instances_to_7):
        # build lays a dual's closed chain out in two-terminal form, which
        # may nest a bundle in its root bundle; every verdict holds, and
        # the report names a tree that parses to a parallel root and, with
        # the same directions, builds the same graph and weights
        nested = 0
        for natural in instances_to_7:
            dual = sp.dualize(natural.tree)
            for tree in (dual, flipped(dual)):
                inst = sp.build(tree)
                report = sp.verify_instance(inst)
                name = report["tree"]
                assert report["eigen_ok"] and report["degenerate_ok"], name
                assert report["target_ok"] and report["dual_ok"], name
                parsed = sp.parse_tree(name)
                assert parsed[-1][0] and not parsed[-1][2], name
                directions = [False] * sp.leaf_count(tree)
                for kids, _, _, eid, sign in tree:
                    if not kids:
                        directions[eid] = sign < 0
                rebuilt = sp.build(orient(parsed, directions))
                assert rebuilt.graph == inst.graph, name
                assert rebuilt.weights == inst.weights, name
                nested += len(parsed) < len(inst.tree)  # a bundle in a bundle
        assert nested > 0

    def test_verify_proves_the_first_spanning_tree(self, monkeypatch):
        # the attainment proof runs on the first tree in lexicographic
        # order, on instances where the float target's subset is another too
        from spextremal import extremal
        real, proved = extremal.check_attained, []
        monkeypatch.setattr(extremal, "check_attained",
                            lambda inst, tau, c: proved.append(tau) or real(inst, tau, c))
        elsewhere = 0
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    inst = sp.build(flipped(t))
                    trees = sp.spanning_trees(inst.graph)
                    assert sp.verify_instance(inst)["target_ok"]
                    assert proved == [trees[0]], sp.format_tree(t)
                    proved.clear()
                    elsewhere += sp.target(inst.subspace)[1] != trees[0]
        assert elsewhere > 0
