import json
import random
from fractions import Fraction

import numpy as np
import pytest

import spextremal as sp
from spextremal.numeric import bareiss, incidence_matrix, laplacian
from spextremal.sptree import MultiGraph
from spextremal.weights import stacked_coefficients, weights_to_json

import exact_oracles as oracle
from exact_oracles import (
    brute_tree_sums,
    decompose,
    orient,
    tree_sums,
    two_component_forests,
)


def random_weights(rng, n):
    return {e: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for e in range(n)}


class TestInducedWeights:
    def test_banana_all_ones(self):
        for n in range(2, 7):
            t = sp.parse_tree("P(" + ",".join(["e"] * n) + ")")
            assert sp.induced_weights(t) == {e: Fraction(1) for e in range(n)}

    def test_cycle_all_ones(self):
        for n in range(3, 8):
            t = sp.parse_tree("P(e,S(" + ",".join(["e"] * (n - 1)) + "))")
            assert sp.induced_weights(t) == {e: Fraction(1) for e in range(n)}

    def test_diamond(self):
        t = sp.parse_tree("P(e,S(e,P(e,e)))")
        assert sp.induced_weights(t) == {
            0: Fraction(1), 1: Fraction(1), 2: Fraction(3, 4), 3: Fraction(3, 4)}

    def test_all_weights_positive(self):
        for n in range(2, 8):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    assert all(w > 0 for w in sp.induced_weights(t).values())

    def test_non_two_connected_rejected(self):
        # a single edge or a series root, which nothing closes up
        for text in ("e", "S(e,e)", "S(e,P(e,e))"):
            tree = sp.parse_tree(text)
            with pytest.raises(sp.SpTreeError, match="parallel"):
                sp.induced_weights(tree)
            with pytest.raises(sp.SpTreeError, match="parallel"):
                stacked_coefficients(tree, [(0,)])


def coefficients(tree, tau, flips=None):
    """{e: coefficient} on the spanning tree tau of the tree, oriented by
    flips when they are given."""
    scale, C, on = stacked_coefficients(tree if flips is None else orient(tree, flips), [tau])
    return {e: Fraction(int(C[e, 0]), int(scale[0])) for e in np.flatnonzero(on[:, 0]).tolist()}


class TestInducedCoefficients:
    def test_banana_single_edge_tree(self):
        t = sp.parse_tree("P(e,e,e,e)")
        assert coefficients(t, (2,)) == {2: Fraction(1)}

    def test_cycle_uniform_magnitude(self):
        n = 5
        t = sp.parse_tree("P(e,S(e,e,e,e))")
        y = coefficients(t, tuple(range(1, n)))
        assert {abs(v) for v in y.values()} == {Fraction(1, n - 1)}

    def test_flipping_one_direction_flips_that_sign(self):
        t = sp.parse_tree("P(e,S(e,P(e,e)))")
        base = coefficients(t, (0, 1))
        flipped = coefficients(t, (0, 1), [False, True, False, False])
        assert flipped[0] == base[0]
        assert flipped[1] == -base[1]

    def test_values_nonzero_on_every_tree_edge(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    for tau in sp.spanning_trees(sp.realize(t)):
                        y = coefficients(t, tau)
                        assert set(y) == set(tau)
                        assert all(v != 0 for v in y.values())

    def test_dual_tree_takes_its_graphs_trees(self):
        # the dual's layout, a bundle nested in its root bundle, is read as
        # the graph realize builds from it
        d = sp.dualize(sp.parse_tree("P(e,S(e,P(e,e)))"))
        trees = sp.spanning_trees(sp.realize(d))
        _, C, on = stacked_coefficients(d, trees)
        assert on.sum(axis=0).tolist() == [len(tau) for tau in trees]
        assert all(C[e, j] != 0 for e, j in zip(*np.nonzero(on)))


class TestTreeSums:
    def test_single_edge_base_case(self):
        s = tree_sums(sp.parse_tree("e"), {0: Fraction(5, 3)})
        assert s == (Fraction(5, 3), Fraction(1))

    def test_triangle_unit(self):
        t = sp.parse_tree("P(e,S(e,e))")
        s = tree_sums(t, {e: Fraction(1) for e in range(3)})
        assert s == (Fraction(3), Fraction(2))

    def test_banana_closed_form(self):
        rng = random.Random(3)
        for n in range(2, 7):
            t = sp.parse_tree("P(" + ",".join(["e"] * n) + ")")
            w = random_weights(rng, n)
            s = tree_sums(t, w)
            assert s.trees == sum(w.values())
            assert s.forests == Fraction(1)

    def test_matches_brute_force_with_random_weights(self):
        rng = random.Random(17)
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    for w in (sp.induced_weights(t), random_weights(rng, n)):
                        assert tree_sums(t, w) == brute_tree_sums(g, w)


def assert_listing_counts(graphs):
    """spanning_trees lists det L0 trees of each graph, L0 its grounded
    Laplacian at unit weights (the matrix-tree theorem, one
    numeric.bareiss elimination); and with k the vertex count less one,
    each (n, k) has at least k (n - k) + 1 trees, the least basis count of
    a connected matroid of rank k on n elements, as the cycle matroid of
    a 2-connected graph is, and some graph of each (n, k) has exactly that
    many."""
    least = {}
    for g in graphs:
        n, k = len(g.edges), g.num_vertices - 1
        count, _ = bareiss(laplacian(incidence_matrix(g)[1:], [1] * n).tolist())
        assert len(sp.spanning_trees(g)) == count, g
        least[n, k] = min(count, least.get((n, k), count))
    assert least == {(n, k): k * (n - k) + 1 for n, k in least}


class TestBruteEnumeration:
    def test_triangle_spanning_trees(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,e))"))
        assert sp.spanning_trees(g) == [(0, 1), (0, 2), (1, 2)]

    def test_banana_spanning_trees_are_singletons(self):
        t = sp.parse_tree("P(e,e,e,e)")
        assert sp.spanning_trees(sp.realize(t)) == [(0,), (1,), (2,), (3,)]

    def test_four_cycle_count_matches_matrix_tree_determinant(self, instances_to_7):
        # the four-cycle's four trees, then every instance to 7 edges, and
        # with 8 to 11 edges under --runlong, past the union-find oracle's 9
        assert len(sp.spanning_trees(sp.realize(sp.parse_tree("P(e,S(e,e,e))")))) == 4
        assert_listing_counts([inst.graph for inst in instances_to_7])

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_matrix_tree_count_long(self, n):
        assert_listing_counts(sp.realize(t) for k in range(1, n)
                              for t in sp.enumerate_rooted(n, k))

    def test_two_component_forests_triangle(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,e))"))
        assert len(two_component_forests(g)) == 2

    def test_cap_is_enforced(self):
        t = sp.parse_tree("P(e,S(e,e,e,e,e,e,e,e,e,e,e,e))")
        with pytest.raises(sp.BruteForceCapError, match="13 edges exceed the limit of 12"):
            sp.spanning_trees(sp.realize(t))

    def test_loops_and_disconnected_graphs(self):
        # a loop is a zero column of the incidence matrix: in no tree
        looped = MultiGraph(2, ((0, 1, 0), (1, 1, 1), (1, 0, 2)), (0, 1))
        assert sp.spanning_trees(looped) == oracle.spanning_trees(looped) == [(0,), (2,)]
        apart = MultiGraph(4, ((0, 1, 0), (2, 3, 1), (3, 2, 2)), (0, 1))
        assert sp.spanning_trees(apart) == oracle.spanning_trees(apart) == []


class TestTerminalInvariance:
    def test_coefficients_proportional_across_terminal_choices(self):
        # same directed graph, different terminal pair: the coefficient
        # vectors on a fixed spanning tree agree up to one common factor
        for n in range(2, 5):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    for tau in sp.spanning_trees(g):
                        base = coefficients(t, tau)
                        for tail, head, _ in g.edges:
                            d = decompose(g, tail, head)
                            y2 = coefficients(d.raw_tree, tau)
                            ratios = {y2[e] / base[e] for e in tau}
                            assert len(ratios) == 1, (
                                sp.format_tree(t), tau, (tail, head), ratios)


class TestSerialization:
    def test_round_trip(self):
        w = {0: Fraction(1), 1: Fraction(3, 4)}
        blob = json.dumps(weights_to_json(w))
        assert {int(e): Fraction(s) for e, s in json.loads(blob).items()} == w

    def test_exact_strings(self):
        assert weights_to_json({0: Fraction(3, 4)}) == {"0": "3/4"}
        assert weights_to_json({0: Fraction(2)}) == {"0": "2/1"}
        assert weights_to_json({0: 2, 1: Fraction(6, 4)}) == {"0": "2/1", "1": "3/2"}
