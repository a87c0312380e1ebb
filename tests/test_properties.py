"""Property tests over random parallel-rooted trees with at most 8 edges."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import spextremal as sp
from spextremal.numeric import transfer_current
from spextremal.weights import stacked_coefficients

import exact_oracles as oracle
from exact_oracles import (
    brute_tree_sums,
    canonicalize,
    check_invariants,
    compose,
    decompose,
    fraction_y,
    orient,
    transfer_current_combinatorial,
    tree_sums,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def trees(draw, max_edges=8):
    """A parallel-rooted tree; children alternate kind, edge ids in reading order."""

    def grow(size, series):
        if size == 1:
            return sp.parse_tree("e")
        cuts = sorted(draw(st.sets(st.integers(1, size - 1), min_size=1,
                                   max_size=size - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        return compose([grow(p, not series) for p in parts], series)

    return oracle.relabel_leaves(grow(draw(st.integers(2, max_edges)), False))


@PROPERTY
@given(trees())
def test_format_parse_round_trip(tree):
    check_invariants(tree)
    text = sp.format_tree(tree)
    assert sp.parse_tree(text) == tree
    assert sp.format_tree(sp.parse_tree(text)) == text


@PROPERTY
@given(trees())
def test_decompose_recovers_the_tree(tree):
    graph = sp.realize(tree)
    raw = decompose(graph, *graph.terminals).raw_tree
    assert canonicalize(raw) == canonicalize(tree)


@PROPERTY
@given(trees(), st.data())
def test_realize_matches_union_find_oracle(tree, data):
    n = sp.leaf_count(tree)
    ids = data.draw(st.permutations(range(n)))
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))

    renumbered = tuple([node if node[0] else ((), 1, False, ids[node[3]], 1) for node in tree])
    for t in (renumbered, sp.dualize(renumbered)):
        graph, _ = oracle.realize_with_spans(t, directions)
        assert sp.realize(orient(t, directions)) == graph


@PROPERTY
@given(trees())
def test_tree_sums_match_brute_force(tree):
    w = sp.induced_weights(tree)
    assert tree_sums(tree, w) == brute_tree_sums(sp.realize(tree), w)


@PROPERTY
@given(trees())
def test_dual_weights_reciprocal_up_to_one_factor(tree):
    w = sp.induced_weights(tree)
    dual = sp.induced_weights(sp.dualize(tree))
    assert len({w[e] * dual[e] for e in w}) == 1


def coprime_weights(w):
    """The weights scaled to coprime integers, as transfer_current scales them."""
    common = math.lcm(*(x.denominator for x in w.values()))
    scaled = {e: int(x * common) for e, x in w.items()}
    g = math.gcd(*scaled.values())
    return {e: x // g for e, x in scaled.items()}


@PROPERTY
@given(trees(), st.data())
def test_integer_core_counts_trees(tree, data):
    n = sp.leaf_count(tree)
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w = sp.induced_weights(tree)
    T, TY = transfer_current(sp.incidence_matrix(sp.realize(orient(tree, directions))), w)
    assert T == tree_sums(tree, coprime_weights(w)).trees
    assert (fraction_y(T, TY) == transfer_current_combinatorial(
        sp.realize(orient(tree, directions)), w)).all()


@PROPERTY
@given(trees(), st.data())
def test_tree_minor_is_tree_weight_over_tree_count(tree, data):
    # Burton and Pemantle (Ann. Probab. 21, 1993): det Y[tau, tau] is the
    # probability w(tau) / T that the weighted random spanning tree is tau
    n = sp.leaf_count(tree)
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    inst = sp.build(orient(tree, directions))
    tau = list(data.draw(st.sampled_from(sp.spanning_trees(inst.graph))))
    T, _ = transfer_current(inst.B, inst.weights)
    w = coprime_weights(inst.weights)
    det, _ = oracle.bareiss(inst.DY[np.ix_(tau, tau)].tolist())
    assert det * T == inst.D ** len(tau) * math.prod(w[e] for e in tau)


@PROPERTY
@given(trees(), st.data())
def test_determinant_trees_match_union_find(tree, data):
    # the batched unimodular determinant lists the union-find sweep's trees,
    # and the target over them is the exhaustive target, bit for bit
    n = sp.leaf_count(tree)
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    inst = sp.build(orient(tree, directions))
    trees = sp.spanning_trees(inst.graph)
    assert trees == oracle.spanning_trees(inst.graph)
    (angle, best), (whole_angle, whole_best) = (
        sp.target(inst.subspace, trees), sp.target(inst.subspace))
    assert angle.hex() == whole_angle.hex() and best == whole_best


@PROPERTY
@given(trees(), st.data())
def test_stacked_coefficients_match_per_tree_pass(tree, data):
    # one pass over the layout gives every tree's coefficients, column for
    # column the per-tree pass; the complements are the dual's trees
    n = sp.leaf_count(tree)
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    inst = sp.build(orient(tree, directions))
    trees = sp.spanning_trees(inst.graph)
    scale, C, on = stacked_coefficients(inst.tree, trees)
    for j, tau in enumerate(trees):
        s, y = oracle.scaled_coefficients(inst.tree, tau)
        assert scale[j] == s and {e: C[e, j] for e in range(n) if on[e, j]} == y
    dual = sp.realize(sp.dualize(tree))
    assert sorted(tuple(e for e in range(n) if e not in tau) for tau in trees) \
        == sp.spanning_trees(dual)


@PROPERTY
@given(trees(max_edges=12), st.data())
def test_planar_dual_is_the_dual_tree_realized(tree, data):
    # the dual's layout, derived from the primal's, realizes and weighs as
    # the dual tree does, whatever the primal's directions
    n = sp.leaf_count(tree)
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    graph, weights, _ = sp.planar_dual(sp.build(orient(tree, directions)))
    dual = sp.dualize(tree)
    assert graph == sp.realize(dual) and weights == sp.induced_weights(dual)
