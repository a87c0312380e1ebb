"""Property tests over random parallel-rooted trees with at most 8 edges."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import spextremal as sp
from spextremal.sptree import relabel_leaves

from exact_oracles import brute_tree_sums, fraction_y, transfer_current_combinatorial

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@st.composite
def trees(draw, max_edges=8):
    """A parallel-rooted tree; children alternate kind, edge ids in reading order."""

    def grow(size, kind):
        if size == 1:
            return sp.make_leaf()
        cuts = sorted(draw(st.sets(st.integers(1, size - 1), min_size=1,
                                   max_size=size - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        other = sp.Series if kind is sp.Parallel else sp.Parallel
        return kind(tuple(grow(p, other) for p in parts))

    return relabel_leaves(grow(draw(st.integers(2, max_edges)), sp.Parallel))


@PROPERTY
@given(trees())
def test_format_parse_round_trip(tree):
    sp.check_invariants(tree)
    text = sp.format_tree(tree)
    assert sp.parse_tree(text) == tree
    assert sp.format_tree(sp.parse_tree(text)) == text


@PROPERTY
@given(trees())
def test_decompose_recovers_the_tree(tree):
    graph = sp.realize(tree)
    raw = sp.decompose(graph, *graph.terminals).raw_tree
    assert sp.canonicalize(raw) == sp.canonicalize(tree)


@PROPERTY
@given(trees())
def test_tree_sums_match_brute_force(tree):
    w = sp.induced_weights(tree)
    assert sp.tree_sums(tree, w) == brute_tree_sums(sp.realize(tree), w)


@PROPERTY
@given(trees())
def test_dual_weights_reciprocal_up_to_one_factor(tree):
    w = sp.induced_weights(tree)
    dual = sp.induced_weights(sp.dualize(tree))
    assert len({w[e] * dual[e] for e in w}) == 1


@PROPERTY
@given(trees(), st.data())
def test_integer_core_counts_trees(tree, data):
    n = sp.leaf_count(tree)
    directions = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    w = sp.induced_weights(tree)
    T, TY = sp.transfer_current(sp.incidence_matrix(sp.realize(tree, directions)), w)
    # the weights the core eliminates with: coprime integers
    common = math.lcm(*(x.denominator for x in w.values()))
    scaled = {e: x * common for e, x in w.items()}
    g = math.gcd(*(int(x) for x in scaled.values()))
    scaled = {e: x / g for e, x in scaled.items()}
    assert T == sp.tree_sums(tree, scaled).trees
    assert (fraction_y(T, TY) == transfer_current_combinatorial(
        sp.realize(tree, directions), w)).all()
