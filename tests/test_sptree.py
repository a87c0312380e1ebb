import random

import pytest

import spextremal as sp
from spextremal.sptree import (
    Leaf,
    MultiGraph,
    Parallel,
    Series,
    canonicalize,
    check_invariants,
    decompose,
    leaf_ids,
    make_parallel,
    make_series,
    skeleton_key,
)

import exact_oracles as oracle


def leaf(i=0):
    return Leaf(i)


def random_tree(rng, n_edges):
    """Random alternating tree with n_edges leaves (ids in reading order)."""
    counter = iter(range(n_edges))

    def grow(budget, kind):
        if budget == 1:
            return Leaf(next(counter))
        # split the budget into at least 2 parts
        parts = []
        left = budget
        while left > 0:
            if len(parts) >= 1 and left == 1:
                size = 1
            else:
                size = rng.randint(1, max(1, left - (0 if parts else 1)))
            parts.append(size)
            left -= size
        if len(parts) == 1:
            parts = [1, budget - 1] if budget > 1 else parts
        other = Series if kind is Parallel else Parallel
        return kind(tuple(grow(s, other) for s in parts))

    tree = grow(n_edges, Parallel if rng.random() < 0.5 else Series)
    return tree if not isinstance(tree, Leaf) else Parallel((tree, Leaf(next(counter))))


class TestConstructors:
    def test_parallel_pair(self):
        t = make_parallel([leaf(0), leaf(1)])
        assert isinstance(t, Parallel) and len(t.children) == 2

    def test_series_flattening(self):
        t = make_series([leaf(0), make_series([leaf(1), leaf(2)])])
        assert isinstance(t, Series) and len(t.children) == 3

    def test_parallel_flattening(self):
        t = make_parallel([leaf(0), make_parallel([leaf(1), leaf(2)])])
        assert isinstance(t, Parallel) and len(t.children) == 3

    def test_single_child_identity(self):
        e = leaf(0)
        assert make_parallel([e]) is e
        assert make_series([e]) is e

    def test_invariants_on_random_compositions(self):
        rng = random.Random(42)
        for _ in range(200):
            t = random_tree(rng, rng.randint(2, 9))
            check_invariants(t)


class TestRank:
    def test_two_cycle(self):
        assert sp.rank(sp.parse_tree("P(e,e)")) == 1

    def test_path_of_two(self):
        assert sp.rank(sp.parse_tree("S(e,e)")) == 2

    def test_four_cycle_matches_vertex_count(self):
        t = sp.parse_tree("P(e,S(e,e,e))")
        assert sp.rank(t) == 3
        assert sp.realize(t).num_vertices == 4

    def test_rank_plus_one_is_vertex_count(self):
        for n in range(2, 8):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    assert sp.rank(t) + 1 == sp.realize(t).num_vertices


class TestGrammar:
    def test_round_trip(self):
        for s in ["P(e,e)", "P(e,S(e,P(e,e)))", "P(e,e,S(e,e))"]:
            assert sp.format_tree(sp.parse_tree(s)) == s

    def test_whitespace_ignored(self):
        assert sp.format_tree(sp.parse_tree(" P( e , S(e, e) ) ")) == "P(e,S(e,e))"

    def test_leaf_ids_reading_order(self):
        t = sp.parse_tree("P(e,S(e,e))")
        assert leaf_ids(t) == [0, 1, 2]

    def test_alternation_rejected_with_position(self):
        with pytest.raises(sp.TreeParseError) as err:
            sp.parse_tree("P(P(e,e),e)")
        assert err.value.position == 2

    def test_single_operand_rejected(self):
        with pytest.raises(sp.TreeParseError):
            sp.parse_tree("P(e)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(sp.TreeParseError):
            sp.parse_tree("P(e,e)x")

    def test_truncated_input_rejected(self):
        with pytest.raises(sp.TreeParseError):
            sp.parse_tree("P(e,")


class TestCanonicalize:
    def test_parallel_children_sorted(self):
        t = make_parallel([make_series([leaf(0), leaf(1)]), leaf(2)])
        assert sp.format_tree(canonicalize(t)) == "P(e,S(e,e))"

    def test_series_reversal_identified(self):
        a = sp.parse_tree("S(P(e,e),e)")
        b = sp.parse_tree("S(e,P(e,e))")
        assert canonicalize(a) == canonicalize(b)

    def test_idempotent_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(200):
            t = random_tree(rng, rng.randint(2, 9))
            c = canonicalize(t)
            assert canonicalize(c) == c

    def test_enumeration_is_duplicate_free(self):
        for n in range(2, 8):
            for k in range(1, n):
                trees = sp.enumerate_rooted(n, k)
                assert len({skeleton_key(t) for t in trees}) == len(trees)
                assert all(canonicalize(t) == t for t in trees)


class TestEnumerate:
    def test_smallest_cases(self):
        assert [sp.format_tree(t) for t in sp.enumerate_rooted(2, 1)] == ["P(e,e)"]
        assert [sp.format_tree(t) for t in sp.enumerate_rooted(3, 2)] == ["P(e,S(e,e))"]

    def test_four_edges_rank_two(self):
        got = {sp.format_tree(t) for t in sp.enumerate_rooted(4, 2)}
        assert got == {"P(e,e,S(e,e))", "P(e,S(e,P(e,e)))"}

    def test_infeasible_is_empty(self):
        assert sp.enumerate_rooted(3, 3) == []
        assert sp.enumerate_rooted(2, 5) == []
        assert sp.enumerate_rooted(1, 1) == []

    def test_every_tree_has_requested_size(self):
        for n in range(2, 8):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    assert sp.leaf_count(t) == n
                    assert sp.rank(t) == k


class TestDualize:
    def test_two_cycle(self):
        assert sp.dualize(sp.parse_tree("P(e,e)")) == sp.parse_tree("S(e,e)")

    def test_involution(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    assert sp.dualize(sp.dualize(t)) == t

    def test_realized_rank_complement(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    dual_rank = sp.realize(sp.dualize(t)).num_vertices - 1
                    assert dual_rank == n - sp.rank(t)

    def test_four_cycle_dual_is_banana(self):
        d = sp.dualize(sp.parse_tree("P(e,S(e,e,e))"))
        g = sp.realize(d)
        assert g.num_vertices == 2 and len(g.edges) == 4


def connected_after_removal(graph, victim):
    verts = [v for v in range(graph.num_vertices) if v != victim]
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for t, h, _ in graph.edges:
        if t != victim and h != victim:
            adj[t].add(h)
            adj[h].add(t)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def realize_cases(n):
    """Every tree with n edges and its dual, each with the natural
    directions and with one seeded flip set."""
    for k in range(1, n):
        for t in sp.enumerate_rooted(n, k):
            for tree in (t, sp.dualize(t)):
                rng = random.Random(sp.format_tree(tree))
                yield tree, None
                yield tree, [rng.random() < 0.5 for _ in range(n)]


class TestRealize:
    def test_matches_union_find_oracle_to_7(self):
        for n in range(2, 8):
            for tree, directions in realize_cases(n):
                graph, _ = oracle.realize_with_spans(tree, directions)
                assert sp.realize(tree, directions) == graph, sp.format_tree(tree)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_matches_union_find_oracle_long(self, n):
        for tree, directions in realize_cases(n):
            graph, _ = oracle.realize_with_spans(tree, directions)
            assert sp.realize(tree, directions) == graph, sp.format_tree(tree)

    @pytest.mark.parametrize("tree, directions", [
        (Leaf(0), None),                           # a single edge
        (Parallel((Leaf(0), Leaf(0))), None),      # an edge id twice
        (Parallel((Leaf(0), Leaf(2))), None),      # an edge id missing
        (Parallel((Leaf(0), Leaf(1))), [True]),    # too few direction flags
    ])
    def test_malformed_input_rejected(self, tree, directions):
        with pytest.raises(sp.SpTreeError):
            sp.realize(tree, directions)
        with pytest.raises(sp.SpTreeError):
            oracle.realize_with_spans(tree, directions)

    def test_two_cycle(self):
        g = sp.realize(sp.parse_tree("P(e,e)"))
        assert g.num_vertices == 2
        assert [(t, h) for t, h, _ in g.edges] == [(0, 1), (0, 1)]

    def test_triangle_counts(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,e))"))
        assert g.num_vertices == 3 and len(g.edges) == 3

    def test_direction_flags_flip_edges(self):
        g = sp.realize(sp.parse_tree("P(e,e)"), [False, True])
        assert [(t, h) for t, h, _ in g.edges] == [(0, 1), (1, 0)]

    def test_two_connected_for_all_enumerated(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    assert all(connected_after_removal(g, v)
                               for v in range(g.num_vertices))

    def test_single_edge_rejected(self):
        with pytest.raises(sp.SpTreeError):
            sp.realize(leaf(0))


class TestDecompose:
    def test_triangle(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,e))"))
        d = decompose(g, *g.terminals)
        assert sp.format_tree(d.tree) == "P(e,S(e,e))"

    def test_round_trip_for_all_enumerated(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    d = decompose(g, *g.terminals)
                    assert d.tree == canonicalize(t)

    def test_path_graph_rejected(self):
        g = MultiGraph(3, ((0, 1, 0), (1, 2, 1)), (0, 2))
        with pytest.raises(sp.SpTreeError):
            decompose(g, 0, 2)

    def test_reduction_order_confluence(self):
        trees = [t for n in range(4, 7) for k in range(1, n)
                 for t in sp.enumerate_rooted(n, k)]
        for t in trees:
            g = sp.realize(t)
            baseline = decompose(g, *g.terminals).tree
            for seed in range(3):
                shuffled = decompose(g, *g.terminals, rng=random.Random(seed))
                assert shuffled.tree == baseline

    def test_realization_reproduces_input(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    dirs = [rng.random() < 0.5 for _ in range(n)]
                    g = sp.realize(t, dirs)
                    for tail, head, _ in g.edges:
                        d = decompose(g, tail, head)
                        rebuilt = sp.realize(d.raw_tree, list(d.raw_flips))
                        original = {e: (t2, h2) for t2, h2, e in g.edges}
                        fwd, back = {}, {}
                        for tail2, head2, eid in rebuilt.edges:
                            tail1, head1 = original[eid]
                            for a, b in ((tail2, tail1), (head2, head1)):
                                assert fwd.setdefault(a, b) == b
                                assert back.setdefault(b, a) == a

    def test_raw_tree_canonicalizes_to_tree(self):
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    for tail, head, _ in g.edges:
                        d = decompose(g, tail, head)
                        assert canonicalize(d.raw_tree) == d.tree

    def test_terminal_choice_at_any_edge_endpoint(self):
        for n in range(3, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    for tail, head, _ in g.edges:
                        d = decompose(g, tail, head)
                        assert sp.leaf_count(d.tree) == n
