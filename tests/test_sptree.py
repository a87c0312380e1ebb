import random
from fractions import Fraction

import pytest

import spextremal as sp
from spextremal import sptree
from spextremal.sptree import MultiGraph
from spextremal.weights import stacked_coefficients

import exact_oracles as oracle
from exact_oracles import (
    _shifted,
    canonicalize,
    check_invariants,
    compose,
    decompose,
    flipped,
    leaf_ids,
    orient,
    reverse_tree,
    skeleton_key,
)


def leaf(i=0):
    """The one-edge tree of edge i."""
    return (((), 1, False, i, 1),)


def random_tree(rng, n_edges, series=None):
    """Random alternating tree with n_edges leaves (ids in reading order),
    its root series or parallel as series says, or at random when None."""
    counter = iter(range(n_edges))

    def grow(budget, series):
        if budget == 1:
            return leaf(next(counter))
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
        return compose([grow(s, not series) for s in parts], series)

    tree = grow(n_edges, rng.random() < 0.5 if series is None else series)
    return tree if len(tree) > 1 else compose([tree, leaf(next(counter))], False)


def nest(parts, series):
    """The parts, in order, under one new series (series true) or parallel
    node, none spliced in by its children as compose splices them."""
    nodes, kids = [], []
    for part in parts:
        nodes.extend(_shifted(part, len(nodes)))
        kids.append(len(nodes) - 1)
    return (*nodes, (tuple(kids), sum([nodes[c][1] for c in kids]), series, None, 0))


def regrouped(rng, node):
    """The post-order tuple of a nested view, where at random some runs of
    two or more, but not all, consecutive children of a node are grouped
    under a new node of that node's kind."""
    if isinstance(node, oracle.Leaf):
        return (((), 1, False, node.eid, node.sign),)
    series = isinstance(node, oracle.Series)
    parts = [regrouped(rng, child) for child in node.children]
    if len(parts) > 2 and rng.random() < 0.7:
        a = rng.randrange(len(parts) - 1)
        b = rng.randint(a + 2, len(parts) - (a == 0))
        parts[a:b] = [nest(parts[a:b], series)]
    return nest(parts, series)


def coefficient_fractions(tree, trees):
    """stacked_coefficients' C / s as Fractions, with its support."""
    s, C, on = stacked_coefficients(tree, trees)
    return [[Fraction(int(C[e, j]), int(s[j])) for e in range(len(C))]
            for j in range(len(trees))], on.tolist()


class TestConstructors:
    def test_parallel_pair(self):
        t = compose([leaf(0), leaf(1)], False)
        assert t == sp.parse_tree("P(e,e)")
        check_invariants(t)

    def test_series_flattening(self):
        t = compose([leaf(0), compose([leaf(1), leaf(2)], True)], True)
        assert t == sp.parse_tree("S(e,e,e)")

    def test_parallel_flattening(self):
        t = compose([leaf(0), compose([leaf(1), leaf(2)], False)], False)
        assert t == sp.parse_tree("P(e,e,e)")

    def test_single_child_identity(self):
        e = leaf(0)
        assert compose([e], False) == e
        assert compose([e], True) == e
        with pytest.raises(sp.SpTreeError, match="parallel composition needs at least one operand"):
            compose([], False)

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
        t = compose([compose([leaf(0), leaf(1)], True), leaf(2)], False)
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
            check_invariants(c)
            assert canonicalize(c) == c

    def test_matches_nested_key_oracle(self):
        # integer ranks order the children as the nested keys do, ties too
        rng = random.Random(11)
        for _ in range(300):
            t = random_tree(rng, rng.randint(2, 12))
            assert canonicalize(t) == oracle.nested_canonicalize(t)

    def test_enumeration_is_duplicate_free(self):
        for n in range(2, 8):
            for k in range(1, n):
                trees = sp.enumerate_rooted(n, k)
                assert len({skeleton_key(t) for t in trees}) == len(trees)
                assert all(canonicalize(t) == t for t in trees)


class TestReverse:
    def test_same_directed_network_from_the_other_terminal(self):
        rng = random.Random(5)
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    tree = orient(t, [rng.random() < 0.5 for _ in range(n)])
                    back = reverse_tree(tree)
                    check_invariants(back)
                    assert reverse_tree(back) == tree
                    assert canonicalize(back) == canonicalize(tree) == t
                    # one vertex map carries every edge of g onto the same
                    # edge of h, tail to tail, and swaps the terminals
                    g, h = sp.realize(tree), sp.realize(back)
                    onto = {}
                    for (t1, h1, _), (t2, h2, _) in zip(g.edges, h.edges):
                        assert onto.setdefault(t1, t2) == t2 and onto.setdefault(h1, h2) == h2
                    assert len(set(onto.values())) == len(onto) == g.num_vertices
                    assert tuple(onto[v] for v in g.terminals) == h.terminals[::-1]


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
                    check_invariants(t)
                    assert sp.leaf_count(t) == n
                    assert sp.rank(t) == k


def shape_keys(n_max):
    """Every parallel and series shape key with 2..n_max edges, all ranks."""
    return [key for n in range(2, n_max + 1) for k in range(1, n)
            for key in sptree._parallel_shapes(n, k) + sptree._series_shapes(n, k)]


class TestWriter:
    """Enumeration writes each tree in one post-order pass over its shape
    key, leaves numbered as written; the three-pass oracle agrees."""

    @pytest.mark.parametrize("n", [9, pytest.param(12, marks=pytest.mark.long)])
    def test_matches_three_pass_oracle(self, n):
        for key in shape_keys(n):
            assert sptree._written_out(key) == oracle.written_out(key), key


class TestDualize:
    def test_two_cycle(self):
        # the dual 2-cycle, cut at the ends of its first edge, runs its
        # second edge against the first
        assert sp.dualize(sp.parse_tree("P(e,e)")) == orient(sp.parse_tree("P(e,e)"), [False, True])

    def test_involution(self):
        # twice dualized, a tree keeps its nodes and signs; a root of three
        # or more parts keeps its first and bundles the others under a new
        # parallel node
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    tree = flipped(t)
                    first, *rest = tree[-1][0]
                    expected = tree if len(rest) == 1 else (
                        *tree[:-1], (tuple(rest), n - tree[first][1], False, None, 0),
                        ((first, len(tree) - 1), n, False, None, 0))
                    assert sp.dualize(sp.dualize(tree)) == expected, sp.format_tree(t)

    def test_rank_complement_and_involution_to_7(self):
        # the dual has rank n - rank(t), the rank it realizes with, and
        # dualizing twice gives back the text, the oriented graph and the
        # weights, whatever the directions
        for n in range(2, 8):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    for tree in (t, flipped(t)):
                        name, dual = sp.format_tree(tree), sp.dualize(tree)
                        assert (sp.rank(dual) == n - sp.rank(tree)
                                == sp.realize(dual).num_vertices - 1), name
                        twice = sp.dualize(dual)
                        assert sp.format_tree(twice) == name
                        assert sp.realize(twice) == sp.realize(tree), name
                        assert sp.induced_weights(twice) == sp.induced_weights(tree), name

    def test_series_root_and_single_edge_rejected(self):
        for text in ("S(e,e)", "e"):
            with pytest.raises(sp.SpTreeError, match="parallel"):
                sp.dualize(sp.parse_tree(text))

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
    directions and with one seeded flip set, as (tree, flags, the tree the
    flags orient) triples; flags None keep the tree's own signs."""
    for k in range(1, n):
        for t in sp.enumerate_rooted(n, k):
            for tree in (t, sp.dualize(t)):
                rng = random.Random(sp.format_tree(tree))
                flags = [rng.random() < 0.5 for _ in range(n)]
                yield tree, None, tree
                yield tree, flags, orient(tree, flags)


class TestRealize:
    def test_matches_union_find_oracle_to_7(self):
        for n in range(2, 8):
            for tree, directions, oriented in realize_cases(n):
                graph, _ = oracle.realize_with_spans(tree, directions)
                assert sp.realize(oriented) == graph, sp.format_tree(tree)

    @pytest.mark.long
    @pytest.mark.parametrize("n", [8, 9])
    def test_matches_union_find_oracle_long(self, n):
        for tree, directions, oriented in realize_cases(n):
            graph, _ = oracle.realize_with_spans(tree, directions)
            assert sp.realize(oriented) == graph, sp.format_tree(tree)

    @pytest.mark.parametrize("tree, directions", [
        (leaf(0), None),                                # a single edge
        (compose([leaf(0), leaf(0)], False), None),     # an edge id twice
        (compose([leaf(0), leaf(2)], False), None),     # an edge id missing
        (compose([leaf(0), leaf(1)], False), [True]),   # too few direction flags
        (compose([leaf(0), leaf(1)], False), [True] * 3),  # too many direction flags
        (compose([leaf(0), leaf(2)], False), [True] * 2),  # a flag for a missing edge id
        (compose([leaf(0), leaf(1)], True), None),      # a series root
    ])
    def test_malformed_input_rejected(self, tree, directions):
        # realize rejects a malformed tree, and orient malformed flags
        with pytest.raises(sp.SpTreeError):
            sp.realize(tree) if directions is None else orient(tree, directions)
        with pytest.raises(sp.SpTreeError):
            oracle.realize_with_spans(tree, directions)

    @pytest.mark.parametrize("directions", [[True], [False] * 5])
    def test_layout_needs_one_flag_per_edge(self, directions):
        with pytest.raises(sp.SpTreeError, match="one direction flag per edge"):
            orient(sp.parse_tree("P(e,e,e)"), directions)

    def test_layout_passes_through_and_keeps_its_signs(self):
        # a tree carries its direction signs, realize keeps them, and
        # orient replaces them
        tree = sp.parse_tree("P(e,S(e,e))")
        flipped = orient(tree, [False, True, False])
        assert [node[4] for node in flipped if not node[0]] == [1, -1, 1]
        assert sp.realize(flipped) == oracle.realize_with_spans(tree, [False, True, False])[0]
        assert sp.realize(flipped) != sp.realize(tree)
        assert orient(flipped, [False] * 3) == tree

    def test_layout_of_a_closed_chain_realizes_as_the_chain(self):
        # dualize closes the chain of the dual parts into the first part in
        # parallel with the chain of the others, or with the one other
        # part, each nested as it comes, the first part's leaves keeping
        # their signs and the others flipped; the text, graph and weights
        # are those of the flat tree the text grammar writes
        for text, rooted, flat in (
                ("P(e,S(e,e),e)", orient(sp.parse_tree("P(e,S(P(e,e),e))"), [False] + [True] * 3),
                 "P(e,S(P(e,e),e))"),
                ("P(S(e,e),e)", orient(nest([sp.parse_tree("P(e,e)"), leaf(2)], False),
                                       [False, False, True]), "P(e,e,e)")):
            flips = [True, False, False, True][:rooted[-1][1]]
            assert sp.dualize(sp.parse_tree(text)) == rooted
            assert sp.format_tree(rooted) == flat
            same = sp.parse_tree(flat)
            assert sp.realize(orient(same, flips)) == sp.realize(orient(rooted, flips))
            assert sp.induced_weights(same) == sp.induced_weights(rooted)

    def test_two_terminal_form_composes_the_closed_chain(self):
        # the dual's first part in parallel with the series chain of the
        # others, or with the one other part, neither spliced, with the
        # leaves kept in reading order, the first part's signs kept and
        # the others flipped; the text is that of the spliced composition
        rng = random.Random(13)
        swap = str.maketrans("PS", "SP")
        for _ in range(300):
            n = rng.randint(2, 12)
            flips = [rng.random() < 0.5 for _ in range(n)]
            tree = orient(random_tree(rng, n, series=False), flips)
            text, depth, cuts = sp.format_tree(tree).translate(swap), 0, []
            for i, ch in enumerate(text):
                depth += (ch == "(") - (ch == ")")
                if depth == 1 and ch in "(,":
                    cuts.append(i)
            parts = [sp.parse_tree(text[a + 1:b]) for a, b in zip(cuts, cuts[1:] + [len(text) - 1])]
            chain = compose(parts[1:], True)
            first = sp.leaf_count(parts[0])
            signs = [flip != (e >= first) for e, flip in enumerate(flips)]
            dual = sp.dualize(tree)
            check_invariants(dual, alternating=False)
            assert dual == orient(oracle.relabel_leaves(nest([parts[0], chain], False)), signs), text
            assert sp.format_tree(dual) == sp.format_tree(compose([parts[0], chain], False)), text

    def test_walks_read_a_nested_node_as_its_parts(self):
        # grouping consecutive children of a node under a new node of its
        # kind changes no walk: a bundle inside a bundle shares its
        # terminals, and along a chain inside a chain the ratios telescope
        rng = random.Random(17)
        grouped_any = False
        for _ in range(300):
            tree = random_tree(rng, rng.randint(2, 10), series=False)
            tree = orient(tree, [rng.random() < 0.5 for _ in range(sp.leaf_count(tree))])
            grouped = regrouped(rng, oracle.nested(tree))
            text = sp.format_tree(tree)
            check_invariants(grouped, alternating=False)
            if grouped != tree:
                grouped_any = True
                with pytest.raises(sp.SpTreeError, match="alternate"):
                    check_invariants(grouped)
            assert sp.format_tree(grouped) == text
            assert sp.rank(grouped) == sp.rank(tree), text
            assert sp.realize(grouped) == sp.realize(tree), text
            assert sp.induced_weights(grouped) == sp.induced_weights(tree), text
            assert oracle.class_key(grouped) == oracle.class_key(tree), text
            trees = sp.spanning_trees(sp.realize(tree))
            assert (coefficient_fractions(grouped, trees)
                    == coefficient_fractions(tree, trees)), text
        assert grouped_any

    def test_two_cycle(self):
        g = sp.realize(sp.parse_tree("P(e,e)"))
        assert g.num_vertices == 2
        assert [(t, h) for t, h, _ in g.edges] == [(0, 1), (0, 1)]

    def test_triangle_counts(self):
        g = sp.realize(sp.parse_tree("P(e,S(e,e))"))
        assert g.num_vertices == 3 and len(g.edges) == 3

    def test_direction_flags_flip_edges(self):
        g = sp.realize(orient(sp.parse_tree("P(e,e)"), [False, True]))
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

    @pytest.mark.parametrize("ids", [(0, 5, 1), (0, 1, 1)])
    def test_edge_ids_not_a_permutation_rejected(self, ids):
        # a gap (5 for 2) or a repeat (1 twice) among the ids of a triangle
        g = MultiGraph(3, ((0, 1, ids[0]), (1, 2, ids[1]), (0, 2, ids[2])), (0, 2))
        with pytest.raises(sp.SpTreeError, match="leaf edge ids must be a permutation"):
            decompose(g, 0, 2)

    def test_reduction_order_confluence(self):
        # permuted vertex numbers and a shuffled edge list, edge ids kept,
        # reorder the bundles, their members and the degree-2 candidates
        # the reduction meets; the canonical tree stays
        rng = random.Random(3)
        trees = [t for n in range(4, 7) for k in range(1, n)
                 for t in sp.enumerate_rooted(n, k)]
        for t in trees:
            g = sp.realize(t)
            baseline = decompose(g, *g.terminals).tree
            for _ in range(3):
                perm = rng.sample(range(g.num_vertices), g.num_vertices)
                edges = [(perm[tail], perm[head], e) for tail, head, e in g.edges]
                rng.shuffle(edges)
                terminals = tuple(perm[v] for v in g.terminals)
                shuffled = decompose(MultiGraph(g.num_vertices, tuple(edges), terminals),
                                     *terminals)
                assert shuffled.tree == baseline

    def test_realization_reproduces_input(self):
        rng = random.Random(11)
        for n in range(2, 7):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    dirs = [rng.random() < 0.5 for _ in range(n)]
                    g = sp.realize(orient(t, dirs))
                    for tail, head, _ in g.edges:
                        d = decompose(g, tail, head)
                        rebuilt = sp.realize(d.raw_tree)
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
                        check_invariants(d.raw_tree)
                        assert canonicalize(d.raw_tree) == d.tree

    def test_terminal_choice_at_any_edge_endpoint(self):
        for n in range(3, 6):
            for k in range(1, n):
                for t in sp.enumerate_rooted(n, k):
                    g = sp.realize(t)
                    for tail, head, _ in g.edges:
                        d = decompose(g, tail, head)
                        assert sp.leaf_count(d.tree) == n
