"""Test oracles for the integer exact core: the Fraction paths.

fraction_y forms the Fraction matrix Y from an integer pair (s, s Y), as
spextremal.transfer_current returns it or as an instance holds it in
(D, D Y); fraction_projection reads the float projector off that Y in
Fractions (spextremal itself no longer forms it), and transfer_current_combinatorial sums Y over the spanning
trees.  induced_coefficients here finds, for every node of the
decomposition, by its own union-find over the node's tau edges whether
tau connects the node's terminals, and walks the series chains in
Fraction arithmetic; scaled_coefficients is the integer pass over the
layout for one tree at a time, which weights.stacked_coefficients runs
for all of them at once.  check_eigen and check_degenerate work on the
Fraction matrix Y one subset at a time, the latter through rational_det,
which clears each row's denominators before one integer elimination by
bareiss, the pivoting version of numeric.bareiss for matrices that are
not positive definite.  tree_sums gives the weighted tree and 2-forest
sums by the series/parallel recurrences (criterion 4 checks them),
brute_tree_sums by sweeping every edge subset, and spanning_trees keeps
the k-subsets on which a union-find closes no cycle; first_spanning_tree
takes each edge in order that closes none, which gives the first of them
at any size.  degenerate_by_inverse and attained_by_inverse are
check_degenerate's identity (d) and check_attained's matrix in their
W^(-1) forms, scaled to integers by inverse_weights, lcm(p) q / p for
w = p / q, where spextremal states both with W.  check_invariants
checks a tree's alternation, arity and edge ids, all but the alternation
for a two_terminal_layout.

The tree code spextremal does not ship, since every path it runs goes
from tree to graph, lives here too: compose (series or parallel
composition), orient (a tree's leaf signs from direction flags, which is
how the tests give every instance arbitrary edge directions),
leaf_ids, reverse_tree, canonicalize (the representative modulo parallel
reordering and series reversal, ordering children by integer ranks), and
decompose, which reduces a concrete multigraph back to its canonical tree.
written_out writes a shape key out in three passes, a breadth-first
listing, _relist into post-order and relabel_leaves; sptree._written_out
writes it in one, and must give the same tuple on every shape key.
Every step of decompose rebuilds its bundle and incidence maps over all
virtual edges, and reversing one re-lists its whole tree, so decompose
is quadratic in the edge count, a cost that falls on the tests alone.
skeleton_key is the nested key that canonicalize replaces by integer
ranks, and nested_canonicalize orders each node's children by it, as
canonicalize must.  realize_with_spans glues the graph from two fresh
vertices per leaf by a union-find and keeps every node's terminal pair.  The integer routines
in spextremal must agree with these: the batched eigen check with
check_eigen on every spanning tree, the transfer-current proof with
check_degenerate on every non-tree subset, the stacked coefficients with
scaled_coefficients and with induced_coefficients on every tree, the
batched determinant with the union-find sweep, and the top-down
sptree.realize with realize_with_spans.  The oracles that recurse read
the nested view of a tree that nested builds, Leaf, Series and Parallel
objects, so they share no walk with spextremal.  class_key is the
canonical key of a tree's cycle matroid, read off its polygon-bond tree,
and enumerated_class_count folds the enumerated trees by it: that is what
the generating function sptree.class_counts must count, and so what
count_classes and the cli's table and enumerate print.
matrix_canon.oracle_key in turn checks class_key against the subspaces
themselves.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np

from spextremal.sptree import (
    MultiGraph,
    SpTreeError,
    _require_edge_ids,
    enumerate_rooted,
    parse_tree,
    two_terminal_layout,
)


def _shifted(nodes, by):
    """nodes with by added to every child position."""
    return [(tuple([c + by for c in kids]), *rest) for kids, *rest in nodes] if by else nodes


def _relist(nodes, root=-1) -> tuple:
    """The tree under nodes[root] in post-order, each node's children in
    the order it lists them, every position renumbered."""
    order, stack = [], [root]  # parents first, last child first: post-order reversed
    while stack:
        order.append(stack.pop())
        stack.extend(nodes[order[-1]][0])
    order.reverse()
    at = {old: new for new, old in enumerate(order)}
    return tuple([(tuple([at[c] for c in kids]), *rest)
                  for kids, *rest in map(nodes.__getitem__, order)])


def relabel_leaves(tree) -> tuple:
    """Reassign edge ids 0..n-1 in left-to-right reading order."""
    ids = itertools.count()
    return tuple([node if node[0] else ((), 1, False, next(ids), node[4]) for node in tree])


def written_out(key) -> tuple:
    """The tree a shape key describes, in three passes: its nodes listed
    breadth first, root first, then re-listed in post-order, then its
    leaves numbered in reading order (what sptree._written_out does in
    one)."""
    nodes, keys = [], [key]
    for size, kind, kids in keys:  # keys grows while it is read
        nodes.append((tuple(range(len(keys), len(keys) + len(kids))), size, kind == 2, None, 0)
                     if kids else ((), 1, False, None, 1))
        keys.extend(kids)
    return relabel_leaves(_relist(nodes, 0))


@dataclass(frozen=True)
class Leaf:
    eid: int
    sign: int = 1


@dataclass(frozen=True)
class Series:
    children: tuple


@dataclass(frozen=True)
class Parallel:
    children: tuple


def nested(tree):
    """The nested view of a tree: Leaf, Series and Parallel objects, one
    per node of its post-order tuple."""
    out = []
    for kids, _, is_series, eid, sign in tree:
        parts = tuple([out[c] for c in kids])
        out.append(Series(parts) if is_series else Parallel(parts) if kids else Leaf(eid, sign))
    return out[-1]


def _leaves(node) -> list:
    """The Leaf objects under node in reading order."""
    if isinstance(node, Leaf):
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]


def check_invariants(tree, alternating=True) -> None:
    """Raise unless the post-order tuple is well formed (every child
    listed before its parent and under exactly one, sizes the leaf counts,
    inner nodes without id or sign, leaves with a sign of +-1) and the
    arity and edge-id invariants hold, and unless the kinds alternate
    when alternating is true; a two_terminal_layout may nest a node in
    its own kind, and is checked with alternating false."""
    parents = [0] * len(tree)
    for i, (kids, size, is_series, eid, sign) in enumerate(tree):
        for c in kids:
            parents[c] += 1
        if any(not 0 <= c < i for c in kids) or size != (
                sum(tree[c][1] for c in kids) if kids else 1):
            raise SpTreeError("malformed post-order tuple")
        if kids and (eid, sign) != (None, 0) or not kids and (is_series or sign not in (1, -1)):
            raise SpTreeError("malformed node")
    if parents != [1] * (len(tree) - 1) + [0]:
        raise SpTreeError("every node but the root needs one parent")

    def walk(node):
        if isinstance(node, Leaf):
            return
        if len(node.children) < 2:
            raise SpTreeError("composition nodes need at least 2 children")
        for c in node.children:
            if alternating and type(c) is type(node):
                raise SpTreeError("series and parallel compositions must alternate")
            walk(c)

    view = nested(tree)
    walk(view)
    ids = [leaf.eid for leaf in _leaves(view)]
    if sorted(ids) != list(range(len(ids))):
        raise SpTreeError("leaf edge ids must be a permutation of 0..n-1")


def _nested_shape(tree):
    """(skeleton_key, text of the canonical shape), from one bottom-up pass
    that orders each node's children by their nested keys.  Python
    compares nested keys recursively, so two equal deep subtrees overflow
    the C stack here; sptree compares integer ranks instead."""
    keys, texts = [], []
    for kids, size, is_series, _, _ in tree:
        if not is_series:
            kids = sorted(kids, key=keys.__getitem__)
        elif tuple([keys[c] for c in reversed(kids)]) < tuple([keys[c] for c in kids]):
            kids = kids[::-1]
        keys.append((size, 2 if is_series else 1 if kids else 0, tuple([keys[c] for c in kids])))
        inner = ",".join([texts[c] for c in kids])
        texts.append(("S(" if is_series else "P(") + inner + ")" if kids else "e")
    return keys[-1], texts[-1]


def skeleton_key(tree):
    """Total order on edge-id-erased shapes.

    Key is (leaf count, kind, child keys) with Leaf < Parallel < Series;
    parallel children compare as a sorted multiset and series chains as the
    smaller of the two reading directions, so the key is already invariant
    under the tree symmetries.
    """
    return _nested_shape(tree)[0]


def nested_canonicalize(tree):
    """canonicalize with the nested keys, parsed back from text."""
    return parse_tree(_nested_shape(tree)[1])


def compose(parts, series: bool) -> tuple:
    """The series (series true) or parallel composition of the trees in
    parts, in order.  A part of the same kind is spliced in by its
    children, and a single operand comes back as it is, so the result
    alternates when the parts do."""
    nodes, kids = [], []
    for part in parts:
        nodes.extend(_shifted(part, len(nodes)))
        if nodes[-1][0] and nodes[-1][2] == series:
            kids.extend(nodes.pop()[0])
        else:
            kids.append(len(nodes) - 1)
    if not kids:
        kind = "series" if series else "parallel"
        raise SpTreeError(f"{kind} composition needs at least one operand")
    if len(kids) == 1:
        return tuple(nodes)
    return (*nodes, (tuple(kids), sum([nodes[c][1] for c in kids]), series, None, 0))


def orient(tree, directions) -> tuple:
    """The tree with each leaf's sign read off directions, as realize takes
    them: -1 where directions[eid] is true, flipping the edge against its
    natural left-to-right sense, and +1 elsewhere; directions need edge ids
    0..n-1 and one flag for each."""
    _require_edge_ids(leaf_ids(tree))
    if len(directions) != tree[-1][1]:
        raise SpTreeError("need one direction flag per edge")
    return tuple([node if node[0] else ((), 1, False, node[3], -1 if directions[node[3]] else 1)
                  for node in tree])


def leaf_ids(tree) -> list[int]:
    """Edge ids in left-to-right reading order."""
    return [eid for kids, _, _, eid, _ in tree if not kids]


def reverse_tree(tree) -> tuple:
    """The same directed network read from the other terminal: every
    series chain reversed and every edge's sign negated."""
    return _relist([(kids[::-1] if is_series else kids, size, is_series, eid, -sign)
                    for kids, size, is_series, eid, sign in tree])


def _canonical_shape(tree) -> tuple:
    """The canonical shape, keeping the original leaf ids, every edge
    natural: each node's children in the order of their keys (leaf count,
    kind, child keys), leaf < parallel < series, parallel children sorted
    and a series chain in its smaller reading direction.  Ranking the
    nodes one leaf count at a time, smallest first, a key holds its
    children's ranks, pairs of ints, in place of their keys, so no
    comparison descends the tree."""
    ranks, nodes = {}, list(tree)
    by_size = sorted(range(len(tree)), key=lambda i: tree[i][1])
    for size, group in itertools.groupby(by_size, key=lambda i: tree[i][1]):
        keys = {}
        for i in group:
            kids, _, is_series, eid, _ = tree[i]
            if not is_series:
                kids = sorted(kids, key=ranks.__getitem__)
            elif [ranks[c] for c in reversed(kids)] < [ranks[c] for c in kids]:
                kids = kids[::-1]
            keys[i] = (2 if is_series else 1 if kids else 0, tuple([ranks[c] for c in kids]))
            nodes[i] = (kids, size, is_series, eid, 0 if kids else 1)
        rank_of = {key: (size, j) for j, key in enumerate(sorted(keys.values()))}
        ranks.update({i: rank_of[key] for i, key in keys.items()})
    return _relist(nodes)


def canonicalize(tree) -> tuple:
    """Unique representative modulo parallel reordering and series reversal.

    Two trees canonicalize identically iff they are related by those
    symmetries; edge ids are reassigned in reading order afterwards, and
    every edge is natural.
    """
    return relabel_leaves(_canonical_shape(tree))


@dataclass(frozen=True)
class Decomposition:
    """Tree recovered from a concrete multigraph.

    tree is canonical with edge ids relabeled in reading order;
    edge_map[i] is the input edge id sitting at canonical leaf i.

    raw_tree keeps the reduction order and the original edge ids, and its
    leaf signs say which input edges run against their natural sense
    there, so realize(raw_tree) reproduces the input exactly up to vertex
    relabeling.  (The canonical tree cannot play that role in general:
    reversing an inner series chain into canonical order is a Whitney
    twist of the realization.)  canonicalize(raw_tree) == tree.
    """

    tree: tuple
    edge_map: tuple
    raw_tree: tuple


@dataclass
class _VirtualEdge:
    u: int
    v: int
    tree: tuple


def _reverse_vedge(ve: _VirtualEdge) -> _VirtualEdge:
    return _VirtualEdge(ve.v, ve.u, reverse_tree(ve.tree))


def decompose(graph: MultiGraph, l: int, r: int) -> Decomposition:
    """Reduce a 2-connected series-parallel multigraph to its tree.

    Alternates parallel reductions (merge multi-edge bundles) with series
    reductions (suppress interior degree-2 vertices) until one virtual edge
    between the terminals remains.  The result is canonicalized, so any
    reduction order agrees.
    """
    nv = graph.num_vertices
    if not (0 <= l < nv and 0 <= r < nv) or l == r:
        raise SpTreeError("terminals must be two distinct vertices of the graph")
    _require_edge_ids(eid for _, _, eid in graph.edges)
    vedges = []
    for tail, head, eid in graph.edges:
        if tail == head:
            raise SpTreeError("self-loops cannot occur in a 2-connected series-parallel graph")
        vedges.append(_VirtualEdge(tail, head, (((), 1, False, eid, 1),)))
    if not vedges:
        raise SpTreeError("graph has no edges")

    while len(vedges) > 1:
        bundles = {}
        for ve in vedges:
            bundles.setdefault(frozenset((ve.u, ve.v)), []).append(ve)
        multi = [key for key, group in bundles.items() if len(group) > 1]
        if multi:
            group = bundles[multi[0]]
            a, b = min(multi[0]), max(multi[0])
            oriented = [ve if ve.u == a else _reverse_vedge(ve) for ve in group]
            merged = _VirtualEdge(a, b, compose([ve.tree for ve in oriented], False))
            vedges = [ve for ve in vedges if not any(ve is g for g in group)] + [merged]
            continue

        incidence = {}
        for ve in vedges:
            incidence.setdefault(ve.u, []).append(ve)
            incidence.setdefault(ve.v, []).append(ve)
        candidates = [x for x, inc in incidence.items()
                      if x not in (l, r) and len(inc) == 2]
        if not candidates:
            raise SpTreeError(
                "graph is not series-parallel reducible for these terminals")
        x = min(candidates)
        first, second = incidence[x]
        a2 = first if first.v == x else _reverse_vedge(first)
        b2 = second if second.u == x else _reverse_vedge(second)
        if a2.u == b2.v:
            raise SpTreeError(
                "graph is not series-parallel reducible for these terminals")
        merged = _VirtualEdge(a2.u, b2.v, compose([a2.tree, b2.tree], True))
        vedges = [ve for ve in vedges if ve is not first and ve is not second]
        vedges.append(merged)

    final = vedges[0]
    if frozenset((final.u, final.v)) != frozenset((l, r)):
        raise SpTreeError("reduction did not terminate at the chosen terminals")
    if final.u != l:
        final = _reverse_vedge(final)
    kids, _, is_series, _, _ = final.tree[-1]
    if is_series or not kids:
        raise SpTreeError("graph is not 2-connected (outermost composition is not parallel)")

    shape = _canonical_shape(final.tree)
    return Decomposition(relabel_leaves(shape), tuple(leaf_ids(shape)), final.tree)


def realize_with_spans(tree, directions=None):
    """sptree.realize by gluing, plus each node's terminal pair.

    Every leaf gets two fresh vertices; a series node glues each child's
    right end to the next child's left end, a parallel node glues all its
    children's left ends and all their right ends, each by a union-find
    that keeps the smaller root.  A vertex is labelled by the order of its
    class's least fresh vertex.  An edge runs as its leaf's sign says
    unless directions is given.  Returns the graph and a map from every
    node of the nested view to its terminal pair in those labels.
    """
    if len(tree) == 1:
        raise SpTreeError("a single edge is not a 2-connected network")
    tree = nested(two_terminal_layout(tree))
    leaves = _leaves(tree)
    n = len(leaves)
    if sorted(leaf.eid for leaf in leaves) != list(range(n)):
        raise SpTreeError("leaf edge ids must be a permutation of 0..n-1")
    if directions is None:
        directions = {leaf.eid: leaf.sign < 0 for leaf in leaves}
    if len(directions) != n:
        raise SpTreeError("need one direction flag per edge")

    parent: list[int] = []

    def fresh():
        parent.append(len(parent))
        return len(parent) - 1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    raw_edges = []
    spans = {}

    def build(node):
        if isinstance(node, Leaf):
            left, right = fresh(), fresh()
            raw_edges.append((left, right, node.eid))
        elif isinstance(node, Series):
            left, right = build(node.children[0])
            for child in node.children[1:]:
                cl, cr = build(child)
                union(right, cl)
                right = cr
        else:
            pairs = [build(child) for child in node.children]
            left, right = pairs[0]
            for cl, cr in pairs[1:]:
                union(left, cl)
                union(right, cr)
        spans[node] = (left, right)
        return left, right

    root_l, root_r = build(tree)

    label = {}
    for pv in range(len(parent)):
        root = find(pv)
        if root not in label:
            label[root] = len(label)

    def lab(pv):
        return label[find(pv)]

    edges = []
    for tail, head, eid in raw_edges:
        t, h = lab(tail), lab(head)
        if directions[eid]:
            t, h = h, t
        edges.append((t, h, eid))
    edges.sort(key=lambda e: e[2])

    node_spans = {node: (lab(a), lab(b)) for node, (a, b) in spans.items()}
    graph = MultiGraph(len(label), tuple(edges), (lab(root_l), lab(root_r)))
    return graph, node_spans


def _forest_find(graph, edges):
    """Union-find over the endpoints of edges: its find, or None on a cycle."""
    parent = list(range(graph.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    endpoints = {e: (t, h) for t, h, e in graph.edges}
    for e in edges:
        rt, rh = find(endpoints[e][0]), find(endpoints[e][1])
        if rt == rh:
            return None
        parent[rt] = rh
    return find


def _is_forest(graph, subset) -> bool:
    return _forest_find(graph, subset) is not None


def spanning_trees(graph) -> list[tuple]:
    """All spanning trees, one union-find per k-subset, in lexicographic order."""
    n = len(graph.edges)
    size = graph.num_vertices - 1
    return [s for s in combinations(range(n), size) if _is_forest(graph, s)]


def _parts(node) -> tuple:
    """The children of node, each of node's own kind replaced by its parts."""
    return tuple([part for child in node.children
                  for part in (_parts(child) if type(child) is type(node) else (child,))])


def class_key(tree):
    """Canonical key of the cycle matroid of the tree's 2-connected graph.

    Keys are equal exactly when the subspaces agree up to signed coordinate
    permutations.  Such a permutation carries the matroid of the star space,
    the cycle matroid, along; conversely the induced weights are fixed by
    the tree up to scale, and graphs with isomorphic cycle matroids are
    2-isomorphic (Whitney, Amer. J. Math. 55, 1933), so their star spaces
    agree up to reorientation.  The matroid is the unrooted tree of polygons
    (series nodes) and bonds (parallel nodes) of its canonical decomposition
    (Cunningham and Edmonds, Canad. J. Math. 32, 1980), and the elements
    within a node are interchangeable.  A node is labelled by its kind and
    its number of leaves; the key is the least AHU code (label, sorted child
    codes) over all rootings.  No graph or matrix is built.  A node nested
    in its own kind, as a two_terminal_layout may nest one, is read as its
    parts.
    """
    tree = nested(two_terminal_layout(tree))
    if len(_parts(tree)) == 2:
        # a bond of two elements is no node: its sides form one polygon
        tree = Series(_parts(Series(_parts(tree))))
    labels, links = [], []

    def add(node):
        i = len(labels)
        leaves = sum(isinstance(c, Leaf) for c in _parts(node))
        labels.append((isinstance(node, Series), leaves))
        links.append([])
        for child in _parts(node):
            if not isinstance(child, Leaf):
                j = add(child)
                links[i].append(j)
                links[j].append(i)
        return i

    def code(i, up):
        return labels[i], tuple(sorted(code(j, i) for j in links[i] if j != up))

    add(tree)
    return min(code(i, None) for i in range(len(labels)))


def enumerated_class_count(n: int, k: int) -> int:
    """Number of symmetry classes among the enumerated (n, k) trees."""
    return len({class_key(t) for t in enumerate_rooted(n, k)})


def rational_matrix(rows) -> np.ndarray:
    data = [[Fraction(x) for x in row] for row in rows]
    out = np.empty((len(data), len(data[0])), dtype=object)
    for i, row in enumerate(data):
        if len(row) != out.shape[1]:
            raise ValueError("rows must have equal length")
        for j, x in enumerate(row):
            out[i, j] = x
    return out


def fraction_y(s, sY) -> np.ndarray:
    """The Fraction matrix Y from an integer multiple sY = s Y."""
    return sY * Fraction(1, s)


def fraction_projection(Y, weights) -> np.ndarray:
    """The float projector by the Fraction route: Y[i, j] / w_i in
    Fractions, rounded once, times sqrt(w_i) sqrt(w_j)."""
    n = Y.shape[0]
    w = np.array([Fraction(weights[e]) for e in range(n)], dtype=object)
    core = (Y / w[:, None]).astype(float)
    root = np.sqrt(w.astype(float))
    return core * np.outer(root, root)


def transfer_current_combinatorial(graph, weights) -> np.ndarray:
    """Spanning-tree form of the transfer current matrix.

    Diagonal (e, e): weight of trees through e over the weight of all
    trees.  Off-diagonal (e, f): for each tree, the unique tree path
    joining f's endpoints contributes the tree weight with sign +1 when it
    crosses e along e's direction while walking from f's tail to f's head,
    -1 against it, 0 when it avoids e.
    """
    n = len(graph.edges)
    trees = spanning_trees(graph)
    endpoints = {e: (t, h) for t, h, e in graph.edges}
    w = {e: Fraction(weights[e]) for e in range(n)}

    Y = np.full((n, n), Fraction(0), dtype=object)
    total = Fraction(0)
    for subset in trees:
        tw = math.prod(w[e] for e in subset)
        total += tw
        adjacency: dict[int, list] = {}
        for e in subset:
            t, h = endpoints[e]
            adjacency.setdefault(t, []).append((h, e, 1))
            adjacency.setdefault(h, []).append((t, e, -1))
        members = set(subset)
        for e in subset:
            Y[e, e] += tw
        for f in range(n):
            if f in members:
                continue
            src, dst = endpoints[f]
            parent = {src: None}
            stack = [src]
            while dst not in parent:
                v = stack.pop()
                for u, e, sense in adjacency.get(v, ()):
                    if u not in parent:
                        parent[u] = (v, e, sense)
                        stack.append(u)
            v = dst
            while parent[v] is not None:
                prev, e, sense = parent[v]
                Y[e, f] += sense * tw
                v = prev
    return Y * (Fraction(1) / total)


def _separates_terminals(graph, subset) -> bool:
    find = _forest_find(graph, subset)
    l, r = graph.terminals
    return find is not None and find(l) != find(r)


def two_component_forests(graph) -> list[tuple]:
    """Spanning 2-forests with the terminals in different components."""
    n = len(graph.edges)
    size = graph.num_vertices - 2
    return [s for s in combinations(range(n), size) if _separates_terminals(graph, s)]


class TreeSums(NamedTuple):
    """Weighted count of spanning trees and of terminal-splitting 2-forests."""

    trees: Fraction
    forests: Fraction


def tree_sums(tree, weights) -> TreeSums:
    """Both sums at once through the series/parallel recurrences.

    A series chain multiplies tree sums and spreads one forest split over
    its parts; a parallel bundle does the opposite.
    """

    def rec(node) -> TreeSums:
        if isinstance(node, Leaf):
            return TreeSums(Fraction(weights[node.eid]), Fraction(1))
        parts = [rec(c) for c in node.children]
        ts = [p.trees for p in parts]
        fs = [p.forests for p in parts]
        if isinstance(node, Series):
            total = math.prod(ts)
            split = sum(math.prod(ts[:i]) * fs[i] * math.prod(ts[i + 1:])
                        for i in range(len(parts)))
            return TreeSums(total, split)
        total = sum(math.prod(fs[:i]) * ts[i] * math.prod(fs[i + 1:])
                    for i in range(len(parts)))
        return TreeSums(total, math.prod(fs))

    return rec(nested(tree))


def brute_tree_sums(graph, weights) -> TreeSums:
    """Exhaustive-enumeration oracle for tree_sums."""
    w = {e: Fraction(v) for e, v in weights.items()}
    total = sum((math.prod(w[e] for e in s) for s in spanning_trees(graph)),
                Fraction(0))
    split = sum((math.prod(w[e] for e in s) for s in two_component_forests(graph)),
                Fraction(0))
    return TreeSums(total, split)


def least_eigenvalue_report(inst) -> list[tuple[tuple, float]]:
    """Smallest eigenvalue of the projector submatrix on each spanning tree.

    A float value, taken from the Fraction-route projector: it cross-checks
    criterion 9, which proves the eigenvalue is exactly 1/n on every tree.
    """
    out = []
    P = fraction_projection(fraction_y(inst.D, inst.DY), inst.weights)
    for tau in spanning_trees(inst.graph):
        idx = list(tau)
        sub = P[np.ix_(idx, idx)]
        out.append((tau, float(np.linalg.eigvalsh(sub)[0])))
    return out


def bareiss(rows):
    """Determinant and adjugate of any square integer matrix, exactly.

    Fraction-free Gauss-Jordan elimination on [A | I] with a row swap to
    the first nonzero pivot (Bareiss, Math. Comp. 22, 1968); the left
    block ends as det(A) I and the right block as adj(A).  Returns
    (0, None) when A is singular.  numeric.bareiss is the same
    elimination without the swaps, for positive definite matrices only.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev, sign = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        top = m[col]
        pv = top[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(pv * x - f * y) // prev for x, y in zip(m[r], top)]
        prev = pv
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def rational_det(a: np.ndarray) -> Fraction:
    """Exact determinant: clear each row's denominators, then bareiss."""
    rows, scale = [], 1
    for row in a:
        row = [Fraction(x) for x in row]
        s = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    det, _ = bareiss(rows)
    return Fraction(det, scale)


def scaled_coefficients(layout, tau) -> tuple[int, dict[int, int]]:
    """(s, y): y[e] / s is the induced coefficient of each edge e of tau.

    A bottom-up pass gives each node the deficit of tau restricted to its
    edges: 0 when that is a spanning tree of the node (its terminals are
    connected), 1 when it is a spanning 2-forest separating the
    terminals.  A series node sums its children's deficits; a parallel
    node sums them and subtracts one less than its number of children,
    since siblings share only the terminals.  Any other value marks a
    cycle or a stray component and stays out of range up to the root, so
    tau is a spanning tree exactly when the root's deficit is 0.  A
    top-down pass then multiplies the psi ratios along each series chain
    as integer numerators and denominators.  Raises SpTreeError when tau
    is not a spanning tree.
    """
    n = layout[-1][1]
    tau = set(tau)
    invalid = n + 1  # a parallel node subtracts fewer than n
    deficit, psi = [], []
    for kids, size, is_series, eid, _ in layout:
        if not kids:
            d = 0 if eid in tau else 1
        else:
            d = sum(deficit[c] for c in kids) - (0 if is_series else len(kids) - 1)
            if not 0 <= d <= 1:
                d = invalid
        deficit.append(d)
        psi.append(n - size if d == 0 else -size)

    num, den = [1] * len(layout), [1] * len(layout)
    for i in reversed(range(len(layout))):
        kids, _, is_series, _, _ = layout[i]
        for c in kids:
            if is_series:
                num[c], den[c] = num[i] * psi[i], den[i] * psi[c]
            else:
                num[c], den[c] = num[i], den[i]
    leaves = [(eid, sign * num[i], den[i])
              for i, (kids, _, _, eid, sign) in enumerate(layout)
              if not kids and eid in tau]
    # len(leaves) < len(tau) when tau names an edge the graph lacks
    if deficit[-1] != 0 or len(leaves) != len(tau):
        raise SpTreeError("edge subset is not a spanning tree")
    scale = math.lcm(*(d for _, _, d in leaves))
    return scale, {e: p * (scale // d) for e, p, d in leaves}


def induced_coefficients(tree, tau, graph) -> dict[int, Fraction]:
    """The signed coefficients, with one union-find per node."""
    if len(tree) == 1:
        raise SpTreeError("induced coefficients need a 2-connected tree")
    n = tree[-1][1]
    reference, spans = realize_with_spans(tree, [False] * n)
    tree = nested(two_terminal_layout(tree))
    ref_pairs = {e: frozenset((t, h)) for t, h, e in reference.edges}
    got_pairs = {e: frozenset((t, h)) for t, h, e in graph.edges}
    if ref_pairs != got_pairs or reference.num_vertices != graph.num_vertices:
        raise SpTreeError("graph does not realize this tree")

    tau = sorted(set(tau))
    if len(tau) != graph.num_vertices - 1 or _forest_find(graph, tau) is None:
        raise SpTreeError("edge subset is not a spanning tree")
    tau_set = set(tau)
    endpoints = {e: (t, h) for t, h, e in graph.edges}

    def connects(node) -> bool:
        find = _forest_find(graph, [leaf.eid for leaf in _leaves(node) if leaf.eid in tau_set])
        a, b = spans[node]
        return find(a) == find(b)

    def psi(node) -> Fraction:
        size = len(_leaves(node))
        return Fraction(n - size) if connects(node) else Fraction(-size)

    out: dict[int, Fraction] = {}

    def walk(node, value: Fraction):
        if isinstance(node, Leaf):
            if node.eid in tau_set:
                sign = 1 if endpoints[node.eid] == spans[node] else -1
                out[node.eid] = sign * value
        elif isinstance(node, Series):
            top = psi(node)
            for child in node.children:
                walk(child, value * top / psi(child))
        else:
            for child in node.children:
                walk(child, value)

    walk(tree, Fraction(1))
    return out


def check_eigen(inst, tau) -> bool:
    """Y[tau, tau] y == y / n on the oracle coefficients, in Fractions."""
    n = len(inst.graph.edges)
    y = induced_coefficients(inst.tree, tau, inst.graph)
    idx = sorted(tau)
    sub = fraction_y(inst.D, inst.DY[np.ix_(idx, idx)])
    lam = Fraction(1, n)
    for row, e in zip(sub, idx):
        image = sum((x * y[f] for x, f in zip(row, idx)), Fraction(0))
        if image != lam * y[e]:
            return False
    return True


def check_degenerate(inst, subset) -> bool:
    """det Y[S, S] == 0 through rational_det."""
    idx = sorted(subset)
    return rational_det(fraction_y(inst.D, inst.DY[np.ix_(idx, idx)])) == 0


def first_spanning_tree(graph) -> tuple:
    """The first spanning tree in lexicographic order: each edge in turn
    that closes no cycle with those taken, by the union-find."""
    tau = []
    for e in range(len(graph.edges)):
        if _is_forest(graph, tau + [e]):
            tau.append(e)
    return tuple(tau)


def inverse_weights(weights) -> np.ndarray:
    """lcm(p) q / p for w = p / q: W^(-1) times lcm(p), in Python ints."""
    n = len(weights)
    lcm = math.lcm(*(weights[e].numerator for e in range(n)))
    return np.array([lcm // weights[e].numerator * weights[e].denominator
                     for e in range(n)], dtype=object)


def degenerate_by_inverse(inst) -> bool:
    """check_degenerate's four identities in Python ints, with (d) in its
    W^(-1) form: X[e, f] a_e symmetric for X = D Y and a = inverse_weights,
    that is diag(1/w) Y symmetric."""
    X, B, D = inst.DY.astype(object), inst.B, inst.D
    K = X * inverse_weights(inst.weights)[:, None]
    return bool((B.dot(X) == D * B).all() and (X.dot(X) == D * X).all()
                and X.trace() == (len(B) - 1) * D and (K == K.T).all())


def attained_by_inverse(inst, tau, c) -> bool:
    """check_attained with its matrix in the W^(-1) form
    M = n diag(a) (D Y)[tau, tau] - D diag(a), a = inverse_weights on tau,
    congruent to P[tau, tau] - I/n: M symmetric, M c == 0 with c != 0, and
    M less the row and column of an edge with c_e != 0 positive definite,
    by the sign of each leading principal minor (Sylvester)."""
    n, idx = len(inst.graph.edges), list(tau)
    a = inverse_weights(inst.weights)[idx]
    M = n * a[:, None] * inst.DY[np.ix_(idx, idx)].astype(object) - np.diag(inst.D * a)
    c = np.asarray(c, dtype=object)[idx]
    support = np.flatnonzero(c)
    if not support.size or (M != M.T).any() or M.dot(c).any():
        return False
    rest = np.delete(np.arange(len(idx)), support[-1])
    minor = M[np.ix_(rest, rest)].tolist()
    return all(bareiss([row[:j] for row in minor[:j]])[0] > 0
               for j in range(1, len(minor) + 1))
