"""Series-parallel decomposition trees and their multigraph realizations.

A two-terminal series-parallel network is a single edge or an alternating
stack of parallel and series compositions of smaller ones.  The nontrivial
2-connected networks (everything reachable from a 2-cycle by edge
subdivision and duplication) are exactly those whose outermost composition
is parallel, so those are the trees with a Parallel root here.

This module provides the tree type with normalizing constructors, a strict
text grammar, canonical forms modulo the tree symmetries (reordering of
parallel branches, reversal of series chains), the class key of the
cycle matroid, duality, exhaustive enumeration, realization as a directed
multigraph, and the reduction of a concrete multigraph back to its
canonical tree.  Realization walks the tree once, top-down, handing each
node its terminal pair, and numbers the vertices by first appearance along
the leaves in reading order, the left end of a leaf before its right end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


class SpTreeError(ValueError):
    """Malformed tree, impossible realization, or failed decomposition."""


class TreeParseError(SpTreeError):
    """Text input rejected by the tree grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Leaf:
    eid: int = 0


@dataclass(frozen=True)
class Series:
    children: tuple


@dataclass(frozen=True)
class Parallel:
    children: tuple


SpTree = Leaf | Series | Parallel


def make_leaf(eid: int = 0) -> Leaf:
    return Leaf(eid)


def make_series(children) -> SpTree:
    """Serial composition; flattens nested series, unwraps singletons."""
    flat = []
    for child in children:
        if isinstance(child, Series):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        raise SpTreeError("series composition needs at least one operand")
    if len(flat) == 1:
        return flat[0]
    return Series(tuple(flat))


def make_parallel(children) -> SpTree:
    """Parallel composition; flattens nested parallels, unwraps singletons."""
    flat = []
    for child in children:
        if isinstance(child, Parallel):
            flat.extend(child.children)
        else:
            flat.append(child)
    if not flat:
        raise SpTreeError("parallel composition needs at least one operand")
    if len(flat) == 1:
        return flat[0]
    return Parallel(tuple(flat))


def leaf_count(tree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return sum(leaf_count(c) for c in tree.children)


def leaf_ids(tree) -> list[int]:
    """Edge ids in left-to-right reading order."""
    if isinstance(tree, Leaf):
        return [tree.eid]
    out = []
    for c in tree.children:
        out.extend(leaf_ids(c))
    return out


def rank(tree) -> int:
    """Edge count of any spanning tree of the two-terminal realization.

    Leaf counts 1, a series chain adds its parts, a parallel bundle glues
    terminals so each extra part loses one.
    """
    if isinstance(tree, Leaf):
        return 1
    if isinstance(tree, Series):
        return sum(rank(c) for c in tree.children)
    return sum(rank(c) - 1 for c in tree.children) + 1


def check_invariants(tree) -> None:
    """Raise unless alternation, arity, and edge-id invariants hold."""

    def walk(node):
        if isinstance(node, Leaf):
            return
        if len(node.children) < 2:
            raise SpTreeError("composition nodes need at least 2 children")
        for c in node.children:
            if type(c) is type(node):
                raise SpTreeError("series and parallel compositions must alternate")
            walk(c)

    walk(tree)
    ids = leaf_ids(tree)
    if sorted(ids) != list(range(len(ids))):
        raise SpTreeError("leaf edge ids must be a permutation of 0..n-1")


def reverse_tree(tree) -> SpTree:
    """The same network traversed from the other terminal."""
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, Parallel):
        return Parallel(tuple(reverse_tree(c) for c in tree.children))
    return Series(tuple(reverse_tree(c) for c in reversed(tree.children)))


def skeleton_key(tree):
    """Total order on edge-id-erased shapes.

    Key is (leaf count, kind, child keys) with Leaf < Parallel < Series;
    parallel children compare as a sorted multiset and series chains as the
    smaller of the two reading directions, so the key is already invariant
    under the tree symmetries.
    """
    if isinstance(tree, Leaf):
        return (1, 0, ())
    kid_keys = [skeleton_key(c) for c in tree.children]
    size = sum(key[0] for key in kid_keys)
    if isinstance(tree, Parallel):
        return (size, 1, tuple(sorted(kid_keys)))
    forward = tuple(kid_keys)
    backward = tuple(reversed(kid_keys))
    return (size, 2, min(forward, backward))


def _canonical_shape(tree):
    """Canonical shape keeping original leaf ids."""
    if isinstance(tree, Leaf):
        return tree
    children = [_canonical_shape(c) for c in tree.children]
    if isinstance(tree, Parallel):
        children.sort(key=skeleton_key)
        return Parallel(tuple(children))
    keys = [skeleton_key(c) for c in children]
    if tuple(reversed(keys)) < tuple(keys):
        children.reverse()
    return Series(tuple(children))


def relabel_leaves(tree) -> SpTree:
    """Reassign edge ids 0..n-1 in left-to-right reading order."""
    counter = itertools.count()

    def rebuild(node):
        if isinstance(node, Leaf):
            return Leaf(next(counter))
        return type(node)(tuple(rebuild(c) for c in node.children))

    return rebuild(tree)


def canonicalize(tree) -> SpTree:
    """Unique representative modulo parallel reordering and series reversal.

    Two trees canonicalize identically iff they are related by those
    symmetries; edge ids are reassigned in reading order afterwards.
    """
    return relabel_leaves(_canonical_shape(tree))


def dualize(tree) -> SpTree:
    """Swap series and parallel composition kinds throughout.

    The output describes the planar dual network.  When the input root is
    parallel the output root is a series chain that has to be read as
    closed into a cycle; realize and parallel_rooted interpret it that way,
    so the realized dual has rank n - rank(tree).
    """
    if isinstance(tree, Leaf):
        return tree
    kids = tuple(dualize(c) for c in tree.children)
    return Series(kids) if isinstance(tree, Parallel) else Parallel(kids)


def parallel_rooted(tree) -> SpTree:
    """Two-terminal form of a series-rooted closed chain.

    The first chain component is kept as the branch spanning the chosen
    terminal pair; any other choice gives the same graph and induces the
    same edge weights up to a common factor.
    """
    if isinstance(tree, Parallel):
        return tree
    if isinstance(tree, Leaf):
        raise SpTreeError("a single edge has no 2-connected realization")
    kids = list(tree.children)
    return make_parallel([kids[0], make_series(kids[1:])])


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
    codes) over all rootings.  No graph or matrix is built.
    """
    tree = parallel_rooted(tree)
    if len(tree.children) == 2:
        # a bond of two elements is no node: its sides form one polygon
        tree = make_series(tree.children)
    labels, links = [], []

    def add(node):
        i = len(labels)
        leaves = sum(isinstance(c, Leaf) for c in node.children)
        labels.append((isinstance(node, Series), leaves))
        links.append([])
        for child in node.children:
            if not isinstance(child, Leaf):
                j = add(child)
                links[i].append(j)
                links[j].append(i)
        return i

    def code(i, up):
        return labels[i], tuple(sorted(code(j, i) for j in links[i] if j != up))

    add(tree)
    return min(code(i, None) for i in range(len(labels)))


# ---------------------------------------------------------------------------
# text grammar:  tree := "e" | "P(" tree ("," tree)+ ")" | "S(" tree ("," tree)+ ")"
# ---------------------------------------------------------------------------

def format_tree(tree) -> str:
    if isinstance(tree, Leaf):
        return "e"
    tag = "P" if isinstance(tree, Parallel) else "S"
    return tag + "(" + ",".join(format_tree(c) for c in tree.children) + ")"


def parse_tree(text: str) -> SpTree:
    """Parse the strict grammar; whitespace is ignored.

    Leaves get edge ids in reading order.  Same-kind nesting and
    single-operand compositions are rejected with the offending offset.
    """
    pos = 0
    counter = itertools.count()

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise TreeParseError(msg, pos)

    def node(parent_kind):
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            fail("unexpected end of input")
        ch = text[pos]
        if ch == "e":
            pos += 1
            return Leaf(next(counter))
        if ch in "PS":
            kind = Parallel if ch == "P" else Series
            if kind is parent_kind:
                fail("series and parallel compositions must alternate")
            start = pos
            pos += 1
            skip_ws()
            if pos >= len(text) or text[pos] != "(":
                fail("expected '('")
            pos += 1
            kids = [node(kind)]
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                kids.append(node(kind))
                skip_ws()
            if pos >= len(text) or text[pos] != ")":
                fail("expected ',' or ')'")
            pos += 1
            if len(kids) < 2:
                pos = start
                fail("composition needs at least 2 operands")
            return kind(tuple(kids))
        fail(f"expected 'e', 'P' or 'S', found {ch!r}")

    tree = node(None)
    skip_ws()
    if pos != len(text):
        fail("trailing input after tree")
    return tree


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _series_shapes(n: int, k: int) -> tuple:
    """Canonical series chains with n edges and rank k (placeholder ids)."""
    if n < 2 or k < 2 or k > n:
        return ()
    out = []

    def extend(seq, edges_left, rank_left):
        if edges_left == 0:
            if rank_left == 0 and len(seq) >= 2:
                keys = tuple(skeleton_key(c) for c in seq)
                if keys <= tuple(reversed(keys)):
                    out.append(Series(tuple(seq)))
            return
        if rank_left < 1 or rank_left > edges_left:
            return
        extend(seq + [Leaf(0)], edges_left - 1, rank_left - 1)
        limit = edges_left - 1 if not seq else edges_left
        for n2 in range(2, limit + 1):
            for k2 in range(1, min(rank_left, n2 - 1) + 1):
                for comp in _parallel_shapes(n2, k2):
                    extend(seq + [comp], edges_left - n2, rank_left - k2)

    extend([], n, k)
    return tuple(out)


@lru_cache(maxsize=None)
def _parallel_shapes(n: int, k: int) -> tuple:
    """Canonical parallel bundles with n edges and rank k (placeholder ids)."""
    if n < 2 or k < 1 or k >= n:
        return ()
    comps = [Leaf(0)]
    for n2 in range(2, n):
        for k2 in range(2, n2 + 1):
            comps.extend(_series_shapes(n2, k2))
    # skeleton_key leads with the leaf count, so sizes[i][0] never decreases
    comps.sort(key=skeleton_key)
    sizes = [(leaf_count(c), rank(c) - 1) for c in comps]
    out = []

    def choose(idx, count, edges_left, rankdef_left, acc):
        if edges_left == 0:
            if rankdef_left == 0 and count >= 2:
                out.append(Parallel(tuple(acc)))
            return
        for i in range(idx, len(comps)):
            ne, rdef = sizes[i]
            if ne > edges_left:
                break
            if rdef > rankdef_left:
                continue
            acc.append(comps[i])
            choose(i, count + 1, edges_left - ne, rankdef_left - rdef, acc)
            acc.pop()

    choose(0, 0, n, k - 1, [])
    return tuple(out)


def enumerate_rooted(n: int, k: int) -> list:
    """Every canonical 2-connected tree with n edges and rank k, once each.

    Empty when no such tree exists (k >= n, k < 1, n < 2).
    """
    if n < 2 or k < 1 or k >= n:
        return []
    shapes = sorted(_parallel_shapes(n, k), key=skeleton_key)
    return [relabel_leaves(s) for s in shapes]


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiGraph:
    """Directed multigraph; edges[i] = (tail, head, edge id), sorted by id."""

    num_vertices: int
    edges: tuple
    terminals: tuple


def realize(tree, directions=None) -> MultiGraph:
    """Place the tree's edges between vertices, top-down.

    The root spans the terminal pair; a parallel node hands its pair to
    every child, and a series node puts fresh interior vertices between
    its children and hands each child its consecutive pair.  Vertices are
    then numbered 0, 1, ... by first appearance along the leaves in reading
    order, the left end of a leaf before its right end, so the left
    terminal is vertex 0.  directions[eid] = True flips that edge against
    its natural left-to-right sense.  A series root is read as the
    closed-up chain (rewritten through parallel_rooted), which is how
    duals realize.
    """
    if isinstance(tree, Series):
        tree = parallel_rooted(tree)
    if isinstance(tree, Leaf):
        raise SpTreeError("a single edge is not a 2-connected network")
    ends = []
    fresh = itertools.count(2)

    def place(node, left, right):
        if isinstance(node, Leaf):
            ends.append((left, right, node.eid))
        elif isinstance(node, Parallel):
            for child in node.children:
                place(child, left, right)
        else:
            stops = [left, *itertools.islice(fresh, len(node.children) - 1), right]
            for child, a, b in zip(node.children, stops, stops[1:]):
                place(child, a, b)

    place(tree, 0, 1)
    n = len(ends)
    if sorted(e for _, _, e in ends) != list(range(n)):
        raise SpTreeError("leaf edge ids must be a permutation of 0..n-1")
    if directions is None:
        directions = [False] * n
    if len(directions) != n:
        raise SpTreeError("need one direction flag per edge")
    label = {}
    for left, right, _ in ends:
        label.setdefault(left, len(label))
        label.setdefault(right, len(label))
    edges = [None] * n
    for left, right, e in ends:
        t, h = label[left], label[right]
        edges[e] = (h, t, e) if directions[e] else (t, h, e)
    return MultiGraph(len(label), tuple(edges), (label[0], label[1]))


# ---------------------------------------------------------------------------
# decomposition (graph -> tree)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Tree recovered from a concrete multigraph.

    tree is canonical with edge ids relabeled in reading order;
    edge_map[i] is the input edge id sitting at canonical leaf i.

    raw_tree keeps the reduction order and the original edge ids, and
    raw_flips[eid] says the input edge runs against its natural sense
    there, so realize(raw_tree, raw_flips) reproduces the input exactly up
    to vertex relabeling.  (The canonical tree cannot play that role in
    general: reversing an inner series chain into canonical order is a
    Whitney twist of the realization.)  canonicalize(raw_tree) == tree.
    """

    tree: SpTree
    edge_map: tuple
    raw_tree: SpTree
    raw_flips: tuple


@dataclass
class _VirtualEdge:
    u: int
    v: int
    tree: SpTree
    flips: dict


def _reverse_vedge(ve: _VirtualEdge) -> _VirtualEdge:
    return _VirtualEdge(ve.v, ve.u, reverse_tree(ve.tree),
                        {e: not f for e, f in ve.flips.items()})


def decompose(graph: MultiGraph, l: int, r: int, rng=None) -> Decomposition:
    """Reduce a 2-connected series-parallel multigraph to its tree.

    Alternates parallel reductions (merge multi-edge bundles) with series
    reductions (suppress interior degree-2 vertices) until one virtual edge
    between the terminals remains.  The result is canonicalized, so any
    reduction order agrees; rng, when given, shuffles the order (used to
    exercise that confluence).
    """
    nv = graph.num_vertices
    if not (0 <= l < nv and 0 <= r < nv) or l == r:
        raise SpTreeError("terminals must be two distinct vertices of the graph")
    vedges = []
    for tail, head, eid in graph.edges:
        if tail == head:
            raise SpTreeError("self-loops cannot occur in a 2-connected series-parallel graph")
        vedges.append(_VirtualEdge(tail, head, Leaf(eid), {eid: False}))
    if not vedges:
        raise SpTreeError("graph has no edges")

    while len(vedges) > 1:
        bundles = {}
        for ve in vedges:
            bundles.setdefault(frozenset((ve.u, ve.v)), []).append(ve)
        multi = [key for key, group in bundles.items() if len(group) > 1]
        if multi:
            if rng is not None:
                rng.shuffle(multi)
            key = multi[0]
            group = bundles[key]
            if rng is not None:
                rng.shuffle(group)
            a, b = min(key), max(key)
            oriented = [ve if ve.u == a else _reverse_vedge(ve) for ve in group]
            flips = {}
            for ve in oriented:
                flips.update(ve.flips)
            merged = _VirtualEdge(a, b, make_parallel([ve.tree for ve in oriented]), flips)
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
        if rng is not None:
            rng.shuffle(candidates)
        else:
            candidates.sort()
        x = candidates[0]
        first, second = incidence[x]
        a2 = first if first.v == x else _reverse_vedge(first)
        b2 = second if second.u == x else _reverse_vedge(second)
        if a2.u == b2.v:
            raise SpTreeError(
                "graph is not series-parallel reducible for these terminals")
        merged = _VirtualEdge(a2.u, b2.v, make_series([a2.tree, b2.tree]),
                              {**a2.flips, **b2.flips})
        vedges = [ve for ve in vedges if ve is not first and ve is not second]
        vedges.append(merged)

    final = vedges[0]
    if frozenset((final.u, final.v)) != frozenset((l, r)):
        raise SpTreeError("reduction did not terminate at the chosen terminals")
    if final.u != l:
        final = _reverse_vedge(final)
    if not isinstance(final.tree, Parallel):
        raise SpTreeError("graph is not 2-connected (outermost composition is not parallel)")

    shape = _canonical_shape(final.tree)
    order = leaf_ids(shape)
    tree = relabel_leaves(shape)
    raw_flips = tuple(final.flips[e] for e in range(len(final.flips)))
    return Decomposition(tree, tuple(order), final.tree, raw_flips)
