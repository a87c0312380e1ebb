"""Series-parallel decomposition trees and their multigraph realizations.

A two-terminal series-parallel network is a single edge or an alternating
stack of parallel and series compositions of smaller ones.  The nontrivial
2-connected networks (everything reachable from a 2-cycle by edge
subdivision and duplication) are exactly those whose outermost composition
is parallel, so those are the trees with a Parallel root here.

This module provides the tree type with normalizing constructors, a strict
text grammar, canonical forms modulo the tree symmetries (reordering of
parallel branches, reversal of series chains), the symmetry-class counts
from a generating function (no tree enumerated), duality, exhaustive
enumeration, realization as a directed multigraph, and the reduction of a
concrete multigraph back to its canonical tree.  Realization walks the
tree once, top-down, handing each node its terminal pair, and numbers the
vertices by first appearance along the leaves in reading order, the left
end of a leaf before its right end.
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


def _times(a, b):
    """Product of two polynomials in y, cut to the length of a.

    The cut drops nothing here: rank never exceeds the element count, so
    no coefficient's y-degree exceeds its x-degree, which is below width.
    """
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j in range(len(a) - i):
                out[i + j] += ai * b[j]
    return out


def _plus(a, b, sign=1):
    return [u + sign * v for u, v in zip(a, b)]


def _exact_div(a, m):
    out = []
    for v in a:
        q, r = divmod(v, m)
        if r:
            raise ArithmeticError(f"coefficient {v} is not divisible by {m}")
        out.append(q)
    return out


class _Multisets:
    """The multiset transform MSET(F) = exp sum_i F(x^i, y^i) / i.

    F arrives one power of x at a time (f_n, with f_0 = 0), and so do the
    coefficients g_n of MSET(F), by n g_n = sum_(m=1..n) c_m g_(n-m) with
    c_m(y) = sum_(d | m) d f_d(y^(m/d)).  A coefficient is a list of ints
    indexed by the power of y, of y-degree at most its x-degree.
    """

    def __init__(self, width):
        self.f = [[0] * width]
        self.c = [[0] * width]
        self.g = [[1] + [0] * (width - 1)]

    def _c(self, n, fn):
        """c_n, with fn in place of f_n."""
        c = [n * v for v in fn]
        for d in range(1, n):
            if n % d == 0:
                for j, v in enumerate(self.f[d]):
                    if v:
                        c[j * (n // d)] += d * v
        return c

    def beyond(self):
        """[MSET(F) - F]_n for the next n, which needs f_1..f_(n-1) only:
        f_n enters n g_n once, as the n f_n in c_n."""
        n = len(self.f)
        total = self._c(n, [0] * len(self.f[0]))
        for m in range(1, n):
            total = _plus(total, _times(self.c[m], self.g[n - m]))
        return _exact_div(total, n)

    def push(self, fn, beyond):
        """Append f_n, where beyond() returned beyond."""
        n = len(self.f)
        self.c.append(self._c(n, fn))
        self.f.append(fn)
        self.g.append(_plus(beyond, fn))

    def beyond_pairs(self, n):
        """[MSET(F) - 1 - F - (F^2 + F(x^2, y^2)) / 2]_n, the multisets of
        at least three (n >= 1, once f_n is pushed)."""
        f = self.f
        pairs = [0] * len(f[0])
        if n % 2 == 0:
            for j, v in enumerate(f[n // 2]):
                if v:
                    pairs[2 * j] += v
        for i in range(1, n):
            pairs = _plus(pairs, _times(f[i], f[n - i]))
        return _plus(_plus(self.g[n], f[n], -1), _exact_div(pairs, 2), -1)


@lru_cache(maxsize=None)
def class_counts(n_max: int) -> tuple:
    """Class counts of every (n, k) with n <= n_max, with no tree built.

    Row n of the result holds at index k the number of symmetry classes
    among the enumerate_rooted(n, k) subspaces, for k = 0..n.  Two
    subspaces agree up to signed coordinate permutations exactly when
    their cycle matroids are isomorphic: the weights are fixed by the tree
    up to scale, and graphs with isomorphic cycle matroids are 2-isomorphic
    (Whitney, Amer. J. Math. 55, 1933), so their star spaces agree up to
    reorientation.  A class is thus the unrooted tree of polygons (series
    nodes) and bonds (parallel nodes) of the matroid's canonical
    decomposition (Cunningham and Edmonds, Canad. J. Math. 32, 1980), and
    these trees are counted by Polya's multiset transform MSET and the
    dissymmetry theorem (Bergeron, Labelle and Leroux, Combinatorial
    Species, 1998).  x counts elements and y rank: a polygon of m elements
    has rank m - 1, a bond rank 1, and each tree edge (a 2-sum) loses one,
    charged to the child.
    The planted polygons A and planted bonds B, which hang off a parent by
    one tree edge, satisfy

        A = y^-1 MSET>=2(xy + yB),     B = MSET>=2(x + A),

    which fixes both one power of x at a time.  Rooting a tree at a
    polygon, at a bond, or at one of its edges, which always join a
    polygon to a bond, gives

        classes = y^-1 MSET>=3(xy + yB) + y MSET>=3(x + A) - y A B,

    plus x^2 y for the lone two-element polygon, the only special case.
    Every coefficient is an exact integer; ArithmeticError says a division
    left a remainder.
    """
    width = max(n_max, 0) + 1
    zero = [0] * width
    polygons, bonds = _Multisets(width), _Multisets(width)  # of xy + yB, x + A
    A, B = [zero], [zero]
    for n in range(1, width):
        planted_polygon, planted_bond = polygons.beyond(), bonds.beyond()
        A.append(planted_polygon[1:] + [0])
        B.append(planted_bond)
        xy_yB = [0] + B[n][:-1]
        x_A = A[n][:]
        if n == 1:
            xy_yB[1] += 1
            x_A[0] += 1
        polygons.push(xy_yB, planted_polygon)
        bonds.push(x_A, planted_bond)

    rows = [(0,)]
    for n in range(1, width):
        on_edge = zero
        for i in range(1, n):
            on_edge = _plus(on_edge, _times(A[i], B[n - i]))
        row = _plus(polygons.beyond_pairs(n)[1:] + [0],
                    [0] + _plus(bonds.beyond_pairs(n), on_edge, -1)[:-1])
        if n == 2:
            row[1] += 1
        rows.append(tuple(row[:n + 1]))
    return tuple(rows)


# ---------------------------------------------------------------------------
# text grammar:  tree := "e" | "P(" tree ("," tree)+ ")" | "S(" tree ("," tree)+ ")"
# ---------------------------------------------------------------------------

def format_tree(tree) -> str:
    if isinstance(tree, Leaf):
        return "e"
    tag = "P" if isinstance(tree, Parallel) else "S"
    return tag + "(" + ",".join([format_tree(c) for c in tree.children]) + ")"


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

_LEAF = (skeleton_key(Leaf(0)), Leaf(0))


@lru_cache(maxsize=None)
def _series_shapes(n: int, k: int) -> tuple:
    """Canonical series chains with n edges and rank k (placeholder ids),
    each as a (skeleton_key, shape) pair."""
    if n < 2 or k < 2 or k > n:
        return ()
    out = []

    def extend(seq, edges_left, rank_left):
        if edges_left == 0:
            if rank_left == 0 and len(seq) >= 2:
                keys = tuple(key for key, _ in seq)
                if keys <= keys[::-1]:
                    out.append(((n, 2, keys), Series(tuple(c for _, c in seq))))
            return
        if rank_left < 1 or rank_left > edges_left:
            return
        extend(seq + [_LEAF], edges_left - 1, rank_left - 1)
        limit = edges_left - 1 if not seq else edges_left
        for n2 in range(2, limit + 1):
            for k2 in range(1, min(rank_left, n2 - 1) + 1):
                for comp in _parallel_shapes(n2, k2):
                    extend(seq + [comp], edges_left - n2, rank_left - k2)

    extend([], n, k)
    return tuple(out)


@lru_cache(maxsize=None)
def _parallel_shapes(n: int, k: int) -> tuple:
    """Canonical parallel bundles with n edges and rank k (placeholder ids),
    each as a (skeleton_key, shape) pair."""
    if n < 2 or k < 1 or k >= n:
        return ()
    # (pair, edges, rank - 1) of every part of rank <= k; no other part fits
    comps = [(_LEAF, 1, 0)]
    for n2 in range(2, n):
        for k2 in range(2, min(n2, k) + 1):
            comps.extend((pair, n2, k2 - 1) for pair in _series_shapes(n2, k2))
    # skeleton_key leads with the leaf count, so the edge counts never
    # decrease, and the chosen parts come in sorted key order
    comps.sort(key=lambda c: c[0][0])
    out = []

    def choose(idx, count, edges_left, rankdef_left, acc):
        if edges_left == 0:
            if rankdef_left == 0 and count >= 2:
                out.append(((n, 1, tuple(key for key, _ in acc)),
                            Parallel(tuple(c for _, c in acc))))
            return
        for i in range(idx, len(comps)):
            pair, ne, rdef = comps[i]
            if ne > edges_left:
                break
            if rdef > rankdef_left:
                continue
            acc.append(pair)
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
    pairs = sorted(_parallel_shapes(n, k), key=lambda pair: pair[0])
    return [relabel_leaves(shape) for _, shape in pairs]


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
