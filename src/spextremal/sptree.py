"""Series-parallel decomposition trees and their multigraph realizations.

A two-terminal series-parallel network is a single edge or an alternating
stack of parallel and series compositions of smaller ones.  The nontrivial
2-connected networks (everything reachable from a 2-cycle by edge
subdivision and duplication) are exactly those whose outermost composition
is parallel, so those are the trees with a parallel root here.

A tree is a flat tuple of nodes in post-order, root last, so the leaves
come in reading order.  Each node is (children, size, is_series, eid,
sign): children are positions in the tuple and size is the leaf count; a
leaf also carries its edge id and a sign, -1 when the edge runs against
its natural left-to-right sense and +1 otherwise, and an inner node has
eid None and sign 0.  Every walk (counting, formatting, duality,
realization) is a loop over the tuple, and a tree nests no objects, so no
tree is too deep for Python's recursion limit, and comparing or hashing
one never recurses either; neither does the parse of the text grammar.

Only the grammar and enumeration alternate the kinds.  A tuple may nest a
node in its own kind (dualize does), and every walk reads it as
its parts: a bundle hands its terminal pair to each part, so a bundle in a
bundle realizes, weighs and counts rank and deficits as one; along a chain
in a chain the phi and psi ratios telescope; realize numbers vertices by
first appearance; format_tree writes the parts in the node's place.

This module provides the text grammar, the symmetry-class counts from a
generating function (no tree enumerated), duality, exhaustive enumeration
of one canonical tree per shape (parallel branches sorted, each series
chain in its smaller reading direction), each written into post-order
from its shape key in one pass, and realization as a directed
multigraph, top-down, numbering the vertices by first appearance along
the leaves in reading order, the left end of a leaf before its right end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


class SpTreeError(ValueError):
    """Malformed tree or impossible realization."""


class TreeParseError(SpTreeError):
    """Text input rejected by the tree grammar; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold only the
        # formatted text; a verify worker pickles what it raised
        return type(self), (self.message, self.position)


def leaf_count(tree) -> int:
    return tree[-1][1]


def rank(tree) -> int:
    """Edge count of any spanning tree of the two-terminal realization.

    Every leaf counts 1, and a parallel bundle glues terminals, so each of
    its parts but one loses one.
    """
    return tree[-1][1] - sum([len(kids) - 1 for kids, _, is_series, _, _ in tree
                              if kids and not is_series])


def require_two_connected(tree) -> None:
    """Raise SpTreeError unless the root is a parallel composition, which
    is what makes the network 2-connected; every walk that realizes,
    weighs or dualizes a tree asks for one."""
    kids, _, is_series, _, _ = tree[-1]
    if is_series or not kids:
        raise SpTreeError("root must be a parallel composition (the graph is not 2-connected)")


def dualize(tree) -> tuple:
    """The planar dual of a 2-connected tree, itself 2-connected.

    The kinds swap throughout, which turns the root's parts x1, ..., xm
    into a closed series chain, written P(x1, S(x2, ..., xm)), or
    P(x1, x2) when m = 2: at most two nodes appended and none moved.
    Cutting the cycle at the ends of x1 leaves the other parts running
    against it, so each leaf in x1 keeps its sign and every other leaf
    flips, which makes B B*^T = 0 for the incidence matrices B and B*
    that the two trees realize.  The dual has rank n - rank(tree), and
    dualizing twice gives back the text, the oriented graph and the
    weights.
    """
    require_two_connected(tree)
    first, *rest = tree[-1][0]  # post-order: the leaves of x1 come first
    n = tree[-1][1]
    nodes = [(kids, size, not is_series, None, 0) if kids
             else ((), 1, False, eid, sign if i <= first else -sign)
             for i, (kids, size, is_series, eid, sign) in enumerate(tree[:-1])]
    if len(rest) > 1:
        nodes.append((tuple(rest), n - tree[first][1], True, None, 0))
        rest = [len(nodes) - 1]
    return (*nodes, ((first, *rest), n, False, None, 0))


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
    """The tree as text, a node nested in its own kind written as its parts."""
    texts = []  # the text of each subtree whose parent comes later
    for kids, _, is_series, _, _ in tree:
        first = len(texts) - len(kids)
        head = "S" if is_series else "P"
        parts = [text[2:-1] if text[0] == head else text for text in texts[first:]]
        texts[first:] = [head + "(" + ",".join(parts) + ")" if kids else "e"]
    return texts[0]


def parse_tree(text: str) -> tuple:
    """Parse the strict grammar; whitespace is ignored.

    Leaves get edge ids in reading order and natural signs.  Same-kind
    nesting and single-operand compositions are rejected with the
    offending offset.  Each node is appended as it is read or closed, and
    the open compositions wait on an explicit stack, so any depth parses.
    """
    pos = 0
    nodes, ids = [], itertools.count()

    def peek():
        """The next character past whitespace, "" at the end."""
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return text[pos:pos + 1]

    def fail(msg):
        raise TreeParseError(msg, pos)

    open_nodes = []  # (is_series, offset, child positions so far) of each open composition
    while True:
        ch = peek()
        if not ch:
            fail("unexpected end of input")
        if ch in "PS":
            is_series = ch == "S"
            if open_nodes and open_nodes[-1][0] == is_series:
                fail("series and parallel compositions must alternate")
            open_nodes.append((is_series, pos, []))
            pos += 1
            if peek() != "(":
                fail("expected '('")
            pos += 1
            continue
        if ch != "e":
            fail(f"expected 'e', 'P' or 'S', found {ch!r}")
        pos += 1
        nodes.append(((), 1, False, next(ids), 1))
        # hand the finished operand up, closing each composition it ends
        while open_nodes:
            is_series, start, kids = open_nodes[-1]
            kids.append(len(nodes) - 1)
            if peek() == ",":
                pos += 1
                break
            if peek() != ")":
                fail("expected ',' or ')'")
            pos += 1
            if len(kids) < 2:
                raise TreeParseError("composition needs at least 2 operands", start)
            open_nodes.pop()
            nodes.append((tuple(kids), sum([nodes[c][1] for c in kids]), is_series, None, 0))
        if not open_nodes:
            break
    if peek():
        fail("trailing input after tree")
    return tuple(nodes)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# a shape is its key (leaf count, kind, child keys), kind 0 for a leaf, 1
# for parallel and 2 for series, each child key nested whole (enumeration
# stops at 12 edges, so comparisons stay shallow); a key orders parallel
# children by their keys and reads a series chain in its smaller direction
_LEAF = (1, 0, ())


@lru_cache(maxsize=None)
def _series_shapes(n: int, k: int) -> tuple:
    """The keys of the canonical series chains with n edges and rank k."""
    if n < 2 or k < 2 or k > n:
        return ()
    out = []

    def extend(seq, edges_left, rank_left):
        if edges_left == 0:
            if rank_left == 0 and len(seq) >= 2:
                keys = tuple(seq)
                if keys <= keys[::-1]:
                    out.append((n, 2, keys))
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
    """The keys of the canonical parallel bundles with n edges and rank k."""
    if n < 2 or k < 1 or k >= n:
        return ()
    # (key, edges, rank - 1) of every part of rank <= k; no other part fits
    comps = [(_LEAF, 1, 0)]
    for n2 in range(2, n):
        for k2 in range(2, min(n2, k) + 1):
            comps.extend((key, n2, k2 - 1) for key in _series_shapes(n2, k2))
    # a key leads with the leaf count, so the edge counts never
    # decrease, and the chosen parts come in sorted key order
    comps.sort(key=lambda c: c[0])
    out = []

    def choose(idx, count, edges_left, rankdef_left, acc):
        if edges_left == 0:
            if rankdef_left == 0 and count >= 2:
                out.append((n, 1, tuple(acc)))
            return
        for i in range(idx, len(comps)):
            key, ne, rdef = comps[i]
            if ne > edges_left:
                break
            if rdef > rankdef_left:
                continue
            acc.append(key)
            choose(i, count + 1, edges_left - ne, rankdef_left - rdef, acc)
            acc.pop()

    choose(0, 0, n, k - 1, [])
    return tuple(out)


def _written_out(key) -> tuple:
    """The tree a shape key describes, written straight into post-order as
    the key is read, each leaf numbered as it is written, so edge ids come
    in reading order.  The recursion runs over the nested key, at most 12
    deep, never over a tree."""
    nodes, ids = [], itertools.count()

    def write(key):
        size, kind, kids = key
        at = tuple([write(kid) for kid in kids])  # empty for a leaf
        nodes.append((at, size, kind == 2, None, 0) if kids else ((), 1, False, next(ids), 1))
        return len(nodes) - 1

    write(key)
    return tuple(nodes)


def enumerate_rooted(n: int, k: int) -> list:
    """Every canonical 2-connected tree with n edges and rank k, once each.

    Empty when no such tree exists (k >= n, k < 1, n < 2).
    """
    return [_written_out(key) for key in sorted(_parallel_shapes(n, k))]


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------

def _require_edge_ids(ids) -> None:
    ids = sorted(ids)
    if ids != list(range(len(ids))):
        raise SpTreeError("leaf edge ids must be a permutation of 0..n-1")


@dataclass(frozen=True)
class MultiGraph:
    """Directed multigraph; edges[i] = (tail, head, edge id), sorted by id."""

    num_vertices: int
    edges: tuple
    terminals: tuple


def realize(tree) -> MultiGraph:
    """Place the tree's edges between vertices, top-down.

    The root spans the terminal pair; a parallel node hands its pair to
    every child, and a series node puts fresh interior vertices between
    its children and hands each child its consecutive pair.  Vertices are
    then numbered 0, 1, ... by first appearance along the leaves in reading
    order, the left end of a leaf before its right end, so the left
    terminal is vertex 0.  Each edge runs as its leaf's sign says.  The
    root must be parallel (require_two_connected).
    """
    require_two_connected(tree)
    span = {len(tree) - 1: (0, 1)}  # each node's terminal pair
    fresh = itertools.count(2)
    for i in reversed(range(len(tree))):
        kids, _, is_series, _, _ = tree[i]
        if is_series:
            stops = [span[i][0], *itertools.islice(fresh, len(kids) - 1), span[i][1]]
            span.update(zip(kids, zip(stops, stops[1:])))
        elif kids:
            span.update(dict.fromkeys(kids, span[i]))
    ends = [(*span[i], eid, sign) for i, (kids, _, _, eid, sign) in enumerate(tree)
            if not kids]
    _require_edge_ids(e for _, _, e, _ in ends)
    label = {}
    for left, right, _, _ in ends:
        label.setdefault(left, len(label))
        label.setdefault(right, len(label))
    edges = [None] * len(ends)
    for left, right, e, sign in ends:
        t, h = label[left], label[right]
        edges[e] = (t, h, e) if sign > 0 else (h, t, e)
    return MultiGraph(len(label), tuple(edges), (label[0], label[1]))
