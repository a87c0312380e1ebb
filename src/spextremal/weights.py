"""Edge weights, signed coefficients, and exact spanning-tree accounting.

The weight family computed here makes the star space of a 2-connected
series-parallel graph sit at cosine exactly 1/sqrt(n) from every
coordinate subspace.  The companion signed coefficients form, on each
spanning tree, an eigenvector of the matching transfer-current submatrix.
Everything is exact: weights and tree sums are Fractions, and the
coefficients come out as integers over one common denominator, from two
passes over the decomposition tree laid out once per instance.  The
brute-force spanning-tree sweep lists the trees the exact checks run on.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .sptree import (
    Leaf,
    Parallel,
    Series,
    SpTreeError,
    leaf_count,
    parallel_rooted,
    realize,
)

DEFAULT_BRUTE_CAP = 16


class BruteForceCapError(RuntimeError):
    """An exhaustive subset sweep would exceed the configured edge cap."""


def brute_force_cap() -> int:
    env = os.environ.get("EXTREMAL_BRUTE_CAP")
    return int(env) if env else DEFAULT_BRUTE_CAP


def _require_under_cap(n: int) -> None:
    cap = brute_force_cap()
    if n > cap:
        raise BruteForceCapError(
            f"{n} edges exceeds the spanning-tree cap of {cap} edges "
            f"(override with EXTREMAL_BRUTE_CAP)")


def induced_weights(tree) -> dict[int, Fraction]:
    """Edge weights read off the alternating decomposition chain.

    Every serial decomposition step from a subnetwork with a edges to a
    part with b edges contributes phi(a)/phi(b) with phi(x) = x*(n - x);
    chains ending at a parallel level end with a dummy serial step that
    contributes nothing.  Edges sitting directly in the root bundle get
    weight 1.
    """
    if isinstance(tree, Series):
        tree = parallel_rooted(tree)
    if not isinstance(tree, Parallel):
        raise SpTreeError("induced weights need a 2-connected (parallel-rooted) tree")
    n = leaf_count(tree)

    def phi(x: int) -> Fraction:
        return Fraction(x * (n - x))

    out: dict[int, Fraction] = {}

    def walk(node, factor: Fraction):
        if isinstance(node, Leaf):
            out[node.eid] = factor
        elif isinstance(node, Series):
            top = phi(leaf_count(node))
            for child in node.children:
                walk(child, factor * top / phi(leaf_count(child)))
        else:
            for child in node.children:
                walk(child, factor)

    walk(tree, Fraction(1))
    return out


def coefficient_layout(tree, directions=None) -> tuple:
    """The part of induced_coefficients that does not depend on tau.

    Lists the parallel-rooted tree in post-order, root last, each node as
    (children, size, is_series, eid, sign): children are positions in the
    list and size is the leaf count; a leaf also carries its edge id and a
    sign, -1 when directions (as given to realize) flips the edge against
    its natural left-to-right sense and +1 otherwise.
    """
    nodes = []

    def walk(node) -> int:
        if isinstance(node, Leaf):
            sign = -1 if directions and directions[node.eid] else 1
            nodes.append(((), 1, False, node.eid, sign))
        else:
            kids = tuple(walk(child) for child in node.children)
            size = sum(nodes[c][1] for c in kids)
            nodes.append((kids, size, isinstance(node, Series), None, 0))
        return len(nodes) - 1

    walk(tree)
    return tuple(nodes)


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
    """Signed value on each edge of the spanning tree tau.

    Magnitudes follow the same decomposition chain as the weights with
    psi(sub) = n - |sub| when tau restricted to sub connects sub's
    terminals and -|sub| otherwise.  The sign is positive when the edge
    direction recorded in graph agrees with the edge's natural
    left-to-right sense.  The result is an eigenvector of the tau
    submatrix of the transfer current matrix with eigenvalue 1/n.
    """
    if isinstance(tree, Series):
        tree = parallel_rooted(tree)
    if not isinstance(tree, Parallel):
        raise SpTreeError("induced coefficients need a 2-connected tree")
    reference = realize(tree)
    ref_pairs = {e: frozenset((t, h)) for t, h, e in reference.edges}
    got_pairs = {e: frozenset((t, h)) for t, h, e in graph.edges}
    if ref_pairs != got_pairs or reference.num_vertices != graph.num_vertices:
        raise SpTreeError("graph does not realize this tree")
    flips = [got != ref for got, ref in zip(graph.edges, reference.edges)]
    scale, y = scaled_coefficients(coefficient_layout(tree, flips), tau)
    return {e: Fraction(v, scale) for e, v in y.items()}


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

    return rec(tree)


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
    """All spanning trees as sorted edge-id tuples, in lexicographic order."""
    n = len(graph.edges)
    _require_under_cap(n)
    size = graph.num_vertices - 1
    return [s for s in combinations(range(n), size) if _is_forest(graph, s)]


def weights_to_json(weights) -> dict[str, str]:
    """Exact "p/q" map keyed by edge id."""
    out = {}
    for e in sorted(weights):
        f = Fraction(weights[e])
        out[str(e)] = f"{f.numerator}/{f.denominator}"
    return out


def weights_from_json(obj) -> dict[int, Fraction]:
    return {int(e): Fraction(s) for e, s in obj.items()}
