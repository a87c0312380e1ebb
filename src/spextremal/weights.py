"""Edge weights, signed coefficients, and exact spanning-tree accounting.

The weight family computed here makes the star space of a 2-connected
series-parallel graph sit at cosine exactly 1/sqrt(n) from every
coordinate subspace.  The companion signed coefficients form, on each
spanning tree, an eigenvector of the matching transfer-current submatrix.
Everything is exact: weights and tree sums are Fractions, and the
coefficients come out as integers over one common denominator per tree.
The decomposition tree is laid out once per instance, each leaf with its
direction sign (coefficient_layout); the weights come from one top-down
pass over that layout, and the coefficients of every spanning tree from
one bottom-up and one top-down pass, each step an array operation over
all the trees at once (stacked_coefficients).  spanning_trees lists the
trees the eigen check and the target run on, from one batched determinant
over all edge subsets of the reduced incidence matrix, exact because that
matrix is totally unimodular.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, compress
from typing import NamedTuple

import numpy as np

from . import numeric
from .sptree import (
    Leaf,
    Parallel,
    Series,
    SpTreeError,
    parallel_rooted,
)


def induced_weights(tree) -> dict[int, Fraction]:
    """Edge weights read off the alternating decomposition chain.

    Every serial decomposition step from a subnetwork with a edges to a
    part with b edges contributes phi(a)/phi(b) with phi(x) = x*(n - x);
    chains ending at a parallel level end with a dummy serial step that
    contributes nothing.  Edges sitting directly in the root bundle get
    weight 1.  The subnetwork sizes come from one post-order pass
    (coefficient_layout); one top-down pass multiplies the ratios along
    each chain as integer numerators and denominators.
    """
    if isinstance(tree, Series):
        tree = parallel_rooted(tree)
    if not isinstance(tree, Parallel):
        raise SpTreeError("induced weights need a 2-connected (parallel-rooted) tree")
    return _layout_weights(coefficient_layout(tree))


def _layout_weights(layout) -> dict[int, Fraction]:
    """induced_weights of the tree laid out by coefficient_layout, read off
    the sizes alone, so the directions the layout carries do not matter."""
    n = layout[-1][1]

    def phi(x: int) -> int:
        return x * (n - x)

    num, den = [1] * len(layout), [1] * len(layout)
    for i in reversed(range(len(layout))):
        kids, size, is_series, _, _ = layout[i]
        for c in kids:
            if is_series:
                num[c], den[c] = num[i] * phi(size), den[i] * phi(layout[c][1])
            else:
                num[c], den[c] = num[i], den[i]
    return {eid: Fraction(num[i], den[i])
            for i, (kids, _, _, eid, _) in enumerate(layout) if not kids}


def coefficient_layout(tree, directions=None) -> tuple:
    """The part of the weights and coefficients that no spanning tree changes.

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


def stacked_coefficients(layout, trees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, C, on): C[e, j] / s[j] is the induced coefficient of edge e on
    the spanning tree trees[j], and on[e, j] says whether e lies in it.

    C is n x T, zero off each tree; C and s are object arrays of Python
    ints, so no product can overflow, and on is boolean.  One pass over
    the layout serves every tree at once, each node's step one array
    operation over all T columns.  Bottom up, each node gets the deficit
    of each tree restricted to its edges: 0 when that is a spanning tree
    of the node (its terminals are connected), 1 when it is a spanning
    2-forest separating the terminals.  A series node sums its children's
    deficits; a parallel node sums them and subtracts one less than its
    number of children, since siblings share only the terminals.  Any
    other value marks a cycle or a stray component and stays out of range
    up to the root, so a column is a spanning tree exactly when the root's
    deficit is 0.  Top down, the psi ratios multiply along each series
    chain as integer numerators and denominators, and s[j] is the lcm of
    tree j's denominators.  Raises SpTreeError when trees is empty (a
    connected graph has a spanning tree, so an empty list means its source
    failed) and when some entry is not a spanning tree: an edge id outside
    0..n-1, a repeated edge, a cycle or too few edges.
    """
    n = layout[-1][1]
    trees = list(trees)
    if not trees:
        raise SpTreeError("no spanning tree to check")
    sizes = [len(tau) for tau in trees]
    edges = np.fromiter(chain.from_iterable(trees), dtype=int, count=sum(sizes))
    if edges.size and not 0 <= edges.min() <= edges.max() < n:
        raise SpTreeError("edge subset names an edge the graph lacks")
    on = np.zeros((n, len(trees)), dtype=bool)
    on[edges, np.repeat(np.arange(len(trees)), sizes)] = True
    if (on.sum(axis=0) != sizes).any():
        raise SpTreeError("edge subset repeats an edge")

    invalid = n + 1  # a parallel node subtracts fewer than n
    deficit = np.empty((len(layout), len(trees)), dtype=int)
    leaves = [i for i, node in enumerate(layout) if not node[0]]
    eids = [layout[i][3] for i in leaves]
    deficit[leaves] = ~on[eids]
    for i, (kids, _, is_series, _, _) in enumerate(layout):
        if kids:
            d = deficit[list(kids)].sum(axis=0) - (0 if is_series else len(kids) - 1)
            deficit[i] = np.where((d == 0) | (d == 1), d, invalid)
    if deficit[-1].any():
        raise SpTreeError("edge subset is not a spanning tree")
    size = np.array([node[1] for node in layout])[:, None]
    psi = np.where(deficit == 0, n - size, -size).astype(object)

    # rows are shared, never written: a parallel child takes its parent's
    num, den = [None] * len(layout), [None] * len(layout)
    num[-1] = den[-1] = np.ones(len(trees), dtype=object)
    for i in reversed(range(len(layout))):
        kids, _, is_series, _, _ = layout[i]
        top = num[i] * psi[i] if is_series else num[i]
        for c in kids:
            num[c] = top
            den[c] = den[i] * psi[c] if is_series else den[i]
    C = np.zeros(on.shape, dtype=object)
    dens = np.ones(on.shape, dtype=object)
    C[eids] = [layout[i][4] * num[i] for i in leaves]
    dens[eids] = [den[i] for i in leaves]
    dens[~on] = 1
    scale = np.lcm.reduce(dens, axis=0)
    return scale, np.where(on, C * (scale // dens), 0), on


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


def spanning_trees(graph) -> list[tuple]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order.

    With k + 1 vertices, n edges and B0 the incidence matrix without
    vertex 0's row, a k-subset S of the edges is a spanning tree exactly
    when det B0[:, S] != 0.  One batched float np.linalg.det tests every
    S on the (C(n, k), k, k) stack of those submatrices, at most
    C(12, 6) = 924 of them under numeric.MAX_EDGES.  Why floats decide it exactly: B0 is totally unimodular (every
    square submatrix has determinant 0 or +-1; a loop is a zero column).
    LU with partial pivoting keeps every intermediate matrix a Schur
    complement of B0[:, S] with its rows permuted, whose entries are ratios
    of two of its minors, the denominator the nonzero product of the
    pivots so far; so every entry, pivot and multiplier lies in {0, +-1},
    and every update is a sum of at most k + 1 products of such numbers,
    an integer that floats hold exactly.  By induction, in any order of
    operations, the float factorization is the exact one, U's diagonal
    lies in {0, +-1}, and det is exactly 0 or +-1.
    """
    n = len(graph.edges)
    numeric.require_edge_limit(n)
    size = graph.num_vertices - 1
    rows = np.zeros((n, graph.num_vertices))  # B^T: one row per edge
    for tail, head, e in graph.edges:
        rows[e, head] += 1
        rows[e, tail] -= 1
    rows = rows[:, 1:]
    subsets = list(combinations(range(n), size))
    det = np.linalg.det(rows[np.array(subsets, dtype=int).reshape(len(subsets), size)])
    return list(compress(subsets, det))


def weights_to_json(weights) -> dict[str, str]:
    """Exact "p/q" map keyed by edge id."""
    out = {}
    for e in sorted(weights):
        f = Fraction(weights[e])
        out[str(e)] = f"{f.numerator}/{f.denominator}"
    return out

