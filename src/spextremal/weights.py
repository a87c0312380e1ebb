"""Edge weights, signed coefficients, and exact spanning-tree accounting.

The weight family computed here makes the star space of a 2-connected
series-parallel graph sit at cosine exactly 1/sqrt(n) from every
coordinate subspace.  The companion signed coefficients form, on each
spanning tree, an eigenvector of the matching transfer-current submatrix.
Everything is exact: weights are Fractions, and the coefficients come
out as integers over one common denominator per tree.  Both read the
decomposition tree, sptree's post-order tuple of nodes whose leaves carry
their direction signs: the weights come from one top-down pass over it,
and the coefficients of every spanning tree from one bottom-up and one
top-down pass, each step an array operation over all the trees at once
(stacked_coefficients).
spanning_trees lists the trees the eigen check and the attainment proof
run on, from one batched determinant over all edge subsets of the
reduced incidence matrix, exact because that matrix is totally
unimodular.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress

import numpy as np

from . import numeric
from .sptree import SpTreeError, two_terminal_layout


def induced_weights(tree) -> dict[int, Fraction]:
    """Edge weights read off the decomposition chain.

    Every serial decomposition step from a subnetwork with a edges to a
    part with b edges contributes phi(a)/phi(b) with phi(x) = x*(n - x),
    which telescopes along a chain in a chain; chains ending at a parallel
    level end with a dummy serial step that contributes nothing.  Edges sitting directly in the root bundle get
    weight 1.  The subnetwork sizes come from the tree's two-terminal
    form (sptree.two_terminal_layout, so a closed series chain is taken
    too), and the sizes alone decide, so the leaf signs do not matter; one
    top-down pass multiplies the ratios along each chain as integer
    numerators and denominators in lowest terms.
    """
    layout = two_terminal_layout(tree)
    n = layout[-1][1]

    def phi(x: int) -> int:
        return x * (n - x)

    num, den = [1] * len(layout), [1] * len(layout)
    for i in reversed(range(len(layout))):
        kids, size, is_series, _, _ = layout[i]
        for c in kids:
            if is_series:
                # unreduced, a deep chain's products grow far past its weights
                p, q = num[i] * phi(size), den[i] * phi(layout[c][1])
                g = math.gcd(p, q)
                num[c], den[c] = p // g, q // g
            else:
                num[c], den[c] = num[i], den[i]
    return {eid: Fraction(num[i], den[i])
            for i, (kids, _, _, eid, _) in enumerate(layout) if not kids}


def stacked_coefficients(layout, trees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, C, on): C[e, j] / s[j] is the induced coefficient of edge e on
    the spanning tree trees[j], and on[e, j] says whether e lies in it;
    layout is the decomposition tree, taken in two-terminal form
    (sptree.two_terminal_layout), so a closed series chain is read as the
    graph realize builds from it.

    C is n x T, zero off each tree, and on is boolean; C and s are int64
    where numeric.fixed_width proves that nothing wraps, and Python ints
    otherwise.  One pass over the layout serves every tree at once, each
    node's step one array operation over all T columns.  Bottom up, each
    node gets the deficit of each tree restricted to its edges: 0 when
    that is a spanning tree of the node (its terminals are connected), 1
    when it is a spanning 2-forest separating the terminals.  A series node sums its children's
    deficits; a parallel node sums them and subtracts one less than its
    number of children, since siblings share only the terminals.  Any
    other value marks a cycle or a stray component and stays out of range
    up to the root, so a column is a spanning tree exactly when the root's
    deficit is 0.  Top down, the psi ratios multiply along each series
    chain as integer numerators and denominators, and s[j] is the lcm of
    tree j's denominators.  Every value is bounded before any is formed:
    |psi| <= n, and with F the children of series nodes, a numerator is
    the product of psi over the series nodes on a path, a denominator over
    the nodes of F on it, and s[j] divides the product over all of F.  A
    series node on a path has its next node in F, so
    C = numerator * (s // denominator), which divides the product over the
    series nodes on the path and the nodes of F off it, is at most n**|F|
    like every other value, below 2**(|F| bit_length(n) + 1), the bound
    fixed_width is given.  Raises SpTreeError when trees is empty (a
    connected graph has a spanning tree, so an empty list means its source
    failed) and when some entry is not a spanning tree: an edge id outside
    0..n-1, a repeated edge, a cycle or too few edges.
    """
    layout = two_terminal_layout(layout)
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
    factors = sum(len(node[0]) for node in layout if node[2])
    psi, = numeric.fixed_width([np.where(deficit == 0, n - size, -size)],
                               factors * n.bit_length() + 1)

    # rows are shared, never written: a parallel child takes its parent's
    num, den = [None] * len(layout), [None] * len(layout)
    num[-1] = den[-1] = np.ones(len(trees), dtype=psi.dtype)
    for i in reversed(range(len(layout))):
        kids, _, is_series, _, _ = layout[i]
        top = num[i] * psi[i] if is_series else num[i]
        for c in kids:
            num[c] = top
            den[c] = den[i] * psi[c] if is_series else den[i]
    C = np.zeros(on.shape, dtype=psi.dtype)
    dens = np.ones(on.shape, dtype=psi.dtype)
    C[eids] = [layout[i][4] * num[i] for i in leaves]
    dens[eids] = [den[i] for i in leaves]
    dens[~on] = 1
    scale = np.lcm.reduce(dens, axis=0)
    return scale, np.where(on, C * (scale // dens), 0), on


def spanning_trees(graph) -> list[tuple]:
    """All spanning trees as sorted edge-id tuples, in lexicographic order.

    With k + 1 vertices, n edges and B0 the rows of
    numeric.incidence_matrix but vertex 0's, where a loop is a zero
    column, a k-subset S of the edges is a spanning tree exactly when
    det B0[:, S] != 0.  One batched float np.linalg.det tests every S on
    the (C(n, k), k, k) stack of those submatrices, at most
    C(12, 6) = 924 of them under numeric.MAX_EDGES.  Why floats decide it
    exactly: B0 is totally unimodular (every square submatrix has
    determinant 0 or +-1).
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
    rows = numeric.incidence_matrix(graph)[1:].T.astype(float)  # B0^T: one row per edge
    subsets, index = numeric.coordinate_subsets(n, rows.shape[1])
    det = np.linalg.det(rows[index])
    return list(compress(subsets, det))


def weights_to_json(weights) -> dict[str, str]:
    """Exact "p/q" map keyed by edge id, read off each weight's numerator
    and denominator, so it takes ints as well as Fractions."""
    return {str(e): f"{weights[e].numerator}/{weights[e].denominator}"
            for e in sorted(weights)}

