"""Test oracles for the integer exact core: the Fraction paths.

fraction_y forms the Fraction matrix Y from an integer pair (s, s Y), as
spextremal.transfer_current returns it or as an instance holds it in
(D, D Y); fraction_projection reads the float projector off that Y in
Fractions, and transfer_current_combinatorial sums Y over the spanning
trees.  induced_coefficients here finds, for every node of the
decomposition, by its own union-find over the node's tau edges whether
tau connects the node's terminals, and walks the series chains in
Fraction arithmetic.  check_eigen and check_degenerate work on the
Fraction matrix Y, the latter through rational_det, which clears each
row's denominators before one integer elimination.  brute_tree_sums
sweeps every edge subset for the weighted tree and 2-forest sums.  The
integer routines in spextremal must agree with these on every spanning
tree and every non-tree subset.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from spextremal.numeric import bareiss
from spextremal.sptree import (
    Leaf,
    Parallel,
    Series,
    SpTreeError,
    leaf_count,
    leaf_ids,
    parallel_rooted,
    realize_with_spans,
)
from spextremal.weights import TreeSums, _forest_find, spanning_trees


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

    Observed (not proven) to equal 1/n; reported so counterexamples would
    surface.
    """
    out = []
    for tau in spanning_trees(inst.graph):
        idx = list(tau)
        sub = inst.P[np.ix_(idx, idx)]
        out.append((tau, float(np.linalg.eigvalsh(sub)[0])))
    return out


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


def induced_coefficients(tree, tau, graph) -> dict[int, Fraction]:
    """The signed coefficients, with one union-find per node."""
    if isinstance(tree, Series):
        tree = parallel_rooted(tree)
    if not isinstance(tree, Parallel):
        raise SpTreeError("induced coefficients need a 2-connected tree")
    n = leaf_count(tree)
    reference, spans = realize_with_spans(tree)
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
        find = _forest_find(graph, [e for e in leaf_ids(node) if e in tau_set])
        a, b = spans[node]
        return find(a) == find(b)

    def psi(node) -> Fraction:
        size = leaf_count(node)
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
