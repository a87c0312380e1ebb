"""Test oracles for the integer exact checks: the Fraction paths.

induced_coefficients here finds, for every node of the decomposition, by
its own union-find over the node's tau edges whether tau connects the
node's terminals, and walks the series chains in Fraction arithmetic.
check_eigen and check_degenerate work on the Fraction matrix Y, the
latter through rational_det, which clears each row's denominators before
one integer elimination.  The integer checks on D Y in spextremal must
agree with these on every spanning tree and every non-tree subset.
"""

import math
from fractions import Fraction

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
from spextremal.weights import _forest_find


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
    lam = Fraction(1, n)
    for e in idx:
        image = sum((inst.Y[e, f] * y[f] for f in idx), Fraction(0))
        if image != lam * y[e]:
            return False
    return True


def check_degenerate(inst, subset) -> bool:
    """det Y[S, S] == 0 through rational_det."""
    idx = sorted(subset)
    return rational_det(inst.Y[np.ix_(idx, idx)]) == 0
