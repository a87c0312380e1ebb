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
not positive definite.  brute_tree_sums sweeps every edge subset for the
weighted tree and 2-forest sums, and spanning_trees keeps the k-subsets
on which a union-find closes no cycle.  realize_with_spans glues the
graph from two fresh vertices per leaf by a union-find and keeps every
node's terminal pair.  The integer routines in spextremal must agree
with these: the batched eigen check with check_eigen on every spanning
tree, the transfer-current proof with check_degenerate on every non-tree
subset, the stacked coefficients with scaled_coefficients and with
induced_coefficients on every tree, the batched determinant with the
union-find sweep, and the top-down sptree.realize with
realize_with_spans.  class_key is the canonical key of a tree's cycle
matroid, read off its polygon-bond tree, and enumerated_class_count
folds the enumerated trees by it: that is what the generating function
sptree.class_counts must count, and so what count_classes and the cli's
table and enumerate print.  matrix_canon.oracle_key in turn checks
class_key against the subspaces themselves.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from spextremal.sptree import (
    Leaf,
    MultiGraph,
    Parallel,
    Series,
    SpTreeError,
    enumerate_rooted,
    leaf_count,
    leaf_ids,
    make_series,
    parallel_rooted,
)
from spextremal.weights import TreeSums


def realize_with_spans(tree, directions=None):
    """sptree.realize by gluing, plus each node's terminal pair.

    Every leaf gets two fresh vertices; a series node glues each child's
    right end to the next child's left end, a parallel node glues all its
    children's left ends and all their right ends, each by a union-find
    that keeps the smaller root.  A vertex is labelled by the order of its
    class's least fresh vertex.  Returns the graph and a map from every
    node to its terminal pair in those labels.
    """
    if isinstance(tree, Series):
        tree = parallel_rooted(tree)
    if isinstance(tree, Leaf):
        raise SpTreeError("a single edge is not a 2-connected network")
    ids = leaf_ids(tree)
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise SpTreeError("leaf edge ids must be a permutation of 0..n-1")
    if directions is None:
        directions = [False] * n
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
