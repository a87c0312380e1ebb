"""Planar duality at work.

Swapping series and parallel compositions describes the planar dual
network.  The dual's induced weights are the reciprocals of the primal
ones, and the dual star space is the orthogonal complement of the primal
one up to per-coordinate sign flips, which is why the class-count
triangle is symmetric.  So the dual's transfer current needs no
elimination of its own: with the signs S that make B S B*^T = 0, it is
S (I - Y^T) S, read off the primal's integer pair (D, D Y).  planar_dual
gives the dual's graph, weights and signs and builds no matrix; X is
formed here only to show it.
"""

import numpy as np

import spextremal as sp

tree = sp.parse_tree("P(e,S(e,P(e,e)))")
dual_tree = sp.dualize(tree)
print("primal tree:", sp.format_tree(tree))
print("dual tree:  ", sp.format_tree(dual_tree),
      " (series root = closed chain; realized below)")

primal = sp.build(tree)
graph, weights, signs = sp.planar_dual(primal)
print("\nprimal weights:", {e: str(w) for e, w in sorted(primal.weights.items())})
print("dual weights:  ", {e: str(w) for e, w in sorted(weights.items())})
print("products:      ", {e: str(primal.weights[e] * weights[e])
                          for e in sorted(primal.weights)})

dual_B = sp.incidence_matrix(graph)
print("\nsigns s:", signs.tolist())
print("B S B*^T =", primal.B.dot(signs[:, None] * dual_B.T).tolist())
print("D =", primal.D)
print("D Y  =", primal.DY.tolist())
identity = np.diag(np.full(len(signs), primal.D, dtype=object))
X = (identity - primal.DY.T) * np.outer(signs, signs)
print("D Y* = S (D I - (D Y)^T) S =", X.tolist())

# the dual's own elimination gives the same pair
dual = sp.build(dual_tree)
print("equals the dual's own (D, D Y):",
      dual.D == primal.D and bool((dual.DY == X).all()))

print("\nranks: primal", primal.subspace.dim, " dual", dual.subspace.dim,
      " (sum = number of edges)")
# the dual shares the edge ids, and its spanning trees are the complements
# of the primal's, so both reach the same deviation value
trees = sp.spanning_trees(primal.graph)
print("\nprimal spanning trees:", trees)
print("their complements:    ", sorted(tuple(sorted(set(range(4)) - set(t))) for t in trees))
print("dual spanning trees:  ", sp.spanning_trees(graph))
print("cos(target): primal", np.cos(sp.target(primal.subspace)[0]),
      " dual", np.cos(sp.target(dual.subspace)[0]))
print("exact duality check:", sp.check_dual(primal))
