"""Planar duality at work.

Swapping series and parallel compositions describes the planar dual
network.  The dual's induced weights are the reciprocals of the primal
ones, and the dual star space is the orthogonal complement of the primal
one up to per-coordinate sign flips, which is why the class-count
triangle is symmetric.
"""

import numpy as np

import spextremal as sp
from spextremal.numeric import match_sign_diagonal

tree = sp.parse_tree("P(e,S(e,P(e,e)))")
dual_tree = sp.dualize(tree)
print("primal tree:", sp.format_tree(tree))
print("dual tree:  ", sp.format_tree(dual_tree),
      " (series root = closed chain; realized below)")

primal = sp.build(tree)
dual = sp.build(dual_tree)
print("\nprimal weights:", {e: str(w) for e, w in sorted(primal.weights.items())})
print("dual weights:  ", {e: str(w) for e, w in sorted(dual.weights.items())})
print("products:      ", {e: str(primal.weights[e] * dual.weights[e])
                          for e in sorted(primal.weights)})

signs = match_sign_diagonal(dual.P, np.eye(4) - primal.P, 1e-9)
print("\nsign vector carrying I - P_primal onto P_dual:", signs)
print("max entry error:",
      np.max(np.abs(dual.P - np.outer(signs, signs) * (np.eye(4) - primal.P))))

print("\nranks: primal", primal.subspace.dim, " dual", dual.subspace.dim,
      " (sum = number of edges)")
# the dual shares the edge ids, and its spanning trees are the complements
# of the primal's: check_dual scores the dual on those
trees = sp.spanning_trees(primal.graph)
print("\nprimal spanning trees:", trees)
print("their complements:    ", sorted(tuple(sorted(set(range(4)) - set(t))) for t in trees))
print("dual spanning trees:  ", sp.spanning_trees(dual.graph))
ok, diagnostics = sp.check_dual(primal, trees)
print("full duality check:", ok, diagnostics)
