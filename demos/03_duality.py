"""Planar duality at work.

Swapping series and parallel compositions describes the planar dual
network, and dualize writes it 2-connected again: the closed chain of the
swapped root parts becomes the first part in parallel with the chain of
the others, and the leaves outside the first part flip, so that the
incidence matrices satisfy B B*^T = 0.  The dual's induced weights are
the reciprocals of the primal ones, and the dual star space is the
orthogonal complement of the primal one, which is why the class-count
triangle is symmetric.  So the dual's transfer current needs no
elimination of its own: it is I - Y^T, read off the primal's integer
pair (D, D Y).  check_dual builds no matrix; X is formed here only to
show it.
"""

import numpy as np

import spextremal as sp

tree = sp.parse_tree("P(e,S(e,P(e,e)))")
dual_tree = sp.dualize(tree)
print("primal tree:", sp.format_tree(tree))
print("dual tree:  ", sp.format_tree(dual_tree))
print("dual signs: ", [sign for kids, _, _, _, sign in dual_tree if not kids])

primal = sp.build(tree)
dual = sp.build(dual_tree)
print("\nprimal weights:", {e: str(w) for e, w in sorted(primal.weights.items())})
print("dual weights:  ", {e: str(w) for e, w in sorted(dual.weights.items())})
print("products:      ", {e: str(primal.weights[e] * dual.weights[e])
                          for e in sorted(primal.weights)})

print("\nB B*^T =", primal.B.dot(dual.B.T).tolist())
print("D =", primal.D)
print("D Y  =", primal.DY.tolist())
X = np.diag(np.full(len(primal.weights), primal.D, dtype=object)) - primal.DY.T
print("D Y* = D I - (D Y)^T =", X.tolist())

# the dual's own elimination gives the same pair
print("equals the dual's own (D, D Y):",
      dual.D == primal.D and bool((dual.DY == X).all()))

print("\nranks: primal", primal.subspace.dim, " dual", dual.subspace.dim,
      " (sum = number of edges)")
# the dual shares the edge ids, and its spanning trees are the complements
# of the primal's, so both reach the same deviation value
trees = sp.spanning_trees(primal.graph)
print("\nprimal spanning trees:", trees)
print("their complements:    ", sorted(tuple(sorted(set(range(4)) - set(t))) for t in trees))
print("dual spanning trees:  ", sp.spanning_trees(dual.graph))
print("cos(target): primal", np.cos(sp.target(primal.subspace)[0]),
      " dual", np.cos(sp.target(dual.subspace)[0]))
print("exact duality check:", sp.check_dual(primal))
