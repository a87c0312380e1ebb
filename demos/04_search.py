"""Find extremal subspaces from scratch and match them to constructions.

Riemannian gradient descent over 2-dimensional subspaces of R^4: restart
from uniform samples, descend a smoothed maximum of the coordinate
submatrices' least singular values, accumulate one representative per
symmetry class of the maximally deviating subspaces, then align each
representative with a constructively built instance by a signed
coordinate permutation.
"""

import math

import spextremal as sp
from spextremal.search import SearchConfig, accumulate, symmetry_equivalent

n, k = 4, 2
config = SearchConfig(seed=7, attempts=60)
print(f"searching ({n}, {k}) with seed {config.seed} ...")
result = accumulate(n, k, config)

print("restarts:", result.restarts)
print("violation of the arccos(1/sqrt(n)) bound:", result.violation is not None)
print("classes found:", len(result.classes))
for i, (member, profile) in enumerate(result.classes):
    angle, subset = sp.target(member)
    print(f"  class {i}: cos(target) = {math.cos(angle):.9f}"
          f"  (1/sqrt({n}) = {1 / math.sqrt(n):.9f}), argmin subset {subset}")

constructive = [sp.build(t) for t in sp.enumerate_rooted(n, k)]
print("\nmatching against", len(constructive), "constructive instances:")
for i, (member, _) in enumerate(result.classes):
    hits = [sp.format_tree(inst.tree) for inst in constructive
            if symmetry_equivalent(member, inst.subspace, 1e-3)]
    print(f"  class {i} matches: {hits}")
