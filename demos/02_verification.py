"""Verify the exact spectral identities on every small instance.

For each canonical 2-connected series-parallel tree with up to 6 edges:
the induced coefficients on every spanning tree form an eigenvector of
the corresponding transfer-current submatrix with eigenvalue exactly 1/n,
every non-tree square submatrix is exactly singular, and the star space
sits at cosine exactly 1/sqrt(n) from the nearest coordinate subspace.

Both exact facts are one integer product per instance.  The eigen check
stacks the coefficient vectors of all spanning trees.  Singularity is
certified by a cycle basis Z of the graph: B Z = 0 and (D Y) Z = 0.  A
non-tree edge subset on k + 1 vertices contains a circuit, whose signed
vector lies in the span of Z, so it is a kernel vector of that subset's
submatrix, and no subset is looked at one by one.  Attainment is proved
on the tree the float target picks: an integer matrix congruent to
P[tau, tau] - I/n kills the coefficient vector and is positive definite
without that vector's row and column, by one elimination.
"""

import math

import spextremal as sp

diamond = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
Z = sp.cycle_basis(diamond.graph)
print("the diamond P(e,S(e,P(e,e))): one column of Z per fundamental cycle")
print(f"  Z       = {Z.tolist()}")
print(f"  B Z     = {diamond.B.dot(Z).tolist()}")
print(f"  (D Y) Z = {diamond.DY.dot(Z).tolist()}")
print()

for n in range(2, 7):
    for k in range(1, n):
        for tree in sp.enumerate_rooted(n, k):
            report = sp.verify_instance(sp.build(tree))
            gap = abs(report["target_cos"] - 1 / math.sqrt(n))
            print(f"n={n} k={k} {sp.format_tree(tree):28s} "
                  f"eigen={'ok' if report['eigen_ok'] else 'FAIL'} "
                  f"singular={'ok' if report['degenerate_ok'] else 'FAIL'} "
                  f"attained={'ok' if report['target_ok'] else 'FAIL'} "
                  f"|cos-1/sqrt(n)| in floats={gap:.1e}")
