"""Verify the exact spectral identities on every small instance.

For each canonical 2-connected series-parallel tree with up to 6 edges:
the induced coefficients on every spanning tree form an eigenvector of
the corresponding transfer-current submatrix with eigenvalue exactly 1/n,
every non-tree square submatrix is exactly singular, and the star space
sits at cosine exactly 1/sqrt(n) from the nearest coordinate subspace.

Both exact facts are integer products with D Y.  The eigen check
stacks the coefficient vectors of all spanning trees.  Singularity
follows from four identities that prove D Y is D times the transfer
current: B (D Y) = D B, (D Y)^2 = D (D Y), trace(D Y) = k D, and
(D Y) W symmetric, W the weights as coprime integers.  They make Y
the projection onto range(W B^T) along ker B; a non-tree edge subset on
k + 1 vertices contains a circuit, whose signed vector lies in ker B, so
it is a kernel vector of that subset's submatrix, and no subset is
looked at one by one.
Attainment is proved on the first spanning tree in lexicographic order:
an integer matrix congruent to P[tau, tau] - I/n kills the coefficient
vector and is positive definite without that vector's row and column,
by one elimination.  The report holds these exact verdicts only; the
float gap printed beside them is computed here from the basis.
"""

import math

import spextremal as sp

diamond = sp.build(sp.parse_tree("P(e,S(e,P(e,e)))"))
B, D, X = diamond.B, diamond.D, diamond.DY
K = X * diamond.w  # column f times W_f, W the weights as coprime integers
print("the diamond P(e,S(e,P(e,e))): D Y is D times the transfer current")
print(f"  D = {D}, D Y = {X.tolist()}")
for label, holds in [
        ("B (D Y) == D B", (B.dot(X) == D * B).all()),
        ("(D Y)^2 == D (D Y)", (X.dot(X) == D * X).all()),
        (f"trace(D Y) == k D, {X.trace()} == {diamond.subspace.dim} * {D}",
         X.trace() == diamond.subspace.dim * D),
        ("(D Y) W symmetric", (K == K.T).all())]:
    print(f"  {label:36s} {bool(holds)}")
print()

for n in range(2, 7):
    for k in range(1, n):
        for tree in sp.enumerate_rooted(n, k):
            inst = sp.build(tree)
            report = sp.verify_instance(inst)
            # the report is exact; the float gap is the demo's own measurement
            gap = abs(math.cos(sp.target(inst.subspace)[0]) - 1 / math.sqrt(n))
            print(f"n={n} k={k} {sp.format_tree(tree):28s} "
                  f"eigen={'ok' if report['eigen_ok'] else 'FAIL'} "
                  f"singular={'ok' if report['degenerate_ok'] else 'FAIL'} "
                  f"attained={'ok' if report['target_ok'] else 'FAIL'} "
                  f"|cos-1/sqrt(n)| in floats={gap:.1e}")
