"""The triangle of symmetry-class counts.

Each entry counts the classes of extremal k-dimensional subspaces of R^n
modulo coordinate permutations and sign flips.  A class is the cycle
matroid of the graph, an unrooted tree of polygons and bonds, and the
counts are the coefficients of that tree family's generating function
(sptree.class_counts), so no tree is enumerated.  Rows are palindromes
because planar duality pairs (n, k) with (n, n - k), and column k = 2
counts the partitions of n into three parts, round(n^2 / 12).
"""

import spextremal as sp

n_max = 12
rows = sp.class_table(n_max)
width = len(str(max(max(row) for row in rows)))
print("n \\ k |", " ".join(f"{k:{width}d}" for k in range(1, n_max)))
print("------+" + "-" * ((width + 1) * (n_max - 1)))
for n, row in enumerate(rows, start=2):
    print(f"{n:5d} |", " ".join(f"{c:{width}d}" for c in row))
