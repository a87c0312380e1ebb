"""Walk through one construction end to end.

Take the 4-edge "diamond" network (an edge in parallel with an edge
followed by a doubled edge), realize it, compute its induced weights, the
transfer current matrix Y (held exactly as the integer matrix D·Y, D the
least positive integer that clears Y's denominators), and the deviation of
its star space from the coordinate planes.
"""

import math
from fractions import Fraction

import spextremal as sp

tree = sp.parse_tree("P(e,S(e,P(e,e)))")
print("tree:            ", sp.format_tree(tree))
print("edges n =", sp.leaf_count(tree), " rank k =", sp.rank(tree))

graph = sp.realize(tree)
print("realized graph:  ", graph.num_vertices, "vertices,",
      [(t, h) for t, h, _ in graph.edges], " terminals", graph.terminals)

weights = sp.induced_weights(tree)
print("induced weights: ", {e: str(w) for e, w in sorted(weights.items())})

inst = sp.build(tree)
print("\ntransfer current matrix Y = (D·Y) / D, exact, with D =", inst.D)
print("D·Y:")
for row in inst.DY:
    print("   ", [int(x) for x in row])
trace = sum(inst.DY[i, i] for i in range(4))
print(f"trace(D·Y) / D = {trace}/{inst.D} =", Fraction(trace, inst.D), " (the rank k)")

angle, subset = sp.target(inst.subspace)
print("\ndeviation from the nearest coordinate plane:")
print("   angle      =", angle)
print("   cos(angle) =", math.cos(angle), " vs 1/sqrt(4) =", 0.5)
print("   attained at coordinate subset", subset)
