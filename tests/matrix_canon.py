"""Test oracle for the class key: a canonical form of the squared projector.

Q = Y o Y^T is exact-rational, symmetric and invariant under edge
redirections and weight rescalings, so two instances whose Q matrices
have the same least encoding over simultaneous row/column permutations
span subspaces equal up to signed coordinate permutations.  This is a
backtracking search over permutations; the generating function
sptree.class_counts counts what it separates, through the tree-level
oracle exact_oracles.class_key, which is checked against it.
"""

import numpy as np

from exact_oracles import fraction_y


def _swap_is_automorphism(Q: np.ndarray, i: int, j: int) -> bool:
    if Q[i, i] != Q[j, j]:
        return False
    n = Q.shape[0]
    for x in range(n):
        if x != i and x != j and Q[i, x] != Q[j, x]:
            return False
    return True


def canonical_matrix_form(Q: np.ndarray):
    """Least border encoding of a symmetric matrix over simultaneous
    row/column permutations; returns (encoding, permutation).

    Depth-first placement with prefix pruning; candidates related by a
    transposition automorphism are explored only once.  The encoding is
    the concatenation of border strips (Q[c, placed...], Q[c, c]).
    """
    n = Q.shape[0]
    best: list | None = None
    best_perm: tuple | None = None

    def search(order, strips, status):
        # status 0: strips equal best's prefix; -1: strictly smaller.
        # Returns True when the subtree replaced best, after which the
        # caller's prefix is exactly best's prefix again.
        nonlocal best, best_perm
        pos = len(order)
        if pos == n:
            if best is None or status < 0:
                best = list(strips)
                best_perm = tuple(order)
                return True
            return False
        used = set(order)
        kept = []
        for c in range(n):
            if c in used:
                continue
            if any(_swap_is_automorphism(Q, c, k) for k in kept):
                continue
            kept.append(c)
        replaced_here = False
        for c in kept:
            strip = tuple(Q[c, o] for o in order) + (Q[c, c],)
            st = status
            if st == 0 and best is not None:
                if strip > best[pos]:
                    continue
                if strip < best[pos]:
                    st = -1
            order.append(c)
            strips.append(strip)
            if search(order, strips, st):
                replaced_here = True
                status = 0
            order.pop()
            strips.pop()
        return replaced_here

    search([], [], 0)
    encoding = tuple(x for strip in best for x in strip)
    return encoding, best_perm


def squared_projector(inst) -> np.ndarray:
    Y = fraction_y(inst.D, inst.DY)
    return Y * Y.T


def oracle_key(inst):
    """Canonical encoding of the instance's sign-blind squared projector."""
    encoding, _ = canonical_matrix_form(squared_projector(inst))
    return encoding
