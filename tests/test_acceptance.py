"""Acceptance suite: one test per exit criterion, one summary line each.

Criteria 1-7 and 9 run over every canonical 2-connected instance at the
stated sizes; criterion 8 reruns the randomized search with fixed seeds.
The table rows n = 8, 9 and criterion 9 at n = 8, 9 run only with
--runlong.
"""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import spextremal as sp
from spextremal.extremal import check_attained
from spextremal.numeric import Subspace
from spextremal.search import (
    SearchConfig,
    _climb,
    accumulate,
    sample_uniform,
    symmetry_equivalent,
)
from spextremal.weights import stacked_coefficients

import exact_oracles as oracle
from exact_oracles import decompose

TABLE = {
    2: [1],
    3: [1, 1],
    4: [1, 1, 1],
    5: [1, 2, 2, 1],
    6: [1, 3, 4, 3, 1],
    7: [1, 4, 8, 8, 4, 1],
    8: [1, 5, 14, 19, 14, 5, 1],
    9: [1, 6, 23, 42, 42, 23, 6, 1],
}


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_deviation_value(instances_to_7):
    worst = 0.0
    for inst in instances_to_7:
        n = len(inst.graph.edges)
        angle, _ = sp.target(inst.subspace)
        worst = max(worst, abs(math.cos(angle) - 1.0 / math.sqrt(n)))
    assert worst <= 1e-9
    report(f"1 PASS: |cos(target) - 1/sqrt(n)| <= 1e-9 on "
           f"{len(instances_to_7)} instances (worst {worst:.2e})")


def test_criterion_2_exact_spectral_identities(instances_to_7):
    eigen_checked = degenerate_checked = 0
    for inst in instances_to_7:
        n = len(inst.graph.edges)
        k = inst.subspace.dim
        trees = sp.spanning_trees(inst.graph)
        tree_set = set(trees)
        assert sp.check_eigen(inst, trees), sp.format_tree(inst.tree)
        eigen_checked += len(trees)
        assert sp.check_degenerate(inst), sp.format_tree(inst.tree)
        for subset in combinations(range(n), k):
            if subset not in tree_set:
                assert oracle.check_degenerate(inst, subset), sp.format_tree(inst.tree)
                degenerate_checked += 1
    report(f"2 PASS: eigen identity exact on {eigen_checked} spanning trees, "
           f"transfer-current proof exact on {len(instances_to_7)} instances, "
           f"det zero exact on {degenerate_checked} non-tree subsets")


def test_criterion_3_class_table_small():
    for n in range(2, 8):
        row = [sp.count_classes(n, k) for k in range(1, n)]
        assert row == TABLE[n], f"row {n}: computed {row}, stated {TABLE[n]}"
    report("3 PASS: class-count triangle rows n = 2..7 reproduced exactly")


@pytest.mark.long
def test_criterion_3_class_table_long_rows():
    mismatches = []
    for n in (8, 9):
        row = [sp.count_classes(n, k) for k in range(1, n)]
        for k, (got, stated) in enumerate(zip(row, TABLE[n]), start=1):
            if got != stated:
                mismatches.append((n, k, got, stated))
    if mismatches:
        report("3 FAIL (long rows): " + "; ".join(
            f"({n},{k}) computed {got}, stated {stated}"
            for n, k, got, stated in mismatches))
    else:
        report("3 PASS (long rows): n = 8, 9 reproduced exactly")
    assert not mismatches, (
        f"reference table entries not reproduced (n, k, computed, stated): "
        f"{mismatches}; the computed counts follow from an exhaustive "
        f"enumeration, e.g. rank-2 instances on 9 edges are the 7 triangles "
        f"with bundle sizes from the partitions of 9 into 3 positive parts, "
        f"pairwise inequivalent under signed coordinate permutations")


def test_criterion_4_recurrence_oracle(instances_to_7):
    rng = random.Random(2024)
    cases = 0
    for inst in instances_to_7:
        n = len(inst.graph.edges)
        weightings = [inst.weights]
        weightings += [{e: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                        for e in range(n)} for _ in range(20)]
        for w in weightings:
            assert oracle.tree_sums(inst.tree, w) == oracle.brute_tree_sums(inst.graph, w)
            cases += 1
    report(f"4 PASS: closed-form tree sums equal brute-force sums on {cases} "
           f"weighted instances")


def test_criterion_5_transfer_current_oracle(instances_to_7):
    for inst in instances_to_7:
        Y = oracle.fraction_y(inst.D, inst.DY)
        combinatorial = oracle.transfer_current_combinatorial(inst.graph, inst.weights)
        assert Y.shape == combinatorial.shape
        assert bool((Y == combinatorial).all()), sp.format_tree(inst.tree)
    report(f"5 PASS: algebraic and spanning-tree transfer current matrices "
           f"identical on {len(instances_to_7)} instances")


def test_criterion_6_terminal_invariance(instances_to_6):
    checked = 0
    for inst in instances_to_6:
        n = len(inst.graph.edges)
        for tail, head, _ in inst.graph.edges:
            redone = decompose(inst.graph, tail, head)
            new_weights = sp.induced_weights(redone.tree)
            ratios = {new_weights[c] / inst.weights[redone.edge_map[c]]
                      for c in range(n)}
            assert len(ratios) == 1, sp.format_tree(inst.tree)
            checked += 1
    report(f"6 PASS: re-decomposed weights exactly proportional for {checked} "
           f"terminal choices")


def test_criterion_7_duality(instances_to_6):
    for inst in instances_to_6:
        assert sp.check_dual(inst), sp.format_tree(inst.tree)
    for n in range(2, 8):
        row = [sp.count_classes(n, k) for k in range(1, n)]
        assert row == row[::-1], f"row {n} not symmetric: {row}"
    report(f"7 PASS: dual weights reciprocal, dual transfer current read off "
           f"the primal's and proved exact on {len(instances_to_6)} instances; "
           f"table rows symmetric")


def test_criterion_8_search_reproduction():
    expected = {(2, 1): 1, (3, 2): 1, (4, 2): 1, (5, 2): 2}
    for (n, k), count in expected.items():
        result = accumulate(n, k, SearchConfig(seed=7))
        assert result.violation is None, (n, k)
        assert len(result.classes) == count, (n, k, len(result.classes))
        constructive = [sp.build(t).subspace for t in sp.enumerate_rooted(n, k)]
        for member, _ in result.classes:
            assert any(symmetry_equivalent(member, c, 1e-3) for c in constructive), \
                (n, k)
    # 100 climbs, run as one lockstep batch, each from a start drawn from
    # its own stream
    starts = np.stack([
        sample_uniform(4, 2, np.random.default_rng(
            np.random.SeedSequence(entropy=99, spawn_key=(i,)))).basis
        for i in range(100)])
    hits = 0
    for basis in _climb(starts):
        sub = Subspace(basis)
        if abs(math.cos(sp.target(sub)[0]) - 0.5) <= 1e-3:
            hits += 1
    assert hits >= 50, f"only {hits}/100 restarts reached cos 1/2 within 1e-3"
    report(f"8 PASS: accumulate reproduced class counts for {sorted(expected)}, "
           f"all representatives match constructive instances; {hits}/100 "
           f"restarts at (4,2) reached the extremal value")


def assert_attained_on_every_tree(instances):
    """check_attained proves lambda_min(P[tau, tau]) = 1/n on every spanning
    tree of each instance, with its natural and with random edge
    directions, and the float least eigenvalue of the Fraction-route
    projector agrees to 1e-9; returns the trees proved and the worst float
    |lambda_min - 1/n|.  With k >= 2 two false claims
    fail on every tree: a bumped coefficient vector, which only the kernel
    test rejects, and D and D Y negated, which claim 1/n as the largest
    eigenvalue and which only the elimination of the minor rejects."""
    proved, worst = 0, 0.0
    for natural in instances:
        n = len(natural.graph.edges)
        rng = random.Random(sp.format_tree(natural.tree))
        flipped = oracle.orient(natural.tree, [rng.random() < 0.5 for _ in range(n)])
        for inst in (natural, sp.build(flipped)):
            observed = oracle.least_eigenvalue_report(inst)
            _, C, _ = stacked_coefficients(inst.tree, [tau for tau, _ in observed])
            mirrored = dataclasses.replace(inst, D=-inst.D, DY=-inst.DY)
            for j, (tau, least) in enumerate(observed):
                name = (sp.format_tree(inst.tree), tau)
                assert check_attained(inst, tau, C[:, j]), name
                if len(tau) >= 2:
                    bumped = C[:, j].copy()
                    bumped[tau[0]] += 1
                    assert not check_attained(inst, tau, bumped), name
                    assert not check_attained(mirrored, tau, C[:, j]), name
                assert abs(least - 1.0 / n) < 1e-9, name
                worst = max(worst, abs(least - 1.0 / n))
                proved += 1
    return proved, worst


def test_criterion_9_least_eigenvalue_exact(instances_to_7):
    proved, worst = assert_attained_on_every_tree(instances_to_7)
    report(f"9 PASS: least projector-submatrix eigenvalue exactly 1/n on every "
           f"spanning tree, {proved} trees with natural and random directions "
           f"(float residue at most {worst:.2e})")


@pytest.mark.long
@pytest.mark.parametrize("n", [8, 9])
def test_criterion_9_least_eigenvalue_exact_long(n):
    instances = [sp.build(t) for k in range(1, n) for t in sp.enumerate_rooted(n, k)]
    proved, worst = assert_attained_on_every_tree(instances)
    report(f"9 PASS (n = {n}): least eigenvalue exactly 1/n on {proved} spanning "
           f"trees (float residue at most {worst:.2e})")
