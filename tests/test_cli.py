import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import spextremal as sp
from spextremal import cli, extremal, numeric, search
from spextremal.search import SearchConfig

from exact_oracles import canonicalize, compose, decompose, enumerated_class_count
from forking import affinity, assert_no_child_left


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_three_two(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "2")
        assert code == 0
        assert "P(e,S(e,e))" in out
        assert "classes: 1" in out

    def test_two_one(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "2", "1")
        assert code == 0
        assert "P(e,e)" in out and "classes: 1" in out

    def test_infeasible_is_usage_error(self, capsys):
        # every instance has 1 <= k <= n - 1, as verify also requires
        for n, k in (("3", "3"), ("5", "7")):
            code, out, err = run_cli(capsys, "enumerate", n, k)
            assert code == 64
            assert out == ""
            assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_bad_range_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "1", "0")
        assert code == 64
        assert "usage error" in err

    def test_json_format_carries_manifest(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2026-01-01T00:00:00+00:00")
        code, out, _ = run_cli(capsys, "enumerate", "4", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"]["command"] == "enumerate"
        assert payload["classes"] == 1
        assert len(payload["trees"]) == 2

    def test_class_count_matches_oracle(self, capsys):
        # the printed count comes from the generating function; the oracle
        # folds the listed trees by their class key
        for n in range(2, 9):
            for k in range(1, n):
                code, out, _ = run_cli(capsys, "enumerate", str(n), str(k))
                assert code == 0
                *trees, last = out.splitlines()
                assert len(trees) == len(sp.enumerate_rooted(n, k))
                assert last == f"classes: {enumerated_class_count(n, k)}", (n, k)


class TestWeights:
    def test_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "P(e,S(e,e,e))")
        assert code == 0
        assert out.strip() == "1, 1, 1, 1"

    def test_diamond(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "P(e,S(e,P(e,e)))")
        assert code == 0
        assert out.strip() == "1, 1, 3/4, 3/4"

    def test_series_root_rejected(self, capsys):
        code, _, err = run_cli(capsys, "weights", "S(e,e)")
        assert code == 65
        assert "parallel" in err

    def test_parse_error_carries_position(self, capsys):
        code, _, err = run_cli(capsys, "weights", "P(P(e,e),e)")
        assert code == 65
        assert "position 2" in err


class TestVerify:
    def test_single_tree(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "P(e,e)")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]
        report = payload["instances"][0]
        assert list(report) == ["tree", "weights", "n", "k", "eigen_ok",
                                "degenerate_ok", "target_ok", "dual_ok"]
        assert report["k"] == sp.build(sp.parse_tree("P(e,e)")).subspace.dim == 1

    def test_calls_no_svd(self, capsys, monkeypatch):
        # the verdicts are exact, so neither the basis nor a float target
        # is computed; forked workers inherit the patched functions
        def refuse(*args, **kwargs):
            raise AssertionError("verify took an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(numeric, "orthonormalize", refuse)
        monkeypatch.setattr(extremal, "orthonormalize", refuse)
        code, out, _ = run_cli(capsys, "verify", "2..7")
        assert code == 0
        assert json.loads(out)["all_ok"]
        assert_no_child_left()

    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "2..4")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]
        assert len(payload["instances"]) == sum(
            len(sp.enumerate_rooted(n, k))
            for n in range(2, 5) for k in range(1, n))

    def test_range_with_k_filter(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "4..5", "2")
        assert code == 0
        payload = json.loads(out)
        assert all(inst["k"] == 2 for inst in payload["instances"])

    def test_single_size_with_k(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "4", "2")
        assert code == 0
        instances = json.loads(out)["instances"]
        assert len(instances) == len(sp.enumerate_rooted(4, 2)) == 2
        assert all(inst["k"] == 2 for inst in instances)

    def test_single_size_is_one_size_range(self, capsys):
        _, single, _ = run_cli(capsys, "verify", "5")
        _, ranged, _ = run_cli(capsys, "verify", "5..5")
        assert json.loads(single)["instances"] == json.loads(ranged)["instances"]

    def test_tree_with_k_is_usage_error(self, capsys):
        # and so is --tol, which verify no longer takes: its verdict is exact
        # an empty k range is a k range too
        for argv in (["P(e,S(e,e))", "2"], ["P(e,e)", ""], ["2..3", "--tol", "1e-9"]):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert code == 64
            assert out == ""
            assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec, k_range", [
        ("5", "0"),         # klo < 1
        ("3", ""),          # empty, not absent
        ("5", "3..2"),      # khi < klo
        ("5", "7"),         # well formed, but every n = 5 instance has k <= 4
        ("2..4", "4..9"),
    ])
    def test_empty_selection_is_usage_error(self, capsys, spec, k_range):
        code, out, err = run_cli(capsys, "verify", spec, k_range)
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_k_beyond_small_sizes_keeps_larger_ones(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "2..6", "5")
        assert code == 0
        instances = json.loads(out)["instances"]
        assert len(instances) == len(sp.enumerate_rooted(6, 5))
        assert all((inst["n"], inst["k"]) == (6, 5) for inst in instances)

    def test_corrupted_weights_exit_one(self, capsys, monkeypatch):
        from fractions import Fraction
        import spextremal.extremal as extremal
        real = extremal.__dict__["induced_weights"]

        def corrupt(tree):
            w = real(tree)
            w[0] = w[0] + Fraction(1, 7)
            return w

        monkeypatch.setitem(extremal.__dict__, "induced_weights", corrupt)
        code, out, err = run_cli(capsys, "verify", "P(e,S(e,e))")
        assert code == 1
        payload = json.loads(out)
        assert not payload["all_ok"]
        assert err.strip()  # failing instance echoed


    @pytest.mark.parametrize("edges", [13, 18, 80])
    def test_target_cap_is_usage_error(self, capsys, monkeypatch, edges):
        # the limit is checked on the parsed tree, before any instance is built
        def unreachable(*args):
            raise AssertionError("build ran on a tree above the edge limit")

        monkeypatch.setattr(cli, "build", unreachable)
        code, out, err = run_cli(capsys, "verify", "P(" + ",".join(["e"] * edges) + ")")
        assert code == 64
        assert out == ""
        assert err == f"error: {edges} edges exceed the limit of 12\n"

    @pytest.mark.parametrize("spec", ["S(e,e)", "e", "S(" + ",".join(["e"] * 13) + ")"])
    def test_root_not_parallel_is_parse_error(self, capsys, monkeypatch, spec):
        # checked on the parsed tree, before the edge limit and before any
        # instance is built
        def unreachable(*args):
            raise AssertionError("build ran on a tree that is not 2-connected")

        monkeypatch.setattr(cli, "build", unreachable)
        code, out, err = run_cli(capsys, "verify", spec)
        assert (code, out) == (65, "")
        assert err == "error: root must be a parallel composition (the graph is not 2-connected)\n"


class TestWorkers:
    """verify deals its trees, and search its restart batches, over the
    CPUs in the process's affinity; the workers are forked, and every
    path reaps them."""

    @pytest.mark.parametrize("error", [
        sp.SpTreeError("no realization"),
        sp.TreeParseError("bad operand", 3),
        sp.BruteForceCapError("13 edges exceed the limit of 12"),
        numeric.SingularMatrixError("singular"),
        numeric.RankDeficientError("rank 1 < 2"),
    ])
    def test_exceptions_survive_pickling(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        assert getattr(copy, "position", None) == getattr(error, "position", None)

    def test_bytes_match_one_worker(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2000-01-01T00:00:00Z")
        affinity(monkeypatch, 1)
        alone = run_cli(capsys, "verify", "2..7")
        for cpus in (2, 3):
            affinity(monkeypatch, cpus)
            assert run_cli(capsys, "verify", "2..7") == alone
        assert alone[0] == 0 and alone[2] == ""
        assert_no_child_left()

    def test_one_cpu_or_one_tree_forks_nothing(self, capsys, monkeypatch):
        # the caller's share is then every tree, verified in this process
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2000-01-01T00:00:00Z")
        affinity(monkeypatch, 2)
        two = run_cli(capsys, "verify", "2..5")
        single = run_cli(capsys, "verify", "P(e,S(e,P(e,e)))")

        def fork():
            raise AssertionError("verify forked a worker")

        monkeypatch.setattr(os, "fork", fork)
        assert run_cli(capsys, "verify", "P(e,S(e,P(e,e)))") == single
        affinity(monkeypatch, 1)
        assert run_cli(capsys, "verify", "2..5") == two
        assert two[0] == 0 and two[2] == ""

    def test_failures_echo_in_instance_order(self, capsys, monkeypatch):
        real = extremal.__dict__["induced_weights"]

        def corrupt(tree):
            w = real(tree)
            if sp.leaf_count(tree) % 2:
                w[0] = w[0] + Fraction(1, 7)
            return w

        monkeypatch.setitem(extremal.__dict__, "induced_weights", corrupt)
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2000-01-01T00:00:00Z")
        affinity(monkeypatch, 1)
        alone = run_cli(capsys, "verify", "2..5")
        affinity(monkeypatch, 3)
        assert run_cli(capsys, "verify", "2..5") == alone
        code, out, err = alone
        checks = ("eigen_ok", "degenerate_ok", "target_ok", "dual_ok")
        failed = [inst for inst in json.loads(out)["instances"]
                  if not all(inst[check] for check in checks)]
        assert code == 1 and failed
        assert [json.loads(line) for line in err.splitlines()] == failed
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 40])
    def test_writer_bytes_equal_json_dumps(self, capsys, count):
        manifest = cli.run_manifest("verify", {"spec": "2..5", "k_range": None})
        trees = [t for n in range(2, 6) for k in range(1, n) for t in sp.enumerate_rooted(n, k)]
        reports = cli._verified(trees[:count])
        for ok in (True, False):
            cli._emit_verify(manifest, reports, ok)
            payload = {"manifest": manifest, "instances": reports, "all_ok": ok}
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("error, message", [
        (sp.SpTreeError("no realization"), "error: no realization\n"),
        (sp.TreeParseError("bad operand", 3), "parse error: bad operand (at position 3)\n"),
    ])
    @pytest.mark.parametrize("where", ["every", "odd"])
    def test_an_error_in_any_share_reaps_every_worker(self, capsys, monkeypatch,
                                                      error, message, where):
        # with two CPUs the odd-indexed trees are the worker's share
        trees = [t for k in range(1, 5) for t in sp.enumerate_rooted(5, k)]
        raising = set(trees if where == "every" else trees[1::2])
        real = cli.build

        def build(tree):
            if tree in raising:
                raise error
            return real(tree)

        monkeypatch.setattr(cli, "build", build)
        affinity(monkeypatch, 2)
        assert run_cli(capsys, "verify", "5") == (65, "", message)
        assert_no_child_left()

    def test_worker_without_a_result(self, capsys, monkeypatch):
        parent = os.getpid()
        real = cli.verify_instance

        def verify_instance(inst):
            if os.getpid() != parent:
                os._exit(9)
            return real(inst)

        monkeypatch.setattr(cli, "verify_instance", verify_instance)
        affinity(monkeypatch, 3)
        code, out, err = run_cli(capsys, "verify", "5")
        assert (code, out) == (71, "")
        assert err == "error: a worker ended without a result (exit status 9)\n"
        assert_no_child_left()

    def test_search_worker_without_a_result(self, capsys, monkeypatch):
        # (5,2) seed 1 needs 42 restarts, so it takes the worker's batch
        # after its own first 40
        parent = os.getpid()
        real = search._climb

        def climb(bases):
            if os.getpid() != parent:
                os._exit(9)
            return real(bases)

        monkeypatch.setattr(search, "_climb", climb)
        affinity(monkeypatch, 2)
        code, out, err = run_cli(capsys, "search", "5", "2", "--seed", "1", "--N", "40")
        assert (code, out) == (71, "")
        assert err == "error: a worker ended without a result (exit status 9)\n"
        assert_no_child_left()

    def test_fork_failure_reaps_the_workers_forked(self, capsys, monkeypatch):
        real, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) > 1:
                raise OSError(11, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", fork)
        affinity(monkeypatch, 3)
        code, out, err = run_cli(capsys, "verify", "5")
        assert (code, out, len(forks)) == (71, "", 2)
        assert err.startswith("error: cannot fork a worker: ") and err.count("\n") == 1
        assert_no_child_left()


def nested(depth):
    """P(e,S(e,P(e,...))) with depth nested compositions."""
    text = "e"
    for level in reversed(range(depth)):
        text = ("S(e," if level % 2 else "P(e,") + text + ")"
    return text


class TestDeepTrees:
    """No walk recurses per level: trees nest to any depth at Python's
    default recursion limit."""

    def test_every_walk_at_depth_10000(self):
        assert sys.getrecursionlimit() <= 1000
        text = nested(10_000)
        tree = sp.parse_tree(text)
        assert sp.format_tree(tree) == text
        assert sp.leaf_count(tree) == 10_001
        graph = sp.realize(tree)
        assert len(graph.edges) == 10_001
        assert sp.rank(tree) == graph.num_vertices - 1
        assert len(tree) == 20_001
        assert len(sp.induced_weights(tree)) == 10_001
        assert sp.format_tree(sp.dualize(sp.dualize(tree))) == text
        assert sp.format_tree(canonicalize(tree)) == text

    def test_deep_trees_compare_and_hash(self):
        # a tree is a flat tuple of nodes: comparing, hashing and printing
        # one never recurses per level, nor does composing two of them
        assert sys.getrecursionlimit() <= 1000
        text = nested(3000)
        a, b = sp.parse_tree(text), sp.parse_tree(text)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert repr(a).startswith("(((), 1, False, 0, 1), ")
        chain = text[len("P(e,"):-1]
        assert sp.format_tree(canonicalize(compose([a, b], False))) == f"P(e,e,{chain},{chain})"

    def test_canonicalize_equal_deep_subtrees(self):
        # the two branches tie all the way down, so their keys are compared
        # to the bottom: as integer ranks, not as keys nested 1500 deep
        x = nested(1500)
        tree = sp.parse_tree(f"P(S({x},e),S({x},e))")
        assert sp.format_tree(canonicalize(tree)) == f"P(S(e,{x}),S(e,{x}))"

    def test_decompose_recovers_a_deep_chain(self):
        # decompose is quadratic in the edge count, so 700 levels, not 10 000
        tree = sp.parse_tree(nested(700))
        graph = sp.realize(tree)
        recovered = decompose(graph, *graph.terminals).tree
        assert sp.format_tree(recovered) == sp.format_tree(canonicalize(tree))

    def test_weights_of_a_deep_chain(self, capsys):
        code, out, err = run_cli(capsys, "weights", nested(5000))
        assert code == 0 and err == ""
        assert len(out.split(", ")) == 5001

    def test_verify_of_a_deep_chain_hits_the_edge_limit(self, capsys):
        code, out, err = run_cli(capsys, "verify", nested(5000))
        assert code == 64 and out == ""
        assert err == "error: 5001 edges exceed the limit of 12\n"

    @pytest.mark.parametrize("depth", [300, 5000])
    def test_parse_error_deep_inside(self, capsys, depth):
        # the innermost composition (a series one at even depth) gets the
        # single-operand P(e) as its last operand
        text = nested(depth)
        at = len(text) - depth - 1
        text = text[:at] + "P(e)" + text[at + 1:]
        with pytest.raises(sp.TreeParseError) as caught:
            sp.parse_tree(text)
        assert caught.value.position == at
        code, out, err = run_cli(capsys, "weights", text)
        assert code == 65 and out == ""
        assert err == f"parse error: composition needs at least 2 operands (at position {at})\n"


class TestTable:
    def test_row_six(self, capsys):
        code, out, _ = run_cli(capsys, "table", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# manifest ")
        assert "6,1,3,4,3,1" in lines
        assert "2,1" in lines

    def test_row_nine(self, capsys):
        code, out, _ = run_cli(capsys, "table", "9")
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 8
        assert rows[6] == "8,1,5,14,19,14,5,1"

    def test_row_thirty(self, capsys):
        code, out, _ = run_cli(capsys, "table", "30")
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert len(rows) == 29
        assert rows[-1].startswith("30,1,75,3643,")

    def test_cap(self, capsys):
        code, out, err = run_cli(capsys, "table", "31")
        assert code == 64
        assert out == ""
        assert err.startswith("usage error:") and "30" in err


class TestSearch:
    def test_plane_line(self, capsys):
        code, out, _ = run_cli(capsys, "search", "2", "1", "--seed", "7",
                               "--N", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 1
        assert not payload["violation"]
        assert abs(payload["scores"][0] - 1 / math.sqrt(2)) < 1e-6

    def test_size_limit_checked_before_sampling(self, capsys, monkeypatch):
        # the edge limit is checked on n before any start subspace is drawn
        def unreachable(*args):
            raise AssertionError("search ran above the edge limit")

        monkeypatch.setattr(cli, "accumulate", unreachable)
        code, out, err = run_cli(capsys, "search", "13", "2", "--seed", "1")
        assert code == 64 and out == ""
        assert err == "error: 13 edges exceed the limit of 12\n"

    def test_defaults_come_from_search_config(self):
        # the budget and the seed are the search's only settings
        args = cli.build_parser().parse_args(["search", "5", "2", "--seed", "1"])
        assert args.N == SearchConfig.attempts
        assert sorted(vars(args)) == ["N", "command", "func", "k", "n", "seed"]

    def test_readme_command_finds_both_classes(self, capsys):
        code, out, _ = run_cli(capsys, "search", "5", "2", "--seed", "1", "--N", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 2
        assert payload["restarts"] == 42

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "search", "2", "1")
        assert code == 64

    @pytest.mark.parametrize("option, value, message", [
        ("--N", "0", "attempts must be at least 1"),
        ("--seed", "-1", "seed must be non-negative"),
        # the climb's step count and tolerances are constants, not options
        ("--steps", "5", "unrecognized arguments: --steps 5"),
        ("--eps", "0.1", "unrecognized arguments: --eps 0.1"),
        ("--dedup-tol", "1", "unrecognized arguments: --dedup-tol 1"),
    ])
    def test_invalid_config_is_usage_error(self, capsys, option, value, message):
        code, out, err = run_cli(capsys, "search", "3", "1", "--seed", "1",
                                 option, value)
        assert code == 64
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_manifest_config_order(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2026-01-01T00:00:00+00:00")
        code, out, _ = run_cli(capsys, "search", "2", "1", "--seed", "3", "--N", "2")
        assert code == 0
        config = json.loads(out)["manifest"]["config"]
        assert list(config) == ["n", "k", "seed", "N", "eps", "steps", "dedup_tol"]
        assert config["N"] == 2 and config["seed"] == 3
        assert config["eps"] == search.EPS
        assert config["steps"] == search.STEPS
        assert config["dedup_tol"] == search.DEDUP_TOL

    def test_reproducible_output_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2026-01-01T00:00:00+00:00")
        _, out1, _ = run_cli(capsys, "search", "2", "1", "--seed", "3", "--N", "10")
        _, out2, _ = run_cli(capsys, "search", "2", "1", "--seed", "3", "--N", "10")
        assert out1 == out2

    def test_violation_exit_code(self, capsys, monkeypatch):
        def fake_target(sub):
            return math.acos(0.2), (0,)

        monkeypatch.setattr(search, "target", fake_target)
        monkeypatch.setattr(search, "STEPS", 5)
        code, out, _ = run_cli(capsys, "search", "3", "1", "--seed", "1", "--N", "5")
        assert code == 2
        payload = json.loads(out)
        assert payload["violation"]
        assert abs(payload["violation_report"]["deviation_cos"] - 0.2) < 1e-12


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spextremal.cli", "enumerate", "2", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "P(e,e)" in proc.stdout

    def test_closed_stdout_exits_74(self):
        # verify 9 writes about 300 kB, more than a pipe holds, so its
        # writes meet the closed reader: exit 74, nothing on stderr, not
        # even from the interpreter's last flush, and no process left in
        # its process group, workers included
        proc = subprocess.Popen([sys.executable, "-m", "spextremal.cli", "verify", "9"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=300), err) == (74, b"")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
