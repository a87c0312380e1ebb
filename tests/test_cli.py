import json
import math
import subprocess
import sys
from dataclasses import fields

import pytest

import spextremal as sp
from spextremal import cli


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

    def test_infeasible_is_empty_success(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "3")
        assert code == 0
        assert "classes: 0" in out

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
        inst = payload["instances"][0]
        assert abs(inst["target_cos"] - 1 / math.sqrt(2)) < 1e-9

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
        code, out, err = run_cli(capsys, "verify", "P(e,S(e,e))", "2")
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

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


    def test_target_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "P(" + ",".join(["e"] * 13) + ")")
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most 12 ambient dimensions" in err

    def test_spanning_tree_cap_names_override(self, capsys, monkeypatch):
        monkeypatch.delenv("EXTREMAL_BRUTE_CAP", raising=False)
        code, out, err = run_cli(capsys, "verify", "P(" + ",".join(["e"] * 18) + ")")
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cap of 16 edges" in err and "EXTREMAL_BRUTE_CAP" in err


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

    def test_cap(self, capsys):
        code, _, _ = run_cli(capsys, "table", "10")
        assert code == 64


class TestSearch:
    def test_plane_line(self, capsys):
        code, out, _ = run_cli(capsys, "search", "2", "1", "--seed", "7",
                               "--N", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 1
        assert not payload["violation"]
        assert abs(payload["scores"][0] - 1 / math.sqrt(2)) < 1e-6

    def test_defaults_come_from_search_config(self):
        args = cli.build_parser().parse_args(["search", "5", "2", "--seed", "1"])
        options = {"attempts": "N"}
        for field in fields(sp.SearchConfig):
            if field.name != "seed":
                assert getattr(args, options.get(field.name, field.name)) == \
                    field.default, field.name

    def test_readme_command_finds_both_classes(self, capsys):
        code, out, _ = run_cli(capsys, "search", "5", "2", "--seed", "1", "--N", "40")
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 2
        assert payload["restarts"] == 48

    def test_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "search", "2", "1")
        assert code == 64

    @pytest.mark.parametrize("option, value, message", [
        ("--N", "0", "attempts must be at least 1"),
        ("--decay", "1.5", "decay must lie in (0, 1)"),
        ("--dedup-tol", "-1", "dedup_tol must be positive"),
        ("--min-magnitude", "0", "min_magnitude must be positive"),
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
        assert list(config) == ["n", "k", "seed", "N", "eps", "init_magnitude",
                                "decay", "max_steps", "min_magnitude", "dedup_tol"]
        assert config["N"] == 2 and config["seed"] == 3

    def test_reproducible_output_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTREMAL_TIMESTAMP", "2026-01-01T00:00:00+00:00")
        _, out1, _ = run_cli(capsys, "search", "2", "1", "--seed", "3", "--N", "10")
        _, out2, _ = run_cli(capsys, "search", "2", "1", "--seed", "3", "--N", "10")
        assert out1 == out2

    def test_violation_exit_code(self, capsys, monkeypatch):
        import spextremal.search as search_mod

        def fake_target(sub):
            return math.acos(0.2), (0,)

        monkeypatch.setattr(search_mod, "target", fake_target)
        code, out, _ = run_cli(capsys, "search", "3", "1", "--seed", "1",
                               "--N", "5", "--max-steps", "5")
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
