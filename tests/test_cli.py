import dataclasses
import json
import time

import pytest

from chromadisk import (
    IntPolynomial,
    bounds,
    cli,
    format_graph,
    penrose,
)
from chromadisk.cli import main
from chromadisk.corpus import (
    claw_graph,
    complete_graph,
    cycle_graph,
    icosahedron,
    path_graph,
    prism_graph,
    random_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def gfile(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(format_graph(g))
    return str(p)


class TestAnalyze:
    def test_k4_certificate(self, tmp_path, capsys):
        path = gfile(tmp_path, "k4.txt", complete_graph(4))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "claw_free=True" in out
        assert "kappa: 0" in out
        assert "radius=C*delta=9.000000" in out
        assert "disk verdict: yes" in out

    def test_k4_json(self, tmp_path, capsys):
        path = gfile(tmp_path, "k4.txt", complete_graph(4))
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"]["exact"] == "0"
        assert doc["bound"]["applicable"] and doc["bound"]["radius"] == 9.0
        assert doc["disk_verdict"] == "yes"
        roots = sorted(r["re"] for r in doc["roots"])
        assert roots == [0.0, 1.0, 2.0, 3.0]

    def test_c5_skips_bound_below_degree_three(self, tmp_path, capsys):
        path = gfile(tmp_path, "c5.txt", cycle_graph(5))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "index=1" in out
        assert "kappa: 1 " in out
        assert "theorem requires max degree >= 3" in out
        assert out.count("root:") == 5
        assert "disk verdict: not-computed" in out

    def test_claw_reports_out_of_range_kappa(self, tmp_path, capsys):
        path = gfile(tmp_path, "claw.txt", claw_graph())
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["claw_free"] is False and doc["class_index"] is None
        assert doc["kappa"]["exact"] == "3/2"
        assert "outside [0, 1]" in doc["kappa"]["note"]
        assert doc["bound"] == {"applicable": False, "reason": "graph is not claw-free"}

    def test_parse_error_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\n0 zero\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert "error: line 2" in err

    def test_huge_header_exits_one(self, tmp_path, capsys):
        p = tmp_path / "huge.txt"
        p.write_text("1000000000 0\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == 1
        assert "MAX_VERTICES = 100000" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/g.txt")
        assert code == 1
        assert "error:" in err

    def test_cap_marks_not_computed(self, tmp_path, capsys):
        path = gfile(tmp_path, "p17.txt", path_graph(17))
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chromatic"]["computed"] is False
        assert doc["disk_verdict"] == "not-computed"

    def test_cap_flag_override(self, tmp_path, capsys):
        path = gfile(tmp_path, "p17.txt", path_graph(17))
        code, out, _ = run(capsys, "analyze", path, "--max-enum", "17", "--json")
        assert code == 0
        assert json.loads(out)["chromatic"]["computed"] is True

    def test_environment_does_not_move_the_cap(self, tmp_path, capsys, monkeypatch):
        # only --max-enum sets the cap, so one command line gives one output
        path = gfile(tmp_path, "p17.txt", path_graph(17))
        plain = run(capsys, "analyze", path, "--json")
        monkeypatch.setenv("CHROMADISK_MAX_ENUM", "17")
        assert run(capsys, "analyze", path, "--json") == plain
        assert json.loads(plain[1])["chromatic"]["computed"] is False

    @pytest.mark.parametrize("command", ["analyze", "roots", "verify-scheme"])
    def test_duplicate_edge_warning_surfaces(self, tmp_path, capsys, command):
        p = tmp_path / "dup.txt"
        p.write_text("3 3\n0 1\n0 1\n1 2\n")
        code, out, _ = run(capsys, command, str(p))
        assert code == 0
        warning = "line 3: duplicate edge 0 1 (first seen on line 2)"
        assert f"warning: {warning}" in out.splitlines()
        code, out, _ = run(capsys, command, str(p), "--json")
        assert code == 0
        assert json.loads(out)["warnings"] == [warning]


class TestBounds:
    def test_kappa_one_class0(self, capsys):
        code, out, _ = run(capsys, "bounds", "--class", "0", "--kappa", "1.0")
        assert code == 0
        assert "C=3.802747" in out and "a*=0.376232" in out

    def test_kappa_point_two_class1(self, capsys):
        code, out, _ = run(capsys, "bounds", "--class", "1", "--kappa", "0.2")
        assert code == 0
        assert "C=3.214447" in out

    def test_delta_gives_radius(self, capsys):
        code, out, _ = run(capsys, "bounds", "--class", "0", "--kappa", "0", "--delta", "3")
        assert code == 0
        assert "radius=9.000000" in out
        assert "z*=0.111111" in out

    def test_fixed_a(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--class", "0", "--kappa", "0", "--a", "0.25"
        )
        assert code == 0
        assert "x=0.333333" in out and "C=4.000000" in out

    def test_missing_kappa_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bounds", "--class", "0")
        assert code == 1

    def test_bad_class_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bounds", "--class", "2", "--kappa", "0.5")
        assert code == 1

    def test_kappa_out_of_range_exits_one(self, capsys):
        code, _, err = run(capsys, "bounds", "--class", "0", "--kappa", "1.5")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("fixed_a", [[], ["--a", "0.3"]])
    def test_delta_past_float_range_exits_one(self, capsys, fixed_a):
        delta = "1" + "0" * 400
        argv = ["bounds", "--class", "0", "--kappa", "0.5", *fixed_a, "--delta", delta]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: delta of 1329 bits: C * delta exceeds the float range\n"


class TestTable:
    def test_endpoints_only(self, capsys):
        code, out, _ = run(capsys, "table1", "--step", "1.0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [r["kappa"] for r in doc["rows"]] == [0.0, 1.0]
        assert doc["rows"][0]["c0"] == 3.0

    def test_check_against_reference(self, capsys):
        code, out, _ = run(capsys, "table1", "--step", "0.1", "--check")
        assert code == 0
        assert "-> pass" in out

    def test_check_needs_tenth_step(self, capsys):
        code, _, err = run(capsys, "table1", "--step", "0.5", "--check")
        assert code == 1
        assert "error:" in err

    def test_half_twentieth_grid_monotone(self, capsys):
        code, out, _ = run(capsys, "table1", "--step", "0.05", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 21
        for col in ("c0", "c1"):
            vals = [r[col] for r in rows]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert all(r["c1"] <= r["c0"] + 1e-9 for r in rows)

    def test_check_refuses_wrong_step_before_solving(self, capsys, monkeypatch):
        calls = []

        def stub(class_index, kappa):
            calls.append(kappa)
            return bounds.minimize_c(class_index, kappa)

        monkeypatch.setattr(bounds, "minimize_c", stub)
        code, out, err = run(capsys, "table1", "--step", "0.0001", "--check")
        assert (code, out) == (1, "")
        assert err == "error: --check requires --step 0.1\n"
        assert calls == []

    def test_non_dividing_step_exits_one(self, capsys):
        code, _, err = run(capsys, "table1", "--step", "0.3")
        assert code == 1
        assert "error:" in err

    def test_row_cap_exits_two(self, capsys):
        code, out, err = run(capsys, "table1", "--step", "1e-9", "--json")
        assert code == 2
        assert out == ""
        assert "constants table: size 1000000001 exceeds cap 10001" in err

    def test_step_with_overflowing_reciprocal_exits_two(self, capsys):
        code, out, err = run(capsys, "table1", "--step", "1e-320")
        assert (code, out) == (2, "")
        assert err.startswith("error: constants table: size ") and err.count("\n") == 1


class TestVerifyScheme:
    def test_k3(self, tmp_path, capsys):
        path = gfile(tmp_path, "k3.txt", complete_graph(3))
        code, out, _ = run(capsys, "verify-scheme", path)
        assert code == 0
        assert "partition check: pass" in out
        assert "forest identity check: pass (2 orderings)" in out

    def test_c4(self, tmp_path, capsys):
        path = gfile(tmp_path, "c4.txt", cycle_graph(4))
        code, out, _ = run(capsys, "verify-scheme", path)
        assert code == 0

    def test_seeded_random_graph(self, tmp_path, capsys):
        path = gfile(tmp_path, "r7.txt", random_graph(7, 0.5, seed=42))
        code, out, _ = run(capsys, "verify-scheme", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["partition"]["passed"] and doc["identity"]["passed"]
        assert doc["partition"]["edge_sets_checked"] > 0

    def test_rmax_flag(self, tmp_path, capsys):
        path = gfile(tmp_path, "k5.txt", complete_graph(5))
        code, out, _ = run(capsys, "verify-scheme", path, "--rmax", "3", "--json")
        assert code == 0
        assert json.loads(out)["r_max"] == 3

    def test_cap_exits_two(self, tmp_path, capsys):
        path = gfile(tmp_path, "p13.txt", path_graph(13))
        code, _, err = run(capsys, "verify-scheme", path)
        assert code == 2
        assert "error:" in err

    def test_cap_override_runs(self, tmp_path, capsys):
        path = gfile(tmp_path, "p13.txt", path_graph(13))
        code, out, _ = run(capsys, "verify-scheme", path, "--max-enum", "13")
        assert code == 0
        assert "partition check: pass" in out

    def test_cap_above_oracle_default_reaches_the_oracle(self, tmp_path, capsys):
        # the oracle and forest counting take the one cap, past the oracle's 16
        path = gfile(tmp_path, "p17.txt", path_graph(17))
        code, out, err = run(capsys, "verify-scheme", path, "--max-enum", "17", "--json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["partition"]["passed"] is True
        assert doc["identity"] == {"passed": True, "orderings_checked": 2}

    def test_negative_cap_flag_exits_one(self, tmp_path, capsys):
        path = gfile(tmp_path, "k3.txt", complete_graph(3))
        code, out, err = run(capsys, "verify-scheme", path, "--max-enum", "-3")
        assert code == 1
        assert out == ""
        assert "--max-enum must not be negative" in err

    def test_scan_size_cap_exits_two(self, tmp_path, capsys):
        path = gfile(tmp_path, "k8.txt", complete_graph(8))
        code, out, err = run(capsys, "verify-scheme", path, "--rmax", "8")
        assert code == 2
        assert out == ""
        # the scan's size when the walk reached K8's first 8-vertex set
        assert "size 270566474 " in err and str(1 << 22) in err

    def test_sparse_graph_past_subset_count_runs(self, tmp_path, capsys):
        # C80 has 326,207,116 subsets of 2 to 6 vertices, which a check per
        # subset refused; its 400 connected edge sets are checked at once
        path = gfile(tmp_path, "c80.txt", cycle_graph(80))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-scheme", path, "--max-enum", "80")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        assert "partition check: pass (subsets 326207116, connected edge sets 400)" in out
        assert "forest identity check: pass (2 orderings)" in out

    @pytest.mark.parametrize("g", [path_graph(30), cycle_graph(30)], ids=["P30", "C30"])
    def test_sparse_forest_count_follows_the_tally(self, tmp_path, capsys, g):
        # 465 and 899 Penrose trees; a sum over all 2^29 subsets holding the
        # lowest vertex ran for minutes
        path = gfile(tmp_path, "sparse.txt", g)
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-scheme", path, "--max-enum", "30", "--rmax", "2")
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        assert "forest identity check: pass (2 orderings)" in out

    @pytest.mark.parametrize("n", [11, 12])
    def test_forest_count_at_cap_reaches_identity(self, tmp_path, capsys, n):
        # K11 and K12 have 11! and 12! Penrose forests; the layered tally
        # counts them without growing a tree
        path = gfile(tmp_path, f"k{n}.txt", complete_graph(n))
        code, out, err = run(capsys, "verify-scheme", path, "--rmax", "2", "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["identity"] == {"passed": True, "orderings_checked": 2}

    def test_forest_count_within_cap_reaches_identity(self, tmp_path, capsys):
        path = gfile(tmp_path, "ico.txt", icosahedron())
        code, out, _ = run(capsys, "verify-scheme", path, "--rmax", "4", "--json")
        assert code == 0
        assert json.loads(out)["identity"] == {"passed": True, "orderings_checked": 2}

    def test_rmax_below_two_exits_one(self, tmp_path, capsys):
        path = gfile(tmp_path, "k3.txt", complete_graph(3))
        code, out, err = run(capsys, "verify-scheme", path, "--rmax", "1")
        assert code == 1
        assert out == ""
        assert "r_max" in err


class TestRoots:
    def test_k3(self, tmp_path, capsys):
        path = gfile(tmp_path, "k3.txt", complete_graph(3))
        code, out, _ = run(capsys, "roots", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert sorted(r["re"] for r in doc["roots"]) == [0.0, 1.0, 2.0]
        assert all(r["accepted"] for r in doc["roots"])
        assert doc["ill_conditioned"] is False

    def test_c5(self, tmp_path, capsys):
        path = gfile(tmp_path, "c5.txt", cycle_graph(5))
        code, out, _ = run(capsys, "roots", path, "--json")
        assert code == 0
        got = sorted((r["re"], r["im"]) for r in json.loads(out)["roots"])
        assert got == [(0.0, 0.0), (1.0, -1.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0)]

    def test_edgeless_triple_zero(self, tmp_path, capsys):
        p = tmp_path / "e3.txt"
        p.write_text("3 0\n")
        code, out, _ = run(capsys, "roots", str(p), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == [0, 0, 0, 1]
        assert [r["re"] for r in doc["roots"]] == [0.0, 0.0, 0.0]

    def test_cap_exits_two(self, tmp_path, capsys):
        path = gfile(tmp_path, "p17.txt", path_graph(17))
        code, _, err = run(capsys, "roots", path)
        assert code == 2
        assert "error:" in err

    def test_oracle_refusal_names_the_oracle(self, tmp_path, capsys):
        path = gfile(tmp_path, "k17.txt", complete_graph(17))
        code, out, err = run(capsys, "roots", path)
        assert code == 2
        assert out == ""
        assert err == "error: chromatic oracle: size 17 exceeds cap 16\n"

    def test_float_overflow_exits_one(self, tmp_path, capsys):
        # K171's coefficients pass 2**1024
        path = gfile(tmp_path, "k171.txt", complete_graph(171))
        code, out, err = run(capsys, "roots", path, "--max-enum", "171")
        assert code == 1 and out == ""
        assert err.startswith("error: float arithmetic overflows on the degree-171 polynomial")


class TestVerificationFailures:
    """Every check that can fail exits 3 and names what failed."""

    def test_partition_counterexample(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(penrose, "_closure_chords", lambda *args: [])
        path = gfile(tmp_path, "k4.txt", complete_graph(4))
        code, out, _ = run(capsys, "verify-scheme", path, "--json")
        assert code == 3
        partition = json.loads(out)["partition"]
        assert partition["passed"] is False
        assert partition["counterexample"]["subset"] == [0, 1, 2]

    def test_identity_stops_at_first_failing_ordering(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "chromatic_via_penrose", lambda *a, **k: IntPolynomial((0, 1)))
        path = gfile(tmp_path, "k4.txt", complete_graph(4))
        code, out, _ = run(capsys, "verify-scheme", path, "--json")
        assert code == 3
        doc = json.loads(out)
        assert doc["partition"]["passed"] is True
        assert doc["identity"] == {"passed": False, "orderings_checked": 1}
        code, out, _ = run(capsys, "verify-scheme", path)
        assert code == 3 and "forest identity check: FAIL (1 orderings)" in out

    def test_table_check_against_shifted_row(self, capsys, monkeypatch):
        rows = list(bounds.REFERENCE_TABLE)
        rows[3] = dataclasses.replace(rows[3], c_class1=rows[3].c_class1 + 1e-3)
        monkeypatch.setattr(cli, "REFERENCE_TABLE", tuple(rows))
        code, out, _ = run(capsys, "table1", "--check", "--json")
        assert code == 3
        check = json.loads(out)["check"]
        assert check["passed"] is False
        assert check["max_deviation"] == pytest.approx(1e-3, abs=1e-5)

    def test_analyze_root_outside_disk(self, tmp_path, capsys, monkeypatch):
        # C = 0.5 puts K4's roots 2 and 3 outside |q| < 1.5
        def narrow(class_index, kappa):
            return dataclasses.replace(bounds.minimize_c(class_index, kappa), c_star=0.5)

        monkeypatch.setattr(cli, "minimize_c", narrow)
        path = gfile(tmp_path, "k4.txt", complete_graph(4))
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 3
        doc = json.loads(out)
        assert doc["bound"]["radius"] == 1.5
        assert doc["disk_verdict"] == "no"


class TestDeterminism:
    def test_analyze_json_bytes_stable(self, tmp_path, capsys):
        path = gfile(tmp_path, "prism.txt", prism_graph())
        _, first, _ = run(capsys, "analyze", path, "--json")
        _, second, _ = run(capsys, "analyze", path, "--json")
        assert first == second

    def test_roots_json_bytes_stable(self, tmp_path, capsys):
        path = gfile(tmp_path, "c5.txt", cycle_graph(5))
        _, first, _ = run(capsys, "roots", path, "--json")
        _, second, _ = run(capsys, "roots", path, "--json")
        assert first == second


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    PARSE_EXITS = [
        [],
        ["--help"],
        ["nope"],
        ["analyze", "--help"],
        ["analyze"],
        ["bounds", "--help"],
        ["bounds", "--class", "0"],
        ["bounds", "--class", "2", "--kappa", "0.5"],
        ["bounds", "--class", "0", "--kappa", "0.5", "--bogus"],
        ["table1", "--help"],
        ["table1", "--step", "x"],
        ["verify-scheme", "--help"],
        ["verify-scheme", "g.txt", "--rmax"],
        ["roots", "--help"],
        ["roots", "g.txt", "--max-enum", "many"],
    ]

    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_command_parse_matches_top_level(self, capsys, argv):
        # a command named first is parsed by its own parser; what it prints
        # and how it exits must be what the whole parser gives
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            want_code = 1 if exc.code not in (0, None) else 0
        else:
            pytest.fail("expected the parse to exit")
        want = capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (want_code, want.out, want.err)
