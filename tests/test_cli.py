"""End-to-end command line runs: formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzynabla import cli
from fuzzynabla.cli import THEOREMS, main
from fuzzynabla.errors import FuzzyNablaError
from fuzzynabla.timescale import (
    MAX_GRID_POINTS,
    ArithmeticGrid,
    GeometricGrid,
    ReciprocalGrid,
    TimeScale,
)

EXAMPLE_SCALE = "union(recip(1,400), recip(sqrt2,400), points(0))"
EXAMPLE_FN = (
    "tri(piecewise(in recip(1) => -2, in recip(sqrt2) => t-2), "
    "(t^2+t-2)/2, "
    "piecewise(in recip(1) => t^2+t, in recip(sqrt2) => t^2))"
)


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestDiff:
    def test_scattered_table(self, capsys):
        code, out, err = run([
            "diff",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--points", "1,2,3,4,5",
            "--levels", "4",
        ], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,alpha,d_lower,d_upper,case,residual"
        assert len(lines) == 1 + 5 * 5
        # derivative of t*(1,2,3) is (1,2,3) at every point
        row = lines[1].split(",")
        assert float(row[0]) == 1.0
        assert float(row[1]) == 0.0
        assert float(row[2]) == pytest.approx(1.0)
        assert float(row[3]) == pytest.approx(3.0)
        assert row[4] == "CaseI"
        assert float(row[5]) == 0.0

    def test_json_format(self, capsys):
        code, out, err = run([
            "diff",
            "--timescale", "hgrid(0,3,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--points", "2",
            "--levels", "2",
            "--format", "json",
        ], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["case"] == "CaseI"
        assert payload[0]["t"] == 2.0

    def test_nonexistent_difference_exits_2(self, capsys):
        # consecutive values admit no generalized difference in either case
        fn = ("tri(0, piecewise(in points(1) => 2, in points(2) => 1), "
              "piecewise(in points(1) => 3, in points(2) => 5))")
        code, out, err = run([
            "diff",
            "--timescale", "union(points(1), points(2))",
            "--fn", fn,
            "--points", "2",
            "--levels", "8",
        ], capsys)
        assert code == 2
        assert "NotDifferentiable" in out

        # the difference fails at the probes of dense points: still one
        # row per point, not an abort at the first one
        code, out, err = run([
            "diff",
            "--timescale", "interval(0,2)",
            "--fn", "endpoints(-2 + alpha + t*(alpha - alpha^2)/2; 2 - alpha)",
            "--points", "0.5,1,1.5",
        ], capsys)
        assert code == 2
        lines = out.strip().split("\n")
        assert lines[0] == "t,alpha,d_lower,d_upper,case,residual"
        assert lines[1:] == [f"{t},,,,NotDifferentiable,inf"
                             for t in ("0.5", "1.0", "1.5")]

    def test_non_finite_dense_estimate_exits_2(self, capsys):
        # the derivative at 1 is 2e308: the row is NotDifferentiable, and
        # the evidence names the estimate that is not finite
        argv = ["diff", "--timescale", "interval(0,2)",
                "--fn", "tri(1e308*t*t, 1e308*t*t+1, 1e308*t*t+2)",
                "--points", "1", "--levels", "2"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (2, "")
        assert out == "t,alpha,d_lower,d_upper,case,residual\n1.0,,,,NotDifferentiable,inf\n"
        code, out, err = run(argv + ["--format", "json"], capsys)
        assert code == 2
        evidence = json.loads(out)[0]["evidence"]
        assert evidence["message"] == "the estimate on the left of 1.0 is not finite (nan)"
        assert evidence["diagnostics"]["criterion"] == "estimate"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = [
            "diff",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--points", "3",
            "--levels", "4",
        ]
        code, out, err = run(argv, capsys)
        target = tmp_path / "rows.csv"
        code2 = main(argv + ["--out", str(target)])
        capsys.readouterr()
        assert code == code2 == 0
        assert target.read_text() == out

    def test_byte_deterministic(self, capsys):
        argv = [
            "diff",
            "--timescale", "union(interval(0,1), points(2))",
            "--fn", "tri(t-1, t, t+1)",
            "--points", "0.5,2",
            "--levels", "3",
        ]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestTabulate:
    def test_csv_rows(self, capsys):
        code, out, err = run([
            "tabulate",
            "--timescale", "hgrid(0,2,1)",
            "--fn", "tri(t, t+1, t+2)",
            "--points", "0,1,2",
            "--levels", "2",
        ], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,alpha,lower,upper"
        assert len(lines) == 1 + 3 * 3
        assert lines[4].split(",")[:2] == ["1.0", "0.0"]
        assert float(lines[4].split(",")[2]) == pytest.approx(1.0)
        assert float(lines[4].split(",")[3]) == pytest.approx(3.0)


class TestGhDiff:
    def test_case_i(self, capsys):
        code, out, err = run(
            ["ghdiff", "tri(0,2,4)", "tri(0,1,2)", "--levels", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "case,CaseI"
        assert lines[1] == "alpha,lower,upper"
        assert float(lines[2].split(",")[1]) == pytest.approx(0.0)
        assert float(lines[4].split(",")[1]) == pytest.approx(1.0)

    def test_identical_is_both(self, capsys):
        code, out, err = run(
            ["ghdiff", "tri(1,2,3)", "tri(1,2,3)"], capsys)
        assert code == 0
        assert out.startswith("case,Both")

    def test_none_exits_2(self, capsys):
        code, out, err = run(
            ["ghdiff", "tri(0,1,5)", "tri(0,3,4)"], capsys)
        assert code == 2
        assert out.startswith("case,None")

    def test_json_none_has_diagnostics(self, capsys):
        code, out, err = run(
            ["ghdiff", "tri(0,1,5)", "tri(0,3,4)", "--format", "json"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["case"] == "None"
        assert payload["levels"] is None
        assert payload["diagnostics"]


class TestMetric:
    def test_translated_triangles(self, capsys):
        code, out, err = run(
            ["metric", "tri(0,1,2)", "tri(1,2,3)"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(1.0)

    def test_at_point(self, capsys):
        code, out, err = run(
            ["metric", "tri(t,t+1,t+2)", "tri(0,1,2)", "--at", "3"], capsys)
        assert code == 0
        assert float(out) == pytest.approx(3.0)


class TestCheck:
    def test_rho_identity_verified(self, capsys):
        code, out, err = run([
            "check", "rho-identity",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--levels", "8",
        ], capsys)
        assert code == 0
        assert "Verified" in out
        assert "ResidualExceeded" not in out

    def test_level_consistency_verified(self, capsys):
        code, out, err = run([
            "check", "level-consistency",
            "--timescale", "qgrid(2,0,5)",
            "--fn", "tri(t, 2*t, 4*t)",
            "--points", "all-scattered",
            "--levels", "8",
        ], capsys)
        assert code == 0
        assert "Verified" in out

    def test_sum_verified(self, capsys):
        code, out, err = run([
            "check", "sum",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--fn", "tri(t, t+1, t+2)",
            "--points", "1,2,3",
            "--levels", "8",
        ], capsys)
        assert code == 0
        assert out.count("Verified") == 3

    def test_sum_mixed_tags_exit_3(self, capsys):
        code, out, err = run([
            "check", "sum",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--fn", "tri(5-t, 10-2*t, 15-3*t)",
            "--points", "3",
            "--levels", "8",
        ], capsys)
        assert code == 3
        assert "HypothesisFailed" in out

    def test_product1_verified(self, capsys):
        code, out, err = run([
            "check", "product1",
            "--timescale", "hgrid(0,4,0.5)",
            "--scalar-fn", "t^2+1",
            "--fn", "tri(t, t+1, t+3)",
            "--points", "2",
            "--levels", "8",
        ], capsys)
        assert code == 0
        assert "Verified" in out

    def test_product2_wrong_sign_exit_3(self, capsys):
        code, out, err = run([
            "check", "product2",
            "--timescale", "hgrid(0,4,0.5)",
            "--scalar-fn", "t^2+1",
            "--fn", "tri(t, t+1, t+3)",
            "--points", "2",
            "--levels", "8",
        ], capsys)
        assert code == 3
        assert "named-theorem-sign=FAIL" in out

    def test_product1_constant_scalar_exit_3(self, capsys):
        code, out, err = run([
            "check", "product1",
            "--timescale", "hgrid(0,5,1)",
            "--scalar-fn", "1",
            "--fn", "tri(t,2*t,3*t)",
            "--points", "3",
            "--levels", "8",
        ], capsys)
        assert code == 3

    def test_product_interval_both_directions(self, capsys):
        code, out, err = run([
            "check", "product-interval",
            "--timescale", "hgrid(1,6,1)",
            "--scalar-fn", "6-t",
            "--fn", "endpoints(t; 2*t)",
            "--points", "3,5",
            "--levels", "0",
        ], capsys)
        assert code == 0
        assert out.count("Verified") == 2

    @pytest.mark.parametrize("theorem", ["product-interval", "product1",
                                         "product2"])
    def test_non_finite_scalar_derivative(self, theorem, capsys):
        # fs stays finite at 1 and its probes, but its quotients overflow:
        # nabla fs is rejected by name, not graded as a NaN
        code, out, err = run([
            "check", theorem, "--timescale", "interval(0,1.02)",
            "--fn", "tri(1e-10*t, 1e-10*t+1e-10, 1e-10*t+2e-10)",
            "--scalar-fn", "1.7e308*t^2", "--points", "1", "--levels", "4",
        ], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: the quotient on the left of 1.0 is not finite (nan)\n"

    def test_characterize_switching(self, capsys):
        code, out, err = run([
            "check", "characterize",
            "--timescale", EXAMPLE_SCALE,
            "--fn", EXAMPLE_FN,
            "--points", "0",
            "--levels", "40",
            "--agreement-tol", "2e-2",
        ], capsys)
        assert code == 0
        assert "SwitchingIII" in out

    @pytest.mark.parametrize("theorem", ["rho-identity", "level-consistency"])
    def test_zero_residual_tol_is_honoured(self, theorem, capsys):
        # the residual here is round-off: about 1e-16, under the 1e-9 default
        argv = ["check", theorem, "--timescale", "hgrid(0,1,0.1)",
                "--fn", "tri(t*t, 2*t*t+t, 3*t*t+2*t)", "--points", "0.3"]
        code, out, err = run(argv, capsys)
        assert code == 0
        assert ",1e-09,Verified" in out
        # the residual cell is a plain float, not a numpy scalar's repr
        float(out.splitlines()[1].split(",")[1])
        code, out, err = run(argv + ["--residual-tol", "0"], capsys)
        assert code == 2
        assert ",0.0,ResidualExceeded" in out

    @pytest.mark.parametrize("fn, case", [
        ("tri(1e10*t,2e10*t,3e10*t)", "CaseI"),
        ("tri(3e10*(t-3),2e10*(t-3),1e10*(t-3))", "CaseII"),
    ])
    def test_large_magnitude_jumps(self, fn, case, capsys):
        code, out, err = run([
            "check", "characterize", "--timescale", "hgrid(0,3,0.3)",
            "--fn", fn, "--points", "0.9,2.1"], capsys)
        assert code == 0
        assert out.splitlines()[1:] == [f"0.8999999999999999,{case},0.0",
                                        f"2.1,{case},0.0"]

    def test_crisp_jump_at_large_magnitude(self, capsys):
        # f(t) has width 2 at every t, so every jump derivative is crisp;
        # f(t) - f(rho) carries round-off of about 1e-6 near 1e10
        code, out, err = run([
            "check", "characterize", "--timescale", "hgrid(0,3,0.3)",
            "--fn", "tri(1e10*t-1,1e10*t,1e10*t+1)", "--points", "0.9,2.1,3"],
            capsys)
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
            "Crisp"] * 3

    def test_jump_between_close_generators(self, capsys):
        # t = sqrt2/9990 lies 6.5e-11 above rho = 1/7064: both isolated
        code, out, err = run([
            "check", "characterize",
            "--timescale", "union(recip(1,10000), recip(sqrt2,10000), points(0))",
            "--fn", EXAMPLE_FN, "--points", "0.00014156291915646597"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "0.00014156291915646597,CaseII,0.0"

    @pytest.mark.parametrize("theorem", ["rho-identity", "level-consistency",
                                         "sum", "product-interval", "product1"])
    def test_identity_checks_classify_once(self, theorem, capsys, monkeypatch):
        extra = {"sum": ["--fn", "endpoints(t - 2; t + 2 + t*t)"],
                 "product-interval": ["--scalar-fn", "1 - t/10"],
                 "product1": ["--scalar-fn", "t + 4"]}.get(theorem, [])
        calls = []
        classify = TimeScale.classify

        def counted(self, t):
            calls.append(t)
            return classify(self, t)

        monkeypatch.setattr(TimeScale, "classify", counted)
        # jumps, a dense point and a jump with a dense right side
        code, out, err = run([
            "check", theorem,
            "--timescale", "union(hgrid(-3,-1,1), interval(0,1), points(2))",
            "--fn", "tri(t-1-t*t, t, t+1+t*t)", "--levels", "8",
            "--points=-2,-1,0,0.5,2", *extra], capsys)
        # both products fail a hypothesis at some of these points
        assert code == {"product-interval": 3, "product1": 3}.get(theorem, 0)
        assert not err, err
        assert calls == [-2.0, -1.0, 0.0, 0.5, 2.0]


# a power that overflows, or 0 to a negative power: in a definition at a
# point bind does not sample (7.5, between points that succeed), in
# --scalar-fn, and at --at
FAILING_POWER = [
    (cmd + ["--timescale", "union(hgrid(0,600,1), points(7.5))", "--fn",
            f"tri(t, t, t + piecewise(in points(7.5) => {power}, "
            f"in hgrid(0) => 0))", "--levels", "2"], 7.5)
    for power in ("1e300^2", "0^-1")
    for cmd in (["diff"], ["tabulate"],
                ["check", "characterize", "--points", "7.5"])
] + [
    (["check", "product1", "--timescale", "hgrid(1,20,1)", "--scalar-fn",
      "t^400", "--fn", "tri(t,t+1,t+2)", "--points", "10"], 10.0),
    (["ghdiff", "tri(t^400,t^400,t^400)", "tri(0,1,2)", "--at", "10"], 10.0),
]


class TestConfigErrors:
    def test_bad_dsl_positioned_message(self, capsys):
        code, out, err = run([
            "diff",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(1, 2",
            "--points", "1",
        ], capsys)
        assert code == 1
        assert "line 1, col" in err
        # too deep to parse, or to evaluate once parsed
        for spec in ("(" * 3000 + "t" + ")" * 3000,
                     "+".join(["t"] * 2000),
                     "t" + "-t" * 1999):
            code, out, err = run([
                "check", "product1",
                "--timescale", "hgrid(0,4,1)",
                "--fn", "tri(t, t+1, t+2)",
                "--scalar-fn=" + spec,
                "--points", "2",
            ], capsys)
            assert code == 1
            assert err.startswith("error: line 1, col ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", [
        ["--probes", "2"],
        ["--agreement-tol", "0"],
        ["--agreement-tol", "-1"],
        # inf would call the 0-cut [1, 3] crisp; nan would fail every point
        ["--agreement-tol", "inf"],
        ["--agreement-tol", "nan"],
    ])
    def test_bad_probe_settings(self, flag, capsys):
        for cmd in (["diff"], ["check", "characterize"]):
            code, out, err = run(cmd + [
                "--timescale", "hgrid(0,5,1)",
                "--fn", "tri(t,2*t,3*t)",
                "--points", "2",
            ] + flag, capsys)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["-1", "-0.5e-9", "inf", "nan"])
    def test_bad_residual_tol(self, tol, capsys):
        for theorem, extra in (("rho-identity", []),
                               ("level-consistency", []),
                               ("sum", ["--fn", "tri(t, t+1, t+2)"]),
                               ("product1", ["--scalar-fn", "t+1"])):
            code, out, err = run([
                "check", theorem,
                "--timescale", "hgrid(0,5,1)",
                "--fn", "tri(t,2*t,3*t)",
                "--points", "2",
                "--residual-tol=" + tol,
            ] + extra, capsys)
            assert code == 1, theorem
            assert out == ""
            assert err.startswith("error: --residual-tol") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, t", FAILING_POWER)
    def test_failing_power(self, argv, t, capsys, tmp_path):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: power fails at t={t!r}")
        assert err.count("\n") == 1
        # the rows of the points that succeeded are formatted only after
        # every point is computed: --out is never opened
        fresh = tmp_path / "fresh.out"
        assert run(argv + ["--out", str(fresh)], capsys)[:2] == (1, "")
        assert not fresh.exists()
        kept = tmp_path / "kept.out"
        kept.write_bytes(b"earlier bytes\n")
        assert run(argv + ["--out", str(kept)], capsys)[:2] == (1, "")
        assert kept.read_bytes() == b"earlier bytes\n"

    @pytest.mark.parametrize("scale, found", [
        # grids whose points overflow to inf
        ("qgrid(2,0,1100)", "found qgrid(2,0,1100): points beyond the float range"),
        ("qgrid(1e300,0,2)", "points beyond the float range"),
        ("hgrid(-1e308,1e308,1e307)", "stop - start beyond the float range"),
        ("interval(-1e308,1e308)", "found a=-1e+308, b=1e+308"),
        ("points(0, 1e400)", "expected a finite number, found '1e400'"),
    ])
    def test_scale_beyond_float_range(self, scale, found, capsys):
        code, out, err = run([
            "diff", "--timescale", scale, "--fn", "tri(t,t,t)", "--points", "1",
        ], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1, col ") and err.count("\n") == 1
        assert found in err

    @pytest.mark.parametrize("argv, code, err_start", [
        # an exponent beyond the float range
        (["ghdiff", "tri(t^1e400, 1, 2)", "tri(0,1,2)"], 1,
         "error: line 1, col 7: expected an integer exponent, found '1e400'"),
        # a definition that overflows at bind's samples
        (["tabulate", "--timescale", "hgrid(0,3,1)", "--fn",
          "tri(t, 1e300*1e300, t)", "--points", "1"], 1,
         "error: definition is invalid at every sample point: tri endpoints "
         "out of order at t=0.0: (0, inf, 0)"),
        # the first arm asks recip(-1e308,34) about the members of
        # recip(2,40), where -1e308/t overflows
        (["tabulate", "--timescale", "union(recip(2,40), recip(-1e308,34))",
          "--fn", "tri(t, t+1, piecewise(in recip(-1e308) => t+3, "
          "in recip(2) => t+2))", "--points", "1"], 0, ""),
    ])
    def test_overflow_found_by_fuzzing(self, argv, code, err_start, capsys):
        got, out, err = run(argv + ["--levels", "1"], capsys)
        assert got == code
        assert err.startswith(err_start) and err.count("\n") == (code != 0)

    def test_no_numpy_warnings(self, capsys):
        # inf * 0 at alpha = 0, then inf - inf in the nesting check
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run([
                "tabulate", "--timescale", "hgrid(0,3,1)", "--fn",
                "endpoints(t*1e300*1e300*alpha; t*1e300*1e300)",
                "--points", "1", "--levels", "2"], capsys)
        assert code == 1 and out == ""
        assert err == "error: level arrays must be finite\n"
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("scale, count", [
        ("hgrid(0,1e308,1e300)", 100000001),
        (f"recip(1,{MAX_GRID_POINTS + 1})", MAX_GRID_POINTS + 1),
        (f"qgrid(2,-1,{MAX_GRID_POINTS})", MAX_GRID_POINTS + 2),
    ])
    def test_grid_over_the_point_bound(self, scale, count, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("the grid was built")
        for cls in (ArithmeticGrid, GeometricGrid, ReciprocalGrid):
            monkeypatch.setattr(cls, "realized", refuse)
        code, out, err = run([
            "diff", "--timescale", f"union(points(0), {scale})",
            "--fn", "tri(t,t,t)", "--points", "1",
        ], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: line 1, col 18: ") and err.count("\n") == 1
        assert f"{count} points, more than the {MAX_GRID_POINTS}" in err

    @pytest.mark.parametrize("argv", [
        ["diff", "--timescale", "hgrid(0,3,1)", "--fn", "tri(t,t+1,t+2)"],
        ["tabulate", "--timescale", "hgrid(0,3,1)", "--fn", "tri(t,t+1,t+2)"],
        ["check", "characterize", "--timescale", "hgrid(0,3,1)",
         "--fn", "tri(t,t+1,t+2)"],
        ["check", "product1", "--timescale", "hgrid(0,3,1)",
         "--fn", "tri(t,t+1,t+2)", "--scalar-fn", "t+1"],
        ["ghdiff", "tri(0,1,2)", "tri(0,1,3)"],
        ["metric", "tri(0,1,2)", "tri(0,1,3)"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_negative_levels(self, argv, capsys):
        for levels in ("-1", "-7"):
            code, out, err = run(argv + ["--levels=" + levels], capsys)
            assert code == 1
            assert out == ""
            assert err == f"error: --levels must not be negative, got {levels}\n"

    @pytest.mark.parametrize("cmd, flag", [
        ("tabulate", ["--probes", "5"]),
        ("tabulate", ["--agreement-tol", "1e-3"]),
        ("tabulate", ["--residual-tol", "1e-3"]),
        ("diff", ["--residual-tol", "1e-3"]),
    ])
    def test_flag_the_command_does_not_read(self, cmd, flag, capsys):
        code, out, err = run([
            cmd, "--timescale", "hgrid(0,5,1)", "--fn", "tri(t,2*t,3*t)",
            "--points", "2"] + flag, capsys)
        assert code == 1
        assert out == ""
        assert f"error: unrecognized arguments: {' '.join(flag)}" in err

    def test_missing_fn(self, capsys):
        code, out, err = run([
            "diff", "--timescale", "hgrid(0,5,1)", "--points", "1",
        ], capsys)
        assert code == 1
        assert "--fn" in err

    def test_point_outside_scale(self, capsys):
        code, out, err = run([
            "diff",
            "--timescale", "hgrid(0,5,1)",
            "--fn", "tri(t,2*t,3*t)",
            "--points", "7.3",
        ], capsys)
        assert code == 1
        # non-finite points are not members (1e400 parses to inf)
        for point in ("inf", "1e400"):
            code, out, err = run([
                "diff",
                "--timescale", "interval(0,1)",
                "--fn", "tri(t,2*t,3*t)",
                "--points", point,
            ], capsys)
            assert code == 1, point
            assert out == ""

    def test_bad_subcommand_usage(self, capsys):
        code, out, err = run(["check", "no-such-theorem",
                              "--timescale", "hgrid(0,5,1)"], capsys)
        assert code == 1

    def test_unreadable_file_reference(self, capsys):
        code, out, err = run([
            "diff",
            "--timescale", "@/does/not/exist",
            "--fn", "tri(0,1,2)",
            "--points", "1",
        ], capsys)
        assert code == 1

    def test_timescale_from_file(self, capsys, tmp_path):
        spec = tmp_path / "scale.txt"
        spec.write_text("hgrid(0,5,1)")
        code, out, err = run([
            "tabulate",
            "--timescale", f"@{spec}",
            "--fn", "tri(t, t+1, t+2)",
            "--points", "1",
            "--levels", "2",
        ], capsys)
        assert code == 0


README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of each `fuzzynabla` command in the README's CLI block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("fuzzynabla ")]


class TestReadmeExamples:
    def test_block_found(self):
        assert len(readme_commands()) >= 4

    @pytest.mark.parametrize("argv", readme_commands(),
                             ids=lambda argv: " ".join(argv[:2]))
    def test_example_exits_0(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        assert out


GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_SCALE = "union(points(-2,-1), interval(0,1), points(2,3))"
# the peak drops at 2 so that f(2) gH- f(1) exists in neither case
GOLDEN_FN = ("tri(t-1-t^2, piecewise(in points(2) => t-4, in points(-2) => t, "
             "in interval => t), t+1+t^2)")
# isolated, jump with a dense right side, dense interior, jump without a
# gH difference, the max
GOLDEN_POINTS = "--points=-1,0,0.5,2,3"
# the rule checks: f realizes ordering II through 0 and I after it, g
# realizes II except at 2, and f + g has no gH difference at 3
GOLDEN_RULE_FN = "tri(t-1-t^2, t, t+1+t^2)"
GOLDEN_SUM_G = (
    "tri(piecewise(in points(2,3) => 6*t-42, in interval(0,1) => 2*t-5, "
    "in points(-2,-1) => 2*t-5), "
    "piecewise(in points(2,3) => -6*t, in interval(0,1) => t, "
    "in points(-2,-1) => t), "
    "piecewise(in points(2,3) => 30-6*t, in interval(0,1) => 5, "
    "in points(-2,-1) => 5))")


class TestGoldenBytes:
    """Literal outputs recorded from an earlier build: every byte must stay."""

    @pytest.mark.parametrize("argv, code, name", [
        (["diff", GOLDEN_POINTS], 2, "diff.csv"),
        (["diff", GOLDEN_POINTS, "--format", "json"], 2, "diff.json"),
        (["check", "characterize", GOLDEN_POINTS], 2, "characterize.csv"),
        (["tabulate", "--points=-2,-1,0,0.5,2,3"], 0, "tabulate.csv"),
        (["check", "characterize", GOLDEN_POINTS, "--format", "json"], 2,
         "characterize.json"),
        (["tabulate", "--points=-2,-1,0,0.5,2,3", "--format", "json"], 0,
         "tabulate.json"),
        (["check", "rho-identity", "--points=-1,0,0.5,3", "--format", "json"],
         0, "rho-identity.json"),
    ])
    def test_output_bytes(self, argv, code, name, capsys):
        got_code, out, err = run(argv + [
            "--timescale", GOLDEN_SCALE, "--fn", GOLDEN_FN, "--levels", "2"],
            capsys)
        assert got_code == code
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv, name", [
        (["sum", "--fn", GOLDEN_RULE_FN, "--fn", GOLDEN_SUM_G], "sum.csv"),
        (["sum", "--fn", GOLDEN_RULE_FN, "--fn", GOLDEN_SUM_G,
          "--format", "json"], "sum.json"),
        (["product-interval", "--fn", GOLDEN_RULE_FN, "--scalar-fn", "1-t/4"],
         "product-interval.csv"),
        (["product1", "--fn", GOLDEN_RULE_FN, "--scalar-fn", "t+3"],
         "product1.csv"),
        (["product1", "--fn", GOLDEN_RULE_FN, "--scalar-fn", "t+3",
          "--format", "json"], "product1.json"),
    ])
    def test_rule_bytes(self, argv, name, capsys):
        code, out, err = run(["check", *argv, GOLDEN_POINTS, "--timescale",
                              GOLDEN_SCALE, "--levels", "2"], capsys)
        assert code == 3, err
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt, name", [("csv", "jump.csv"),
                                           ("json", "jump.json")])
    def test_piecewise_jump_table(self, fmt, name, capsys):
        # every left-scattered point of the README scale at n = 20
        code, out, err = run([
            "diff", "--timescale", "union(recip(1,20), recip(sqrt2,20), points(0))",
            "--fn", EXAMPLE_FN, "--points", "all-scattered", "--levels", "2",
            "--format", fmt], capsys)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv, name", [
        # two labeled streams on the right of 0 that split: NotDifferentiable
        (["--timescale", "union(recip(1,20), recip(sqrt2,20), points(0))",
          "--fn", EXAMPLE_FN, "--points", "0"], "probe.json"),
        # the gH difference fails at a left probe of each point
        (["--timescale", "interval(0,2)", "--fn",
          "endpoints(-2 + alpha + t*(alpha - alpha^2)/2; 2 - alpha)",
          "--points", "0.5,1.5"], "probe_fail.json"),
    ])
    def test_probe_bytes(self, argv, name, capsys):
        code, out, err = run(["diff", *argv, "--levels", "2", "--format", "json"],
                             capsys)
        assert code == 2
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "d7ae63a6e1bd55bba71c56abed54829cce7d83059566e5b2b58e3c0a91f0727a"),
        ("json", "b5bd358edb32cdf7db50a4543cd4b4005e875454e9d0ef946277ff0b94170820"),
    ])
    def test_rows_across_chunks(self, fmt, digest, capsys):
        # 1,200 points: their CSV rows span several CSV_CHUNK_POINTS chunks
        assert cli.CSV_CHUNK_POINTS < 1200 / 2
        code, out, err = run([
            "diff", "--timescale", "union(recip(1,600), recip(sqrt2,600), points(0))",
            "--fn", EXAMPLE_FN, "--points", "all-scattered", "--levels", "2",
            "--format", fmt], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Random command lines for main. Grids stay at most a few hundred points:
# the size of a grid is not checked before it is built.
FUZZ_NUMS = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["0.5", "-2.5", "sqrt2", "pi", "1e-12", "1e-300", "1e300",
                     "-1e308", "1e308", "1e400"]),
)


# more points than a grid may have: the parser refuses them before
# building the grid
OVER_THE_BOUND = st.integers(MAX_GRID_POINTS + 1, 10**18)


@st.composite
def fuzz_piece(draw):
    kind = draw(st.sampled_from(["interval", "points", "hgrid", "qgrid", "recip"]))
    if kind == "interval":
        if draw(st.booleans()):
            return f"interval({draw(FUZZ_NUMS)},{draw(FUZZ_NUMS)})"
        a = draw(st.sampled_from([-2.0, 0.0, 0.5, 1.0, 1e300, -1e308]))
        b = a + draw(st.sampled_from([0.0, 0.5, 2.0, 1e300]))
        return f"interval({a!r},{b if math.isfinite(b) else 1e308!r})"
    if kind == "points":
        return f"points({','.join(draw(st.lists(FUZZ_NUMS, min_size=1, max_size=4)))})"
    if kind == "hgrid":
        a = draw(st.sampled_from([0.0, -1.0, 2.5, 1e-300, 1e300, -1e308]))
        h = draw(st.sampled_from([1.0, 0.5, 0.1, 1e-12, 1e-300, 1e300, 1e307]))
        b = a + draw(st.integers(0, 150) | OVER_THE_BOUND) * h
        return f"hgrid({a!r},{b if math.isfinite(b) else 1e308!r},{h!r})"
    if kind == "qgrid":
        q = draw(st.sampled_from(["2", "1.5", "10", "sqrt2", "1e300", "1.0000000001"]))
        k = draw(st.one_of(st.integers(-5, 5), st.integers(-1100, 1100)))
        return f"qgrid({q},{k},{k + draw(st.integers(0, 30) | OVER_THE_BOUND)})"
    return f"recip({draw(FUZZ_NUMS)},{draw(st.integers(-1, 100) | OVER_THE_BOUND)})"


def fuzz_expr(alpha: bool):
    leaves = [st.just("t"), st.just("t"), FUZZ_NUMS] + (
        [st.just("alpha")] if alpha else [])
    return st.recursive(st.one_of(*leaves), lambda c: st.one_of(
        st.tuples(c, st.sampled_from("+-*/"), c).map(" ".join).map("({})".format),
        st.tuples(c, st.sampled_from(["2", "3", "-1", "0", "400", "1e400"])).map(
            lambda x: f"({x[0]})^{x[1]}"),
        c.map("sqrt({})".format),
        c.map("sqrt(({})^2)".format),
        st.tuples(c, c).map(lambda x: (
            f"piecewise(in interval => {x[0]}, in points => {x[1]}, "
            f"in hgrid => {x[0]}, in qgrid => {x[1]}, in recip => {x[0]})")),
    ), max_leaves=4)


FUZZ_FN = st.one_of(
    # ordered wherever the parts are finite
    st.tuples(fuzz_expr(False), fuzz_expr(False), fuzz_expr(False)).map(
        lambda x: f"tri({x[0]}, {x[0]} + ({x[1]})^2, {x[0]} + ({x[1]})^2 + ({x[2]})^2)"),
    st.tuples(fuzz_expr(False), fuzz_expr(False), fuzz_expr(False)).map(
        lambda x: f"endpoints({x[0]} - (1 - alpha)*({x[1]})^2; "
                  f"{x[0]} + (1 - alpha)*({x[2]})^2)"),
    st.tuples(fuzz_expr(False), fuzz_expr(False), fuzz_expr(False)).map(
        lambda x: f"tri({x[0]}, {x[1]}, {x[2]})"),
    st.tuples(fuzz_expr(True), fuzz_expr(True)).map(
        lambda x: f"endpoints({x[0]}; {x[1]})"),
)


@st.composite
def fuzz_argv(draw):
    cmd = draw(st.sampled_from(["diff", "tabulate", "check", "ghdiff", "metric"]))
    levels = "--levels=" + draw(st.sampled_from(["0", "1", "2", "4", "4", "4", "-1"]))
    if cmd in ("ghdiff", "metric"):
        return [cmd, draw(FUZZ_FN), draw(FUZZ_FN), "--at", draw(FUZZ_NUMS), levels]
    argv = [cmd]
    if cmd == "check":
        theorem = draw(st.sampled_from(THEOREMS))
        argv.append(theorem)
        if theorem == "sum":
            argv += ["--fn", draw(FUZZ_FN)]
        if theorem.startswith("product"):
            argv.append("--scalar-fn=" + draw(fuzz_expr(False)))
    pieces = draw(st.lists(fuzz_piece(), min_size=1, max_size=3))
    points = draw(st.one_of(
        st.sampled_from(["all-scattered", "dense:1", "dense:3"]),
        st.lists(FUZZ_NUMS, min_size=1, max_size=3).map(",".join)))
    argv += ["--timescale", f"union({', '.join(pieces)})", "--fn", draw(FUZZ_FN),
             "--points=" + points, levels]
    if cmd != "tabulate" and draw(st.booleans()):
        argv += ["--probes", draw(st.sampled_from(["2", "3", "8"])),
                 "--agreement-tol", draw(st.sampled_from(["1e-6", "1e-3", "0"]))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


class TestMainFuzz:
    @given(argv=fuzz_argv())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_exit_code_or_package_error(self, argv, capsys):
        try:
            code = main(argv)
        except FuzzyNablaError:
            return
        finally:
            capsys.readouterr()
        assert code in (0, 1, 2, 3)


# JSON trees for the streamed writer: keys with escapes and non-ASCII
# characters, the floats json spells specially, numpy float scalars
JSON_KEYS = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7f\u2028\xe9\U0001f600'),
                              st.characters()), max_size=6)
JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308,
                     1e16, 1e-5, 0.1]),
    st.floats(allow_nan=True).map(np.float64),
)
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS,
                        JSON_KEYS)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=24)


def streamed(items) -> str:
    return "".join(cli._json_chunks(iter(items)))


class TestJsonWriter:
    """The streamed JSON writer spells what json.dumps spells."""

    @given(items=st.lists(JSON_TREES, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_as_json(self, items):
        assert streamed(items) == json.dumps(items, indent=2, sort_keys=True) + "\n"
        for tree in items:
            assert cli._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("items", [[], [[]], [{}], [[], {}, ()], [[[{}]]]])
    def test_empty_containers(self, items):
        assert streamed(items) == json.dumps(items, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("bad", [np.bool_(True), {1, 2}, np.int64(3),
                                     object(), b"bytes"])
    def test_unsupported_types_raise(self, bad):
        for items in ([bad], [{"k": [1.0, bad]}]):
            with pytest.raises(TypeError):
                json.dumps(items, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                streamed(items)


# A small Python parent runs the CLI and reads the child's peak RSS from
# os.wait4. A child of the test process itself would start from this
# process's high-water mark, which is far above the CLI's own.
RSS_PARENT = """\
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "fuzzynabla.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_peak_rss_mb(argv) -> tuple[int, float]:
    """Exit code and peak RSS in MB of one CLI process (Linux units)."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", RSS_PARENT, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    code, kb = proc.stdout.split()
    return int(code), int(kb) / 1024.0


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
class TestPeakRss:
    def test_characterize_json_peaks_like_csv(self, tmp_path):
        # the JSON characterize of the rule-check benchmark at seed 1: 101
        # levels of endpoint evidence per point, about 115 KB each
        argv = ["check", "characterize",
                "--timescale", "union(interval(0,1), hgrid(1,430,1))",
                "--fn", "tri(0.18*t^2, 0.41*t^2+t, 0.76*t^2+2*t)",
                "--points=0.028778,0.031642,0.055698,0.068533,0.083997,0.09327,"
                "0.169395,0.284847,0.290702,0.314277,0.386953,0.413023,"
                "0.562173,0.594526,0.701035,0.800774,0.828848,0.830569,"
                "0.890609,0.91255"]
        peaks = {}
        for fmt in ("csv", "json"):
            code, peaks[fmt] = cli_peak_rss_mb(
                argv + ["--format", fmt, "--out", str(tmp_path / f"c.{fmt}")])
            assert code == 0
        assert peaks["json"] <= peaks["csv"] + 3.0, peaks
