"""The public surface: a name leaves `fuzzynabla.__all__` only on purpose,
and every name the benchmark tracer wraps stays in place."""

import os
import pathlib
import subprocess
import sys

import fuzzynabla

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AlphaOutOfRange",
    "ArithmeticGrid",
    "ClosedInterval",
    "DEFAULT_CONFIG",
    "DerivativeResult",
    "DiffCase",
    "DslSyntaxError",
    "EmptySide",
    "EndpointDerivativeMissing",
    "EndpointReport",
    "ExplicitPoints",
    "FuzzyFunction",
    "FuzzyNablaError",
    "FuzzyNumber",
    "GeometricGrid",
    "GhCase",
    "GhDiffResult",
    "GhNonexistent",
    "GridMismatch",
    "HypothesisCheck",
    "Interval",
    "LengthDirectionUndetermined",
    "LimitDisagreement",
    "NotInDomain",
    "NotInTimeScale",
    "OrderViolation",
    "PointClass",
    "ProbeConfig",
    "ReciprocalGrid",
    "RuleReport",
    "Side",
    "SignHypothesisFailed",
    "Stream",
    "Tag",
    "TimeScale",
    "ValidationError",
    "Verdict",
    "add",
    "alpha_grid",
    "bind_function",
    "check_level_consistency",
    "check_rho_identity",
    "crisp",
    "default_residual_tol",
    "derivative_report",
    "endpoint_derivatives",
    "eval_expr",
    "eval_function",
    "gh_diff",
    "h_diff",
    "hausdorff",
    "len_direction",
    "nabla_gh",
    "nabla_many",
    "nabla_scalar",
    "parse_function",
    "parse_scalar",
    "parse_timescale",
    "print_canonical",
    "product_fuzzy",
    "product_interval",
    "scalar_mul",
    "sum_rule",
    "tag_i_ii",
    "triangular",
]


def test_all_is_snapshot():
    assert fuzzynabla.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(fuzzynabla, name), name


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps package functions and methods by name;
    # installing patches the package, so it runs in a child process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
