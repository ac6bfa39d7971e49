"""The public surface: a name leaves `fuzzynabla.__all__` only on purpose,
every name the benchmark tracer wraps stays in place, and no module imports
a name it does not use."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

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


def test_benchmark_tracer_names_exist():
    # tracer.install does a getattr on each name it wraps, so a name that
    # goes away fails the benchmark's traced run; it fails here first
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}"
               for layer, names in tracer.FUNCTIONS.items()
               for name in names
               if not hasattr(importlib.import_module(f"fuzzynabla.{layer}"), name)]
    for layer, (cls_name, names) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"fuzzynabla.{layer}"), cls_name)
        missing += [f"{cls_name}.{name}" for name in names if not hasattr(cls, name)]
    from fuzzynabla import cli

    if not hasattr(cli, "_scalar_fn"):
        missing.append("cli._scalar_fn")
    assert missing == []


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "fuzzynabla").glob("*.py")
    if p.name != "__init__.py"))
def test_no_unused_imports(module):
    tree = ast.parse((ROOT / "src" / "fuzzynabla" / module).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert unused == []


def test_raw_callables_get_a_type_error():
    # every public entry that derives f or g takes a FuzzyFunction; a plain
    # callable is refused by name, before the point is looked up
    fz = fuzzynabla
    ts = fz.TimeScale([fz.ArithmeticGrid(0.0, 5.0, 1.0)])
    raw = lambda t: fz.triangular(t, t + 1.0, t + 2.0, 4)  # noqa: E731
    f = fz.FuzzyFunction(raw, K=4)
    calls = [
        lambda: fz.nabla_gh(raw, ts, 2.0),
        lambda: fz.derivative_report(raw, ts, 2.0),
        lambda: fz.endpoint_derivatives(raw, ts, 2.0),
        lambda: fz.nabla_many(raw, ts, [1.0, 2.0]),
        lambda: fz.nabla_many(raw, ts, [9.5]),
        lambda: fz.check_rho_identity(raw, ts, 2.0),
        lambda: fz.check_level_consistency(raw, ts, 2.0),
        lambda: fz.tag_i_ii(raw, ts, 2.0),
        lambda: fz.len_direction(raw, ts, 2.0),
        lambda: fz.sum_rule(raw, f, ts, 2.0),
        lambda: fz.sum_rule(f, raw, ts, 2.0),
        lambda: fz.product_fuzzy(lambda t: t, raw, ts, 2.0),
        lambda: fz.product_interval(lambda t: t, raw, ts, 2.0),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="expected a FuzzyFunction, got function"):
            call()
    assert fz.nabla_gh(f, ts, 2.0).value is not None
