"""Command line front end.

Subcommands: diff (derivative tables), ghdiff (generalized difference of two
numbers), metric (distance of two numbers), tabulate (function values), and
check (identity and rule verification). Scales and functions are given in
the small expression language, inline or from a file via @path.

Exit codes are a stable contract:
  0  success, every requested check Verified
  1  configuration or syntax error (details on standard error)
  2  a difference or derivative does not exist, or a residual check failed
  3  a rule's hypothesis failed
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .dsl import (
    bind_function,
    compile_scalar,
    eval_function,
    parse_function,
    parse_timescale,
)
from .errors import (
    EndpointDerivativeMissing,
    FuzzyNablaError,
    GhNonexistent,
    LengthDirectionUndetermined,
    LimitDisagreement,
    NotInDomain,
    NotInTimeScale,
    SignHypothesisFailed,
    ValidationError,
)
from .fuzzy import FuzzyNumber, GhCase, alpha_grid, gh_diff, hausdorff
from .nabla import (
    DEFAULT_CONFIG,
    DiffCase,
    ProbeConfig,
    _level_residual,
    _rho_residual,
    nabla_gh,
    nabla_many,
)
from .rules import Verdict, _graded_many, _point_tol
from .timescale import Side

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONEXISTENT = 2
EXIT_HYPOTHESIS = 3


class _UsageError(Exception):
    pass


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # nonexistence code; remap to the config code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(message)

THEOREMS = (
    "rho-identity",
    "level-consistency",
    "sum",
    "product1",
    "product2",
    "product-interval",
    "characterize",
)


def _read_spec(arg: str) -> str:
    """Inline text, or the contents of a file when prefixed with @."""
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _probe_config(args) -> ProbeConfig:
    try:
        return ProbeConfig(probe_count=args.probes,
                           agreement_tol=args.agreement_tol)
    except ValueError as err:
        raise ValidationError(
            f"--probes {args.probes} --agreement-tol {args.agreement_tol!r}: "
            f"{err}") from None


def _residual_tol(args) -> float | None:
    """--residual-tol, which must be finite and not negative when given."""
    tol = args.residual_tol
    if tol is not None and not (tol >= 0 and math.isfinite(tol)):
        raise ValidationError(
            f"--residual-tol must be finite and not negative, got {tol!r}")
    return tol


def _levels(args) -> int:
    """--levels, which must not be negative."""
    if args.levels < 0:
        raise ValidationError(f"--levels must not be negative, got {args.levels}")
    return args.levels


def _select_points(ts, spec: str) -> list[float]:
    if spec == "all-scattered":
        pts = ts.left_scattered_points()
        if not pts:
            raise ValidationError("the scale has no left-scattered points")
        return pts
    if spec.startswith("dense:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad dense point count in {spec!r}")
        if k < 1:
            raise ValidationError("dense point count must be positive")
        cand = [
            t for t in ts.sample_points(max(25, 4 * k))
            if (pc := ts.classify(t)).in_kappa and pc.left is Side.DENSE
        ]
        if not cand:
            raise ValidationError("the scale has no left-dense points")
        return cand[:k]
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(ts.snap(float(tok)))
        except ValueError:
            raise ValidationError(f"bad point value {tok!r}")
    if not out:
        raise ValidationError("empty point list")
    return sorted(set(out))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


@functools.lru_cache(maxsize=None)
def _alpha_cells(K: int) -> tuple[str, ...]:
    return tuple(repr(a) for a in alpha_grid(K).tolist())


def _level_rows(lines: list[str], head: str, u: FuzzyNumber,
                tail: str = "") -> None:
    """Append one CSV row per level of u: head,alpha,lower,upper then tail."""
    lines.extend([
        f"{head},{a},{lo!r},{hi!r}{tail}"
        for a, lo, hi in zip(_alpha_cells(u.K), u.lower.tolist(), u.upper.tolist())
    ])


def _bind(args, want: int | None = 1):
    K = _levels(args)
    ts = parse_timescale(_read_spec(args.timescale))
    defs = args.fn
    if not defs:
        raise ValidationError("--fn is required for this command")
    if want is not None and len(defs) != want:
        raise ValidationError(
            f"expected {want} --fn definition(s), got {len(defs)}")
    fns = [
        bind_function(parse_function(_read_spec(d)), ts, K=K)
        for d in defs
    ]
    return ts, fns


def _scalar_expr(args):
    """The parsed --scalar-fn expression."""
    from .dsl import parse_scalar

    if not args.scalar_fn:
        raise ValidationError("--scalar-fn is required for product rules")
    return parse_scalar(_read_spec(args.scalar_fn))


def _scalar_fn(args):
    """Compile --scalar-fn into a float -> float callable."""
    from .dsl import eval_expr

    expr = _scalar_expr(args)

    def fs(t):
        return float(eval_expr(expr, t))

    return fs


# -- diff ------------------------------------------------------------------


def cmd_diff(args) -> int:
    ts, (f,) = _bind(args)
    cfg = _probe_config(args)
    points = _select_points(ts, args.points)

    results = nabla_many(f, ts, points, cfg)
    code = EXIT_OK
    if any(r.case is DiffCase.NOT_DIFFERENTIABLE for r in results):
        code = EXIT_NONEXISTENT

    if args.format == "json":
        _emit_json([r.to_dict() for r in results], args.out)
        return code

    lines = ["t,alpha,d_lower,d_upper,case,residual"]
    for r in sorted(results, key=lambda r: r.t):
        tail = f",{r.case.value},{r.residual!r}"
        if r.value is None:
            lines.append(f"{r.t!r},,,{tail}")
        else:
            _level_rows(lines, repr(r.t), r.value, tail)
    _emit("\n".join(lines) + "\n", args.out)
    return code


# -- tabulate ----------------------------------------------------------------


def cmd_tabulate(args) -> int:
    ts, (f,) = _bind(args)
    points = _select_points(ts, args.points)

    if args.format == "json":
        out = [
            {"t": t, "value": f(t).to_dict()}
            for t in points
        ]
        _emit_json(out, args.out)
        return EXIT_OK

    lines = ["t,alpha,lower,upper"]
    for t in points:
        _level_rows(lines, repr(t), f(t))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# -- ghdiff / metric ---------------------------------------------------------


def _eval_number(src: str, at: float, K: int):
    d = parse_function(_read_spec(src))
    return eval_function(d, at, K)


def cmd_ghdiff(args) -> int:
    K = _levels(args)
    u = _eval_number(args.u, args.at, K)
    v = _eval_number(args.v, args.at, K)
    res = gh_diff(u, v)

    if args.format == "json":
        out = {
            "case": res.case.value,
            "levels": res.value.csv_rows() if res.value is not None else None,
            "diagnostics": res.diagnostics,
        }
        _emit_json(out, args.out)
        return EXIT_OK if res.case is not GhCase.NONE else EXIT_NONEXISTENT

    lines = [f"case,{res.case.value}"]
    if res.value is not None:
        lines.append("alpha,lower,upper")
        for a, lo, hi in res.value.csv_rows():
            lines.append(f"{a!r},{lo!r},{hi!r}")
    else:
        for key, msg in sorted(res.diagnostics.items()):
            lines.append(f"# {key}: {msg}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if res.case is not GhCase.NONE else EXIT_NONEXISTENT


def cmd_metric(args) -> int:
    K = _levels(args)
    u = _eval_number(args.u, args.at, K)
    v = _eval_number(args.v, args.at, K)
    _emit(f"{hausdorff(u, v)!r}\n", args.out)
    return EXIT_OK


# -- check -------------------------------------------------------------------


def _verdict_code(verdicts) -> int:
    if any(v is Verdict.HYPOTHESIS_FAILED for v in verdicts):
        return EXIT_HYPOTHESIS
    if any(v is Verdict.RESIDUAL_EXCEEDED for v in verdicts):
        return EXIT_NONEXISTENT
    return EXIT_OK


def _residual_rows(args, measure, given: float | None) -> int:
    """The shared loop of the two identity checks with scalar residuals:
    measure(f, ts, derivative, cfg) is the check's residual from the
    derivative at t, whose point record also gives the default tol."""
    ts, (f,) = _bind(args)
    cfg = _probe_config(args)
    points = _select_points(ts, args.points)

    rows = []
    verdicts = []
    for t in points:
        r = nabla_gh(f, ts, t, cfg)
        tol = _point_tol(r.endpoint_report.point) if given is None else given
        residual = measure(f, ts, r, cfg)
        verdict = Verdict.VERIFIED if residual <= tol else Verdict.RESIDUAL_EXCEEDED
        verdicts.append(verdict)
        rows.append({"t": t, "residual": residual, "tol": tol,
                     "verdict": verdict.value})

    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        lines = ["t,residual,tol,verdict"]
        for r in rows:
            lines.append(f"{r['t']!r},{r['residual']!r},{r['tol']!r},{r['verdict']}")
        _emit("\n".join(lines) + "\n", args.out)
    return _verdict_code(verdicts)


def _rule_rows(args, reports_by_t) -> int:
    verdicts = [rep.verdict for _, rep in reports_by_t]

    if args.format == "json":
        _emit_json([{"t": t, **rep.to_dict()} for t, rep in reports_by_t],
                   args.out)
    else:
        lines = ["t,rule,verdict,residual,hypotheses"]
        for t, rep in reports_by_t:
            hyp = ";".join(
                f"{h.name}={'pass' if h.passed else 'FAIL'}"
                for h in rep.hypothesis_checks
            )
            lines.append(f"{t!r},{rep.rule},{rep.verdict.value},{rep.residual!r},{hyp}")
        _emit("\n".join(lines) + "\n", args.out)
    return _verdict_code(verdicts)


def _check_named_sign(rep, theorem: str) -> None:
    """product1 and product2 each pin one sign of fs * nabla_fs."""
    sigma = rep.extras.get("sigma", 0.0)
    wanted = sigma > 0 if theorem == "product1" else sigma < 0
    if not wanted:
        from .rules import HypothesisCheck

        rep.hypothesis_checks.append(HypothesisCheck(
            "named-theorem-sign", False,
            f"{theorem} needs fs*nabla_fs {'>' if theorem == 'product1' else '<'} 0, "
            f"got {sigma:.6g}"))
        rep.verdict = Verdict.HYPOTHESIS_FAILED


def cmd_check(args) -> int:
    theorem = args.theorem
    tol = _residual_tol(args)
    if theorem == "rho-identity":
        return _residual_rows(args, _rho_residual, tol)
    if theorem == "level-consistency":
        return _residual_rows(args, _level_residual, tol)

    if theorem == "characterize":
        ts, (f,) = _bind(args)
        cfg = _probe_config(args)
        points = _select_points(ts, args.points)
        results = nabla_many(f, ts, points, cfg)
        if args.format == "json":
            _emit_json([r.to_dict() for r in results], args.out)
        else:
            lines = ["t,case,residual"]
            for r in results:
                lines.append(f"{r.t!r},{r.case.value},{r.residual!r}")
            _emit("\n".join(lines) + "\n", args.out)
        bad = any(r.case is DiffCase.NOT_DIFFERENTIABLE for r in results)
        return EXIT_NONEXISTENT if bad else EXIT_OK

    if theorem == "sum":
        ts, (f, g) = _bind(args, want=2)
        cfg = _probe_config(args)
        points = _select_points(ts, args.points)
        reports = _graded_many("sum", f, g, ts, points, cfg, tol)
        return _rule_rows(args, list(zip(points, reports)))

    # product rules: one fuzzy --fn plus --scalar-fn
    ts, (g,) = _bind(args)
    fs = _scalar_fn(args)
    vector = compile_scalar(_scalar_expr(args))
    cfg = _probe_config(args)
    points = _select_points(ts, args.points)
    rule = "product-interval" if theorem == "product-interval" else "product-fuzzy"
    reports = _graded_many(rule, fs, g, ts, points, cfg, tol, vector)
    if rule == "product-fuzzy":
        for rep in reports:
            _check_named_sign(rep, theorem)
    return _rule_rows(args, list(zip(points, reports)))


# -- argument plumbing -------------------------------------------------------


def _add_run_flags(p, probing: bool, residual: bool) -> None:
    """Scale, function and point flags, --levels, and only the tuning flags
    the command reads: --probes and --agreement-tol when it derives,
    --residual-tol when it checks residuals."""
    p.add_argument("--timescale", required=True,
                   help="scale expression, or @file")
    p.add_argument("--fn", action="append",
                   help="function definition, or @file (repeatable)")
    p.add_argument("--points", default="all-scattered",
                   help='"1,2,3", "all-scattered" or "dense:k"')
    p.add_argument("--levels", type=int, default=100, metavar="K",
                   help="level grid resolution (default 100)")
    if probing:
        p.add_argument("--probes", type=int, default=DEFAULT_CONFIG.probe_count,
                       metavar="N", help="probes per approach stream")
        p.add_argument("--agreement-tol", type=float,
                       default=DEFAULT_CONFIG.agreement_tol,
                       help="limit agreement tolerance")
    if residual:
        p.add_argument("--residual-tol", type=float, default=None,
                       help="identity residual tolerance (default: by point class)")
    _add_output_flags(p)


def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="fuzzynabla",
        description="backward fuzzy calculus on time scales",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="derivative table over selected points")
    _add_run_flags(p, probing=True, residual=False)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("tabulate", help="function values over selected points")
    _add_run_flags(p, probing=False, residual=False)
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("ghdiff", help="generalized difference of two numbers")
    p.add_argument("u", help="minuend definition, or @file")
    p.add_argument("v", help="subtrahend definition, or @file")
    p.add_argument("--at", type=float, default=0.0,
                   help="evaluation point for defs mentioning t")
    p.add_argument("--levels", type=int, default=100, metavar="K")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ghdiff)

    p = sub.add_parser("metric", help="distance between two numbers")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--at", type=float, default=0.0)
    p.add_argument("--levels", type=int, default=100, metavar="K")
    _add_output_flags(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("check", help="run an identity or rule checker")
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("--scalar-fn", default=None,
                   help="real-valued factor for product rules, or @file")
    _add_run_flags(p, probing=True, residual=True)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return EXIT_CONFIG
    try:
        # every result is checked for finiteness, so numpy's floating-point
        # warnings would only put noise ahead of the one-line error
        with np.errstate(all="ignore"):
            return args.func(args)
    except (GhNonexistent, LimitDisagreement, EndpointDerivativeMissing,
            LengthDirectionUndetermined) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONEXISTENT
    except SignHypothesisFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValidationError, NotInTimeScale, NotInDomain, FuzzyNablaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
