"""Command line front end.

Subcommands: diff (derivative tables), ghdiff (generalized difference of two
numbers), metric (distance of two numbers), tabulate (function values), and
check (identity and rule verification). Scales and functions are given in
the small expression language, inline or from a file via @path.

Output is CSV or JSON, written through the standard library after every
point is computed: a CSV point's rows at a time, and each JSON element from
json.dumps(..., indent=2, sort_keys=True).

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
from typing import Iterable, Iterator

import numpy as np

from .dsl import (
    bind_function,
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
    SignHypothesisFailed,
    ValidationError,
)
from .fuzzy import FuzzyNumber, GhCase, alpha_grid, gh_diff, hausdorff
from .nabla import (
    DEFAULT_CONFIG,
    DiffCase,
    ProbeConfig,
    _derived,
    _evaluate,
    _level_residual,
    _pass,
    _records,
    _rho_residual,
    nabla_many,
)
from .rules import Verdict, _graded_many, _point_tol
from .timescale import MAX_GRID_POINTS, Side

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

    # a number is a value, also "-1e5" or "-inf", which argparse alone takes
    # for a flag: its negative-number pattern matches plain decimals only;
    # so is a list of numbers, as in "--points -2,-1"
    def _parse_optional(self, arg_string):
        try:
            for token in arg_string.split(","):
                float(token)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

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
    """Inline text, or the contents of a file when prefixed with @, which
    must be UTF-8 text."""
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"{arg[1:]!r} is not UTF-8 text") from None
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
    """--levels, which must not be negative nor more than MAX_GRID_POINTS."""
    if args.levels < 0:
        raise ValidationError(f"--levels must not be negative, got {args.levels}")
    if args.levels > MAX_GRID_POINTS:
        raise ValidationError(
            f"--levels must be at most {MAX_GRID_POINTS}, got {args.levels}")
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


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the output's chunks to out_path, or to stdout without one.

    Every command's output goes through here. Callers pass chunks that
    are formatted lazily from results that all exist, so a point that
    fails leaves no output: the file is opened only here.
    """
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(items: Iterable, out_path: str | None) -> None:
    """Emit the JSON array of items, formatting one element at a time."""
    _emit(_json_chunks(items), out_path)


def _csv_chunks(header: str, items: Iterable, row) -> Iterator[str]:
    """The header line, then row(item) (an item's lines) for each item."""
    yield header + "\n"
    for x in items:
        yield row(x) + "\n"


def _json_chunks(items: Iterable) -> Iterator[str]:
    """json.dumps(list(items), indent=2, sort_keys=True) + "\\n", one
    element at a time: each is built, encoded and dropped in turn."""
    first = True
    for item in items:
        # json escapes every newline inside a string, so indenting the
        # element's text moves only its structural newlines
        text = json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n  ")
        yield ("[\n  " if first else ",\n  ") + text
        first = False
    yield "[]\n" if first else "\n]\n"


@functools.lru_cache(maxsize=None)
def _alpha_cells(K: int) -> tuple[str, ...]:
    return tuple(repr(a) for a in alpha_grid(K).tolist())


def _level_rows(head: str, u: FuzzyNumber, tail: str = "") -> str:
    """One CSV row per level of u: head,alpha,lower,upper then tail."""
    return "\n".join([
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


def _scalar_fn(args):
    """Parse --scalar-fn, read once, into a float -> float callable whose
    piecewise arms dispatch on args.scale, the command's bound scale."""
    from .dsl import eval_expr, parse_scalar

    if not args.scalar_fn:
        raise ValidationError("--scalar-fn is required for product rules")
    expr = parse_scalar(_read_spec(args.scalar_fn))
    ts = getattr(args, "scale", None)

    def fs(t):
        return float(eval_expr(expr, t, None, ts))

    return fs


# -- diff ------------------------------------------------------------------


def _derivative_table(args, header: str, row) -> int:
    """The derivative at each selected point (nabla_many): the results'
    JSON records, or the CSV header and row(result) per point. diff and
    check characterize differ only in the CSV row."""
    ts, (f,) = _bind(args)
    cfg = _probe_config(args)
    points = _select_points(ts, args.points)
    results = nabla_many(f, ts, points, cfg)
    if args.format == "json":
        _emit_json((r.to_dict() for r in results), args.out)
    else:
        _emit(_csv_chunks(header, results, row), args.out)
    bad = any(r.case is DiffCase.NOT_DIFFERENTIABLE for r in results)
    return EXIT_NONEXISTENT if bad else EXIT_OK


def _diff_row(r) -> str:
    tail = f",{r.case.value},{r.residual!r}"
    if r.value is None:
        return f"{r.t!r},,,{tail}"
    return _level_rows(repr(r.t), r.value, tail)


def cmd_diff(args) -> int:
    return _derivative_table(args, "t,alpha,d_lower,d_upper,case,residual",
                             _diff_row)


# -- tabulate ----------------------------------------------------------------


def cmd_tabulate(args) -> int:
    ts, (f,) = _bind(args)
    points = _select_points(ts, args.points)
    # one stack when f has a vector form; when it raises, f(t) in order
    # raises the definition's own error at the first failing point
    lo, hi, err = _evaluate(f, points)
    if err is not None:
        raise err
    values = ((t, FuzzyNumber(lo[j], hi[j], validate=False))
              for j, t in enumerate(points))

    if args.format == "json":
        _emit_json(({"t": t, "value": u.to_dict()} for t, u in values), args.out)
    else:
        _emit(_csv_chunks("t,alpha,lower,upper", values,
                          lambda tu: _level_rows(repr(tu[0]), tu[1])), args.out)
    return EXIT_OK


# -- ghdiff / metric ---------------------------------------------------------


def _numbers(args) -> tuple[FuzzyNumber, FuzzyNumber]:
    """The two numbers u and v at --at, which must be finite."""
    K = _levels(args)
    if not math.isfinite(args.at):
        raise ValidationError(f"--at must be finite, got {args.at!r}")
    return tuple(eval_function(parse_function(_read_spec(src)), args.at, K)
                 for src in (args.u, args.v))


def cmd_ghdiff(args) -> int:
    res = gh_diff(*_numbers(args))
    if args.format == "json":
        text = json.dumps({
            "case": res.case.value,
            "levels": res.value.csv_rows() if res.value is not None else None,
            "diagnostics": res.diagnostics,
        }, indent=2, sort_keys=True) + "\n"
    elif res.value is not None:
        text = f"case,{res.case.value}\n" + res.value.to_csv()
    else:
        text = f"case,{res.case.value}\n" + "".join(
            f"# {key}: {msg}\n" for key, msg in sorted(res.diagnostics.items()))
    _emit([text], args.out)
    return EXIT_OK if res.case is not GhCase.NONE else EXIT_NONEXISTENT


def cmd_metric(args) -> int:
    _emit([f"{hausdorff(*_numbers(args))!r}\n"], args.out)
    return EXIT_OK


# -- check -------------------------------------------------------------------


def _verdict_code(verdicts) -> int:
    if any(v is Verdict.HYPOTHESIS_FAILED for v in verdicts):
        return EXIT_HYPOTHESIS
    if any(v is Verdict.RESIDUAL_EXCEEDED for v in verdicts):
        return EXIT_NONEXISTENT
    return EXIT_OK


def _residual_rows(args, theorem: str, given: float | None) -> int:
    """The shared loop of the two identity checks with scalar residuals,
    from one pass over f: the residual at t from its analysis and the
    derivative derived from it, whose point record also gives the default
    tol. rho-identity reads f at t and rho from the analysis;
    level-consistency, the independent oracle, evaluates f itself."""
    ts, (f,) = _bind(args)
    cfg = _probe_config(args)
    points = _select_points(ts, args.points)
    records, err = _records(ts, points)

    rows = []
    verdicts = []
    for t, analysis in zip(points, _pass(f, ts, records, cfg)):
        r = _derived(analysis, cfg)
        tol = _point_tol(r.endpoint_report.point) if given is None else given
        if theorem == "rho-identity":
            residual = _rho_residual(analysis, r)
        else:
            residual = _level_residual(f, ts, r, cfg)
        verdict = Verdict.VERIFIED if residual <= tol else Verdict.RESIDUAL_EXCEEDED
        verdicts.append(verdict)
        rows.append({"t": t, "residual": residual, "tol": tol,
                     "verdict": verdict.value})
    if err is not None:
        raise err

    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        _emit(_csv_chunks(
            "t,residual,tol,verdict", rows,
            lambda r: f"{r['t']!r},{r['residual']!r},{r['tol']!r},{r['verdict']}"),
            args.out)
    return _verdict_code(verdicts)


def _rule_rows(args, points, reports, theorem: str) -> int:
    """The rule table of the reports at points, graded in order. A CSV
    table keeps each point's row and verdict, not its report; JSON keeps
    the reports. product1 and product2 add their sign check
    (_check_named_sign) as each report comes."""
    named = theorem in ("product1", "product2")
    csv = args.format != "json"
    kept, verdicts = [], []
    for t, rep in zip(points, reports):
        if named:
            _check_named_sign(rep, theorem)
        verdicts.append(rep.verdict)
        kept.append(_rule_row(t, rep) if csv else (t, rep))

    if csv:
        _emit(_csv_chunks("t,rule,verdict,residual,hypotheses", kept, str),
              args.out)
    else:
        _emit_json(({"t": t, **rep.to_dict()} for t, rep in kept), args.out)
    return _verdict_code(verdicts)


def _rule_row(t: float, rep) -> str:
    hyp = ";".join(
        f"{h.name}={'pass' if h.passed else 'FAIL'}"
        for h in rep.hypothesis_checks
    )
    return f"{t!r},{rep.rule},{rep.verdict.value},{rep.residual!r},{hyp}"


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
    if theorem in ("rho-identity", "level-consistency"):
        return _residual_rows(args, theorem, tol)

    if theorem == "characterize":
        return _derivative_table(
            args, "t,case,residual",
            lambda r: f"{r.t!r},{r.case.value},{r.residual!r}")

    if theorem == "sum":
        ts, (f, g) = _bind(args, want=2)
        cfg = _probe_config(args)
        points = _select_points(ts, args.points)
        return _rule_rows(args, points,
                          _graded_many("sum", f, g, ts, points, cfg, tol), theorem)

    # product rules: one fuzzy --fn plus --scalar-fn
    ts, (g,) = _bind(args)
    args.scale = ts
    fs = _scalar_fn(args)
    cfg = _probe_config(args)
    points = _select_points(ts, args.points)
    rule = "product-interval" if theorem == "product-interval" else "product-fuzzy"
    return _rule_rows(args, points,
                      _graded_many(rule, fs, g, ts, points, cfg, tol), theorem)


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
                   help="evaluation point for defs mentioning t (finite)")
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
    except (FuzzyNablaError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
