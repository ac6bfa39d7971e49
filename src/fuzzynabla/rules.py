"""Calculus rule checkers: each one measures the identity it claims.

A RuleReport never lies about why it failed: hypothesis violations are
reported as HypothesisFailed even when the numbers happen to agree, and a
numeric mismatch under satisfied hypotheses is ResidualExceeded. The
reporting path never raises for a failed hypothesis; pass enforce=True to
get an exception instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    EndpointDerivativeMissing,
    GridMismatch,
    LengthDirectionUndetermined,
    OrderViolation,
    SignHypothesisFailed,
    ValidationError,
)
from .fuzzy import _NOT_FINITE, FuzzyNumber, add, hausdorff
from .nabla import (
    DEFAULT_CONFIG,
    DiffCase,
    FuzzyFunction,
    ProbeConfig,
    _classify_in_domain,
    _derived,
    _evaluate,
    _joint_pass,
    _pass,
    _records,
    _require_function,
    nabla_gh,
)
from .timescale import PointClass, Side, TimeScale


class Verdict(Enum):
    VERIFIED = "Verified"
    HYPOTHESIS_FAILED = "HypothesisFailed"
    RESIDUAL_EXCEEDED = "ResidualExceeded"


class Tag(Enum):
    I = "I"
    II = "II"
    BOTH = "Both"
    NEITHER = "Neither"


@dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class RuleReport:
    rule: str
    hypothesis_checks: list[HypothesisCheck]
    lhs: FuzzyNumber | None
    rhs: FuzzyNumber | None
    residual: float
    verdict: Verdict
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "verdict": self.verdict.value,
            "residual": self.residual,
            "hypothesis_checks": [h.to_dict() for h in self.hypothesis_checks],
            "lhs": self.lhs.to_dict() if self.lhs is not None else None,
            "rhs": self.rhs.to_dict() if self.rhs is not None else None,
            "extras": self.extras,
        }


def _point_tol(pc: PointClass) -> float:
    """Exact quotients get a tight bound; probed limits a looser one."""
    return 1e-9 if pc.left is Side.SCATTERED else 1e-5


def default_residual_tol(ts: TimeScale, t: float) -> float:
    """The residual tolerance the checkers use at t unless given one; a t
    outside the derivative domain raises NotInDomain, as the checkers do."""
    return _point_tol(_classify_in_domain(ts, float(t)))


# the endpoint ordering a derivative's case realizes
_TAG_OF_CASE = {case: Tag.NEITHER for case in DiffCase} | {
    DiffCase.CRISP: Tag.BOTH, DiffCase.CASE_I: Tag.I, DiffCase.CASE_II: Tag.II}


def _tag_of(result) -> Tag:
    rep = result.endpoint_report
    if rep.point.left is Side.DENSE:
        for label, side in (("left", rep.minus), ("right", rep.plus)):
            if side.kind == "limit" and not side.settled:
                raise EndpointDerivativeMissing(
                    f"one-sided endpoint derivatives on the {label} of "
                    f"{result.t!r} do not settle to single limits")
    return _TAG_OF_CASE[result.case]


def tag_i_ii(f: FuzzyFunction, ts: TimeScale, t: float,
             cfg: ProbeConfig = DEFAULT_CONFIG) -> Tag:
    """Which endpoint ordering the derivative at t realizes.

    Both orderings coincide for a crisp derivative (Both). At a left-dense
    point the one-sided endpoint limits must exist; otherwise
    EndpointDerivativeMissing is raised. Switching behavior fits neither
    single ordering and comes back as Neither.
    """
    return _tag_of(nabla_gh(f, ts, t, cfg))


def _tags_compatible(a: Tag, b: Tag) -> bool:
    if Tag.NEITHER in (a, b):
        return False
    return a == b or Tag.BOTH in (a, b)


def _graded(rule: str, checks: list[HypothesisCheck], nabla_h, extras: dict,
            failed_rhs: FuzzyNumber | None, measure) -> RuleReport:
    """The report for the derivative of h, nabla_h() (derivative_report's
    result), against the rule's other side.

    measure(nabla h) gives (lhs, rhs, residual). A failed hypothesis is
    HypothesisFailed whatever the numbers say; otherwise the residual must
    be within extras["tol"]. When nabla h does not exist the residual is
    infinite, the right-hand side is failed_rhs and the reason goes into
    extras["failure"].
    """
    dh = nabla_h()
    if dh.value is None:
        extras["failure"] = dh.evidence["message"]
        lhs, rhs, residual = None, failed_rhs, float("inf")
    else:
        lhs, rhs, residual = measure(dh.value)
    if not all(c.passed for c in checks):
        verdict = Verdict.HYPOTHESIS_FAILED
    elif lhs is not None and residual <= extras["tol"]:
        verdict = Verdict.VERIFIED
    else:
        verdict = Verdict.RESIDUAL_EXCEEDED
    return RuleReport(rule, checks, lhs, rhs, residual, verdict, extras)


def sum_rule(f: FuzzyFunction, g: FuzzyFunction, ts: TimeScale, t: float,
             cfg: ProbeConfig = DEFAULT_CONFIG,
             tol: float | None = None) -> RuleReport:
    """Check that the derivative of f + g is the sum of the derivatives.

    Hypothesis: both summands realize the same endpoint ordering (a crisp
    derivative is compatible with either).
    """
    (rep,) = _graded_many("sum", f, g, ts, [t], cfg, tol)
    return rep


def _sum_graded(pc: PointClass, cfg: ProbeConfig, analysis,
                tol: float | None, _enforce: bool) -> RuleReport:
    """sum_rule at the point of pc, where analysis(0), analysis(1) and
    analysis(2) are the analyses of f, g and f + g there (_graded_many)."""
    rf = _derived(analysis(0), cfg)
    rg = _derived(analysis(1), cfg)
    tf = _tag_of(rf)
    tg = _tag_of(rg)
    compatible = _tags_compatible(tf, tg)
    tf, tg = tf.value, tg.value
    checks = [HypothesisCheck("matching-orderings", compatible, f"f is {tf}, g is {tg}")]
    rhs = add(rf.value, rg.value)

    if tol is None:
        tol = _point_tol(pc)
    extras = {"tag_f": tf, "tag_g": tg, "tol": tol}
    return _graded("sum", checks,
                   lambda: _derived(analysis(2), cfg, report=True), extras, rhs,
                   lambda lhs: (lhs, rhs, hausdorff(lhs, rhs)))


def _sign_checked(cfg: ProbeConfig, analysis, sign_i: float, enforce: bool):
    """nabla fs, fs(t) and fs(rho) from fs's analysis (analysis(0)), sigma =
    fs(t) * nabla fs, then g's derivative and tag and g's levels at t and
    rho from g's analysis (analysis(1)), and the product rules' hypothesis
    that sigma has the sign of sign_i with g realizing ordering I, or the
    other sign with ordering II. fs is a crisp function to the engine, so
    nabla fs is its jump row or the limit of its probes (_derived), and
    raises as g's derivative does; fs(t) and fs(rho) are its levels."""
    _report, _probes, _failure, fs_t, fs_rho, _jump = analysis_fs = analysis(0)
    dfs = float(_derived(analysis_fs, cfg).value.lower[0])
    fs_t, fs_rho = float(fs_t[0][0]), float(fs_rho[0][0])
    sigma = fs_t * dfs
    analysis_g = analysis(1)
    rg = _derived(analysis_g, cfg)
    tg = _tag_of(rg)
    signed = sign_i * sigma
    sign_ok = (
        (signed > 0 and tg in (Tag.I, Tag.BOTH))
        or (signed < 0 and tg in (Tag.II, Tag.BOTH))
    )
    checks = [HypothesisCheck(
        "sign-matches-ordering", sign_ok,
        f"fs(t)*nabla_fs(t) = {sigma:.6g}, g is {tg.value}")]
    if enforce and not sign_ok:
        raise SignHypothesisFailed(
            f"fs(t)*nabla_fs(t) = {sigma:.6g} does not match ordering {tg.value}")
    return dfs, fs_t, fs_rho, sigma, rg, tg, checks, analysis_g[3], analysis_g[4]


def _levels(u: FuzzyNumber) -> np.ndarray:
    """u's lower and upper levels as the rows of one (2, K+1) array, on which
    + and _scaled are add and scalar_mul, bit for bit."""
    return np.array((u.lower, u.upper))


def _scaled(k: float, u: np.ndarray) -> np.ndarray:
    """scalar_mul(k, u) on u's levels (_levels)."""
    k = float(k)
    return k * u if k >= 0 else k * u[::-1]


def _distance(u: np.ndarray, v: np.ndarray) -> float:
    """hausdorff(u, v) on their levels (_levels), with one reduction: the
    lower endpoints' distance unless the upper endpoints' is larger."""
    lo, hi = np.maximum.reduce(np.abs(u - v), axis=1).tolist()
    return max(lo, hi)


def product_fuzzy(fs: Callable[[float], float], g: FuzzyFunction,
                  ts: TimeScale, t: float,
                  cfg: ProbeConfig = DEFAULT_CONFIG,
                  tol: float | None = None,
                  enforce: bool = False) -> RuleReport:
    """Check the product rule for a real factor against a fuzzy one.

    Hypothesis: fs(t) * (nabla fs)(t) > 0 with g realizing ordering I, or
    < 0 with ordering II. Both arrangements of the right-hand side are
    checked; their worst deviation is the residual.
    """
    (rep,) = _graded_many("product-fuzzy", fs, g, ts, [t], cfg, tol,
                          enforce=enforce)
    return rep


def _product_fuzzy_graded(pc: PointClass, cfg: ProbeConfig, analysis,
                          tol: float | None, enforce: bool) -> RuleReport:
    """product_fuzzy at the point of pc, where analysis(0), analysis(1)
    and analysis(2) are the analyses of fs, g and fs * g there
    (_graded_many)."""
    dfs, fs_t, fs_rho, sigma, rg, tg, checks, g_t, g_rho = _sign_checked(
        cfg, analysis, 1.0, enforce)
    dg = _levels(rg.value)
    rhs1 = _scaled(dfs, np.array(g_rho)) + _scaled(fs_t, dg)
    rhs2 = _scaled(fs_rho, dg) + _scaled(dfs, np.array(g_t))
    cross = _distance(rhs1, rhs2)
    rhs = FuzzyNumber(*rhs1, validate=False)

    if tol is None:
        tol = _point_tol(pc)
    extras = {
        "sigma": sigma,
        "tag_g": tg.value,
        "nabla_fs": dfs,
        "rhs_cross_gap": cross,
        "tol": tol,
    }

    def measure(dh):
        lhs = _levels(dh)
        return dh, rhs, max(_distance(lhs, rhs1), _distance(lhs, rhs2))

    return _graded("product-fuzzy", checks,
                   lambda: _derived(analysis(2), cfg, report=True), extras, rhs,
                   measure)


def len_direction(f: FuzzyFunction, ts: TimeScale, t: float,
                  cfg: ProbeConfig = DEFAULT_CONFIG) -> str:
    """How the support width of f changes at t: Increasing, Decreasing,
    Constant or Undetermined.

    At a point with a backward jump the comparison is between rho(t) and t
    only; a forward jump is never consulted. Dense sides contribute width
    slopes from their probe streams; conflicting signs come back as
    Undetermined, not as an error. The widths come from f's one-record
    pass, so an error of f at any point that pass reads (a probe, sigma)
    is raised. A t outside the derivative domain raises NotInDomain, as
    the derivative does.
    """
    _require_function(f)
    analysis = next(_pass(f, ts, [_classify_in_domain(ts, float(t))], cfg))
    return _direction(*_analysis_slopes(analysis), cfg)


def _width(lo: np.ndarray, hi: np.ndarray) -> float:
    """The support width of the number with levels lo and hi, as level(0) has it."""
    a, b = float(lo[0]), float(hi[0])
    return max(a, b) - min(a, b)


def _analysis_slopes(analysis) -> tuple[float, list[float]]:
    """The support width of f at a record's t, and its slopes toward rho
    or the nearest probe of each left stream, then toward the nearest
    probe of each right stream of a dense side, from f's levels that the
    record's analysis (nabla._pass) holds at those points."""
    report, probes, _failure, ft, fr, _jump = analysis
    pc = report.point
    t = pc.t
    wt = _width(*ft)
    slopes: list[float] = []

    if pc.left is Side.SCATTERED:
        slopes.append((wt - _width(*fr)) / pc.nu)
    for side in ("left", "right"):
        got = probes.get(side)
        for j in got.near if got is not None else ():
            slopes.append((_width(got.lower[j], got.upper[j]) - wt) / (got.points[j] - t))
    return wt, slopes


def _direction(wt: float, slopes: list[float], cfg: ProbeConfig) -> str:
    """The width direction from the width at t (wt) and the slopes toward
    its neighbours."""
    tol = cfg.agreement_tol * max(1.0, abs(wt))
    if not slopes:
        return "Constant"
    if all(abs(s) <= tol for s in slopes):
        return "Constant"
    pos = any(s > tol for s in slopes)
    neg = any(s < -tol for s in slopes)
    if pos and neg:
        return "Undetermined"
    return "Increasing" if pos else "Decreasing"


def product_interval(fs: Callable[[float], float], g: FuzzyFunction,
                     ts: TimeScale, t: float,
                     cfg: ProbeConfig = DEFAULT_CONFIG,
                     tol: float | None = None,
                     enforce: bool = False) -> RuleReport:
    """Check the interval-flavored product rule.

    Hypothesis: fs(t) * (nabla fs)(t) < 0 with g realizing ordering I, or
    > 0 with ordering II. The equation to check is selected by how the
    width of the product changes at t:

        I,  widening:   d(fs*g) + (-1)*dfs*g(rho) = fs(t)*dg
        I,  narrowing:  d(fs*g) + (-1)*fs(t)*dg   = dfs*g(rho)
        II, widening:   d(fs*g) + (-1)*fs(rho)*dg = dfs*g(t)
        II, narrowing:  d(fs*g) + (-1)*dfs*g(t)   = fs(rho)*dg

    When the width is locally constant both selected forms are evaluated
    and the better one is reported.
    """
    (rep,) = _graded_many("product-interval", fs, g, ts, [t], cfg, tol,
                          enforce=enforce)
    return rep


def _product_interval_graded(pc: PointClass, cfg: ProbeConfig, analysis,
                             tol: float | None, enforce: bool) -> RuleReport:
    """product_interval at the point of pc, where analysis(0), analysis(1)
    and analysis(2) are the analyses of fs, g and h = fs * g there
    (_graded_many); h's levels also give the width direction."""
    dfs, fs_t, fs_rho, sigma, rg, tg, checks, g_t, g_rho = _sign_checked(
        cfg, analysis, -1.0, enforce)
    h = analysis(2)
    direction = _direction(*_analysis_slopes(h), cfg)
    if direction == "Undetermined":
        raise LengthDirectionUndetermined(
            f"width slopes of the product disagree in sign around {pc.t!r}")

    if tol is None:
        tol = _point_tol(pc)
    extras = {
        "sigma": sigma,
        "tag_g": tg.value,
        "nabla_fs": dfs,
        "len_direction": direction,
        "tol": tol,
    }
    use_tag = tg if tg in (Tag.I, Tag.II) else (Tag.I if sigma < 0 else Tag.II)

    # the equation's two products, each a factor and a number's levels:
    # widening moves the first to the left-hand side, narrowing the second
    dg = _levels(rg.value)
    terms = (((dfs, np.array(g_rho)), (fs_t, dg)) if use_tag is Tag.I
             else ((fs_rho, dg), (dfs, np.array(g_t))))
    forms = {"Increasing": ["widening"], "Decreasing": ["narrowing"]}.get(
        direction, ["widening", "narrowing"])

    def measure(dh):
        dh = _levels(dh)
        candidates = []
        for form in forms:
            (a, u), (b, v) = terms if form == "widening" else terms[::-1]
            lhs, rhs = dh + _scaled(-a, u), _scaled(b, v)
            candidates.append((_distance(lhs, rhs), form, lhs, rhs))
        residual, extras["equation"], lhs, rhs = min(candidates, key=lambda c: c[0])
        return (FuzzyNumber(*lhs, validate=False), FuzzyNumber(*rhs, validate=False),
                residual)

    return _graded("product-interval", checks,
                   lambda: _derived(h, cfg, report=True), extras, None, measure)


# ---------------------------------------------------------------------------
# the rule pass


def _sum_rows(f: FuzzyFunction, g: FuzzyFunction):
    """The evaluation step (nabla._analyses) of f, g and f + g, whose rows
    are f's and g's added, bit for bit add(f(p), g(p)), up to the first
    point where f or g has none, with that point's error (f's first)."""
    def rows(pts):
        (flo, fhi, ferr), (glo, ghi, gerr) = out = [
            _evaluate(f, pts), _evaluate(g, pts)]
        n = min(len(flo), len(glo))
        return out + [(flo[:n] + glo[:n], fhi[:n] + ghi[:n],
                       ferr if len(flo) == n else gerr)]
    return rows


def _product_rows(fs: Callable[[float], float], g: FuzzyFunction):
    """The evaluation step (nabla._analyses) of fs, g and fs * g, in that
    order. fs's rows are fs(p) in every column of g's level grid, a crisp
    function that the engine derives as it derives g, up to the first
    point where fs raises or is not finite (OrderViolation), with that
    error. fs * g's rows are g's scaled by fs(p), bit for bit
    scalar_mul(fs(p), g(p)), up to the first point where fs or g has
    none, with that point's error (fs's first)."""
    def rows(pts):
        k, err = np.empty(len(pts)), None
        for j, p in enumerate(pts):
            try:
                k[j] = float(fs(p))
                if not math.isfinite(k[j]):
                    raise OrderViolation(_NOT_FINITE)
            except Exception as e:
                k, err = k[:j], e
                break
        levels = k[:, None].repeat(g.K + 1, axis=1)
        glo, ghi, gerr = got = _evaluate(g, pts)
        n = min(len(k), len(glo))
        lo, hi = k[:n, None] * glo[:n], k[:n, None] * ghi[:n]
        swap = k[:n] < 0  # a negative factor swaps the endpoints
        if swap.any():
            lo[swap], hi[swap] = hi[swap], lo[swap]
        return [(levels, levels, err), got, (lo, hi, err if len(k) == n else gerr)]
    return rows


def _graded_many(rule: str, a, g: FuzzyFunction, ts: TimeScale, points,
                 cfg: ProbeConfig = DEFAULT_CONFIG, tol: float | None = None,
                 enforce: bool = False):
    """The rule's report at every point, in order, each point's error
    raised at its turn: sum_rule(a, g, ...) for rule "sum", product_fuzzy
    or product_interval(a, g, ...) with a as the real factor for
    "product-fuzzy" and "product-interval".

    Each point is graded from one joint pass (nabla._joint_pass) of f, g
    and h = f + g (_sum_rows), or of fs, g and h = fs * g (_product_rows),
    where the real factor fs is a crisp function on g's level grid. The
    grading reads a point's analyses in order, f (or fs), g, then h, so
    each function's error (h's an overflow) is raised at its turn; a
    product takes nabla fs, fs(t) and fs(rho) from fs's analysis and
    calls fs nowhere else.
    """
    if rule == "sum":
        _require_function(a, g)
        if a.K != g.K:
            raise GridMismatch(f"level grids differ: K={a.K} vs K={g.K}")
        rows = _sum_rows(a, g)
    else:
        _require_function(g)
        rows = _product_rows(a, g)
    if tol is not None and not (tol >= 0 and math.isfinite(tol)):
        raise ValidationError(f"tol must be finite and not negative, got {tol!r}")
    graded = _GRADERS[rule]
    records, err = _records(ts, points)
    passes = _joint_pass(rows, 3, ts, records, cfg)
    for pc in records:
        # an overflowing sum or product gives non-finite levels, quietly: the
        # pass rejects them by name, and a non-finite residual fails its check
        with np.errstate(over="ignore", invalid="ignore"):
            analyses, error = next(passes)

            def analysis(i: int):
                """The point's analysis of function i, or its error there."""
                if i < len(analyses):
                    return analyses[i]
                raise error

            rep = graded(pc, cfg, analysis, tol, enforce)
        yield rep
    if err is not None:
        raise err


_GRADERS = {"sum": _sum_graded, "product-fuzzy": _product_fuzzy_graded,
            "product-interval": _product_interval_graded}
