"""Calculus rule checkers: each one measures the identity it claims.

A RuleReport never lies about why it failed: hypothesis violations are
reported as HypothesisFailed even when the numbers happen to agree, and a
numeric mismatch under satisfied hypotheses is ResidualExceeded. The
reporting path never raises for a failed hypothesis; pass enforce=True to
get an exception instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    EndpointDerivativeMissing,
    FuzzyNablaError,
    LengthDirectionUndetermined,
    SignHypothesisFailed,
)
from .fuzzy import FuzzyNumber, add, hausdorff, scalar_mul
from .nabla import (
    DEFAULT_CONFIG,
    DiffCase,
    FuzzyFunction,
    ProbeConfig,
    _analyze,
    _classify_in_domain,
    _derive,
    _jump_columns,
    _jump_results,
    _reported,
    _scalar_at,
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
    """The residual tolerance the checkers use at t unless given one."""
    return _point_tol(ts.classify(t))


def _tag_of(result) -> Tag:
    rep = result.endpoint_report
    if rep.point.left is Side.DENSE:
        for label, side in (("left", rep.minus), ("right", rep.plus)):
            if side.kind == "limit" and not side.settled:
                raise EndpointDerivativeMissing(
                    f"one-sided endpoint derivatives on the {label} of "
                    f"{result.t!r} do not settle to single limits")
    if result.case is DiffCase.CRISP:
        return Tag.BOTH
    if result.case is DiffCase.CASE_I:
        return Tag.I
    if result.case is DiffCase.CASE_II:
        return Tag.II
    return Tag.NEITHER


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


def _at(ts: TimeScale, pc: PointClass, cfg: ProbeConfig):
    """nabla(fn) for the per-point rules: the derivative of fn at the point
    of pc from one analysis, raising where nabla_gh raises."""
    return lambda fn: _derive(fn, *_analyze(fn, ts, pc, cfg), cfg)


def _graded(rule: str, checks: list[HypothesisCheck], nabla, h, extras: dict,
            failed_rhs: FuzzyNumber | None, measure) -> RuleReport:
    """The report for the derivative of h against the rule's other side.

    measure(nabla h) gives (lhs, rhs, residual). A failed hypothesis is
    HypothesisFailed whatever the numbers say; otherwise the residual must
    be within extras["tol"]. When nabla h does not exist the residual is
    infinite, the right-hand side is failed_rhs and the reason goes into
    extras["failure"].
    """
    dh = _reported(nabla, h)
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


def _scaled(k: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """scalar_mul row by row, k[i] times the row (lo[i], hi[i]): a negative
    factor swaps the endpoints."""
    k = k[:, None]
    return np.where(k >= 0, k * lo, k * hi), np.where(k >= 0, k * hi, k * lo)


def _sum_of(f: FuzzyFunction, g: FuzzyFunction) -> FuzzyFunction:
    """f + g, with a vector form when f and g have one: their stacks added
    level by level."""
    vector = None
    if f._vector is not None and g._vector is not None:
        def vector(t):
            (flo, fhi), (glo, ghi) = f.stack(t), g.stack(t)
            return flo + glo, fhi + ghi
    return FuzzyFunction(lambda s: add(f(s), g(s)), K=f.K, vector=vector)


class _Factor:
    """A real factor fs together with vector, its values at an array of
    points, bit for bit fs's (as dsl.compile_scalar gives them)."""

    def __init__(self, fs: Callable[[float], float],
                 vector: Callable[[np.ndarray], np.ndarray]):
        self.fs = fs
        self.vector = vector

    def __call__(self, t: float) -> float:
        return self.fs(t)


def _product_of(fs: Callable[[float], float], g: FuzzyFunction) -> FuzzyFunction:
    """fs * g, with a vector form when fs is a _Factor and g has one: g's
    stack scaled row by row."""
    vector = None
    if isinstance(fs, _Factor) and g._vector is not None:
        def vector(t):
            return _scaled(fs.vector(t), *g.stack(t))
    return FuzzyFunction(lambda s: scalar_mul(fs(s), g(s)), K=g.K, vector=vector)


def sum_rule(f: FuzzyFunction, g: FuzzyFunction, ts: TimeScale, t: float,
             cfg: ProbeConfig = DEFAULT_CONFIG,
             tol: float | None = None) -> RuleReport:
    """Check that the derivative of f + g is the sum of the derivatives.

    Hypothesis: both summands realize the same endpoint ordering (a crisp
    derivative is compatible with either).
    """
    pc = _classify_in_domain(ts, float(t))
    return _sum_graded(f, g, _sum_of(f, g), pc, _at(ts, pc, cfg), tol)


def _sum_graded(f, g, h, pc: PointClass, nabla, tol: float | None) -> RuleReport:
    """sum_rule at the point of pc, where h is f + g and nabla(fn) is the
    derivative of fn there."""
    rf = nabla(f)
    rg = nabla(g)
    tf = _tag_of(rf)
    tg = _tag_of(rg)
    compatible = _tags_compatible(tf, tg)
    checks = [HypothesisCheck(
        "matching-orderings", compatible,
        f"f is {tf.value}, g is {tg.value}")]
    rhs = add(rf.value, rg.value)

    if tol is None:
        tol = _point_tol(pc)
    extras = {"tag_f": tf.value, "tag_g": tg.value, "tol": tol}
    return _graded("sum", checks, nabla, h, extras, rhs,
                   lambda lhs: (lhs, rhs, hausdorff(lhs, rhs)))


def _sign_checked(fs, g, ts: TimeScale, pc: PointClass, cfg: ProbeConfig,
                  nabla, sign_i: float, enforce: bool):
    """nabla fs, sigma = fs(t) * nabla fs, g's derivative and tag, and the
    product rules' hypothesis that sigma has the sign of sign_i with g
    realizing ordering I, or the other sign with ordering II."""
    dfs = _scalar_at(fs, ts, pc, cfg)
    sigma = fs(pc.t) * dfs
    rg = nabla(g)
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
    return dfs, sigma, rg, tg, checks


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
    pc = _classify_in_domain(ts, float(t))
    return _product_fuzzy_graded(fs, g, _product_of(fs, g), ts, pc, cfg,
                                 _at(ts, pc, cfg), tol, enforce)


def _product_fuzzy_graded(fs, g, h, ts: TimeScale, pc: PointClass,
                          cfg: ProbeConfig, nabla, tol: float | None,
                          enforce: bool) -> RuleReport:
    """product_fuzzy at the point of pc, where h is fs * g and nabla(fn) is
    the derivative of fn there."""
    dfs, sigma, rg, tg, checks = _sign_checked(fs, g, ts, pc, cfg, nabla, 1.0,
                                               enforce)
    t, rho = pc.t, pc.rho
    rhs1 = add(scalar_mul(dfs, g(rho)), scalar_mul(fs(t), rg.value))
    rhs2 = add(scalar_mul(fs(rho), rg.value), scalar_mul(dfs, g(t)))
    cross = hausdorff(rhs1, rhs2)

    if tol is None:
        tol = _point_tol(pc)
    extras = {
        "sigma": sigma,
        "tag_g": tg.value,
        "nabla_fs": dfs,
        "rhs_cross_gap": cross,
        "tol": tol,
    }
    return _graded("product-fuzzy", checks, nabla, h, extras, rhs1,
                   lambda lhs: (lhs, rhs1, max(hausdorff(lhs, rhs1),
                                               hausdorff(lhs, rhs2))))


def len_direction(f: FuzzyFunction, ts: TimeScale, t: float,
                  cfg: ProbeConfig = DEFAULT_CONFIG) -> str:
    """How the support width of f changes at t: Increasing, Decreasing,
    Constant or Undetermined.

    At a point with a backward jump the comparison is between rho(t) and t
    only; a forward jump is never consulted. Dense sides contribute width
    slopes from their probe streams; conflicting signs come back as
    Undetermined. Never raises.
    """
    return _len_direction(f, ts, ts.classify(t), cfg)


def _len_direction(f: FuzzyFunction, ts: TimeScale, pc: PointClass,
                   cfg: ProbeConfig) -> str:
    """len_direction at the point of the record pc."""
    t = pc.t
    wt = f(t).len_alpha(0.0)
    tol = cfg.agreement_tol * max(1.0, abs(wt))
    slopes: list[float] = []

    if pc.left is Side.SCATTERED:
        slopes.append((wt - f(pc.rho).len_alpha(0.0)) / pc.nu)
    else:
        for s in ts.approach_streams(t, "left", cfg.probe_count):
            p = s.points[-1]
            slopes.append((f(p).len_alpha(0.0) - wt) / (p - t))
    if pc.right is Side.DENSE:
        for s in ts.approach_streams(t, "right", cfg.probe_count):
            p = s.points[-1]
            slopes.append((f(p).len_alpha(0.0) - wt) / (p - t))

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
    pc = _classify_in_domain(ts, float(t))
    return _product_interval_graded(fs, g, _product_of(fs, g), ts, pc, cfg,
                                    _at(ts, pc, cfg), tol, enforce)


def _product_interval_graded(fs, g, h, ts: TimeScale, pc: PointClass,
                             cfg: ProbeConfig, nabla, tol: float | None,
                             enforce: bool) -> RuleReport:
    """product_interval at the point of pc, where h is fs * g and nabla(fn)
    is the derivative of fn there."""
    dfs, sigma, rg, tg, checks = _sign_checked(fs, g, ts, pc, cfg, nabla, -1.0,
                                               enforce)
    t, rho = pc.t, pc.rho
    direction = _len_direction(h, ts, pc, cfg)
    if direction == "Undetermined":
        raise LengthDirectionUndetermined(
            f"width slopes of the product disagree in sign around {t!r}")

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

    def measure(dh):
        def widening_eq():
            if use_tag is Tag.I:
                return (add(dh, scalar_mul(-dfs, g(rho))),
                        scalar_mul(fs(t), rg.value), "widening")
            return (add(dh, scalar_mul(-fs(rho), rg.value)),
                    scalar_mul(dfs, g(t)), "widening")

        def narrowing_eq():
            if use_tag is Tag.I:
                return (add(dh, scalar_mul(-fs(t), rg.value)),
                        scalar_mul(dfs, g(rho)), "narrowing")
            return (add(dh, scalar_mul(-dfs, g(t))),
                    scalar_mul(fs(rho), rg.value), "narrowing")

        if direction == "Increasing":
            candidates = [widening_eq()]
        elif direction == "Decreasing":
            candidates = [narrowing_eq()]
        else:
            candidates = [widening_eq(), narrowing_eq()]

        lhs, rhs, form = min(candidates, key=lambda c: hausdorff(c[0], c[1]))
        extras["equation"] = form
        return lhs, rhs, hausdorff(lhs, rhs)

    return _graded("product-interval", checks, nabla, h, extras, None, measure)


# ---------------------------------------------------------------------------
# the batched pass


def _levels_at(at: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The function whose value at each entry of at is that row of the
    level stacks (lo, hi)."""
    row = {s: i for i, s in enumerate(at.tolist())}
    return lambda s: FuzzyNumber(lo[row[s]], hi[row[s]], validate=False)


def _batched(rule: str, a, g: FuzzyFunction, ts: TimeScale, points: list[float],
             cfg: ProbeConfig, tol: float | None,
             vector: Callable[[np.ndarray], np.ndarray] | None
             ) -> list[RuleReport | None]:
    """The rule's report at every point that nabla_many's stacked pass
    takes, graded from one evaluation of each function's vector form over
    these points, their rho and their sigma (vector is the real factor's).
    None at every other point, at a point where f or g has no derivative or
    the grading raises, and at every point when a vector form is missing,
    raises or gives a non-finite jump."""
    out: list = [None] * len(points)
    first = a._vector if rule == "sum" else vector
    if first is None or g._vector is None:
        return out
    rows, at, index = _jump_columns(ts, points)
    if not rows:
        return out
    try:
        glo, ghi = g.stack(at)
        if rule == "sum":
            flo, fhi = a.stack(at)
            hlo, hhi = flo + glo, fhi + ghi  # add, level by level
        else:
            k = vector(at)
            hlo, hhi = _scaled(k, glo, ghi)
    except (FuzzyNablaError, ArithmeticError):
        return out

    G, H = _levels_at(at, glo, ghi), _levels_at(at, hlo, hhi)
    if rule == "sum":
        F = _levels_at(at, flo, fhi)
        parts = [(F, flo, fhi), (G, glo, ghi)]

        def grade(pc, nabla):
            return _sum_graded(F, G, H, pc, nabla, tol)
    else:
        fs = dict(zip(at.tolist(), k.tolist())).__getitem__
        graded = (_product_fuzzy_graded if rule == "product-fuzzy"
                  else _product_interval_graded)
        parts = [(G, glo, ghi)]

        def grade(pc, nabla):
            return graded(fs, G, H, ts, pc, cfg, nabla, tol, False)
    parts.append((H, hlo, hhi))
    derived = [_jump_results(fn, lo, hi, rows, index, cfg) for fn, lo, hi in parts]
    if any(d is None for d in derived):
        return out

    fns = [fn for fn, _, _ in parts]
    for (slot, pc), *results in zip(rows, *derived):
        if any(r.value is None for r in results[:-1]):
            continue  # f or g has no derivative: the per-point rule raises
        try:
            out[slot] = grade(pc, dict(zip(fns, results)).__getitem__)
        except (EndpointDerivativeMissing, LengthDirectionUndetermined):
            continue  # the per-point rule raises it at its turn
    return out


def _graded_many(rule: str, a, g: FuzzyFunction, ts: TimeScale, points,
                 cfg: ProbeConfig = DEFAULT_CONFIG, tol: float | None = None,
                 vector: Callable[[np.ndarray], np.ndarray] | None = None
                 ) -> list[RuleReport]:
    """The per-point rule at every point, in order: sum_rule(a, g, ...)
    for rule "sum", product_fuzzy or product_interval(a, g, ...) with a as
    the real factor for "product-fuzzy" and "product-interval".

    The points nabla_many's stacked pass takes are graded from the vector
    forms of f and g (for a real factor, vector: its values at an array of
    points, bit for bit a's, as dsl.compile_scalar gives them); every other
    point is the per-point rule, in order, so its results and errors are the
    loop's. There, a product fs * g takes a vector form from vector and g's,
    so its probed sides are stacked too.
    """
    points = [float(t) for t in points]
    per_point = {"sum": sum_rule, "product-fuzzy": product_fuzzy,
                 "product-interval": product_interval}[rule]
    batch = _batched(rule, a, g, ts, points, cfg, tol, vector)
    if rule != "sum" and vector is not None:
        a = _Factor(a, vector)
    return [rep if rep is not None else per_point(a, g, ts, t, cfg, tol=tol)
            for t, rep in zip(points, batch)]
