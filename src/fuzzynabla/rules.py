"""Calculus rule checkers: each one measures the identity it claims.

A RuleReport never lies about why it failed: hypothesis violations are
reported as HypothesisFailed even when the numbers happen to agree, and a
numeric mismatch under satisfied hypotheses is ResidualExceeded. The
reporting path never raises for a failed hypothesis; pass enforce=True to
get an exception instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    EndpointDerivativeMissing,
    LengthDirectionUndetermined,
    SignHypothesisFailed,
)
from .fuzzy import FuzzyNumber, add, hausdorff, scalar_mul
from .nabla import (
    DEFAULT_CONFIG,
    DiffCase,
    FuzzyFunction,
    ProbeConfig,
    _derivatives,
    _records,
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


def _product_of(fs: Callable[[float], float], g: FuzzyFunction,
                vector: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> FuzzyFunction:
    """fs * g, with a vector form when vector (fs at an array of points,
    bit for bit fs's, as dsl.compile_scalar gives them) is given and g has
    one: g's stack scaled row by row."""
    stacked = None
    if vector is not None and g._vector is not None:
        def stacked(t):
            return _scaled(vector(t), *g.stack(t))
    return FuzzyFunction(lambda s: scalar_mul(fs(s), g(s)), K=g.K, vector=stacked)


def sum_rule(f: FuzzyFunction, g: FuzzyFunction, ts: TimeScale, t: float,
             cfg: ProbeConfig = DEFAULT_CONFIG,
             tol: float | None = None) -> RuleReport:
    """Check that the derivative of f + g is the sum of the derivatives.

    Hypothesis: both summands realize the same endpoint ordering (a crisp
    derivative is compatible with either).
    """
    (rep,) = _graded_many("sum", f, g, ts, [t], cfg, tol)
    return rep


def _sum_graded(pc: PointClass, nabla_f, nabla_g, nabla_h,
                tol: float | None) -> RuleReport:
    """sum_rule at the point of pc, where nabla_f() and nabla_g() are the
    derivatives of f and g there and nabla_h() that of f + g (see
    _graded)."""
    rf = nabla_f()
    rg = nabla_g()
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
    return _graded("sum", checks, nabla_h, extras, rhs,
                   lambda lhs: (lhs, rhs, hausdorff(lhs, rhs)))


def _sign_checked(fs, ts: TimeScale, pc: PointClass, cfg: ProbeConfig,
                  nabla_g, sign_i: float, enforce: bool):
    """nabla fs, sigma = fs(t) * nabla fs, g's derivative (nabla_g()) and
    tag, and the product rules' hypothesis that sigma has the sign of
    sign_i with g realizing ordering I, or the other sign with ordering
    II."""
    dfs = _scalar_at(fs, ts, pc, cfg)
    sigma = fs(pc.t) * dfs
    rg = nabla_g()
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
    (rep,) = _graded_many("product-fuzzy", fs, g, ts, [t], cfg, tol,
                          enforce=enforce)
    return rep


def _product_fuzzy_graded(fs, g, h, ts: TimeScale, pc: PointClass,
                          cfg: ProbeConfig, nabla_g, nabla_h,
                          tol: float | None, enforce: bool) -> RuleReport:
    """product_fuzzy at the point of pc, where h is fs * g, nabla_g() is
    g's derivative there and nabla_h() h's (see _graded)."""
    dfs, sigma, rg, tg, checks = _sign_checked(fs, ts, pc, cfg, nabla_g, 1.0,
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
    return _graded("product-fuzzy", checks, nabla_h, extras, rhs1,
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
    (rep,) = _graded_many("product-interval", fs, g, ts, [t], cfg, tol,
                          enforce=enforce)
    return rep


def _product_interval_graded(fs, g, h, ts: TimeScale, pc: PointClass,
                             cfg: ProbeConfig, nabla_g, nabla_h,
                             tol: float | None, enforce: bool) -> RuleReport:
    """product_interval at the point of pc, where h is fs * g, nabla_g() is
    g's derivative there and nabla_h() h's (see _graded)."""
    dfs, sigma, rg, tg, checks = _sign_checked(fs, ts, pc, cfg, nabla_g, -1.0,
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

    return _graded("product-interval", checks, nabla_h, extras, None, measure)


# ---------------------------------------------------------------------------
# the rule pass


def _graded_many(rule: str, a, g: FuzzyFunction, ts: TimeScale, points,
                 cfg: ProbeConfig = DEFAULT_CONFIG, tol: float | None = None,
                 vector: Callable[[np.ndarray], np.ndarray] | None = None,
                 enforce: bool = False):
    """The rule's report at every point, in order, each point's error
    raised at its turn: sum_rule(a, g, ...) for rule "sum", product_fuzzy
    or product_interval(a, g, ...) with a as the real factor for
    "product-fuzzy" and "product-interval".

    A point is graded from the derivatives of f and g (g alone for a
    product) and of h (f + g, or fs * g), each read one point at a time
    from its own pass (nabla._derivatives) when the grading asks for it.
    A product's h has a vector form when vector (the real factor at an
    array of points, bit for bit a's, as dsl.compile_scalar gives them)
    and g's are given. A product reads fs and g at t and rho again, so the
    real factor's values are memoized for the call and g's pass keeps its
    levels there in g's memo cache.
    """
    records, err = _records(ts, points)

    def nabla(fn: FuzzyFunction, report: bool = False, keep: bool = False):
        return _derivatives(fn, ts, records, cfg, report, keep).__next__

    if rule == "sum":
        nabla_f, nabla_g = nabla(a), nabla(g)
        nabla_h = nabla(_sum_of(a, g), report=True)
        for pc in records:
            yield _sum_graded(pc, nabla_f, nabla_g, nabla_h, tol)
    else:
        fs = functools.lru_cache(maxsize=None)(a)
        h = _product_of(fs, g, vector)
        graded = (_product_fuzzy_graded if rule == "product-fuzzy"
                  else _product_interval_graded)
        nabla_g, nabla_h = nabla(g, keep=True), nabla(h, report=True)
        for pc in records:
            yield graded(fs, g, h, ts, pc, cfg, nabla_g, nabla_h, tol, enforce)
    if err is not None:
        raise err
