"""Rule checkers: ordering tags, the sum rule and both product rules.
Hand-worked instances pin every equation branch."""

import argparse
import hashlib
import json
import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzynabla import dsl, nabla
from fuzzynabla.cli import _scalar_fn
from fuzzynabla.dsl import (
    bind_function,
    compile_function,
    eval_function,
    parse_function,
    parse_timescale,
)
from fuzzynabla.errors import (
    EndpointDerivativeMissing,
    FuzzyNablaError,
    LengthDirectionUndetermined,
    NotInDomain,
    OrderViolation,
    SignHypothesisFailed,
    ValidationError,
)
from fuzzynabla.fuzzy import FuzzyNumber, crisp, hausdorff, scalar_mul, triangular
from fuzzynabla.nabla import FuzzyFunction, ProbeConfig, derivative_report, nabla_gh
from fuzzynabla.rules import (
    RuleReport,
    _analysis_slopes,
    _direction,
    _graded_many,
    _product_rows,
    Tag,
    Verdict,
    default_residual_tol,
    len_direction,
    product_fuzzy,
    product_interval,
    sum_rule,
    tag_i_ii,
)
from fuzzynabla.timescale import (
    ArithmeticGrid,
    ClosedInterval,
    ExplicitPoints,
    ReciprocalGrid,
    Side,
    TimeScale,
)

SQRT2 = math.sqrt(2.0)
K = 40

ZZ = TimeScale([ArithmeticGrid(0.0, 20.0, 1.0)])
ZZ16 = TimeScale([ArithmeticGrid(1.0, 6.0, 1.0)])
HALF = TimeScale([ArithmeticGrid(0.0, 4.0, 0.5)])
UNIT = TimeScale([ClosedInterval(0.0, 1.0)])
SYM = TimeScale([ClosedInterval(-1.0, 1.0)])

U123 = triangular(1.0, 2.0, 3.0, K)


def grow(u):
    """t*u for t >= 0: support widens with t, ordering I."""
    return FuzzyFunction(lambda t: u * t, K=K)


def shrink(u, c=5.0):
    """(c-t)*u for t <= c: support narrows with t, ordering II."""
    return FuzzyFunction(lambda t: u * (c - t), K=K)


class TestTags:
    def test_widening_is_case_i(self):
        assert tag_i_ii(grow(U123), ZZ, 4.0) is Tag.I

    def test_narrowing_is_case_ii(self):
        assert tag_i_ii(shrink(U123), ZZ, 3.0) is Tag.II

    def test_crisp_matches_both(self):
        f = FuzzyFunction(lambda t: crisp(t * t, K), K=K)
        assert tag_i_ii(f, ZZ, 4.0) is Tag.BOTH

    def test_switching_matches_neither(self):
        u = triangular(-1.0, 0.0, 1.0, K)
        f = FuzzyFunction(lambda t: u * t if t >= 0 else (-u) * (-t), K=K)
        assert tag_i_ii(f, SYM, 0.0) is Tag.NEITHER

    def test_unsettled_endpoint_limits_raise(self):
        ts = TimeScale([
            ReciprocalGrid(1.0, 400),
            ReciprocalGrid(SQRT2, 400),
            ExplicitPoints((0.0,)),
        ])

        def on_first(t):
            if t == 0.0:
                return True
            n = round(1.0 / t)
            return n > 0 and abs(t - 1.0 / n) < 1e-12

        def fn(t):
            if on_first(t):
                a, c = -2.0, t * t + t
            else:
                a, c = t - 2.0, t * t
            return triangular(a, (t * t + t - 2.0) / 2.0, c, K)

        cfg = ProbeConfig(agreement_tol=2e-2)
        with pytest.raises(EndpointDerivativeMissing):
            tag_i_ii(FuzzyFunction(fn, K=K), ts, 0.0, cfg)


class TestSumRule:
    def test_same_tag_verified_exact(self):
        f = grow(U123)
        g = FuzzyFunction(lambda t: U123 * (t * t), K=K)
        rep = sum_rule(f, g, ZZ, 4.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert rep.lhs is not None and rep.rhs is not None
        assert hausdorff(rep.lhs, rep.rhs) == rep.residual

    def test_crisp_summand_is_wildcard(self):
        f = shrink(U123)
        g = FuzzyFunction(lambda t: crisp(3.0 * t, K), K=K)
        rep = sum_rule(f, g, ZZ, 2.0)
        assert rep.verdict is Verdict.VERIFIED

    def test_mixed_tags_fail_hypothesis(self):
        rep = sum_rule(grow(U123), shrink(U123), ZZ, 3.0)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED
        assert not rep.hypothesis_checks[0].passed
        # t*u + (5-t)*u = 5*u is constant, so the true derivative is 0
        # while the tag-blind sum of derivatives is u + (-u)
        assert rep.residual == pytest.approx(2.0, abs=1e-12)

    def test_dense_sum_verified(self):
        f = FuzzyFunction(lambda t: U123 * (1.0 + t), K=K)
        g = FuzzyFunction(lambda t: U123 * (t * t), K=K)
        rep = sum_rule(f, g, UNIT, 0.5)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-5

    def test_report_serializes(self):
        rep = sum_rule(grow(U123), grow(U123), ZZ, 5.0)
        out = json.dumps(rep.to_dict())
        assert "Verified" in out


class TestProductFuzzy:
    def test_half_grid_instance(self):
        # fs = t^2 + 1 on the half-integer grid, g linear triangular.
        # At t = 2: nabla fs = 3.5, fs * nabla fs = 17.5 > 0 and g has
        # constant width so its derivative is crisp (ordering Both).
        fs = lambda t: t * t + 1.0
        g = FuzzyFunction(lambda t: triangular(t, t + 1.0, t + 3.0, K), K=K)
        rep = product_fuzzy(fs, g, HALF, 2.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert rep.extras["sigma"] == pytest.approx(17.5)
        assert rep.extras["nabla_fs"] == pytest.approx(3.5)
        # both arrangements of the right side coincide here
        assert rep.extras["rhs_cross_gap"] <= 1e-12
        # nabla(fs*g) at 2 is [10.25 + 3.5a, 20.75 - 7a]
        assert astuple(rep.lhs.level(0.0)) == pytest.approx((10.25, 20.75))
        assert astuple(rep.lhs.level(1.0)) == pytest.approx((13.75, 13.75))

    def test_sign_mismatch_reported(self):
        fs = lambda t: t * t + 1.0  # fs * nabla fs > 0
        rep = product_fuzzy(fs, shrink(U123), ZZ, 3.0)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED
        assert not rep.hypothesis_checks[0].passed

    def test_sign_mismatch_enforced(self):
        fs = lambda t: t * t + 1.0
        with pytest.raises(SignHypothesisFailed):
            product_fuzzy(fs, shrink(U123), ZZ, 3.0, enforce=True)

    def test_negative_sigma_with_case_ii(self):
        # fs = 6 - t has fs * nabla fs < 0 on [1, 6]; g narrowing.
        fs = lambda t: 6.0 - t
        rep = product_fuzzy(fs, shrink(U123, 8.0), ZZ16, 3.0)
        assert rep.hypothesis_checks[0].passed
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-9

    def test_linear_scalar_constant_fuzzy(self):
        # fs = t against a constant g: the derivative of t*g is g itself
        # and the right side reduces to 1*g(rho) + t*0.
        g = FuzzyFunction(lambda t: U123, K=K)
        rep = product_fuzzy(lambda t: t, g, ZZ, 4.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert hausdorff(rep.lhs, U123) <= 1e-12

    def test_constant_scalar_never_verified(self):
        # fs identically 1 has fs * nabla fs = 0, so the sign hypothesis
        # fails even though the identity holds numerically.
        rep = product_fuzzy(lambda t: 1.0, grow(U123), ZZ, 4.0)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED
        assert rep.residual <= 1e-12


class TestLenDirection:
    def fg(self):
        fs = lambda t: 6.0 - t
        return FuzzyFunction(
            lambda t: FuzzyNumber.interval(t, 2.0 * t) * fs(t), K=0)

    def test_backward_step_widening(self):
        assert len_direction(self.fg(), ZZ16, 3.0) == "Increasing"

    def test_backward_step_narrowing(self):
        assert len_direction(self.fg(), ZZ16, 5.0) == "Decreasing"

    def test_constant_width(self):
        f = FuzzyFunction(lambda t: triangular(t, t + 1.0, t + 2.0, K), K=K)
        assert len_direction(f, ZZ, 4.0) == "Constant"

    def test_dense_widening(self):
        f = FuzzyFunction(lambda t: U123 * (1.0 + t), K=K)
        assert len_direction(f, UNIT, 0.5) == "Increasing"

    def test_narrowing_upper_only(self):
        f = FuzzyFunction(lambda t: FuzzyNumber.interval(0.0, 5.0 - t), K=0)
        ts = TimeScale([ArithmeticGrid(1.0, 4.0, 1.0)])
        assert len_direction(f, ts, 3.0) == "Decreasing"

    def test_sign_conflict_undetermined(self):
        def kinked(t):
            w = 1.0 + abs(t)
            return triangular(-w / 2.0, 0.0, w / 2.0, K)

        f = FuzzyFunction(kinked, K=K)
        assert len_direction(f, SYM, 0.0) == "Undetermined"

    def test_far_probe_failure_raises(self):
        # the widths come from f's one-record pass, which reads f at every
        # probe: f failing only at the farthest left probe of 0.5 raises
        # there, as the derivative and product_interval do
        cfg = ProbeConfig()
        (left,) = UNIT.approach_streams(0.5, "left", cfg.probe_count)
        far = left.points[0]
        assert far < min(left.points[1:])

        def failing(t):
            if t == far:
                raise OrderViolation(f"no value at {t!r}")
            return U123 * (1.0 + t)

        f = FuzzyFunction(failing, K=K)
        for call in (lambda: len_direction(f, UNIT, 0.5),
                     lambda: nabla_gh(f, UNIT, 0.5),
                     lambda: product_interval(lambda t: 1.0 - t, f, UNIT, 0.5)):
            with pytest.raises(OrderViolation, match=re.escape(f"no value at {far!r}")):
                call()

    def test_outside_the_domain_raises(self):
        # 0 is a right-scattered minimum and 0.5 is not in the scale: the
        # width direction is refused there as the product rule refuses it
        f = FuzzyFunction(lambda t: triangular(t, 2.0 * t + 1.0, 3.0 * t + 2.0, K),
                          K=K)
        ts = TimeScale([ArithmeticGrid(0.0, 5.0, 1.0)])
        for t in (0.0, 0.5):
            for call in (lambda: len_direction(f, ts, t),
                         lambda: product_interval(lambda s: 1.0 + s, f, ts, t)):
                with pytest.raises(NotInDomain):
                    call()


class TestProductInterval:
    fs = staticmethod(lambda t: 6.0 - t)

    def g(self):
        return FuzzyFunction(lambda t: FuzzyNumber.interval(t, 2.0 * t), K=0)

    def test_widening_branch(self):
        # t = 3: sigma = 3 * (-1) < 0, g ordering I, width of fs*g goes
        # 8 -> 9 over the backward step. Check
        #   d(fs*g) + (-1)*dfs*g(rho) = fs(t)*dg:
        #   [1,2] + [2,4] = [3,6] = 3*[1,2]
        rep = product_interval(self.fs, self.g(), ZZ16, 3.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert rep.extras["len_direction"] == "Increasing"
        assert rep.extras["equation"] == "widening"
        assert astuple(rep.lhs.level(0.0)) == pytest.approx((3.0, 6.0))

    def test_narrowing_branch(self):
        # t = 5: width of fs*g goes 8 -> 5 over the backward step. Check
        #   d(fs*g) + (-1)*fs(t)*dg = dfs*g(rho):
        #   [-6,-3] + [-2,-1] = [-8,-4] = -1*[4,8]
        rep = product_interval(self.fs, self.g(), ZZ16, 5.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert rep.extras["len_direction"] == "Decreasing"
        assert rep.extras["equation"] == "narrowing"
        assert astuple(rep.lhs.level(0.0)) == pytest.approx((-8.0, -4.0))
        assert astuple(rep.rhs.level(0.0)) == pytest.approx((-8.0, -4.0))

    def test_sign_mismatch_reported(self):
        fs = lambda t: t * t + 1.0  # sigma > 0 against ordering I
        rep = product_interval(fs, self.g(), ZZ16, 3.0)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED

    def test_sign_mismatch_enforced(self):
        fs = lambda t: t * t + 1.0
        with pytest.raises(SignHypothesisFailed):
            product_interval(fs, self.g(), ZZ16, 3.0, enforce=True)

    def test_crisp_interval_collapses(self):
        # zero-length g: the product equations reduce to the scalar rule
        g = FuzzyFunction(lambda t: FuzzyNumber.interval(t, t), K=0)
        rep = product_interval(self.fs, g, ZZ16, 3.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert rep.extras["len_direction"] == "Constant"

    def test_undetermined_direction_raises(self):
        # fs crosses zero at t = 0, so the product width kinks there even
        # though g is constant.
        g = FuzzyFunction(lambda t: FuzzyNumber.interval(1.0, 2.0), K=0)
        with pytest.raises(LengthDirectionUndetermined):
            product_interval(lambda t: t, g, SYM, 0.0)

    def test_report_serializes(self):
        rep = product_interval(self.fs, self.g(), ZZ16, 3.0)
        json.dumps(rep.to_dict())


class TestDefaults:
    def test_residual_tol_by_point_class(self):
        assert default_residual_tol(ZZ, 4.0) == 1e-9
        assert default_residual_tol(UNIT, 0.5) == 1e-5

    def test_checkers_default_to_the_point_class_tol(self):
        f, g = grow(U123), grow(triangular(0.0, 1.0, 3.0, K))
        for ts, t in ((ZZ, 4.0), (UNIT, 0.5)):
            want = default_residual_tol(ts, t)
            assert sum_rule(f, g, ts, t).extras["tol"] == want
            assert product_fuzzy(lambda s: s + 1.0, g, ts, t).extras["tol"] == want

    def test_non_member_is_outside_the_domain(self):
        f, g = grow(U123), grow(U123)
        for tol in (None, 1e-9):
            with pytest.raises(NotInDomain):
                sum_rule(f, g, ZZ, 4.5, tol=tol)
            with pytest.raises(NotInDomain):
                product_fuzzy(lambda s: s + 1.0, g, ZZ, 4.5, tol=tol)

    def test_residual_tol_outside_the_domain(self):
        # a right-scattered minimum and a non-member raise what every
        # checker raises there, with its message
        ts = parse_timescale("hgrid(1,5,1)")
        f = grow(U123)
        for t in (1.0, 1.5):
            with pytest.raises(NotInDomain) as want:
                sum_rule(f, f, ts, t)
            with pytest.raises(NotInDomain) as got:
                default_residual_tol(ts, t)
            assert str(got.value) == str(want.value)
        assert default_residual_tol(ts, 2.0) == 1e-9

    # a scale with a dense part and jumps, and f + g, fs * g defined on it
    TOL_TS = "union(interval(0,1), hgrid(1,5,1))"
    TOL_CHECKS = {
        "sum": lambda f, g, ts, t, tol: sum_rule(f, g, ts, t, tol=tol),
        "product-interval": lambda f, g, ts, t, tol: product_interval(
            lambda s: 1.0 - s / 10.0, g, ts, t, tol=tol),
        "product-fuzzy": lambda f, g, ts, t, tol: product_fuzzy(
            lambda s: s + 1.0, g, ts, t, tol=tol),
    }

    @pytest.mark.parametrize("rule", sorted(TOL_CHECKS))
    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
    def test_bad_tol_is_refused(self, rule, tol):
        ts = parse_timescale(self.TOL_TS)
        f, g = (bind_function(parse_function(src), ts)
                for src in ("tri(t, t+1, t+2)", "tri(t, 2*t+1, 3*t+2)"))
        with pytest.raises(ValidationError,
                           match=re.escape(f"tol must be finite and not negative, "
                                           f"got {tol!r}")):
            self.TOL_CHECKS[rule](f, g, ts, 3.0, tol)
        # refused before any point: also where the point is not a member
        with pytest.raises(ValidationError):
            self.TOL_CHECKS[rule](f, g, ts, 3.5, tol)

    @pytest.mark.parametrize("rule", sorted(TOL_CHECKS))
    def test_zero_tol_is_taken(self, rule):
        ts = parse_timescale(self.TOL_TS)
        f, g = (bind_function(parse_function(src), ts)
                for src in ("tri(t, t+1, t+2)", "tri(t, 2*t+1, 3*t+2)"))
        rep = self.TOL_CHECKS[rule](f, g, ts, 3.0, 0.0)
        assert rep.extras["tol"] == 0.0

    @pytest.mark.parametrize("check", [
        lambda f, ts, t: sum_rule(f, f, ts, t),
        lambda f, ts, t: product_fuzzy(lambda s: s + 4.0, f, ts, t),
        lambda f, ts, t: product_interval(lambda s: 1.0 - s / 10.0, f, ts, t),
    ])
    def test_one_classify_per_check(self, check, monkeypatch):
        calls = []
        classify = TimeScale.classify

        def counted(self, t):
            calls.append(t)
            return classify(self, t)

        monkeypatch.setattr(TimeScale, "classify", counted)
        # isolated points, a jump with a dense right side, a dense point,
        # a jump on the right only and the max
        ts = TimeScale([ArithmeticGrid(-3.0, -1.0, 1.0), ClosedInterval(0.0, 1.0),
                        ExplicitPoints((2.0, 3.0))])
        f = FuzzyFunction(
            lambda t: triangular(t - 1.0 - t * t, t, t + 1.0 + t * t, K), K=K)
        pts = [-2.0, -1.0, 0.0, 0.5, 2.0, 3.0]
        for t in pts:
            check(f, ts, t)
        assert calls == pts


# The batched pass against the per-point loop. Every source is an unchecked
# binding, so a definition may fail where it is evaluated.
BATCH_K = 4
BATCH_F = [
    "tri(t-1-t^2, t, t+1+t^2)",  # ordering II left of 0, I right of it
    "endpoints(t - (1-alpha)*(t^2+1); t + (1-alpha)*(t^2+1))",
    "tri(-1, t^2, 1+2*t^2)",  # f + the first g has no gH difference
    "tri(-100, t + sqrt(t^2), 100)",  # no gH difference at jumps right of 0
    "endpoints(alpha*t^2 - 2; 2 - alpha*sqrt(t^2+1))",  # levels fail to nest
    "tri(t, t, t)",  # crisp
    "tri(t, 7, 8)",  # endpoints out of order for t > 7
]
BATCH_G = [
    "tri(-100, -2*t^2, -2*t^2)",
    "tri(-1-sqrt(t^2), 0, 1+sqrt(t^2))",  # width kink at 0: Undetermined
    "endpoints(t - 2; t + 2 + t*t)",
    "tri(t-1-t^2, t, t+1+t^2)",
    "endpoints(alpha*t^2 - 2; 2 - alpha*sqrt(t^2+1))",
]
BATCH_FS = ["1 - t/10", "t + 4", "2", "t", "1/(t-0.75)", "(t+5)^2"]
BATCH_RULES = {"sum": sum_rule, "product-fuzzy": product_fuzzy,
               "product-interval": product_interval}


def batch_function(src: str, ts: TimeScale, plain: bool,
                   log: list | None = None) -> FuzzyFunction:
    """src bound without its sampled checks; log, when given, receives
    every point where the definition is evaluated."""
    d = parse_function(src)
    vector = None if plain else compile_function(d, ts, BATCH_K)

    def fn(t):
        if log is not None:
            log.append(t)
        return eval_function(d, t, BATCH_K, ts)

    return FuzzyFunction(fn, K=BATCH_K, vector=vector)


class TestBatchedPass:
    """The CLI's rule pass (_graded_many) gives the per-point rule's report
    at every point, or raises its error at the same point."""

    piece = st.one_of(
        st.builds(lambda a, n, h: ArithmeticGrid(a, a + n * h, h),
                  st.integers(-4, 3).map(float), st.integers(1, 5),
                  st.sampled_from([0.5, 1.0])),
        st.builds(lambda xs: ExplicitPoints(tuple(xs)),
                  st.lists(st.sampled_from([-3.5, -1.25, 0.0, 0.75, 2.5, 7.5]),
                           min_size=1, max_size=3, unique=True)),
        st.builds(lambda a, w: ClosedInterval(a, a + w),
                  st.integers(-3, 3).map(float), st.sampled_from([0.5, 1.0])),
    )

    @staticmethod
    def outcome(reports, pts):
        """The reports' JSON, or the error and the point where it arose:
        the one after the last report."""
        got = []
        try:
            for rep in reports:
                got.append(json.dumps(rep.to_dict(), sort_keys=True))
        except Exception as err:
            return type(err), str(err), pts[len(got)]
        return got

    @given(
        pieces=st.lists(piece, min_size=1, max_size=3),
        rule=st.sampled_from(sorted(BATCH_RULES)),
        f_src=st.sampled_from(BATCH_F),
        g_src=st.sampled_from(BATCH_G),
        fs_src=st.sampled_from(BATCH_FS),
        plain=st.sampled_from([False, False, False, True]),
        tol=st.sampled_from([None, None, 0.0]),
        extra=st.lists(st.integers(0, 10 ** 6), max_size=4),
    )
    @example(  # f is NotDifferentiable at 1
        pieces=[ArithmeticGrid(-3.0, 2.0, 1.0)], rule="sum", f_src=BATCH_F[3],
        g_src=BATCH_G[2], fs_src="2", plain=False, tol=None, extra=[])
    @example(  # f + g has no gH difference at the jumps
        pieces=[ArithmeticGrid(-2.0, 2.0, 1.0), ClosedInterval(3.0, 4.0)],
        rule="sum", f_src=BATCH_F[2], g_src=BATCH_G[0], fs_src="2",
        plain=False, tol=None, extra=[])
    @example(  # failed sign hypotheses, and a zero tolerance
        pieces=[ArithmeticGrid(-2.0, 3.0, 0.5)], rule="product-fuzzy",
        f_src=BATCH_F[0], g_src=BATCH_G[3], fs_src="1 - t/10", plain=False,
        tol=0.0, extra=[])
    @example(  # the product's width direction is Undetermined at 0
        pieces=[ArithmeticGrid(-3.0, -1.0, 1.0), ClosedInterval(0.0, 1.0),
                ExplicitPoints((2.5,))],
        rule="product-interval", f_src=BATCH_F[0], g_src=BATCH_G[1],
        fs_src="2", plain=False, tol=None, extra=[2])
    @example(  # g has no vector form
        pieces=[ArithmeticGrid(-2.0, 3.0, 1.0)], rule="product-interval",
        f_src=BATCH_F[0], g_src=BATCH_G[3], fs_src="1 - t/10", plain=True,
        tol=None, extra=[])
    @settings(max_examples=120, deadline=None)
    def test_equals_per_point_loop(self, pieces, rule, f_src, g_src, fs_src,
                                   plain, tol, extra):
        ts = TimeScale(pieces)
        cand = [t for t in ts.sample_points(40) if ts.in_kappa(t)]
        pts = ts.left_scattered_points() + [cand[i % len(cand)] for i in extra]
        cfg = ProbeConfig()
        if rule == "sum":
            def first():
                return batch_function(f_src, ts, False)
        else:
            def first():
                return _scalar_fn(argparse.Namespace(scalar_fn=fs_src))

        log = []
        per_point = BATCH_RULES[rule]
        many = self.outcome(_graded_many(
            rule, first(), batch_function(g_src, ts, plain, log), ts, pts, cfg,
            tol), pts)
        log_many = list(log)
        log.clear()
        g = batch_function(g_src, ts, plain, log)
        a = first()
        loop = self.outcome((per_point(a, g, ts, t, cfg, tol=tol) for t in pts),
                            pts)
        assert many == loop
        if plain:
            # a plain g is called only where the per-point loop calls it, in
            # chunk order: at the same points when the loop completes, else
            # among those that g's own derivative reads at each point (a
            # chunk reads g at every record's t, rho and sigma, also past a
            # record whose check f or fs makes fail first); the memo cache
            # keeps three values, so either may call g again at a point
            if isinstance(loop, list):
                assert set(log_many) == set(log)
            log.clear()
            g = batch_function(g_src, ts, plain, log)
            for t in pts:
                try:
                    derivative_report(g, ts, t, cfg)
                except Exception:
                    pass
            assert set(log_many) <= set(log)


# a real factor drawn from the scalar language: negative, zero and
# overflowing values, and failures (division by zero, 0 to a negative
# power, sqrt of a negative value)
scalar_src = st.recursive(
    st.sampled_from(["t", "0", "-2", "0.5", "1e300", "-1e308", "sqrt2"]),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("sqrt({})".format, inner),
        st.builds("({})^{}".format, inner, st.sampled_from(["2", "-1"]))),
    max_leaves=5)
PRODUCT_TS = parse_timescale("union(interval(-2,1), hgrid(1,6,1))")
# g valid at every point of PRODUCT_TS, so that only fs or the product fails
PRODUCT_G = ["tri(t-1-t^2, t, t+1+t^2)", "endpoints(t - 2; t + 2 + t*t)",
             "tri(-100, -2*t^2, -2*t^2)", "tri(t, t, t)"]


def _error(err):
    return type(err), str(err), getattr(err, "sample", None)


def _len_slopes(f: FuzzyFunction, ts: TimeScale, pc,
                cfg: ProbeConfig) -> tuple[float, list[float]]:
    """Reference for the width slopes that len_direction and
    product_interval take from a pass: f's support width at the point of
    the record pc, and its slopes toward rho or the nearest probe of each
    left stream, then toward the nearest probe of each right stream of a
    dense side, each width read through f(p)."""
    t = pc.t
    wt = f(t).len_alpha(0.0)
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
    return wt, slopes


def product_fn(fs, g: FuzzyFunction) -> FuzzyFunction:
    """fs * g point by point, as scalar_mul gives it, where fs is a crisp
    number (else OrderViolation)."""
    return FuzzyFunction(lambda s: scalar_mul(crisp(fs(s), 0).lower[0], g(s)),
                         K=g.K)


class TestProductOf:
    """A joint pass takes fs's rows from fs as a crisp function on g's
    level grid, and fs * g's rows from g's stack scaled by fs, bit for bit
    the product at each point, in the library and the CLI alike."""

    @given(fs_src=scalar_src, g_src=st.sampled_from(PRODUCT_G),
           pts=st.lists(st.sampled_from([-2.0, -1.5, -0.5, 0.0, 0.25, 1.0,
                                         2.0, 6.0]), min_size=1, max_size=6))
    @example(fs_src="t * 1e300 * 1e300", g_src=PRODUCT_G[0],  # inf at 1
             pts=[0.0, -0.5, 1.0, 2.0])
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_each_point(self, fs_src, g_src, pts):
        # up to the first point where fs fails or is not finite, with that
        # error; an overflowing product keeps its non-finite levels, which
        # the pass rejects by name (test_overflowing_product_is_quiet)
        fs = _scalar_fn(argparse.Namespace(scalar_fn=fs_src))
        with np.errstate(over="ignore", invalid="ignore"):
            h = product_fn(fs, batch_function(g_src, PRODUCT_TS, False))
            want, factors, rows = None, [], []
            for p in pts:
                try:
                    factors.append(crisp(fs(p), BATCH_K))
                    rows.append(h(p))
                except FuzzyNablaError as err:  # fs fails first at p
                    want = _error(err)
                    break
            g = batch_function(g_src, PRODUCT_TS, False)
            (flo, fhi, ferr), (_glo, _ghi, gerr), (lo, hi, err) = (
                _product_rows(fs, g)(pts))
        # g stacked, no memo read, past the points the memo cache holds
        assert gerr is None and (g._cache == {}) == (len(pts) > nabla._CACHED_POINTS)
        assert (None if ferr is None else _error(ferr)) == want
        assert (None if err is None else _error(err)) == want
        K1 = BATCH_K + 1
        for got, numbers in (((flo, fhi), factors), ((lo, hi), rows)):
            assert got[0].tobytes() == np.array(
                [u.lower for u in numbers]).reshape(-1, K1).tobytes()
            assert got[1].tobytes() == np.array(
                [u.upper for u in numbers]).reshape(-1, K1).tobytes()

    def test_library_stacks_g_at_the_probes(self, monkeypatch):
        # the library rules grade fs * g from g's stack: at an interval
        # point g is stacked at t and every probe at once, and evaluated
        # nowhere else; the width direction reads the product's levels from
        # its own pass
        ts = parse_timescale("union(interval(0,1), hgrid(1,6,1))")
        g = bind_function(parse_function("endpoints(t - 2; t + 2 + t*t)"),
                          ts, K=4)
        calls, stacked = [], set()
        evaluate, vector = dsl.eval_function, g._vector

        def counting(d, t, K, scale):
            calls.append(t)
            return evaluate(d, t, K, scale)

        def recording(t):
            stacked.update(t.tolist())
            return vector(t)

        monkeypatch.setattr(dsl, "eval_function", counting)
        g._vector = recording
        t = 0.5
        for rule in (product_interval, product_fuzzy):
            rule(lambda s: s + 4.0, g, ts, t)
        assert calls == []
        cfg = ProbeConfig()
        probes = {p for side in ("left", "right")
                  for s in ts.approach_streams(t, side, cfg.probe_count)
                  for p in s.points}
        assert probes | {t} == stacked

    @given(fs_src=st.sampled_from(["1 - t/10", "t + 4", "-2*t", "0", "1e300"]),
           g_src=st.sampled_from(PRODUCT_G),
           pts=st.lists(st.sampled_from([-2.0, -1.5, -0.5, 0.0, 0.25, 1.0,
                                         2.0, 6.0]), min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_width_slopes_from_the_pass(self, fs_src, g_src, pts):
        # product_interval's and len_direction's width slopes come from the
        # levels of fs * g that a joint pass holds, bit for bit those read
        # through h(p)
        fs = _scalar_fn(argparse.Namespace(scalar_fn=fs_src))
        g = batch_function(g_src, PRODUCT_TS, False)
        records, _ = nabla._records(PRODUCT_TS, pts)
        cfg = ProbeConfig()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for pc, (analyses, err) in zip(records, nabla._joint_pass(
                        _product_rows(fs, g), 3, PRODUCT_TS, records, cfg)):
                    if len(analyses) < 3:
                        raise err
                    h = product_fn(fs, g)
                    want = _len_slopes(h, PRODUCT_TS, pc, cfg)
                    assert repr(_analysis_slopes(analyses[2])) == repr(want)
                    assert (len_direction(h, PRODUCT_TS, pc.t, cfg)
                            == _direction(*want, cfg))
            except OrderViolation:  # fs * g overflows: no analysis
                assert fs_src == "1e300"

    @pytest.mark.parametrize("rule", [product_fuzzy, product_interval])
    @pytest.mark.parametrize("t", [2.0, 0.5])  # a jump, a probed point
    def test_fs_fails_before_g(self, rule, t):
        # fs and g both fail at t (or at 0.5's probes): fs's derivative
        # comes first, so its error is raised, in the CLI's pass as well
        ts = parse_timescale("union(interval(0,1), hgrid(1,6,1))")

        def fs(s):
            if s == t or 0.4 < s < 0.5:
                raise ZeroDivisionError(f"fs fails at {s!r}")
            return s + 4.0

        def g_fn(s):
            if s == t or 0.4 < s < 0.6:
                raise ValueError(f"g fails at {s!r}")
            return U123 * (s + 1.0)

        with pytest.raises(ZeroDivisionError, match="fs fails"):
            rule(fs, FuzzyFunction(g_fn, K=K), ts, t)
        name = "product-fuzzy" if rule is product_fuzzy else "product-interval"
        reports = _graded_many(name, fs, FuzzyFunction(g_fn, K=K), ts, [5.0, t, 4.0])
        assert next(reports).rule == name  # at 5
        with pytest.raises(ZeroDivisionError, match="fs fails"):
            next(reports)

    @pytest.mark.parametrize("rule", [product_fuzzy, product_interval])
    def test_fs_called_at_t_rho_and_sigma(self, rule):
        # the pass reads fs at the three points it reads g at, and nabla
        # fs, fs(t) and fs(rho) come from those values
        calls = []

        def fs(s):
            calls.append(s)
            return 1.0 + s * s / 40.0

        rep = rule(fs, grow(U123), ZZ, 5.0)
        assert sorted(calls) == [4.0, 5.0, 6.0]
        assert rep.extras["nabla_fs"] == (fs(5.0) - fs(4.0)) / 1.0

    @pytest.mark.parametrize("rule", sorted(BATCH_RULES)[:2])
    def test_non_finite_fs_at_its_turn(self, rule):
        # fs overflows from 3 on, which 2 reads as sigma (where fs * g
        # would overflow quietly): the pass raises OrderViolation at 2,
        # after 1's report, as for an overflowing g
        ts = parse_timescale("hgrid(0,5,1)")
        g = bind_function(parse_function("tri(1e-10*t, 2e-10*t, 3e-10*t)"), ts, K=4)

        def fs(s):
            return 1e307 * s ** 3

        reports = _graded_many(rule, fs, g, ts, [1.0, 2.0, 3.0])
        assert next(reports).rule == rule
        with pytest.raises(OrderViolation, match="must be finite"):
            next(reports)

    @pytest.mark.parametrize("rule", sorted(BATCH_RULES)[:2])
    def test_fs_error_of_any_type_at_its_turn(self, rule):
        # fs raises a ValueError at 40, which 39 reads as sigma: the rule
        # pass over 1..59 raises it after 38 reports, as the per-point
        # loop does, not at the chunk's first record
        ts = parse_timescale("hgrid(0,100,1)")
        g = bind_function(parse_function("tri(t, 2*t, 3*t)"), ts, K=4)

        def fs(s):
            if s == 40.0:
                raise ValueError("fs fails at 40")
            return s + 1.0

        pts = [float(k) for k in range(1, 60)]
        for reports in (_graded_many(rule, fs, g, ts, pts),
                        (BATCH_RULES[rule](fs, g, ts, t) for t in pts)):
            got = []
            with pytest.raises(ValueError, match="fs fails at 40"):
                got.extend(reports)
            assert len(got) == 38

    # at a jump (3) and at a probed point (0.5), fs * g overflows; warnings
    # are errors here, and the error is the one raised with them ignored
    @pytest.mark.parametrize("rule", [product_fuzzy, product_interval])
    @pytest.mark.parametrize("fs, g_src, t", [
        pytest.param(lambda s: 1e300 * (1 + s),
                     "endpoints(t*1e10; 2*t*1e10 + 1)", 3.0, id="jump"),
        pytest.param(lambda s: 1e308, "endpoints(t*10; 2*t*10 + 1)", 0.5,
                     id="probed"),
    ])
    def test_overflowing_product_is_quiet(self, rule, fs, g_src, t):
        ts = parse_timescale("union(interval(0,1), hgrid(1,6,1))")
        g = bind_function(parse_function(g_src), ts, K=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OrderViolation) as info:
                rule(fs, g, ts, t)
        assert str(info.value) == "level arrays must be finite"


# over interval(-2,-1) and hgrid(0,260,1); no arm covers a points(...)
# piece, so g fails there naming the point
CHUNK_G = [
    "endpoints(piecewise(in hgrid => t, in interval => t) - 0.3; 1.5*t + 4)",
    "tri(piecewise(in hgrid => -1 - t^2, in interval => -1 - t^2), 0.5*t, 2 + t^2)",
    "tri(piecewise(in hgrid => -1, in interval => -1) - sqrt(t^2), 0, 1 + sqrt(t^2))",
]
CHUNK_F = ["tri(0.2*t^2, 0.5*t^2 + t, 0.8*t^2 + 2*t + 3)", "tri(-t^2, 0, 1 + t^2)"]
CHUNK_FS = ["1 - t/300", "t + 4", "2"]


@st.composite
def chunked_points(draw):
    """65 to 200 points of interval(-2,-1) and hgrid(0,260,1), in drawn
    order, and the points where g fails: each is put at the first or the
    last record of a chunk of the pass, between two grid points."""
    n = draw(st.integers(65, 200))
    start = draw(st.integers(0, 260 - n))
    pts = [float(k) for k in range(start, start + n)]
    dense = draw(st.integers(0, 3))
    pts[:dense] = [-1.75, -1.5, -1.0][:dense]
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(pts)
    bad = set()
    ts = parse_timescale("union(interval(-2,-1), hgrid(0,260,1))")
    records, _err = nabla._records(ts, pts)
    bounds, start = [], 0
    for chunk, _slot in nabla._chunks(ts, records, 3, ProbeConfig()):
        bounds.append((start, start + len(chunk) - 1))
        start += len(chunk)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from(draw(st.sampled_from(bounds))))
        if pts[i] >= 0:
            pts[i] += 0.5
            bad.add(pts[i])
    return pts, bad


class TestChunkedRulePass:
    """The CLI's rule pass over more records than one chunk gives the
    per-point rule's report at every point, or raises its error at the
    same point."""

    @given(drawn=chunked_points(), rule=st.sampled_from(sorted(BATCH_RULES)),
           f_src=st.sampled_from(CHUNK_F), g_src=st.sampled_from(CHUNK_G),
           fs_src=st.sampled_from(CHUNK_FS))
    @settings(max_examples=25, deadline=None)
    def test_equals_per_point_loop(self, drawn, rule, f_src, g_src, fs_src):
        pts, bad = drawn
        spec = "union(interval(-2,-1), hgrid(0,260,1)"
        if bad:
            spec += ", points(" + ", ".join(repr(b) for b in sorted(bad)) + ")"
        ts = parse_timescale(spec + ")")
        cfg = ProbeConfig()

        def first():
            if rule == "sum":
                return batch_function(f_src, ts, False)
            return _scalar_fn(argparse.Namespace(scalar_fn=fs_src))

        many = TestBatchedPass.outcome(_graded_many(
            rule, first(), batch_function(g_src, ts, False), ts, pts, cfg), pts)
        g, a = batch_function(g_src, ts, False), first()
        loop = TestBatchedPass.outcome(
            (BATCH_RULES[rule](a, g, ts, t, cfg) for t in pts), pts)
        assert many == loop


# The rule-check benchmark's seed-1 instance: the grid points 1..430 jump on
# both sides, and 20 points of [0, 1) are probed.
DIGEST_TS = "union(interval(0,1), hgrid(1,430,1))"
DIGEST_F = "tri(0.18*t^2, 0.41*t^2+t, 0.76*t^2+2*t)"
DIGEST_G = "endpoints(0.34*t - 0.5; 1.74*t + 0.7)"
DIGEST_FS_NEG = "1-t/945"
DIGEST_FS_POS = "t+3.67"
DIGEST_INTERVAL_PTS = [
    0.028778, 0.031642, 0.055698, 0.068533, 0.083997, 0.09327, 0.169395,
    0.284847, 0.290702, 0.314277, 0.386953, 0.413023, 0.562173, 0.594526,
    0.701035, 0.800774, 0.828848, 0.830569, 0.890609, 0.91255]
DIGEST_PTS = DIGEST_INTERVAL_PTS + [float(k) for k in range(1, 431)]


def digest_instance():
    """The scale, f and g bound on it, and the real factors of
    product_interval and product_fuzzy, as the CLI compiles them."""
    ts = parse_timescale(DIGEST_TS)
    f, g = (bind_function(parse_function(src), ts) for src in (DIGEST_F, DIGEST_G))
    fs_neg, fs_pos = (_scalar_fn(argparse.Namespace(scalar_fn=src))
                      for src in (DIGEST_FS_NEG, DIGEST_FS_POS))
    return ts, f, g, fs_neg, fs_pos


class TestOnePointDigests:
    """The library's one-point reports, pinned by the sha256 of their JSON,
    one line per point: each rule at all 450 points, and f's derivative at
    the 20 probed points."""

    @staticmethod
    def digest(reports) -> str:
        return hashlib.sha256("".join(
            json.dumps(rep.to_dict(), sort_keys=True) + "\n"
            for rep in reports).encode()).hexdigest()

    @pytest.mark.parametrize("check, digest", [
        ("sum", "bb1e2b90acb63475eb7b1215dcec76bd6f02bde29e44ff78cf7379b730db7aaa"),
        ("product-interval",
         "248d4b4c3d2a93497e8061a49f4cd0750649d56a5752bfd3cd2bc2cb2d3b1ed7"),
        ("product-fuzzy",
         "1a955f8114c77efb901cbdec102f145e85f289f5c05a3fc813006a6cd92e2846"),
        ("derivative",
         "6c82547a90b69cdb42c59c5c9ac2d876f444ea8f660d7432af4ac291a32e401f"),
    ])
    def test_reports_are_pinned(self, check, digest):
        ts, f, g, fs_neg, fs_pos = digest_instance()
        calls = {
            "sum": lambda t: sum_rule(f, g, ts, t),
            "product-interval": lambda t: product_interval(fs_neg, g, ts, t),
            "product-fuzzy": lambda t: product_fuzzy(fs_pos, g, ts, t),
            "derivative": lambda t: derivative_report(f, ts, t),
        }
        pts = DIGEST_INTERVAL_PTS if check == "derivative" else DIGEST_PTS
        assert self.digest(calls[check](t) for t in pts) == digest


class TestOnePointCost:
    """A one-point check at a jump builds a FuzzyNumber only for each
    derivative's value and its own lhs and rhs, and runs the gH kernel once."""

    @pytest.mark.parametrize("rule, most", [
        ("sum", 4), ("product-interval", 5), ("product-fuzzy", 5)])
    def test_numbers_built_at_a_jump(self, rule, most, monkeypatch):
        ts, f, g, fs_neg, fs_pos = digest_instance()
        check = {"sum": lambda: sum_rule(f, g, ts, 200.0),
                 "product-interval": lambda: product_interval(fs_neg, g, ts, 200.0),
                 "product-fuzzy": lambda: product_fuzzy(fs_pos, g, ts, 200.0)}[rule]
        want = json.dumps(check().to_dict(), sort_keys=True)  # f and g memoized
        built, kernel_calls = [], []
        init, kernel = FuzzyNumber.__init__, nabla.gh_exists

        def counted_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counted_kernel(d_lo, d_hi):
            kernel_calls.append(len(d_lo))
            return kernel(d_lo, d_hi)

        monkeypatch.setattr(FuzzyNumber, "__init__", counted_init)
        monkeypatch.setattr(nabla, "gh_exists", counted_kernel)
        rep = check()
        assert json.dumps(rep.to_dict(), sort_keys=True) == want
        assert len(built) <= most
        assert kernel_calls == [3]  # the jump rows of f (or fs), g and h
