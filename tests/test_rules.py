"""Rule checkers: ordering tags, the sum rule and both product rules.
Hand-worked instances pin every equation branch."""

import argparse
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzynabla.cli import _scalar_fn
from fuzzynabla.dsl import (
    compile_function,
    compile_scalar,
    eval_function,
    parse_function,
    parse_scalar,
)
from fuzzynabla.errors import (
    EndpointDerivativeMissing,
    LengthDirectionUndetermined,
    NotInDomain,
    SignHypothesisFailed,
)
from fuzzynabla.fuzzy import FuzzyNumber, crisp, hausdorff, triangular
from fuzzynabla.nabla import FuzzyFunction, ProbeConfig
from fuzzynabla.rules import (
    RuleReport,
    _graded_many,
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
        assert rep.lhs.level(0.0).as_tuple() == pytest.approx((10.25, 20.75))
        assert rep.lhs.level(1.0).as_tuple() == pytest.approx((13.75, 13.75))

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
        assert rep.lhs.level(0.0).as_tuple() == pytest.approx((3.0, 6.0))

    def test_narrowing_branch(self):
        # t = 5: width of fs*g goes 8 -> 5 over the backward step. Check
        #   d(fs*g) + (-1)*fs(t)*dg = dfs*g(rho):
        #   [-6,-3] + [-2,-1] = [-8,-4] = -1*[4,8]
        rep = product_interval(self.fs, self.g(), ZZ16, 5.0)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.residual <= 1e-12
        assert rep.extras["len_direction"] == "Decreasing"
        assert rep.extras["equation"] == "narrowing"
        assert rep.lhs.level(0.0).as_tuple() == pytest.approx((-8.0, -4.0))
        assert rep.rhs.level(0.0).as_tuple() == pytest.approx((-8.0, -4.0))

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
            vector = None

            def first():
                return batch_function(f_src, ts, False)
        else:
            vector = compile_scalar(parse_scalar(fs_src))

            def first():
                return _scalar_fn(argparse.Namespace(scalar_fn=fs_src))

        log = []
        per_point = BATCH_RULES[rule]
        many = self.outcome(_graded_many(
            rule, first(), batch_function(g_src, ts, plain, log), ts, pts, cfg,
            tol, vector), pts)
        log_many = list(log)
        log.clear()
        g = batch_function(g_src, ts, plain, log)
        a = first()
        loop = self.outcome((per_point(a, g, ts, t, cfg, tol=tol) for t in pts),
                            pts)
        assert many == loop
        if plain:
            # a plain g is evaluated as by the per-point loop, in order
            assert log_many == log
