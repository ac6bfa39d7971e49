"""Backward derivative engine: exact jump quotients, one-sided limit
estimation, case classification, endpoint reports and the two identity
checkers. Expected values are worked out by hand in each test."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzynabla import dsl
from fuzzynabla.dsl import (
    bind_function,
    compile_function,
    eval_function,
    parse_function,
    parse_timescale,
)
from fuzzynabla.errors import (
    GhNonexistent,
    LimitDisagreement,
    NotInDomain,
    OrderViolation,
    ValidationError,
)
from fuzzynabla.fuzzy import (
    FuzzyNumber,
    GhCase,
    crisp,
    gh_diff,
    hausdorff,
    triangular,
)
from fuzzynabla.nabla import (
    DiffCase,
    FuzzyFunction,
    ProbeConfig,
    check_level_consistency,
    check_rho_identity,
    derivative_report,
    endpoint_derivatives,
    nabla_gh,
    nabla_many,
    nabla_scalar,
)
from fuzzynabla.timescale import (
    ArithmeticGrid,
    ClosedInterval,
    ExplicitPoints,
    GeometricGrid,
    ReciprocalGrid,
    Side,
    TimeScale,
)

SQRT2 = math.sqrt(2.0)
K = 40

ZZ = TimeScale([ArithmeticGrid(0.0, 20.0, 1.0)])
UNIT = TimeScale([ClosedInterval(0.0, 1.0)])
SYM = TimeScale([ClosedInterval(-1.0, 1.0)])


def two_gen_scale(n=400):
    return TimeScale([
        ReciprocalGrid(1.0, n),
        ReciprocalGrid(SQRT2, n),
        ExplicitPoints((0.0,)),
    ])


def on_first_grid(t):
    """Membership test for the 1/n generator (0 counts as its limit)."""
    if t == 0.0:
        return True
    n = round(1.0 / t)
    return n > 0 and abs(t - 1.0 / n) < 1e-12


def example_fn(t):
    """Triangular-valued function whose endpoint slopes at 0 depend on the
    generator the argument came from."""
    if on_first_grid(t):
        a, c = -2.0, t * t + t
    else:
        a, c = t - 2.0, t * t
    b = (t * t + t - 2.0) / 2.0
    return triangular(a, b, c, K)


U123 = triangular(1.0, 2.0, 3.0, K)
SYM_U = triangular(-1.0, 0.0, 1.0, K)


def times_u(u):
    return FuzzyFunction(lambda t: u * t if t >= 0 else (-u) * (-t), K=K)


ACCUMULATING = parse_timescale("union(recip(1,50), recip(sqrt2,50), points(0))")


def _on_recip1(t: float) -> bool:
    """Whether t > 0 is a point 1/k of recip(1)."""
    return t > 0 and abs(1 / t - round(1 / t)) < 1e-6


class TestScalar:
    def test_integer_grid_exact(self):
        g = lambda t: t * t
        assert nabla_scalar(g, ZZ, 3.0) == 5.0

    def test_dense_square(self):
        val = nabla_scalar(lambda t: t * t, UNIT, 0.5)
        assert abs(val - 1.0) <= 1e-9

    def test_dense_cubic_richardson(self):
        val = nabla_scalar(lambda t: t ** 3, UNIT, 0.7)
        assert abs(val - 1.47) <= 1e-8

    def test_min_point_excluded(self):
        with pytest.raises(NotInDomain):
            nabla_scalar(lambda t: t, ZZ, 0.0)

    def test_interval_left_edge_is_dense_min(self):
        # min of a real interval is left-dense, so it stays in the domain
        val = nabla_scalar(lambda t: t * t, UNIT, 0.0)
        assert abs(val) <= 1e-6

    @pytest.mark.parametrize("ts, g, side, criterion, value", [
        # every probe value overflows while g(1) = 0: the quotients are
        # +-inf, and their Richardson extrapolation inf - inf is NaN
        (TimeScale([ClosedInterval(0.0, 2.0)]),
         lambda t: 1e308 * t * t * 1e10 if t != 1.0 else 0.0,
         "left", "quotient", math.nan),
        (TimeScale([ArithmeticGrid(0.0, 2.0, 0.5)]),
         lambda t: 1e308 * t * t * 1e10 if t != 1.0 else 0.0,
         "left", "quotient", -math.inf),
        # two generator streams at 0 (no extrapolation): their estimates
        # are finite, but their spread or their mean overflows
        (ACCUMULATING, lambda t: 1.5e308 * t * (1 if _on_recip1(t) else -1),
         None, "stream spread", math.inf),
        (ACCUMULATING, lambda t: 1.5e308 * t, None, "value", math.inf),
    ])
    def test_non_finite_result_is_rejected_by_name(self, ts, g, side,
                                                   criterion, value):
        t = 0.0 if ts is ACCUMULATING else 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LimitDisagreement) as info:
                nabla_scalar(g, ts, t)
        where = f"at {t!r}" if side is None else f"on the {side} of {t!r}"
        assert str(info.value) == (
            f"the {criterion} {where} is not finite ({value!r})")
        diag = info.value.diagnostics
        assert (diag["side"], diag["criterion"]) == (side, criterion)
        assert repr(diag["value"]) == repr(value)


class TestScatteredDerivative:
    def test_linear_times_triangle(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        r = nabla_gh(f, ZZ, 3.0)
        assert r.residual == 0.0
        assert r.case is DiffCase.CASE_I
        assert hausdorff(r.value, U123) <= 1e-12

    def test_shrinking_width_gives_second_case(self):
        f = FuzzyFunction(lambda t: U123 * (5.0 - t), K=K)
        r = nabla_gh(f, ZZ, 3.0)
        assert r.case is DiffCase.CASE_II
        expect = triangular(-3.0, -2.0, -1.0, K)
        assert hausdorff(r.value, expect) <= 1e-12
        assert r.residual == 0.0

    def test_crisp_function(self):
        f = FuzzyFunction(lambda t: crisp(t * t, K), K=K)
        r = nabla_gh(f, ZZ, 4.0)
        assert r.case is DiffCase.CRISP
        assert hausdorff(r.value, crisp(7.0, K)) <= 1e-12

    def test_geometric_grid(self):
        ts = TimeScale([GeometricGrid(2.0, 0, 5)])
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        r = nabla_gh(f, ts, 8.0)
        # (8u - 4u)/4 = u
        assert hausdorff(r.value, U123) <= 1e-12

    def test_jump_without_gh_difference(self):
        def f(t):
            return triangular(0.0, 1.0, 5.0, K) if t >= 2.0 else triangular(0.0, 2.0, 3.0, K)

        ff = FuzzyFunction(f, K=K)
        with pytest.raises(GhNonexistent):
            nabla_gh(ff, ZZ, 2.0)
        rep = derivative_report(ff, ZZ, 2.0)
        assert rep.case is DiffCase.NOT_DIFFERENTIABLE
        assert rep.value is None
        assert math.isinf(rep.residual)
        assert rep.evidence["failure"] == "GhNonexistent"

    def test_probe_without_gh_difference(self):
        # the lower endpoint's alpha-shape changes with t, so no probe
        # difference is a fuzzy number; the quotients still exist
        alphas = np.arange(K + 1) / K
        ts = TimeScale([ClosedInterval(0.0, 2.0)])
        ff = FuzzyFunction(lambda t: FuzzyNumber(
            -2.0 + alphas + t * (alphas - alphas ** 2) / 2.0, 2.0 - alphas), K=K)
        with pytest.raises(GhNonexistent) as err:
            nabla_gh(ff, ts, 1.0)
        assert str(err.value) == (
            "generalized difference does not exist at probe 0.9999 (left of 1.0)")
        assert err.value.diagnostics["side"] == "left"
        rep = derivative_report(ff, ts, 1.0)
        assert rep.case is DiffCase.NOT_DIFFERENTIABLE
        assert rep.value is None
        assert rep.evidence["failure"] == "GhNonexistent"
        assert rep.evidence["message"] == str(err.value)
        report = rep.endpoint_report
        assert report.minus.kind == "limit" and report.plus.kind == "limit"
        # the upper endpoint 2 - alpha is constant in t
        assert np.max(np.abs(report.minus.upper)) <= 1e-9
        assert np.max(np.abs(report.plus.upper)) <= 1e-9
        assert endpoint_derivatives(ff, ts, 1.0).to_dict() == report.to_dict()

    def test_not_in_domain(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        with pytest.raises(NotInDomain):
            nabla_gh(f, ZZ, 0.0)  # right-scattered minimum
        with pytest.raises(NotInDomain):
            nabla_gh(f, ZZ, 3.5)  # not a member


class TestDenseDerivative:
    def test_linear_slope(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        r = nabla_gh(f, UNIT, 0.5)
        assert r.case is DiffCase.CASE_I
        assert hausdorff(r.value, U123) <= 1e-8
        assert r.residual <= 1e-6

    def test_quadratic_slope(self):
        f = FuzzyFunction(lambda t: U123 * (t * t), K=K)
        r = nabla_gh(f, UNIT, 0.5)
        assert hausdorff(r.value, U123) <= 1e-6

    def test_crisp_dense(self):
        f = FuzzyFunction(lambda t: crisp(t * t, K), K=K)
        r = nabla_gh(f, UNIT, 0.5)
        assert r.case is DiffCase.CRISP
        assert abs(r.value.level(0.0).lo - 1.0) <= 1e-6

    def test_switching_case_growing_width(self):
        # |t| * u at 0: right side keeps endpoint order, left side swaps it
        f = times_u(SYM_U)
        r = nabla_gh(f, SYM, 0.0)
        assert r.case is DiffCase.SWITCHING_III
        expect = triangular(-1.0, 0.0, 1.0, K)
        assert hausdorff(r.value, expect) <= 1e-8

    def test_switching_case_shrinking_width(self):
        u = SYM_U
        f = FuzzyFunction(lambda t: u * (1.0 - abs(t)), K=K)
        r = nabla_gh(f, SYM, 0.0)
        assert r.case is DiffCase.SWITCHING_IV
        expect = triangular(-1.0, 0.0, 1.0, K)
        assert hausdorff(r.value, expect) <= 1e-8

    def test_crisp_kink_has_no_derivative(self):
        f = FuzzyFunction(lambda t: crisp(abs(t), K), K=K)
        with pytest.raises(LimitDisagreement):
            nabla_gh(f, SYM, 0.0)

    def test_probe_count_invariance(self):
        f = FuzzyFunction(lambda t: U123 * (t * t), K=K)
        r3 = nabla_gh(f, UNIT, 0.5, ProbeConfig(probe_count=3))
        r7 = nabla_gh(f, UNIT, 0.5, ProbeConfig(probe_count=7))
        assert r3.case is r7.case
        assert hausdorff(r3.value, r7.value) <= 2e-6

    def test_result_serializes(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        r = nabla_gh(f, UNIT, 0.5)
        blob = json.dumps(r.to_dict())
        assert '"CaseI"' in blob

    def test_non_finite_estimate_is_rejected_by_name(self):
        # the true derivative at 1 is 2e308: every probe quotient overflows,
        # and inf - inf gave NaN spreads that passed the tolerance gates
        ts = parse_timescale("interval(0,2)")
        f = bind_function(parse_function(
            "tri(1e308*t*t, 1e308*t*t+1, 1e308*t*t+2)"), ts, K=K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = derivative_report(f, ts, 1.0)
        assert r.case is DiffCase.NOT_DIFFERENTIABLE
        assert r.evidence["failure"] == "LimitDisagreement"
        assert r.evidence["message"].startswith(
            "the estimate on the left of 1.0 is not finite")
        diag = r.evidence["diagnostics"]
        assert (diag["side"], diag["criterion"]) == ("left", "estimate")
        assert not math.isfinite(diag["value"])


class TestAccumulationPoint:
    def test_derivative_at_zero(self):
        ts = two_gen_scale(400)
        f = FuzzyFunction(example_fn, K=K)
        cfg = ProbeConfig(agreement_tol=2e-2)
        r = nabla_gh(f, ts, 0.0, cfg)
        assert r.case is DiffCase.SWITCHING_III
        alphas = np.arange(K + 1) / K
        assert np.max(np.abs(r.value.lower - alphas / 2.0)) <= 1e-2
        assert np.max(np.abs(r.value.upper - (1.0 - alphas / 2.0))) <= 1e-2
        assert r.residual <= 2e-2

    def test_endpoint_split_at_zero(self):
        ts = two_gen_scale(400)
        f = FuzzyFunction(example_fn, K=K)
        cfg = ProbeConfig(agreement_tol=2e-2)
        rep = endpoint_derivatives(f, ts, 0.0, cfg)
        assert rep.minus.kind == "absent"
        assert rep.plus.kind == "limit"
        # the two generators pull the level-0 lower slope to 0 and 1
        row0 = rep.rows()[0]
        subs = row0["dplus_lower"]["subsequence_limits"]
        vals = sorted(subs.values())
        assert abs(vals[0] - 0.0) <= 5e-3
        assert abs(vals[1] - 1.0) <= 5e-3
        assert row0["dplus_lower"]["exists"] is False
        # at level 1 both generators agree on 1/2
        row_top = rep.rows()[-1]
        assert row_top["dplus_lower"]["exists"] is True
        assert abs(row_top["dplus_lower"]["value"] - 0.5) <= 5e-3


class TestEndpointReport:
    def test_scattered_both_sides(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        rep = endpoint_derivatives(f, ZZ, 3.0)
        assert rep.minus.kind == "scattered"
        assert rep.plus.kind == "scattered"
        alphas = np.arange(K + 1) / K
        assert np.allclose(rep.minus.lower, 1.0 + alphas, atol=1e-12)
        assert np.allclose(rep.minus.upper, 3.0 - alphas, atol=1e-12)
        assert np.allclose(rep.plus.lower, 1.0 + alphas, atol=1e-12)
        row = rep.rows()[0]
        assert row["dminus_lower"]["exists"] is True
        assert row["dminus_lower"]["residual"] == 0.0

    def test_max_point_has_no_plus_side(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        rep = endpoint_derivatives(f, ZZ, 20.0)
        assert rep.plus.kind == "absent"
        assert rep.rows()[0]["dplus_lower"]["value"] is None

    def test_dense_sides_settled(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        rep = endpoint_derivatives(f, UNIT, 0.5)
        assert rep.minus.kind == "limit" and rep.plus.kind == "limit"
        assert rep.minus.settled and rep.plus.settled
        alphas = np.arange(K + 1) / K
        assert np.max(np.abs(rep.minus.lower - (1.0 + alphas))) <= 1e-6


class TestEvidence:
    def test_orientation_counts_at_mixed_point(self):
        ts = TimeScale([ExplicitPoints((0.0,)), ClosedInterval(1.0, 2.0)])
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        r = nabla_gh(f, ts, 1.0)
        ev = r.evidence["h_orientations"]
        assert ev["forward"] > 0
        assert ev["backward"] == 0

    def test_continuity_gaps_shrink(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        r = nabla_gh(f, UNIT, 0.5)
        for side in r.evidence["continuity_gaps"].values():
            for gaps in side.values():
                assert gaps[0] >= gaps[-1]
                assert gaps[-1] <= 1e-3


class TestRhoIdentity:
    def test_exact_on_grid(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        assert check_rho_identity(f, ZZ, 4.0) <= 1e-12

    def test_second_disjunct(self):
        f = FuzzyFunction(lambda t: U123 * (5.0 - t), K=K)
        assert check_rho_identity(f, ZZ, 3.0) <= 1e-12

    def test_dense_point_trivial(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        assert check_rho_identity(f, UNIT, 0.5) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        h=st.sampled_from([1.0, 0.5, 0.25]),
        idx=st.integers(min_value=1, max_value=10),
        p=st.integers(min_value=-3, max_value=3),
        q=st.integers(min_value=1, max_value=4),
    )
    def test_random_grid_instances(self, h, idx, p, q):
        ts = TimeScale([ArithmeticGrid(0.0, 10.0 * h, h)])
        u = triangular(1.0, 2.0, 4.0, K)

        def f(t):
            spread = float(q) + (0.5 + 0.25 * t) ** 2  # positive, so gh exists
            return crisp(float(p) * t, K) + u * spread

        assert check_rho_identity(FuzzyFunction(f, K=K), ts, idx * h) <= 1e-9


class TestLevelConsistency:
    def test_scattered_exact(self):
        f = FuzzyFunction(lambda t: U123 * t, K=K)
        assert check_level_consistency(f, ZZ, 5.0) <= 1e-12

    def test_dense_matches(self):
        f = FuzzyFunction(lambda t: U123 * (t * t), K=K)
        assert check_level_consistency(f, UNIT, 0.5) <= 1e-6

    def test_accumulation_point(self):
        ts = two_gen_scale(400)
        f = FuzzyFunction(example_fn, K=K)
        cfg = ProbeConfig(agreement_tol=2e-2)
        assert check_level_consistency(f, ts, 0.0, cfg) <= 2e-2


class TestConfig:
    def test_probe_count_floor(self):
        with pytest.raises(ValueError):
            ProbeConfig(probe_count=2)

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            ProbeConfig(agreement_tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tol_finite(self, tol):
        # inf would make every derivative crisp, nan every point fail
        with pytest.raises(ValueError):
            ProbeConfig(agreement_tol=tol)


class TestNablaMany:
    """nabla_many is the loop over derivative_report, point for point."""

    @staticmethod
    def outcome(run):
        try:
            return [json.dumps(r.to_dict(), sort_keys=True) for r in run()]
        except Exception as err:
            return type(err), str(err)

    @staticmethod
    def logged(fn):
        log = []

        def g(t):
            log.append(t)
            return fn(t)

        return FuzzyFunction(g, K=K), log

    piece = st.one_of(
        st.builds(lambda a, n, h: ArithmeticGrid(a, a + n * h, h),
                  st.integers(-4, 4).map(float), st.integers(1, 6),
                  st.sampled_from([0.25, 0.5, 1.0])),
        st.builds(lambda k, n: GeometricGrid(2.0, k, k + n),
                  st.integers(-3, 2), st.integers(1, 4)),
        st.builds(ReciprocalGrid, st.sampled_from([1.0, -1.0, SQRT2, 3.0]),
                  st.integers(1, 10)),
    )
    interval = st.builds(lambda a, w: ClosedInterval(a, a + w),
                         st.integers(-5, 5).map(float),
                         st.sampled_from([0.5, 1.0, 2.0]))

    @given(
        pieces=st.lists(piece, min_size=1, max_size=3),
        extra=st.lists(interval, max_size=1),
        idx=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8),
        # the minimum is outside the domain when right-scattered
        stray=st.sampled_from([False, False, False, True]),
        coef=st.tuples(st.sampled_from([0.0, 1.0, -2.0]),
                       st.sampled_from([0.0, 0.5]),
                       st.sampled_from([0.0, 0.7]),
                       st.sampled_from([0.0, 1.3]),
                       st.sampled_from([1.0, 1.0, 1.0, 1e308])),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_derivative_report_loop(self, pieces, extra, idx, stray,
                                            coef):
        p, q, r, s, mag = coef
        ts = TimeScale(pieces + extra)
        cand = [t for t in ts.sample_points(40) if ts.in_kappa(t)]
        pts = [cand[i % len(cand)] for i in idx]
        if stray:
            pts.insert(idx[0] % len(pts), ts.min_point)

        def fn(t):
            # the two widths move independently, so some jumps have no gH
            # difference; r = s = 0 gives crisp derivatives
            m = p * t + q * math.sin(3.0 * t)
            wl = 1.0 + r * math.cos(2.0 * t) ** 2
            wr = 1.0 + s * math.sin(t) ** 2
            return triangular(mag * (m - wl), mag * m, mag * (m + wr), K)

        f_loop, log_loop = self.logged(fn)
        f_many, log_many = self.logged(fn)
        loop = self.outcome(lambda: [derivative_report(f_loop, ts, t) for t in pts])
        many = self.outcome(lambda: nabla_many(f_many, ts, pts))
        assert many == loop
        # the same points in the same order, also when the loop raises
        assert log_many == log_loop

    def test_overflow_row(self):
        # f is finite at -1 and 1; only the jump difference overflows
        ts = TimeScale([ExplicitPoints((-1.0, 1.0))])
        f = FuzzyFunction(lambda t: triangular(1e308 * t, 1e308 * t, 1e308 * t, K),
                          K=K)
        # 5 is not a member, but the loop fails at 1 before reaching it
        for run in (lambda: derivative_report(f, ts, 1.0),
                    lambda: nabla_many(f, ts, [1.0]),
                    lambda: nabla_many(f, ts, [1.0, 5.0])):
            with pytest.raises(OrderViolation, match="level arrays must be finite"):
                run()


    def test_overflowing_quotient_is_rejected(self):
        # f(t) - f(rho) = 2e298 is finite; over nu = 1e-10 it overflows
        ts = TimeScale([ExplicitPoints((1.0, 1.0 + 1e-10))])
        f = FuzzyFunction(lambda t: crisp(-1e298 if t == 1.0 else 1e298, K),
                          K=K)
        for run in (lambda: derivative_report(f, ts, 1.0 + 1e-10),
                    lambda: nabla_many(f, ts, [1.0 + 1e-10])):
            with pytest.raises(OrderViolation, match="jump quotient .* not finite"):
                run()


def unchecked(src: str, ts: TimeScale, K: int = K,
              plain: bool = False) -> FuzzyFunction:
    """bind_function without its sampled checks, so a definition may fail
    at chosen points; plain leaves out the vector form."""
    d = parse_function(src)
    return FuzzyFunction(lambda t: eval_function(d, t, K, ts), K=K,
                         vector=None if plain else compile_function(d, ts, K))


README_FN = ("tri(piecewise(in recip(1) => -2, in recip(sqrt2) => t-2), "
             "(t^2+t-2)/2, "
             "piecewise(in recip(1) => t^2+t, in recip(sqrt2) => t^2))")


class TestStackedMany:
    """For a bound definition, nabla_many takes the realized jumps from one
    evaluation of f's vector form; results and raised errors stay those of
    the loop over derivative_report."""

    outcome = staticmethod(TestNablaMany.outcome)

    def same_as_loop(self, make_f, ts, pts):
        loop = self.outcome(lambda: [derivative_report(make_f(), ts, t)
                                     for t in pts])
        many = self.outcome(lambda: nabla_many(make_f(), ts, pts))
        assert many == loop
        return many

    @given(
        pieces=st.lists(TestNablaMany.piece, min_size=1, max_size=3),
        extra=st.lists(TestNablaMany.interval, max_size=1),
        src=st.sampled_from([
            README_FN,
            "tri(t^3 - 1, t^2, t^2 + 1 + t^4)",
            "endpoints(t - (1-alpha)*(t^2+1); t + (1-alpha)*(t^2+1))",
            # some jumps have no gH difference
            "endpoints(alpha*t^2 - 2; 2 - alpha*sqrt(t^2+1))",
            "tri(piecewise(in hgrid => 0, in qgrid => t, in recip => t^2, "
            "in interval => -1), 1, 2)",
        ]),
        extra_pts=st.lists(st.integers(0, 10 ** 6), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_derivative_report_loop(self, pieces, extra, src,
                                            extra_pts):
        ts = TimeScale(pieces + extra)
        cand = [t for t in ts.sample_points(40) if ts.in_kappa(t)]
        pts = ts.left_scattered_points() + [cand[i % len(cand)] for i in extra_pts]
        self.same_as_loop(lambda: unchecked(src, ts), ts, pts)

    @pytest.mark.parametrize("src, error", [
        # no arm covers 3.5
        ("tri(piecewise(in hgrid(0) => t), 7, 8)", ValidationError),
        # the levels fail to nest at 3 only
        ("endpoints(piecewise(in points(3) => -alpha, in hgrid(0) => alpha - 1); "
         "1 - alpha)", OrderViolation),
        # the tri endpoints are out of order at 3 only
        ("tri(piecewise(in points(3) => 9, in hgrid(0) => t), 7, 8)", ValidationError),
        # f(3) overflows
        ("tri(t, t, t + piecewise(in points(3) => 1e300^2, in hgrid(0) => 0))",
         ValidationError),
    ])
    def test_error_in_the_middle(self, src, error):
        ts = TimeScale([ArithmeticGrid(0.0, 6.0, 1.0), ExplicitPoints((3.0, 3.5))])
        pts = ts.left_scattered_points()
        got = self.same_as_loop(lambda: unchecked(src, ts), ts, pts)
        assert got[0] is error

    def test_overflow_row(self):
        # f is finite at -1 and 1; only the jump difference overflows
        ts = TimeScale([ExplicitPoints((-1.0, 1.0))])
        f = unchecked("tri(1e308*t, 1e308*t, 1e308*t)", ts)
        for run in (lambda: derivative_report(f, ts, 1.0),
                    lambda: nabla_many(f, ts, [1.0]),
                    lambda: nabla_many(f, ts, [1.0, 5.0])):
            with pytest.raises(OrderViolation, match="level arrays must be finite"):
                run()

    def test_jumps_skip_the_per_point_path(self, monkeypatch):
        ts = parse_timescale("union(recip(1,30), recip(sqrt2,30), points(0))")
        pts = ts.left_scattered_points()
        f = bind_function(parse_function(README_FN), ts, K=K)
        expect = [json.dumps(derivative_report(f, ts, t).to_dict(), sort_keys=True)
                  for t in pts]

        def per_point(*args):
            raise AssertionError("per-point path taken")

        g = bind_function(parse_function(README_FN), ts, K=K)
        monkeypatch.setattr(FuzzyFunction, "__call__", per_point)
        got = [json.dumps(r.to_dict(), sort_keys=True)
               for r in nabla_many(g, ts, pts)]
        assert got == expect


class TestMemoCache:
    """A per-point call reads f at t, rho and sigma through the memo cache,
    so neighbouring points share values instead of stacking them again."""

    def test_each_point_is_evaluated_once(self, monkeypatch):
        ts = parse_timescale("union(recip(1,30), recip(sqrt2,30), points(0))")
        f = bind_function(parse_function(README_FN), ts, K=K)
        pts = sorted(ts.left_scattered_points())
        calls = []
        evaluate = dsl.eval_function

        def counted(d, t, *args):
            calls.append(t)
            return evaluate(d, t, *args)

        def refuse(self, t):
            raise AssertionError("a per-point call stacked f")

        monkeypatch.setattr(dsl, "eval_function", counted)
        monkeypatch.setattr(FuzzyFunction, "stack", refuse)
        for t in pts:
            derivative_report(f, ts, t)
        needed = {p for t in pts for pc in [ts.classify(t)]
                  for p in (pc.t, pc.rho, pc.sigma)}
        assert sorted(calls) == sorted(needed)


# isolated points (-3, -2, 2), a jump with a dense right side (0), dense
# points (0.5), a jump on the right only (1, 3 is the max)
MIXED = TimeScale([ArithmeticGrid(-3.0, -1.0, 1.0), ClosedInterval(0.0, 1.0),
                   ExplicitPoints((2.0, 3.0))])


def parabola_tri(t):
    return triangular(t - 1.0 - t * t, t, t + 1.0 + t * t, K)


def right_gh_fails(t):
    """Constant up to 0, so the jump difference at 0 exists, but f(p) gH-
    f(0) exists for no p > 0: the lower difference p a(1-a)/20 rises and
    falls in a."""
    a = np.arange(K + 1) / K
    return FuzzyNumber(-2.0 + a + max(t, 0.0) * (a - a * a) / 20.0, 2.0 - a)


class TestOnePipeline:
    """nabla_many classifies and analyses each point once and builds every
    jump result the way derivative_report does."""

    def test_one_classify_per_point(self, monkeypatch):
        calls = []
        classify = TimeScale.classify

        def counted(self, t):
            calls.append(t)
            return classify(self, t)

        monkeypatch.setattr(TimeScale, "classify", counted)
        pts = [-2.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
        results = nabla_many(FuzzyFunction(parabola_tri, K=K), MIXED, pts)
        assert [r.t for r in results] == pts
        assert calls == pts

    def test_plain_callable_skips_the_stacked_pass(self, monkeypatch):
        pts = [-2.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
        expect = TestNablaMany.outcome(lambda: [
            derivative_report(FuzzyFunction(parabola_tri, K=K), MIXED, t)
            for t in pts])

        def refuse(self, points):
            raise AssertionError("a plain callable reached the stacked pass")

        monkeypatch.setattr(FuzzyFunction, "stack", refuse)
        got = TestNablaMany.outcome(
            lambda: nabla_many(FuzzyFunction(parabola_tri, K=K), MIXED, pts))
        assert got == expect
        assert isinstance(got, list)

    @pytest.mark.parametrize("fn, case", [
        # the support narrows from [-3, 1] at -1 to [-1, 1] at 0
        (parabola_tri, DiffCase.CASE_II),
        (right_gh_fails, DiffCase.NOT_DIFFERENTIABLE),
    ])
    def test_jump_with_dense_right_side(self, fn, case):
        ts = TimeScale([ArithmeticGrid(-3.0, -1.0, 1.0), ClosedInterval(0.0, 1.0)])
        single = derivative_report(FuzzyFunction(fn, K=K), ts, 0.0)
        (many,) = nabla_many(FuzzyFunction(fn, K=K), ts, [0.0])
        assert many.case is single.case is case
        assert json.dumps(many.to_dict(), sort_keys=True) == json.dumps(
            single.to_dict(), sort_keys=True)
        if case is DiffCase.NOT_DIFFERENTIABLE:
            assert many.evidence["failure"] == "GhNonexistent"
            assert many.evidence["diagnostics"]["side"] == "right"
        else:
            assert many.evidence["path"] == "backward-quotient"
            assert many.evidence["h_orientations"] == single.evidence["h_orientations"]
            assert many.evidence["continuity_gaps"]["right"]


class TestJumpCase:
    """A jump's case is the case of its gH difference f(t) gH- f(rho)."""

    @pytest.mark.parametrize("fn, case", [
        # the width 2e10 t grows
        (lambda t: triangular(1e10 * t, 2e10 * t, 3e10 * t, K), DiffCase.CASE_I),
        # -f has the width of f, so it is case (i) too
        (lambda t: -triangular(1e10 * t, 2e10 * t, 3e10 * t, K), DiffCase.CASE_I),
        # the width 2e10 (3 - t) shrinks
        (lambda t: triangular(3e10 * (t - 3), 2e10 * (t - 3), 1e10 * (t - 3), K),
         DiffCase.CASE_II),
    ])
    def test_large_magnitude(self, fn, case):
        # the gH quotient and the backward endpoint quotient differ by
        # round-off far above the absolute agreement tolerance here
        ts = TimeScale([ArithmeticGrid(0.0, 3.0, 0.3)])
        pts = [ts.snap(0.9), ts.snap(2.1)]
        f = FuzzyFunction(fn, K=K)
        for r in [nabla_gh(f, ts, t) for t in pts] + nabla_many(f, ts, pts):
            assert r.case is case
            pc = ts.classify(r.t)
            expect = gh_diff(f(r.t), f(pc.rho)).value * (1.0 / pc.nu)
            # 1e-15 of the values' magnitude, about 1e11
            assert hausdorff(r.value, expect) <= 1e-4

    @pytest.mark.parametrize("tol, case", [(1e-6, DiffCase.CRISP),
                                           (1e-8, DiffCase.CASE_I)])
    def test_crisp_within_agreement_tol(self, tol, case):
        # the derivative's width is 2e-7 at every jump of ZZ
        f = FuzzyFunction(lambda t: triangular(t - 1e-7 * t, t, t + 1e-7 * t, K),
                          K=K)
        cfg = ProbeConfig(agreement_tol=tol)
        assert nabla_gh(f, ZZ, 3.0, cfg).case is case
        assert nabla_many(f, ZZ, [3.0], cfg)[0].case is case

    @given(
        pieces=st.lists(TestNablaMany.piece, min_size=1, max_size=3),
        coef=st.tuples(st.sampled_from([0.0, 1.0, -2.0]),
                       st.sampled_from([0.0, 0.5]),
                       st.sampled_from([0.0, 0.7]),
                       st.sampled_from([0.0, 1.3]),
                       st.sampled_from([1.0, 1e6, 1e10, 1e13])),
    )
    @settings(max_examples=60, deadline=None)
    def test_case_is_gh_case(self, pieces, coef):
        p, q, r, s, mag = coef
        ts = TimeScale(pieces)
        cfg = ProbeConfig()

        def fn(t):
            m = p * t + q * math.sin(3.0 * t)
            wl = 1.0 + r * math.cos(2.0 * t) ** 2
            wr = 1.0 + s * math.sin(t) ** 2
            return triangular(mag * (m - wl), mag * m, mag * (m + wr), K)

        f = FuzzyFunction(fn, K=K)
        pts = ts.left_scattered_points()
        for t, res in zip(pts, nabla_many(f, ts, pts, cfg)):
            pc = ts.classify(t)
            gh = gh_diff(f(t), f(pc.rho))
            if gh.case is GhCase.NONE:
                assert res.evidence["failure"] == "GhNonexistent"
                continue
            if res.value is None:
                # the jump exists; only a dense right side may fail
                assert res.evidence["diagnostics"]["side"] == "right"
                continue
            quot = gh.value * (1.0 / pc.nu)
            # round-off in f(t) - f(rho) may leave 4 ulps of the operands'
            # magnitude in the width, over nu
            mag = max(f(t).magnitude(), f(pc.rho).magnitude())
            crisp_tol = cfg.agreement_tol + 4.0 * np.finfo(float).eps * mag / pc.nu
            if float(np.max(quot.upper - quot.lower)) <= crisp_tol:
                expect = DiffCase.CRISP
            elif gh.case in (GhCase.CASE_I, GhCase.BOTH):
                expect = DiffCase.CASE_I
            else:
                expect = DiffCase.CASE_II
            assert res.case is expect


class TestStackedProbes:
    """A probed side takes f's levels at its probes from one stack of the
    vector form, or from f(p) in order when there is none or it raises;
    both give the same reports, and raise the same errors."""

    @staticmethod
    def outcomes(f, ts, pts):
        return [TestNablaMany.outcome(lambda: [run(f, ts, t)])
                for t in pts for run in (derivative_report, endpoint_derivatives)]

    def same_as_plain(self, stacked, plain, ts, pts):
        got = self.outcomes(stacked, ts, pts)
        assert got == self.outcomes(plain, ts, pts)
        return got

    @given(
        pieces=st.lists(TestNablaMany.piece, max_size=2),
        intervals=st.lists(TestNablaMany.interval, min_size=1, max_size=2),
        src=st.sampled_from([
            README_FN,
            "tri(t^3 - 1, t^2, t^2 + 1 + t^4)",
            "endpoints(t - (1-alpha)*(t^2+1); t + (1-alpha)*(t^2+1))",
            # no gH difference at the probes; levels fail to nest for |t| > 1.49
            "endpoints(-2 + alpha + t*(alpha - alpha^2)/2; 2 - alpha)",
            "endpoints(alpha*t^2 - 2; 2 - alpha*sqrt(t^2+1))",
            # width kink at 0, endpoints out of order for t > 7
            "tri(-1-sqrt(t^2), 0, 1+sqrt(t^2))",
            "tri(t, 7, 8)",
            "tri(piecewise(in hgrid => 0, in qgrid => t, in recip => t^2, "
            "in interval => -1), 1, 2)",
        ]),
        idx=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_callable(self, pieces, intervals, src, idx):
        ts = TimeScale(pieces + intervals)
        dense = [t for t in ts.sample_points(40)
                 if (pc := ts.classify(t)).left is Side.DENSE
                 or pc.right is Side.DENSE]
        pts = [dense[i % len(dense)] for i in idx]
        self.same_as_plain(unchecked(src, ts), unchecked(src, ts, plain=True),
                           ts, pts)

    # the right probes of 0.5 on interval(0,1) are 0.5 + 1e-4 / 2^k, k = 0..7;
    # the third to the sixth lie inside the band
    BAND = (0.5 + 2e-6, 0.5 + 3e-5)

    @classmethod
    def pair(cls, fn):
        """fn as a plain callable, and with a vector form that stacks fn's
        values, raising at the first point where fn raises or whose levels
        are out of order."""
        def vector(t):
            rows = [fn(float(p)) for p in t]
            return (np.array([u.lower for u in rows]),
                    np.array([u.upper for u in rows]))
        return FuzzyFunction(fn, K=K, vector=vector), FuzzyFunction(fn, K=K)

    def test_vector_form_raises_partway_through_a_side(self):
        ts = TimeScale([ClosedInterval(0.0, 1.0)])

        def fails_in_band(t):
            if self.BAND[0] < t < self.BAND[1]:
                raise ValidationError(f"no value at t={t!r}")
            return triangular(t * t - 1.0, t, t + 1.0, K)

        def crosses_in_band(t):
            # the plain callable does not validate: inside the band the
            # levels cross, and only the stack's row check raises
            u = triangular(t * t - 1.0, t, t + 1.0, K)
            if self.BAND[0] < t < self.BAND[1]:
                return FuzzyNumber(u.upper, u.lower, validate=False)
            return u

        got = self.same_as_plain(*self.pair(fails_in_band), ts, [0.25, 0.5])
        assert got[2] == (ValidationError, "no value at t=0.500025")
        stacked, plain = self.pair(crosses_in_band)
        probes = [p for s in ts.approach_streams(0.5, "right", 8) for p in s.points]
        with pytest.raises(OrderViolation):
            stacked.stack(probes)
        got = self.same_as_plain(stacked, plain, ts, [0.25, 0.5])
        assert json.loads(got[2][0])["case"] == "NotDifferentiable"

    def test_earlier_probe_raises_first(self):
        # f's levels at the second right probe of 0.5 are not finite, so
        # its gH difference raises; f itself raises at the third probe
        ts = TimeScale([ClosedInterval(0.0, 1.0)])

        def fn(t):
            if t == 0.500025:
                raise ValidationError(f"no value at t={t!r}")
            u = triangular(t - 1.0, t, t + 1.0, K)
            if t == 0.50005:
                return FuzzyNumber(u.lower, u.upper + math.inf, validate=False)
            return u

        for f in self.pair(fn):
            with pytest.raises(OrderViolation, match="level arrays must be finite"):
                derivative_report(f, ts, 0.5)

    def test_orientation_overflow_raises(self):
        # 0 jumps from -1 and is dense on the right, where f(p) - f(-1)
        # overflows: the classical difference raises as it does on one probe
        ts = TimeScale([ExplicitPoints((-1.0,)), ClosedInterval(0.0, 1.0)])

        def fn(t):
            return crisp(-1e308 if t < 0 else 1e308 if t > 0 else 0.0, K)

        for f in self.pair(fn):
            with pytest.raises(OrderViolation, match="level arrays must be finite"):
                derivative_report(f, ts, 0.0)
