"""Backward derivative engine: exact jump quotients, one-sided limit
estimation, case classification, endpoint reports and the two identity
checkers. Expected values are worked out by hand in each test."""

import argparse
import json
import math
import os
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzynabla import cli, dsl, fuzzy, nabla
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
from fuzzynabla.rules import _graded_many, product_fuzzy, product_interval, sum_rule
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

    @pytest.mark.parametrize("ts, g, t, error, message, diagnostics", [
        # every probe value overflows while g(1) = 0: g is not a crisp
        # number there
        pytest.param(TimeScale([ClosedInterval(0.0, 2.0)]),
                     lambda t: 1e308 * t * t * 1e10 if t != 1.0 else 0.0, 1.0,
                     OrderViolation, "level arrays must be finite", None,
                     id="values-overflow-interval"),
        pytest.param(TimeScale([ArithmeticGrid(0.0, 2.0, 0.5)]),
                     lambda t: 1e308 * t * t * 1e10 if t != 1.0 else 0.0, 1.0,
                     OrderViolation, "level arrays must be finite", None,
                     id="values-overflow-grid"),
        # finite values whose left quotients overflow: their Richardson
        # extrapolation inf - inf is NaN
        pytest.param(TimeScale([ClosedInterval(0.0, 2.0)]),
                     lambda t: 1.7e308 * t * t, 1.0, LimitDisagreement,
                     "the estimate on the left of 1.0 is not finite (nan)",
                     {"side": "left", "criterion": "estimate", "value": math.nan},
                     id="estimate-left"),
        # two generator streams at 0 (no extrapolation): their estimates
        # are finite, but their spread overflows
        pytest.param(ACCUMULATING,
                     lambda t: 1.5e308 * t * (1 if _on_recip1(t) else -1), 0.0,
                     LimitDisagreement,
                     "the stream spread on the right of 0.0 is not finite (inf)",
                     {"side": "right", "criterion": "stream spread", "value": math.inf},
                     id="stream-spread-right"),
        # two finite estimates whose mean would overflow: a side's streams
        # are gated before they are averaged, and theirs differ by round-off
        pytest.param(ACCUMULATING, lambda t: 1.5e308 * t, 0.0, LimitDisagreement,
                     "subsequence estimates on the right of 0.0 disagree by "
                     "2e+292 (tolerance 1e-06)",
                     {"side": "right", "spread": 1.99584030953472e+292},
                     id="finite-spread-right"),
    ])
    def test_non_finite_is_refused_by_the_engine(self, ts, g, t, error,
                                                 message, diagnostics):
        # g is derived as a crisp function, by the fuzzy engine's criteria;
        # warnings are errors here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                nabla_scalar(g, ts, t)
        assert str(info.value) == message
        if diagnostics is not None:
            assert repr(info.value.diagnostics) == repr(diagnostics)

    def test_kink_is_refused_by_the_side_gap(self):
        # each side settles, on a slope of -1 and of 1: the left and right
        # limits disagree by 2
        with pytest.raises(LimitDisagreement) as info:
            nabla_scalar(lambda t: abs(t - 0.5), UNIT, 0.5)
        assert info.value.diagnostics == {"gap": 2.0}


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
        # and inf - inf gave NaN spreads that passed the tolerance gates;
        # f itself is finite on the scale, so it binds
        ts = parse_timescale("interval(0,1.3)")
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

    def test_reads_each_probe_once(self):
        # at an interval point of the rule-check benchmark's scale at 101
        # levels, the oracle reads f at t and at each of its 16 probes once,
        # not once a level (1,617 calls, all but one missing the memo cache)
        ts = parse_timescale("union(interval(0,1), hgrid(1,430,1))")
        calls = []

        def fn(t):
            calls.append(t)
            return triangular(0.18 * t * t, 0.41 * t * t + t, 0.76 * t * t + 2 * t, 100)

        f = FuzzyFunction(fn, K=100)
        r = nabla_gh(f, ts, 0.5)
        calls.clear()
        assert nabla._level_residual(f, ts, r, ProbeConfig()) <= 1e-6
        probes = [p for side in ("left", "right")
                  for s in ts.approach_streams(0.5, side, 8) for p in s.points]
        assert len(probes) == 16
        assert calls == [0.5] + probes


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

    @classmethod
    def evaluated(cls, fn, ts, pts) -> set:
        """The points where derivative_report calls fn at any of pts, each
        point on its own, also past a point that raises."""
        f, log = cls.logged(fn)
        for t in pts:
            try:
                derivative_report(f, ts, t)
            except Exception:
                pass
        return set(log)

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
            pts.insert(idx[0] % len(pts), ts._min)

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
        # fn is called only where the loop calls it, in chunk order: at
        # the same points when the loop completes, else among those that
        # each point's own call reads (the memo cache keeps three values,
        # so either may call fn again at a point it read before)
        assert set(log_many) <= self.evaluated(fn, ts, pts)
        if isinstance(loop, list):
            assert set(log_many) == set(log_loop)

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

    def test_overflowing_width_is_case_i(self):
        # the jump's levels are finite, but its support width 2e308 is not:
        # the quotient is f(1), case (i), and no level is rejected
        ts = TimeScale([ExplicitPoints((0.0, 1.0))])
        f1 = triangular(-1e308, 0.0, 1e308, 4)
        f = FuzzyFunction(
            lambda t: f1 if t == 1.0 else triangular(0.0, 0.0, 0.0, 4), K=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for res in (derivative_report(f, ts, 1.0),
                        nabla_many(f, ts, [1.0])[0]):
                assert res.case is DiffCase.CASE_I
                assert res.evidence["gh_case"] == "CaseI"
                assert res.value == f1


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
    so neighbouring points share values instead of stacking them again;
    the cache keeps only the last three values."""

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

    def test_bounded_after_a_long_pass(self):
        # a plain callable is called at every point of the pass through the
        # memo cache, which keeps the last three values, not one a point
        ts = parse_timescale("union(recip(1,2000), recip(sqrt2,2000), points(0))")
        f, log = TestNablaMany.logged(lambda t: U123 * t)
        pts = ts.left_scattered_points()
        results = nabla_many(f, ts, pts)
        assert len(results) == len(pts) == 4000
        assert len(set(log)) == 4001  # every jump and rho(1/2000) = 0
        assert 0 < len(f._cache) <= 3
        assert list(f._cache) == log[-len(f._cache):]  # the last ones


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


class TestAnalysisMemo:
    """One-point calls keep no memo of their last analysis: every call
    makes its own pass and gets a fresh result, an error is raised fresh
    and not kept, and a rule check analyses each of its functions once, in
    one joint pass."""

    @staticmethod
    def counted(monkeypatch):
        """How many functions each nabla._analyses call analyses, one entry
        a pass."""
        passes = []
        analyses = nabla._analyses

        def counting(rows, width, *args):
            passes.append(width)
            return analyses(rows, width, *args)

        monkeypatch.setattr(nabla, "_analyses", counting)
        return passes

    @staticmethod
    def dump(res) -> str:
        return json.dumps(res.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("t", [-2.0, 0.0, 0.5])  # jump, both, dense
    def test_rule_functions_derive_g_once(self, t, monkeypatch):
        f = FuzzyFunction(parabola_tri, K=K)
        g = FuzzyFunction(lambda s: U123 * (s + 5.0), K=K)
        passes = self.counted(monkeypatch)
        derived = []
        derive = nabla._derive

        def counting(report, *args):
            derived.append(report)
            return derive(report, *args)

        monkeypatch.setattr(nabla, "_derive", counting)
        sum_rule(f, g, MIXED, t)
        product_interval(lambda s: 1.0 - s / 10.0, g, MIXED, t)
        product_fuzzy(lambda s: s + 4.0, g, MIXED, t)
        # one joint pass each, of f, g and f + g, then of fs, g and fs * g:
        # each rule derives each of its functions once
        assert passes == [3, 3, 3]
        assert len(derived) == 9
        derivative_report(f, MIXED, t)
        assert passes == [3, 3, 3, 1]
        assert (endpoint_derivatives(g, MIXED, t).to_dict()
                == derivative_report(g, MIXED, t).endpoint_report.to_dict())

    @pytest.mark.parametrize("fn, t", [
        (parabola_tri, -2.0), (parabola_tri, 0.0), (parabola_tri, 0.5),
        (right_gh_fails, 0.0), (right_gh_fails, 0.5),  # a failed probe
    ])
    def test_hit_is_a_fresh_result(self, fn, t):
        f = FuzzyFunction(fn, K=K)
        first = derivative_report(f, MIXED, t)
        hit = derivative_report(f, MIXED, t)
        fresh = self.dump(derivative_report(FuzzyFunction(fn, K=K), MIXED, t))
        assert self.dump(first) == self.dump(hit) == fresh
        # edit everything a result holds that can be edited; an array the
        # results share must refuse the edit
        def edit(arr, value):
            if arr.flags.writeable:
                arr[:] = value
            else:
                with pytest.raises(ValueError, match="read-only"):
                    arr[:] = value

        for res in (hit, first):
            report = res.endpoint_report
            edit(report.alphas, -1.0)
            for side in (report.minus, report.plus):
                for arr in (side.lower, side.upper, side.lower_exists,
                            side.upper_exists, side.residual):
                    if arr is not None:
                        edit(arr, 7)
                for lo, hi in side.streams.values():
                    edit(lo, 7.0)
                    edit(hi, 7.0)
            for key in ("gh_cases", "continuity_gaps"):
                for streams in res.evidence.get(key, {}).values():
                    for values in streams.values():
                        values.append("edited")
            res.evidence.get("diagnostics", {})["edited"] = True
            assert self.dump(derivative_report(f, MIXED, t)) == fresh

    def test_raised_errors_are_their_own(self):
        f = FuzzyFunction(right_gh_fails, K=K)
        errors = []
        for _ in range(2):
            with pytest.raises(GhNonexistent) as err:
                nabla_gh(f, MIXED, 0.5)
            errors.append(err.value)
        first, again = errors
        assert first is not again
        assert first.diagnostics == again.diagnostics
        assert first.diagnostics is not again.diagnostics
        assert first.endpoint_report is not again.endpoint_report
        assert (first.endpoint_report.to_dict()
                == again.endpoint_report.to_dict())

    def test_another_key_misses(self, monkeypatch):
        # a call at another scale, t or cfg, and a call repeated, each make
        # their own pass
        f = FuzzyFunction(parabola_tri, K=K)
        passes = self.counted(monkeypatch)
        equal_scale = TimeScale(MIXED.pieces)
        runs = [
            lambda: derivative_report(f, MIXED, 0.5),
            lambda: derivative_report(f, MIXED, 0.25),
            lambda: derivative_report(f, equal_scale, 0.25),
            lambda: derivative_report(f, MIXED, 0.25, ProbeConfig(probe_count=9)),
            lambda: derivative_report(f, MIXED, 0.25,
                                      ProbeConfig(agreement_tol=1e-5)),
        ]
        first = [self.dump(run()) for run in runs]
        assert [self.dump(run()) for run in runs] == first
        assert passes == [1] * 2 * len(runs)

    def test_signed_zero_is_its_own_point(self):
        f = FuzzyFunction(lambda t: SYM_U * (t + 2.0), K=K)
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            for t in order:
                res = derivative_report(f, SYM, t)
                assert math.copysign(1.0, res.t) == math.copysign(1.0, t)
                assert self.dump(res) == self.dump(derivative_report(
                    FuzzyFunction(lambda t: SYM_U * (t + 2.0), K=K), SYM, t))

    def test_evaluation_error_is_not_kept(self):
        calls = []

        def fn(t):
            calls.append(t)
            if t == 3.0:
                raise ValidationError(f"fails at t={t!r}")
            return U123 * t

        f = FuzzyFunction(fn, K=K)
        for _ in range(2):
            with pytest.raises(ValidationError, match="fails at t=3.0"):
                derivative_report(f, ZZ, 3.0)
        assert calls.count(3.0) == 2


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
        f_loop, log_loop = TestNablaMany.logged(parabola_tri)
        expect = TestNablaMany.outcome(lambda: [
            derivative_report(f_loop, MIXED, t) for t in pts])

        def refuse(self, points):
            raise AssertionError("a plain callable reached the stacked pass")

        monkeypatch.setattr(FuzzyFunction, "stack", refuse)
        f_many, log_many = TestNablaMany.logged(parabola_tri)
        got = TestNablaMany.outcome(lambda: nabla_many(f_many, MIXED, pts))
        assert got == expect
        assert isinstance(got, list)
        # the loop's points, each once, in record order: a record's t, then
        # its left side's rho (rho(-2) = -3) or probes, then its right
        # side's sigma or probes (the loop may read a point again once its
        # probes have left the memo cache)
        want = []
        for t in pts:
            pc = MIXED.classify(t)
            want.append(t)
            for side, density, neighbor in (("left", pc.left, pc.rho),
                                            ("right", pc.right, pc.sigma)):
                want += ([neighbor] if density is Side.SCATTERED else
                         [p for s in MIXED.approach_streams(t, side, 8)
                          for p in s.points])
        assert set(log_many) == set(log_loop)
        assert log_many == list(dict.fromkeys(want))

    def test_earlier_record_raises_first(self):
        # 0.5's right probes fail, and f returns no fuzzy number at 3: the
        # chunk reads f at 3 before 0.5's probes, but raises at 0.5's turn
        ts = TimeScale([ClosedInterval(0.0, 1.0), ArithmeticGrid(2.0, 4.0, 1.0)])

        def fn(t):
            if t == 3.0:
                return "not a fuzzy number"
            return triangular(t, t + 5 if 0.5 < t < 0.6 else t + 1, t + 2, K)

        for run in (lambda: derivative_report(FuzzyFunction(fn, K=K), ts, 0.5),
                    lambda: nabla_many(FuzzyFunction(fn, K=K), ts, [0.5, 3.0])):
            with pytest.raises(OrderViolation, match="triangular requires"):
                run()
        with pytest.raises(TypeError, match="returned str"):
            nabla_many(FuzzyFunction(fn, K=K), ts, [1.0, 3.0])

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

    def test_every_value_prints(self):
        # the jump-table benchmark at seed 1: about a quarter of f's 2,000
        # values and of their derivatives have a core crossed by round-off,
        # which repr orders
        ts = parse_timescale("union(recip(1,1000), recip(sqrt2,1000), points(0))")
        f = bind_function(parse_function(
            "tri(piecewise(in recip(1) => -2.49, in recip(sqrt2) => t-2.49), "
            "(t^2+t)/2-0.8, "
            "piecewise(in recip(1) => t^2+t+0.01, in recip(sqrt2) => t^2+0.01))"),
            ts)
        pts = ts.left_scattered_points()
        values = [f(t) for t in pts]
        derivatives = [r.value for r in nabla_many(f, ts, pts)]
        assert len(values) == len(derivatives) == 2000
        for crossed in (values, derivatives):
            assert sum(u.lower[-1] > u.upper[-1] for u in crossed) > 400
        for u in values + derivatives:
            core = u.core
            assert core.lo <= core.hi and astuple(core) == astuple(u.level(1.0))
            assert repr(u).startswith("FuzzyNumber(K=100, support=[")

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
            size = max(float(np.abs([f(s).lower, f(s).upper]).max())
                       for s in (t, pc.rho))
            crisp_tol = cfg.agreement_tol + 4.0 * np.finfo(float).eps * size / pc.nu
            if float(np.max(quot.upper - quot.lower)) <= crisp_tol:
                expect = DiffCase.CRISP
            elif gh.case in (GhCase.CASE_I, GhCase.BOTH):
                expect = DiffCase.CASE_I
            else:
                expect = DiffCase.CASE_II
            assert res.case is expect

    def test_failing_jump_runs_the_kernel_once(self, monkeypatch):
        # the peak drops at 2, so f(2) gH- f(1) exists in neither case: the
        # failing row's diagnostics come from the pass's one gh_exists call
        ts = parse_timescale("union(hgrid(0,1,1), points(2,3,4))")
        f = bind_function(parse_function(
            "tri(t-1-t^2, piecewise(in points => t-4, in hgrid => t), t+1+t^2)"),
            ts, K=K)
        expect = gh_diff(f(2.0), f(1.0)).diagnostics
        calls = []
        kernel = nabla.gh_exists

        def counting(d_lo, d_hi):
            calls.append(len(d_lo))
            return kernel(d_lo, d_hi)

        monkeypatch.setattr(nabla, "gh_exists", counting)
        results = nabla_many(f, ts, [1.0, 2.0, 3.0])
        assert calls == [3]
        assert [r.case for r in results] == [DiffCase.CASE_I,
                                             DiffCase.NOT_DIFFERENTIABLE,
                                             DiffCase.CASE_I]
        assert results[1].evidence["failure"] == "GhNonexistent"
        assert results[1].evidence["diagnostics"] == expect
        with pytest.raises(GhNonexistent) as err:
            nabla_gh(f, ts, 2.0)
        assert err.value.diagnostics == expect


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


# three definitions over interval(-2,-1) and hgrid(0,260,1): finite
# derivatives, no gH difference at the jumps right of 0, and probed limits;
# no arm covers a points(...) piece, so f fails there naming the point
CHUNK_SOURCES = [
    "tri(piecewise(in hgrid => -1 - t^2, in interval => -1 - t^2), 0.5*t, 2 + t^2)",
    "tri(piecewise(in hgrid => -1000, in interval => -1000), t + sqrt(t^2), 1000)",
    "endpoints(piecewise(in hgrid => t, in interval => t) - (1-alpha)*(t^2+1); "
    "t + (1-alpha)*(t^2+1))",
]


def chunk_scale(bad=()) -> TimeScale:
    """interval(-2,-1) and hgrid(0,260,1), with the points bad."""
    spec = "union(interval(-2,-1), hgrid(0,260,1)"
    if bad:
        spec += ", points(" + ", ".join(repr(b) for b in sorted(bad)) + ")"
    return parse_timescale(spec + ")")


def chunk_bounds(ts: TimeScale, pts, width: int) -> list[tuple[int, int]]:
    """The index of the first and of the last record of each chunk of a
    pass of width functions over pts."""
    records, _err = nabla._records(ts, pts)
    bounds, start = [], 0
    for chunk, _slot in nabla._chunks(ts, records, width, ProbeConfig()):
        bounds.append((start, start + len(chunk) - 1))
        start += len(chunk)
    return bounds


@st.composite
def chunked_points(draw):
    """65 to 200 points of chunk_scale, in drawn order, and the points
    where f fails: each is put at the first or the last record of a chunk,
    between two grid points that may be other records' t."""
    n = draw(st.integers(65, 200))
    start = draw(st.integers(0, 260 - n))
    pts = [float(k) for k in range(start, start + n)]
    dense = draw(st.integers(0, 3))
    pts[:dense] = [-1.75, -1.5, -1.0][:dense]
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(pts)
    bad = set()
    bounds = chunk_bounds(chunk_scale(), pts, 1)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from(draw(st.sampled_from(bounds))))
        if pts[i] >= 0:
            pts[i] += 0.5
            bad.add(pts[i])
    return pts, bad


# the rule-check benchmark at seed 1: its scale, f and g, and its 20 interval
# points, then 1..430
RULE_SCALE = "union(interval(0,1), hgrid(1,430,1))"
RULE_F = "tri(0.18*t^2, 0.41*t^2+t, 0.76*t^2+2*t)"
RULE_G = "endpoints(0.34*t - 0.5; 1.74*t + 0.7)"
RULE_POINTS = [
    0.028778, 0.031642, 0.055698, 0.068533, 0.083997, 0.09327, 0.169395,
    0.284847, 0.290702, 0.314277, 0.386953, 0.413023, 0.562173, 0.594526,
    0.701035, 0.800774, 0.828848, 0.830569, 0.890609, 0.91255,
] + [float(k) for k in range(1, 431)]


class TestChunkedPass:
    """A pass over many records runs per chunk of records that read at
    most CHUNK_ROWS points (a chunk of consecutive grid points reads its
    records' t, the first one's rho and the last one's sigma): one stack
    each, with results and raised errors those of the per-point
    loop, also when a point's rho lies in an earlier chunk or f fails at
    the first or the last record of a chunk."""

    @staticmethod
    def streamed(results):
        """The results' JSON up to the first error, and that error."""
        got = []
        try:
            for r in results:
                got.append(json.dumps(r.to_dict(), sort_keys=True))
        except Exception as err:
            return got, (type(err), str(err))
        return got, None

    @given(drawn=chunked_points(), src=st.sampled_from(CHUNK_SOURCES))
    @settings(max_examples=25, deadline=None)
    def test_matches_derivative_report_loop(self, drawn, src):
        pts, bad = drawn
        ts = chunk_scale(bad)
        loop = self.streamed(derivative_report(unchecked(src, ts, K=4), ts, t)
                             for t in pts)
        records, err = nabla._records(ts, pts)
        assert err is None
        # each error at the turn of its point: as many results before it
        assert self.streamed(nabla._derivatives(
            unchecked(src, ts, K=4), ts, records, ProbeConfig(), report=True)) == loop
        many = TestNablaMany.outcome(
            lambda: nabla_many(unchecked(src, ts, K=4), ts, pts))
        assert many == (loop[0] if loop[1] is None else loop[1])

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 126, 127, 128, 129, 200])
    def test_one_stack_per_chunk(self, n, monkeypatch):
        ts = chunk_scale()
        f = bind_function(parse_function(CHUNK_SOURCES[0]), ts, K=K)
        sizes = []
        stack = FuzzyFunction.stack

        def counted(self, t):
            sizes.append(len(t))
            return stack(self, t)

        monkeypatch.setattr(FuzzyFunction, "stack", counted)
        nabla_many(f, ts, [float(k) for k in range(1, n + 1)])
        # a chunk stacks its records' t, their rho and the last one's sigma
        size = nabla.CHUNK_ROWS - 2
        assert sizes == [min(size, n - start) + 2 for start in range(0, n, size)]

    @staticmethod
    def jump_passes(monkeypatch) -> list:
        """The number of pair rows of every _jump_rows call from now on."""
        rows = []
        jump_rows = nabla._jump_rows

        def counted(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps):
            rows.append(len(nu))
            return jump_rows(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps)

        monkeypatch.setattr(nabla, "_jump_rows", counted)
        return rows

    @pytest.mark.parametrize("n", [65, 200])
    def test_plain_callable_one_jump_pass_per_chunk(self, n, monkeypatch):
        ts = chunk_scale()
        pts = [float(k) for k in range(1, n + 1)]
        f = unchecked(CHUNK_SOURCES[0], ts, K=4, plain=True)
        expect = [json.dumps(derivative_report(f, ts, t).to_dict(), sort_keys=True)
                  for t in pts]
        rows = self.jump_passes(monkeypatch)
        f = unchecked(CHUNK_SOURCES[0], ts, K=4, plain=True)
        got = [json.dumps(r.to_dict(), sort_keys=True) for r in nabla_many(f, ts, pts)]
        assert got == expect
        # a chunk's pairs are its records' jumps and the last one's right side
        size = nabla.CHUNK_ROWS - 2
        assert rows == [min(size, n - start) + 1 for start in range(0, n, size)]

    def test_no_jump_pass_without_a_jump(self, monkeypatch):
        ts = chunk_scale()
        f = unchecked(CHUNK_SOURCES[0], ts, K=4)
        rows = self.jump_passes(monkeypatch)
        derivative_report(f, ts, -1.5)
        nabla_many(f, ts, [-1.75, -1.5, -1.25])
        assert rows == []
        # 0 jumps from -1 and to 1: the pairs (-1, 0) and (0, 1)
        nabla_many(f, ts, [-1.5, 0.0, -1.25])
        assert rows == [2]

    def test_passes_leave_the_memo_empty(self, monkeypatch):
        # the product graders read g at t and rho from g's pass, and the
        # CLI's rho-identity reads f there from f's: over the rule-check
        # benchmark's 450 points at seed 1, no memo cache keeps a value
        ts = parse_timescale(RULE_SCALE)
        for rule, fs_src in (("product-interval", "1-t/945"),
                             ("product-fuzzy", "t+3.67")):
            g = bind_function(parse_function(RULE_G), ts)
            fs = cli._scalar_fn(argparse.Namespace(scalar_fn=fs_src))
            reports = list(_graded_many(rule, fs, g, ts, RULE_POINTS))
            assert len(reports) == len(RULE_POINTS) == 450
            assert g._cache == {}, rule

        bound = []
        bind = cli._bind

        def recording(args, want=1):
            ts, fns = bind(args, want)
            bound.extend(fns)
            return ts, fns

        monkeypatch.setattr(cli, "_bind", recording)
        code = cli.main(["check", "rho-identity", "--timescale", RULE_SCALE,
                         "--fn", RULE_F, "--out", os.devnull,
                         "--points=" + ",".join(map(repr, RULE_POINTS))])
        assert code == 0
        (f,) = bound
        assert f._cache == {}


class TestJointPass:
    """A rule check reads f and g (or g and fs) once per point, in one
    joint pass that computes f + g (or fs * g) from their rows and runs
    every function's rows through one kernel call per step."""

    def test_check_sum_stacks_f_and_g_once(self, monkeypatch, capsys):
        # the rule-check benchmark's check sum: f and g are each stacked
        # once a chunk at every t, rho, sigma and probe its records read,
        # and f + g never is (each was stacked 1,584 times when f + g was
        # a pass of its own, 820 when a chunk's probes were stacked side by
        # side); no chunk's array reaches glibc's 128 KB mmap threshold
        stacked, sizes = {}, []
        stack, jump_rows, joint = FuzzyFunction.stack, nabla._jump_rows, nabla._stacked

        def counted_stack(self, t):
            stacked[id(self)] = stacked.get(id(self), 0) + len(t)
            return stack(self, t)

        def counted_jumps(ft_lo, *args):
            sizes.append(ft_lo.nbytes)
            return jump_rows(ft_lo, *args)

        def counted_joint(cols, n):
            lo, hi = joint(cols, n)
            sizes.append(lo.nbytes)
            return lo, hi

        monkeypatch.setattr(FuzzyFunction, "stack", counted_stack)
        monkeypatch.setattr(nabla, "_jump_rows", counted_jumps)
        monkeypatch.setattr(nabla, "_stacked", counted_joint)
        points = "--points=" + ",".join(repr(t) for t in RULE_POINTS)
        assert cli.main(["check", "sum", "--timescale", RULE_SCALE, "--fn", RULE_F,
                         "--fn", RULE_G, points]) == 0
        capsys.readouterr()

        # a chunk takes records while the points they read, t, rho, sigma
        # at a scattered right side and the probes of each dense side, are
        # at most CHUNK_ROWS // 3
        ts = parse_timescale(RULE_SCALE)
        want, chunk = 0, set()
        for t in RULE_POINTS:
            pc = ts.classify(t)
            pts = {pc.t, pc.rho} | ({pc.sigma} if pc.right is Side.SCATTERED else set())
            pts |= {p for side, density in (("left", pc.left), ("right", pc.right))
                    if density is Side.DENSE
                    for s in ts.approach_streams(pc.t, side, 8) for p in s.points}
            if chunk and 3 * len(chunk | pts) > nabla.CHUNK_ROWS:
                want, chunk = want + len(chunk), set()
            chunk |= pts
        want += len(chunk)
        assert sorted(stacked.values()) == [want, want] == [798, 798]
        assert sizes and max(sizes) < 128 * 1024

    @pytest.mark.parametrize("t, pair_rows", [(-2.0, 6), (0.0, 3)])
    def test_sum_rule_one_kernel_call(self, t, pair_rows, monkeypatch):
        # at a jump f, g and f + g take their quotients and their scattered
        # sides from one _jump_rows call: a row per function and scattered
        # pair, (-3, -2) and (-2, -1) at -2, (-1, 0) at 0, the jump's first
        f = FuzzyFunction(parabola_tri, K=K)
        g = FuzzyFunction(lambda s: U123 * (s + 5.0), K=K)
        calls = []
        jump_rows = nabla._jump_rows

        def counted_jumps(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps):
            calls.append((len(nu), jumps))
            return jump_rows(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps)

        monkeypatch.setattr(nabla, "_jump_rows", counted_jumps)
        sum_rule(f, g, MIXED, t)
        assert calls == [(pair_rows, 3)]


class TestDenseChunk:
    """A chunk of probed records reads each function once, at its records'
    t and probes, in one evaluation step, and takes every probe's quotient
    from one gh_exists call; its level stack stays under 128 KB at 101
    levels; a plain callable is called in record order and stops at the
    first point that raises, which is raised at its record's turn."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_one_step_and_one_kernel_call_per_chunk(self, width, monkeypatch):
        # the rule-check benchmark's 20 interval points, each read at t and
        # at 8 probes on either side: as many of them in a chunk as fit
        # 128 rows of the functions' stack
        ts = parse_timescale(RULE_SCALE)
        pts = RULE_POINTS[:20]
        f = bind_function(parse_function(RULE_F), ts)
        g = bind_function(parse_function(RULE_G), ts)
        run = ((lambda: nabla_many(f, ts, pts)) if width == 1 else
               (lambda: list(_graded_many("sum", f, g, ts, pts))))
        expect = [json.dumps(r.to_dict(), sort_keys=True, default=str) for r in run()]
        steps, kernel, sizes = {}, [], []
        stack, gh_exists, joint = FuzzyFunction.stack, nabla.gh_exists, nabla._stacked

        def counted_stack(self, t):
            steps.setdefault(id(self), []).append(len(t))
            return stack(self, t)

        def counted_kernel(d_lo, d_hi):
            kernel.append(len(d_lo))
            return gh_exists(d_lo, d_hi)

        def counted_joint(cols, n):
            lo, hi = joint(cols, n)
            sizes.append(lo.nbytes)
            return lo, hi

        monkeypatch.setattr(FuzzyFunction, "stack", counted_stack)
        monkeypatch.setattr(nabla, "gh_exists", counted_kernel)
        monkeypatch.setattr(nabla, "_stacked", counted_joint)
        assert [json.dumps(r.to_dict(), sort_keys=True, default=str)
                for r in run()] == expect
        size = nabla.CHUNK_ROWS // (17 * width)
        chunks = [min(size, 20 - start) for start in range(0, 20, size)]
        assert len(chunks) > 1
        assert list(steps.values()) == [[17 * n for n in chunks]] * min(width, 2)
        assert kernel == [16 * width * n for n in chunks]
        assert len(sizes) == len(chunks) and max(sizes) < 128 * 1024

    def test_plain_callable_in_record_order(self):
        # f fails at the third right probe of 0.5: it is called at 0.25's
        # points, then at 0.5's up to that probe, and 0.25's result comes
        # before the error
        pts = [0.25, 0.5, 0.75]
        bad = 0.5 + 2.5e-05
        log = []

        def fn(t):
            log.append(t)
            if t == bad:
                raise ValidationError(f"no value at t={t!r}")
            return triangular(t - 1.0, t, t + 1.0 + t * t, K)

        records, _err = nabla._records(UNIT, pts)
        results = nabla._derivatives(FuzzyFunction(fn, K=K), UNIT, records,
                                     ProbeConfig(), report=True)
        assert next(results).t == 0.25
        with pytest.raises(ValidationError, match="no value at t=0.500025"):
            next(results)
        reads = [p for t in pts for p in [t] + [
            p for side in ("left", "right")
            for s in UNIT.approach_streams(t, side, 8) for p in s.points]]
        assert bad in reads
        assert log == reads[:reads.index(bad) + 1]


# -- the row operations as they were before the stacked step, kept as the ----
# -- references of the pass's row kernels -------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def jump_rows_reference(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg):
    """_jump_rows as it was before it read finiteness from the kernel."""
    gh = fuzzy.gh_exists(ft_lo - fr_lo, ft_hi - fr_hi)
    lower, upper = gh.values()
    k = (1.0 / nu)[:, None]
    lower *= k
    upper *= k
    finite = np.isfinite(lower).all(axis=1) & np.isfinite(upper).all(axis=1)
    mag = np.maximum(np.maximum(np.abs(ft_lo[:, 0]), np.abs(ft_hi[:, 0])),
                     np.maximum(np.abs(fr_lo[:, 0]), np.abs(fr_hi[:, 0])))
    crisp = ((upper - lower).max(axis=1)
             <= cfg.agreement_tol + nabla.JUMP_ROUND_OFF * mag / nu)
    case = [DiffCase.CRISP if c else DiffCase.CASE_I if i else DiffCase.CASE_II
            for c, i in zip(crisp.tolist(), gh.ok_i.tolist())]
    return lower, upper, gh.cases(), case, finite, gh


@np.errstate(over="ignore", invalid="ignore")
def scalar_at_reference(g, ts: TimeScale, pc, cfg: ProbeConfig) -> float:
    """nabla_scalar as it was with a limit engine of its own: the quotient
    (g(t) - g(rho)) / nu at a jump; else every stream's last (Richardson
    extrapolated when synthetic) quotient on each dense side, averaged
    over both sides, refused when their pooled spread or any tail spread
    exceeds the tolerance. A value that is not finite is rejected by name
    (require_finite) before any tolerance gate."""
    def require_finite(side, criteria):
        for criterion, values in criteria:
            values = np.asarray(values, dtype=float).ravel()
            bad = values[~np.isfinite(values)]
            if bad.size:
                value = float(bad[0])
                where = f"at {t!r}" if side is None else f"on the {side} of {t!r}"
                raise LimitDisagreement(
                    f"the {criterion} {where} is not finite ({value!r})",
                    {"side": side, "criterion": criterion, "value": value})

    t = pc.t
    if pc.left is Side.SCATTERED:
        value = (g(t) - g(pc.rho)) / pc.nu
        require_finite("left", (("quotient", value),))
        return value

    gt = g(t)
    ests = []
    worst_tail = 0.0
    for side, density in (("left", pc.left), ("right", pc.right)):
        if density is not Side.DENSE:
            continue
        streams = ts.approach_streams(t, side, cfg.probe_count)
        for s in streams:
            q = np.array([(g(p) - gt) / (p - t) for p in s.points])
            if s.synthetic and len(q) >= 2:
                q = 2.0 * q[1:] - q[:-1]
            # the max spread over the trailing half, of at least two
            tail_q = q[min(len(q) - 2, len(q) // 2):]
            tail = float(tail_q.max() - tail_q.min()) if len(q) >= 2 else 0.0
            require_finite(side, (("quotient", q), ("tail spread", tail)))
            ests.append(float(q[-1]))
            worst_tail = max(worst_tail, tail)
    if not ests:
        raise LimitDisagreement(f"no probe points around {t!r}")
    spread = max(ests) - min(ests)
    value = float(np.mean(ests))
    require_finite(None, (("stream spread", spread), ("value", value)))
    if spread > cfg.agreement_tol or worst_tail > cfg.agreement_tol:
        raise LimitDisagreement(
            f"scalar derivative estimates at {t!r} disagree by "
            f"{max(spread, worst_tail):.3g}")
    return value


class TestScalarReference:
    """nabla_scalar, which derives a real function as a crisp fuzzy one, is
    its former limit engine wherever that engine settles. At a jump: bit
    for bit when nu is a power of two, else within 4 ulps ((1/nu) * d
    against d / nu). At a dense point: bit for bit when one side is probed
    or each probed side has one stream; else both average the same stream
    estimates with other weights (the mean of the side means against the
    mean of every stream), so they differ by at most the estimates' spread,
    which the reference gated at the agreement tolerance."""

    SCALES = [
        "interval(0,2)", "hgrid(0,3,0.5)", "hgrid(0,3,0.3)", "qgrid(2,-3,3)",
        "qgrid(3,-2,2)", "union(interval(0,1), hgrid(1,4,0.25))",
        "union(hgrid(-2,0,0.3), interval(0,1), points(1.7, 2))",
        "union(recip(1,30), recip(sqrt2,30), points(0))",
        "union(interval(-1,0), recip(1,30), recip(sqrt2,30))",
    ]

    @given(src=st.sampled_from(SCALES),
           coef=st.tuples(st.sampled_from([0.0, 1.0, -2.5]),
                          st.sampled_from([0.0, 1.0, 0.3, -7.0]),
                          st.sampled_from([0.0, 0.0, 1.0, -0.5]),
                          st.sampled_from([0.0, 0.0, 0.25])),
           pick=st.integers(0, 10 ** 6))
    @example(  # 0: a synthetic stream on the left, two generators on the right
        src=SCALES[-1], coef=(1.0, 1.0, 0.0, 0.0), pick=2)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, src, coef, pick):
        ts = parse_timescale(src)
        cfg = ProbeConfig()
        cand = sorted({*ts.left_scattered_points(),
                       *(t for t in ts.sample_points(30) if ts.in_kappa(t))})
        t = cand[pick % len(cand)]
        a0, a1, a2, a3 = coef

        def g(s):
            return a0 + s * (a1 + s * (a2 + s * a3))

        pc = ts.classify(t)
        try:
            want = scalar_at_reference(g, ts, pc, cfg)
        except LimitDisagreement:
            return  # the engine gates each side on its own, and may settle
        got = nabla_scalar(g, ts, t, cfg)
        if pc.left is Side.SCATTERED:
            exact, bound = math.frexp(pc.nu)[0] == 0.5, 4 * math.ulp(want)
        else:
            streams = [len(ts.approach_streams(t, side, cfg.probe_count))
                       for side, density in (("left", pc.left), ("right", pc.right))
                       if density is Side.DENSE]
            exact, bound = len(streams) == 1 or max(streams) == 1, cfg.agreement_tol
        if exact:
            assert same_bits(got, want), (got, want)
        else:
            assert abs(got - want) <= bound, (got, want)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


LEVEL_SPECIALS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e308, -1e308)


@st.composite
def level_stack(draw, n, K):
    """n rows of levels at K levels: a triangular number's, as triangular
    computes them, at magnitudes up to 1e300, sometimes with the core
    crossed by an ulp or the ends swapped, a few entries +-inf, NaN or
    -0.0, and now and then a whole row +-inf or NaN."""
    lo, hi = [], []
    for _ in range(n):
        a, b, c = sorted(draw(st.floats(-10, 10)) for _ in range(3))
        scale = draw(st.sampled_from([1.0, 1.0, 1e-9, 1e10, 1e300]))
        a, b, c = a * scale, b * scale, c * scale
        grid = [k / K if K else 0.0 for k in range(K + 1)]
        row_lo = [a + g * (b - a) for g in grid]
        row_hi = [c + g * (b - c) for g in grid]
        mode = draw(st.sampled_from(["exact", "exact", "ulp", "swapped"]))
        if mode == "ulp":
            row_lo[-1] = math.nextafter(row_hi[-1], math.inf)
        elif mode == "swapped":
            row_lo, row_hi = row_hi, row_lo
        for row in (row_lo, row_hi):
            if draw(st.integers(0, 11)) == 0:
                row[draw(st.integers(0, K))] = draw(st.sampled_from(LEVEL_SPECIALS))
        if draw(st.integers(0, 19)) == 0:
            row_lo = [draw(st.sampled_from(LEVEL_SPECIALS[:3]))] * (K + 1)
        lo.append(row_lo)
        hi.append(row_hi)
    return np.array(lo), np.array(hi)


@st.composite
def jump_stacks(draw):
    """f's levels at N points and at their rho, each point's nu, and a
    ProbeConfig."""
    n, K = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    ft = draw(level_stack(n, K))
    fr = draw(level_stack(n, K))
    nu = np.array([draw(st.sampled_from([5e-324, 1e-300, 1e-3, 0.5, 1.0, 3.0, 1e300]))
                   for _ in range(n)])
    cfg = ProbeConfig(agreement_tol=draw(st.sampled_from([1e-6, 1e-12, 1.0])))
    return (*ft, *fr, nu, cfg)


class TestRowKernels:
    """The pass's row kernel is its reference bit for bit: _jump_rows the
    jump rows as computed before it read finiteness from gh_exists, and
    each scattered side a pair's rows before they are ordered by the gH
    case."""

    @given(jump_stacks())
    @settings(max_examples=300, deadline=None)
    def test_jump_rows_match_reference(self, args):
        got = nabla._jump_rows(*args, len(args[4]))
        lower, upper, gh_case, case, finite, gh = jump_rows_reference(*args)
        assert same_bits(got.lower, lower) and same_bits(got.upper, upper)
        assert got.gh_case == gh_case and got.case == case
        assert same_bits(got.finite, finite)
        for mine, theirs in zip(got.gh, gh):
            assert same_bits(mine, theirs)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_scattered_sides_match_reference(self, data):
        # pairs (a, b) of a stack's rows, the leading ones jumps: every
        # pair's sides are the reference's rows (1/nu) * (f(b) - f(a)),
        # and a jump's value is those rows ordered by its gH case
        n, K = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 5))
        lo, hi = data.draw(level_stack(n, K))
        rows = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(
            rows, rows, st.sampled_from([5e-324, 1e-300, 0.25, 1.0, 3.0, 1e300])),
            min_size=1, max_size=8))
        jumps = data.draw(st.integers(0, len(pairs)))
        a, b, nu = (np.array(x) for x in zip(*pairs))
        args = (lo[b], hi[b], lo[a], hi[a], nu, ProbeConfig())
        got = nabla._jump_rows(*args, jumps)
        assert not got.side_lo.flags.writeable and not got.side_hi.flags.writeable
        lower, upper, _gh_case, _case, _finite, gh = jump_rows_reference(*args)
        with np.errstate(over="ignore", invalid="ignore"):
            want_lo, want_hi = gh.d_lo * (1.0 / nu)[:, None], gh.d_hi * (1.0 / nu)[:, None]
        assert same_bits(got.side_lo, want_lo) and same_bits(got.side_hi, want_hi)
        assert len(got.lower) == len(got.case) == len(got.gh.ok_i) == jumps
        assert same_bits(got.lower, lower[:jumps]) and same_bits(got.upper, upper[:jumps])
        swap = ~gh.ok_i[:, None]
        assert same_bits(lower, np.where(swap, want_hi, want_lo))
        assert same_bits(upper, np.where(swap, want_lo, want_hi))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_one_quotient_step_per_chunk(self, n, monkeypatch):
        # every point of 1..n on hgrid(0,260,1) jumps on both sides
        ts = chunk_scale()
        f = bind_function(parse_function(CHUNK_SOURCES[0]), ts, K=K)
        pts = [float(k) for k in range(1, n + 1)]
        expect = [json.dumps(derivative_report(
            bind_function(parse_function(CHUNK_SOURCES[0]), ts, K=K), ts, t).to_dict(),
            sort_keys=True) for t in pts]
        steps = []
        jump_rows = nabla._jump_rows

        def counted(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps):
            steps.append(len(nu))
            return jump_rows(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps)

        monkeypatch.setattr(nabla, "_jump_rows", counted)
        got = [json.dumps(r.to_dict(), sort_keys=True) for r in nabla_many(f, ts, pts)]
        assert got == expect
        # a chunk of consecutive points reads its records' jumps and the
        # last one's right side: one pair row more than its records
        size = nabla.CHUNK_ROWS - 2
        assert steps == [min(size, n - start) + 1 for start in range(0, n, size)]

    def test_chunk_results_share_no_writable_array(self):
        # the reports of one chunk share the level grid and the chunk's
        # quotient stack, so those are read-only: editing one result
        # cannot change another
        ts = parse_timescale("hgrid(0,10,1)")
        f = bind_function(parse_function("tri(t, 2*t, 3*t)"), ts, K=4)
        results = nabla_many(f, ts, [1.0, 2.0, 3.0])
        before = [r.to_dict() for r in results]
        for r in results:
            report = r.endpoint_report
            for arr in (report.alphas, report.minus.lower, report.minus.upper,
                        report.plus.lower, report.plus.upper):
                with pytest.raises(ValueError, match="read-only"):
                    arr[:] = -1.0
        assert [r.to_dict() for r in results] == before

    def test_nested_jump_runs_the_kernel_once(self, monkeypatch):
        # f(3) is the one value the pass at 2 evaluates (f(2) and f(1) are in
        # the memo cache): its levels are nested exactly, so it is validated
        # without the kernel, and the jump row is the one gh_exists call
        ts = parse_timescale("hgrid(0,5,1)")
        f = bind_function(parse_function("tri(t, 2*t, 3*t)"), ts, K=K)
        derivative_report(f, ts, 1.0)
        calls = []
        for module in (fuzzy, nabla):
            def counting(d_lo, d_hi, kernel=module.gh_exists):
                calls.append(len(d_lo))
                return kernel(d_lo, d_hi)

            monkeypatch.setattr(module, "gh_exists", counting)
        res = derivative_report(f, ts, 2.0)
        assert 3.0 in f._cache
        assert calls == [1]
        assert res.case is DiffCase.CASE_I and res.evidence["path"] == "backward-quotient"


# scales that mix intervals with hgrid, qgrid, recip and points pieces
PAIR_SCALES = [
    "union(interval(0,1), hgrid(1,6,1), points(6.5, 8))",
    "union(hgrid(-3,0,0.3), interval(0,1), qgrid(2,1,4))",
    "union(recip(1,12), recip(-1,12), points(0), interval(2,3))",
    "union(interval(-2,-1), points(0, 0.5), qgrid(3,-2,2))",
    "union(recip(1,12), recip(sqrt2,12), points(0), hgrid(2,4,0.5))",
]


@st.composite
def pair_definitions(draw):
    """tri(p, p + w1, p + w1 + w2) or endpoints(p + alpha*w1; p + w1 +
    (1 - alpha)*w2), with a quadratic p and widths w = c + (a*t + b)^2:
    valid everywhere, and a width that falls as well as one that grows,
    so that a jump's gH case may be either."""
    coef = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    p = f"({draw(coef)} + {draw(coef)}*t + {draw(coef)}*t^2)"
    w1, w2 = (f"({draw(st.sampled_from([0.0, 0.5, 1.0]))} + "
              f"({draw(coef)}*t + {draw(coef)})^2)" for _ in range(2))
    if draw(st.booleans()):
        return f"tri({p}, {p} + {w1}, {p} + {w1} + {w2})"
    return f"endpoints({p} + alpha*{w1}; {p} + {w1} + (1 - alpha)*{w2})"


class TestOneQuotientPerPair:
    """A scattered pair rho < t has one backward quotient: t's jump value
    is its rows ordered by the gH case, t's minus side is those rows, and
    rho's plus side is t's minus side, bit for bit."""

    @given(src=pair_definitions(), scale=st.sampled_from(PAIR_SCALES),
           K=st.sampled_from([0, 1, 4, 10]), plain=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_scattered_sides_are_the_jump_rows(self, src, scale, K, plain):
        ts = parse_timescale(scale)
        f = (unchecked(src, ts, K=K, plain=True) if plain
             else bind_function(parse_function(src), ts, K=K))
        pts = sorted({*ts.left_scattered_points(),
                      *(t for t in ts.sample_points(10) if ts.in_kappa(t))})
        results = {r.t: r for r in nabla_many(f, ts, pts)}
        for t, r in results.items():
            report = r.endpoint_report
            pc = report.point
            if pc.left is Side.SCATTERED:
                minus = report.minus
                assert minus.kind == "scattered"
                if r.value is not None:
                    rows = (minus.lower, minus.upper)
                    if r.evidence["gh_case"] == GhCase.CASE_II.value:
                        rows = rows[::-1]
                    assert same_bits(r.value.lower, rows[0]), (t, r.value, rows)
                    assert same_bits(r.value.upper, rows[1]), (t, r.value, rows)
            nxt = results.get(pc.sigma) if pc.right is Side.SCATTERED else None
            if nxt is not None and nxt.endpoint_report.point.left is Side.SCATTERED:
                nxt = nxt.endpoint_report.minus
                assert same_bits(report.plus.lower, nxt.lower), t
                assert same_bits(report.plus.upper, nxt.upper), t

    def test_one_kernel_call_per_chunk_of_pairs(self, monkeypatch):
        # 64 consecutive grid points, one chunk: a row per pair, the 64
        # jumps (k - 1, k) first, then the last point's right side (64, 65)
        ts = chunk_scale()
        src = CHUNK_SOURCES[0]
        calls = []
        jump_rows = nabla._jump_rows

        def counted(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps):
            calls.append((ft_lo.copy(), fr_lo.copy(), jumps))
            return jump_rows(ft_lo, ft_hi, fr_lo, fr_hi, nu, cfg, jumps)

        monkeypatch.setattr(nabla, "_jump_rows", counted)
        for f in (bind_function(parse_function(src), ts, K=K),
                  unchecked(src, ts, K=K, plain=True)):
            calls.clear()
            nabla_many(f, ts, [float(k) for k in range(1, 65)])
            [(ft_lo, fr_lo, jumps)] = calls
            assert len(ft_lo) == 65 and jumps == 64
            assert same_bits(ft_lo, np.array([f(float(k)).lower for k in range(1, 66)]))
            assert same_bits(fr_lo, np.array([f(float(k)).lower for k in range(0, 65)]))
