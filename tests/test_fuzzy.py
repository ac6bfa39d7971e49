"""Level-grid fuzzy numbers: arithmetic, generalized differences, metric."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzynabla.errors import AlphaOutOfRange, GridMismatch, OrderViolation
from fuzzynabla.fuzzy import (
    FuzzyNumber,
    GhCase,
    add,
    crisp,
    gh_diff,
    gh_exists,
    h_diff,
    hausdorff,
    invalid_rows,
    scalar_mul,
    triangular,
)


# -- independent oracle -------------------------------------------------------
# Direct construction from the triangular formulas at 10x resolution. Kept
# deliberately dumb: python loops, explicit monotonicity scans, no reuse of
# library code.


def oracle_gh(t1, t2, K):
    """(case string, lower list, upper list or None) for tri(t1) gh- tri(t2)
    sampled on the K grid, decided at 10K resolution."""
    a1, b1, c1 = t1
    a2, b2, c2 = t2
    fine = 10 * K

    def cuts(a, b, c, k, n):
        al = k / n
        return a + al * (b - a), c + al * (b - c)

    dlo = []
    dhi = []
    for k in range(fine + 1):
        l1, u1 = cuts(a1, b1, c1, k, fine)
        l2, u2 = cuts(a2, b2, c2, k, fine)
        dlo.append(l1 - l2)
        dhi.append(u1 - u2)
    mag = max(max(abs(x) for x in dlo), max(abs(x) for x in dhi))
    tol = 1e-10 * (1 + mag)

    nondec = lambda xs: all(xs[i + 1] - xs[i] >= -tol for i in range(len(xs) - 1))
    noninc = lambda xs: all(xs[i + 1] - xs[i] <= tol for i in range(len(xs) - 1))
    below = lambda xs, ys: all(x <= y + tol for x, y in zip(xs, ys))

    ok_i = nondec(dlo) and noninc(dhi) and below(dlo, dhi)
    ok_ii = nondec(dhi) and noninc(dlo) and below(dhi, dlo)

    lo_k = []
    hi_k = []
    for k in range(K + 1):
        l1, u1 = cuts(a1, b1, c1, k, K)
        l2, u2 = cuts(a2, b2, c2, k, K)
        lo_k.append(l1 - l2)
        hi_k.append(u1 - u2)

    if ok_i and ok_ii:
        return "Both", lo_k, hi_k
    if ok_i:
        return "CaseI", lo_k, hi_k
    if ok_ii:
        return "CaseII", hi_k, lo_k
    return "None", None, None


# -- constructors -------------------------------------------------------------


class TestConstruction:
    def test_triangular_cuts(self):
        u = triangular(0, 2, 4, K=4)
        assert list(u.lower) == [0, 0.5, 1.0, 1.5, 2.0]
        assert list(u.upper) == [4, 3.5, 3.0, 2.5, 2.0]
        assert u.K == 4

    def test_triangular_order_enforced(self):
        with pytest.raises(OrderViolation):
            triangular(3, 2, 4)

    @pytest.mark.parametrize("make", [
        # b - a overflows, and 0 * inf is NaN at alpha = 0
        lambda: triangular(-1e308, 1e308, 1e308, K=4),
        lambda: triangular(-math.inf, 0, 1),
        lambda: crisp(math.inf),
    ])
    def test_levels_must_be_finite(self, make):
        with pytest.raises(OrderViolation, match="level arrays must be finite"):
            make()

    def test_crisp(self):
        u = crisp(2.5, K=3)
        assert u.is_crisp()
        assert u.level(0.7).as_tuple() == (2.5, 2.5)

    def test_interval_number(self):
        g = FuzzyNumber.interval(1, 3)
        assert g.K == 0
        assert g.level(0.0).as_tuple() == (1.0, 3.0)
        assert g.level(0.9).as_tuple() == (1.0, 3.0)  # cuts constant in alpha

    def test_invariant_rejection(self):
        with pytest.raises(OrderViolation):
            FuzzyNumber([0, 2, 1], [5, 4, 3])  # lower not monotone
        with pytest.raises(OrderViolation):
            FuzzyNumber([0, 1, 2], [5, 4, 1])  # crossing at the core

    def test_immutability(self):
        u = triangular(0, 1, 2)
        with pytest.raises(ValueError):
            u.lower[0] = 99.0


class TestLevelQueries:
    def test_level_grid_exact(self):
        u = triangular(0, 1, 2, K=10)
        assert u.level(0.3).as_tuple() == (0.3, 1.7)

    def test_level_interpolates(self):
        u = triangular(0, 1, 2, K=10)
        iv = u.level(0.25)
        assert iv.lo == pytest.approx(0.25, abs=1e-15)
        assert iv.hi == pytest.approx(1.75, abs=1e-15)

    def test_len_alpha(self):
        u = triangular(0, 1, 2)
        assert u.len_alpha(0.25) == pytest.approx(1.5, abs=1e-12)

    def test_alpha_range_guard(self):
        u = triangular(0, 1, 2)
        with pytest.raises(AlphaOutOfRange):
            u.level(1.5)


class TestArithmetic:
    def test_add(self):
        w = add(triangular(0, 1, 2), triangular(1, 2, 3))
        assert hausdorff(w, triangular(1, 3, 5)) <= 1e-12

    def test_scalar_mul_negative_swaps(self):
        w = scalar_mul(-1.0, triangular(0, 1, 2))
        assert hausdorff(w, triangular(-2, -1, 0)) == 0.0

    def test_scalar_mul_zero(self):
        w = scalar_mul(0.0, triangular(0, 1, 2))
        assert w.is_crisp()

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            add(triangular(0, 1, 2, K=10), triangular(0, 1, 2, K=20))


class TestGhDiff:
    def test_case_i(self):
        res = gh_diff(triangular(0, 2, 4), triangular(0, 1, 2))
        assert res.case is GhCase.CASE_I
        assert hausdorff(res.value, triangular(0, 1, 2)) <= 1e-12

    def test_case_ii(self):
        res = gh_diff(triangular(0, 1, 2), triangular(0, 2, 4))
        assert res.case is GhCase.CASE_II
        assert hausdorff(res.value, triangular(-2, -1, 0)) <= 1e-12

    def test_nonexistent(self):
        res = gh_diff(triangular(0, 1, 5), triangular(0, 3, 4))
        assert res.case is GhCase.NONE
        assert res.value is None
        assert res.diagnostics["case_i"] != "ok"
        assert res.diagnostics["case_ii"] != "ok"

    def test_nan_candidate_leaves_other_tests_on(self):
        # a NaN upper candidate must not make the tolerance NaN and so
        # switch off the tests on the lower one
        u = FuzzyNumber([0.0, 1.0, 2.0], [np.nan, 3.0, 2.0], validate=False)
        v = FuzzyNumber([0.0, 2.0, 4.0], [5.0, 4.5, 4.0], validate=False)
        res = gh_diff(u, v)
        assert res.case is GhCase.NONE
        assert res.diagnostics == {
            "case_i": "lower candidate not nondecreasing at level index 0",
            "case_ii": "lower candidate not nondecreasing at level index 1",
        }

    def test_self_difference_is_both(self):
        u = triangular(1, 2, 4)
        res = gh_diff(u, u)
        assert res.case is GhCase.BOTH
        assert res.value.is_crisp()

    def test_reconstruction_case_i(self):
        u, v = triangular(0, 2, 4), triangular(0, 1, 2)
        w = gh_diff(u, v).value
        assert hausdorff(add(v, w), u) <= 1e-12 * (1 + u.magnitude())

    def test_reconstruction_case_ii(self):
        u, v = triangular(0, 1, 2), triangular(0, 2, 4)
        w = gh_diff(u, v).value
        # v = u + (-1) w
        assert hausdorff(add(u, scalar_mul(-1.0, w)), v) <= 1e-12 * (1 + v.magnitude())

    def test_h_diff_is_case_i_only(self):
        assert h_diff(triangular(0, 2, 4), triangular(0, 1, 2)) is not None
        assert h_diff(triangular(0, 1, 2), triangular(0, 2, 4)) is None

    def test_intervals_always_subtract(self):
        # K = 0 numbers: single cut, monotonicity vacuous
        g1 = FuzzyNumber.interval(0, 10)
        g2 = FuzzyNumber.interval(3, 4)
        res = gh_diff(g1, g2)
        assert res.case is not GhCase.NONE
        assert res.value.level(0.0).as_tuple() == (-3.0, 6.0)

    def test_oracle_agreement_sample(self):
        rng = random.Random(20260819)
        K = 25
        for _ in range(120):
            t1 = sorted(rng.uniform(-10, 10) for _ in range(3))
            t2 = sorted(rng.uniform(-10, 10) for _ in range(3))
            want_case, want_lo, want_hi = oracle_gh(t1, t2, K)
            got = gh_diff(triangular(*t1, K=K), triangular(*t2, K=K))
            assert got.case.value == want_case, (t1, t2)
            if want_lo is not None:
                assert np.max(np.abs(got.value.lower - np.array(want_lo))) <= 1e-10
                assert np.max(np.abs(got.value.upper - np.array(want_hi))) <= 1e-10


class TestMetric:
    def test_known_distance(self):
        assert hausdorff(triangular(0, 1, 2), triangular(1, 2, 3)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_metric_axioms_spot(self):
        u, v, w = triangular(0, 1, 2), triangular(1, 3, 4), triangular(-1, 0, 3)
        assert hausdorff(add(u, w), add(v, w)) <= hausdorff(u, v) + 1e-12
        assert hausdorff(scalar_mul(2.5, u), scalar_mul(2.5, v)) == pytest.approx(
            2.5 * hausdorff(u, v), rel=1e-12
        )


class TestSerialization:
    def test_json_round_trip(self):
        u = triangular(0, 1.5, 4, K=8)
        again = FuzzyNumber.from_json(u.to_json())
        assert again == u

    def test_tri_shorthand(self):
        u = FuzzyNumber.from_dict({"tri": [0, 1, 2], "K": 10})
        assert u == triangular(0, 1, 2, K=10)

    def test_csv_table(self):
        u = triangular(0, 1, 2, K=2)
        text = u.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,lower,upper"
        assert len(lines) == 4
        assert text == u.to_csv()  # byte-deterministic


# -- property tests -----------------------------------------------------------

tri_params = st.tuples(
    st.floats(-10, 10), st.floats(0, 5), st.floats(0, 5)
).map(lambda t: (t[0], t[0] + t[1], t[0] + t[1] + t[2]))


@given(tri_params, tri_params)
@settings(max_examples=80, deadline=None)
def test_gh_outputs_validate(p, q):
    res = gh_diff(triangular(*p, K=20), triangular(*q, K=20))
    if res.value is not None:
        res.value.validate()  # raises on violation


@given(tri_params, tri_params)
@settings(max_examples=80, deadline=None)
def test_gh_reconstruction_property(p, q):
    u, v = triangular(*p, K=20), triangular(*q, K=20)
    res = gh_diff(u, v)
    scale = 1e-12 * (1 + u.magnitude() + v.magnitude())
    if res.case in (GhCase.CASE_I, GhCase.BOTH):
        assert hausdorff(add(v, res.value), u) <= scale
    elif res.case is GhCase.CASE_II:
        assert hausdorff(add(u, scalar_mul(-1.0, res.value)), v) <= scale


# pairs of numbers whose difference is often Both: v is u shifted
gh_pairs = st.one_of(
    st.tuples(tri_params, tri_params),
    st.tuples(tri_params, st.floats(-10, 10)).map(
        lambda ps: (ps[0], tuple(x + ps[1] for x in ps[0]))),
)
_MIRRORED = {GhCase.CASE_I: GhCase.CASE_II, GhCase.CASE_II: GhCase.CASE_I,
             GhCase.BOTH: GhCase.BOTH, GhCase.NONE: GhCase.NONE}


@given(gh_pairs)
@settings(max_examples=200, deadline=None)
def test_gh_antisymmetry(pair):
    # v gH- u = -(u gH- v) (Stefanini, FSS 161, 2010)
    u, v = (triangular(*p, K=20) for p in pair)
    uv, vu = gh_diff(u, v), gh_diff(v, u)
    assert vu.case is _MIRRORED[uv.case]
    if uv.case is GhCase.NONE:
        return
    neg = scalar_mul(-1.0, uv.value)
    if uv.case is GhCase.BOTH:
        # either construction may be taken: they agree within the tolerance
        tol = gh_exists((u.lower - v.lower)[None], (u.upper - v.upper)[None])[2][0]
        assert hausdorff(vu.value, neg) <= tol
    else:
        # exactly, though a zero may change sign
        assert np.array_equal(vu.value.lower, neg.lower)
        assert np.array_equal(vu.value.upper, neg.upper)


@given(tri_params, tri_params, tri_params, tri_params)
@settings(max_examples=60, deadline=None)
def test_metric_triangle_style_inequality(p, q, r, s):
    u, v, w, e = (triangular(*x, K=16) for x in (p, q, r, s))
    assert hausdorff(add(u, v), add(w, e)) <= hausdorff(u, w) + hausdorff(v, e) + 1e-12


@given(tri_params, st.floats(-8, 8))
@settings(max_examples=60, deadline=None)
def test_scalar_mul_validates(p, k):
    scalar_mul(k, triangular(*p, K=16)).validate()


# rows of a triangular number nudged by a few times the validator's
# tolerance, so that some rows pass and some fail by a hair
nudged_rows = st.lists(
    st.tuples(tri_params, st.lists(st.sampled_from(
        [0.0, 0.0, 0.5e-10, -0.5e-10, 3e-10, -3e-10, math.inf, math.nan]),
        min_size=8, max_size=8)),
    min_size=1, max_size=6)


@given(nudged_rows)
@settings(max_examples=200, deadline=None)
def test_invalid_rows_is_validate(rows):
    lo, hi = [], []
    for p, noise in rows:
        u = triangular(*p, K=3)
        lo.append(u.lower + np.array(noise[:4]) * (1 + u.magnitude()))
        hi.append(u.upper + np.array(noise[4:]) * (1 + u.magnitude()))
    want = []
    for a, b in zip(lo, hi):
        try:
            FuzzyNumber(a, b)
            want.append(False)
        except OrderViolation:
            want.append(True)
    with np.errstate(invalid="ignore"):
        got = invalid_rows(np.array(lo), np.array(hi))
    assert got.tolist() == want
