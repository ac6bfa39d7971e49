"""Level-grid fuzzy numbers: arithmetic, generalized differences, metric."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzynabla.errors import AlphaOutOfRange, GridMismatch, OrderViolation
from fuzzynabla.fuzzy import (
    MONO_RTOL,
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
from fuzzynabla.nabla import FuzzyFunction


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
        lambda: FuzzyNumber.interval(-math.inf, math.inf),
        lambda: FuzzyNumber.interval(0, math.nan),
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

    @pytest.mark.parametrize("lower, upper, message", [
        # the level index where the violation is largest, not the first
        ([0, -1, -1.5, -4, -4], [5, 4, 3, 2, 1], "lower endpoint decreases at level index 2"),
        ([0, 0, 0, 0], [5, 6, 6.1, 9], "upper endpoint increases at level index 2"),
        ([0, 1, 3], [4, 2, 1], "lower exceeds upper at level index 2"),
        # the first violated invariant in that order names the error
        ([0, -1], [1, 2], "lower endpoint decreases at level index 0"),
        ([0, 2], [1, 3], "upper endpoint increases at level index 0"),
        ([0, -1, math.nan], [1, 2, 3], "level arrays must be finite"),
    ])
    def test_invariant_messages(self, lower, upper, message):
        with pytest.raises(OrderViolation) as err:
            FuzzyNumber(lower, upper)
        assert str(err.value) == message

    def test_stack_names_first_invalid_row(self):
        rows = (np.array([[0.0, 1.0], [0.0, 2.0], [3.0, 1.0]]),
                np.array([[2.0, 1.0], [1.0, 0.5], [0.0, 1.0]]))
        # rows 1 and 2 are invalid: row 1's crossing cuts name the error
        f = FuzzyFunction(lambda t: None, K=1, vector=lambda t: rows)
        with pytest.raises(OrderViolation) as err:
            f.stack([0.0, 1.0, 2.0])
        assert str(err.value) == "lower exceeds upper at level index 1"

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


# -- an independent oracle for the row-wise gH test --------------------------
# Python loops over the levels of one row, written from the definition of the
# test, with numpy's NaN rules spelled out: a NaN magnitude or gap makes its
# maximum NaN, and a comparison with NaN is False.


def _nan_max(xs):
    return math.nan if any(math.isnan(x) for x in xs) else max(xs)


def oracle_row(d_lo, d_hi):
    """(case (i) exists, case (ii) exists, every level finite) for one row
    of candidate endpoints."""
    m_lo = _nan_max([abs(x) for x in d_lo])
    m_hi = _nan_max([abs(x) for x in d_hi])
    tol = MONO_RTOL * (1.0 + (m_hi if m_hi > m_lo else m_lo))
    steps_lo = [d_lo[k + 1] - d_lo[k] for k in range(len(d_lo) - 1)]
    steps_hi = [d_hi[k + 1] - d_hi[k] for k in range(len(d_hi) - 1)]
    gaps = [a - b for a, b in zip(d_lo, d_hi)]
    gap_max = _nan_max(gaps)
    gap_min = -_nan_max([-g for g in gaps])
    ok_i = not (any(s < -tol for s in steps_lo) or any(s > tol for s in steps_hi)
                or gap_max > tol)
    ok_ii = not (any(s < -tol for s in steps_hi) or any(s > tol for s in steps_lo)
                 or gap_min < -tol)
    finite = all(math.isfinite(x) for x in d_lo + d_hi)
    return ok_i, ok_ii, finite


def oracle_message(lo, hi):
    """FuzzyNumber's OrderViolation message for levels that are not a fuzzy
    number: the first of non-finite levels, a decreasing lower endpoint, an
    increasing upper one and crossing cuts, at the first level index where
    that violation is largest."""
    if not all(math.isfinite(x) for x in lo + hi):
        return "level arrays must be finite"
    tol = MONO_RTOL * (1.0 + max(abs(x) for x in lo + hi))
    steps_lo = [lo[k + 1] - lo[k] for k in range(len(lo) - 1)]
    steps_hi = [hi[k + 1] - hi[k] for k in range(len(hi) - 1)]
    if steps_lo and min(steps_lo) < -tol:
        return f"lower endpoint decreases at level index {steps_lo.index(min(steps_lo))}"
    if steps_hi and max(steps_hi) > tol:
        return f"upper endpoint increases at level index {steps_hi.index(max(steps_hi))}"
    gaps = [a - b for a, b in zip(lo, hi)]
    return f"lower exceeds upper at level index {gaps.index(max(gaps))}"


NUDGES = (0.0, 0.0, 0.5, -0.5, 3.0, -3.0)  # multiples of MONO_RTOL
SPECIALS = (math.inf, -math.inf, math.nan, -0.0)


@st.composite
def level_row(draw, K, tri=None):
    """The levels of the triangular number tri (drawn when None) shifted by
    a drawn constant, nudged by a few times the tolerance, with a few
    entries replaced by +-inf, NaN or -0.0."""
    shift = draw(st.floats(-10, 10))
    a, b, c = (x + shift for x in (tri if tri is not None else draw(tri_params)))
    mag = 1.0 + max(abs(a), abs(c))
    row = []
    for bound in (a, c):
        levels = []
        for k in range(K + 1):
            x = bound + (k / K if K else 0.0) * (b - bound)
            x += draw(st.sampled_from(NUDGES)) * MONO_RTOL * mag
            if draw(st.integers(0, 23)) == 0:
                x = draw(st.sampled_from(SPECIALS))
            levels.append(x)
        row.append(levels)
    return row


@st.composite
def row_pairs(draw):
    """K, and rows of (u, v) level pairs on that grid; v is sometimes u's
    triangle shifted, so that both cases exist."""
    K = draw(st.integers(0, 5))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        tri = draw(tri_params)
        u = draw(level_row(K, tri))
        v = draw(level_row(K, tri if draw(st.booleans()) else None))
        pairs.append((u, v))
    return K, pairs


@given(row_pairs())
@settings(max_examples=300, deadline=None)
def test_gh_kernel_matches_oracle(drawn):
    K, pairs = drawn
    for (ulo, uhi), (vlo, vhi) in pairs:
        # the rows as levels: a fuzzy number exactly when finite and case (i)
        # against 0 exists
        ok_i, ok_ii, finite = oracle_row(ulo, uhi)
        valid = finite and ok_i
        assert invalid_rows(np.array([ulo]), np.array([uhi])).tolist() == [not valid]
        if valid:
            u = FuzzyNumber(ulo, uhi)
            assert u.lower.tolist() == ulo and u.upper.tolist() == uhi
        else:
            with pytest.raises(OrderViolation) as err:
                FuzzyNumber(ulo, uhi)
            assert str(err.value) == oracle_message(ulo, uhi)

        # the rows as candidate endpoints of u gH- v
        d_lo = [a - b for a, b in zip(ulo, vlo)]
        d_hi = [a - b for a, b in zip(uhi, vhi)]
        ok_i, ok_ii, finite = oracle_row(d_lo, d_hi)
        got = gh_exists(np.array([d_lo]), np.array([d_hi]))
        assert (bool(got[0][0]), bool(got[1][0])) == (ok_i, ok_ii)
        u = FuzzyNumber(ulo, uhi, validate=False)
        v = FuzzyNumber(vlo, vhi, validate=False)
        if (ok_i or ok_ii) and not finite:
            with pytest.raises(OrderViolation, match="level arrays must be finite"):
                gh_diff(u, v)
            continue
        res = gh_diff(u, v)
        want = {(True, True): GhCase.BOTH, (True, False): GhCase.CASE_I,
                (False, True): GhCase.CASE_II, (False, False): GhCase.NONE}
        assert res.case is want[ok_i, ok_ii]
        if res.case is GhCase.NONE:
            assert res.value is None
            continue
        lower, upper = (d_lo, d_hi) if ok_i else (d_hi, d_lo)
        assert res.value.lower.tobytes() == np.array(lower).tobytes()
        assert res.value.upper.tobytes() == np.array(upper).tobytes()
