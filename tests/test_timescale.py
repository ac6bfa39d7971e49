"""Jump operators, density classification, and probe streams."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzynabla.dsl import parse_timescale
from fuzzynabla.errors import NotInTimeScale
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


def two_generator_scale(n=1000):
    """{1/n} union {sqrt2/n} union {0} truncated at n."""
    return TimeScale(
        [
            ReciprocalGrid(1.0, n),
            ReciprocalGrid(SQRT2, n),
            ExplicitPoints((0.0,)),
        ]
    )


class TestJumpOperators:
    def test_sigma_between_generators(self):
        ts = two_generator_scale()
        # points above sqrt2/2: 1/1 and sqrt2/1; the least is 1
        assert ts.sigma(SQRT2 / 2) == 1.0

    def test_rho_between_generators(self):
        ts = two_generator_scale()
        assert ts.rho(1.0) == pytest.approx(SQRT2 / 2, abs=1e-15)

    def test_nu_mixes_generators(self):
        ts = two_generator_scale()
        # largest point below 1/2 is sqrt2/3
        assert ts.nu(0.5) == pytest.approx(0.5 - SQRT2 / 3, abs=1e-15)

    def test_boundary_conventions(self):
        ts = TimeScale([ArithmeticGrid(0, 10, 1)])
        assert ts.sigma(10.0) == 10.0  # at the max, returns t
        assert ts.rho(0.0) == 0.0  # at the min, returns t
        assert ts.sigma(3.0) == 4.0
        assert ts.rho(3.0) == 2.0
        assert ts.nu(3.0) == 1.0

    def test_interval_interior_is_fixed(self):
        ts = TimeScale([ClosedInterval(0, 1)])
        assert ts.sigma(0.5) == 0.5
        assert ts.rho(0.5) == 0.5
        assert ts.sigma(0.0) == 0.0
        assert ts.rho(1.0) == 1.0

    def test_non_member_rejected(self):
        ts = TimeScale([ArithmeticGrid(0, 10, 1)])
        with pytest.raises(NotInTimeScale):
            ts.sigma(0.5)
        with pytest.raises(NotInTimeScale):
            ts.classify(11.0)
        for bad in (math.inf, -math.inf, math.nan):
            assert not ts.contains(bad)
            assert not TimeScale([ClosedInterval(0, 1)]).contains(bad)
            with pytest.raises(NotInTimeScale):
                ts.snap(bad)


class TestClassify:
    def test_isolated_grid_point(self):
        ts = TimeScale([ArithmeticGrid(0, 10, 1)])
        pc = ts.classify(3.0)
        assert pc.left is pc.right is Side.SCATTERED

    def test_interval_interior_dense(self):
        ts = TimeScale([ClosedInterval(0, 1)])
        pc = ts.classify(0.5)
        assert pc.left is pc.right is Side.DENSE

    def test_declared_accumulation_at_zero(self):
        ts = two_generator_scale()
        pc = ts.classify(0.0)
        assert pc.right is Side.DENSE  # despite the finite truncation
        assert pc.at_min

    def test_mixed_point(self):
        # 1 is the max of the scale {0} u [0.25, 0.5] u {1}
        ts = TimeScale([ExplicitPoints((0.0, 1.0)), ClosedInterval(0.25, 0.5)])
        pc = ts.classify(0.5)
        assert pc.left is Side.DENSE
        assert pc.right is Side.SCATTERED
        pc1 = ts.classify(1.0)
        assert pc1.at_max
        assert pc1.left is Side.SCATTERED
        # plain bools, so the record serializes
        pc0 = parse_timescale("hgrid(0,3,1)").classify(0.0)
        assert pc0.at_min is True and pc0.at_max is False
        assert json.loads(json.dumps(pc0.to_dict())) == {
            "left": "Dense", "right": "Scattered", "at_min": True, "at_max": False}


class TestKappa:
    def test_right_scattered_min_removed(self):
        ts = TimeScale([ExplicitPoints((0.0,)), ClosedInterval(1, 2)])
        k = ts.kappa()
        assert not k.contains(0.0)
        assert k.contains(1.0) and k.contains(2.0)
        assert not ts.in_kappa(0.0)
        assert ts.in_kappa(1.5)

    def test_grid_min_removed(self):
        ts = TimeScale([ArithmeticGrid(0, 10, 1)])
        k = ts.kappa()
        assert not k.contains(0.0)
        assert k.contains(1.0)
        assert k.min_point == 1.0

    def test_record_matches_kappa(self):
        ts = TimeScale([ArithmeticGrid(0, 4, 1), ClosedInterval(5, 6)])
        k = ts.kappa()
        for t in (0.0, 1.0, 4.0, 5.0, 5.5, 6.0):
            pc = ts.classify(t)
            assert pc.in_kappa == k.contains(t) == ts.in_kappa(t)
        pc = ts.classify(1.0)
        assert (pc.t, pc.rho, pc.sigma, pc.nu) == (1.0, 0.0, 2.0, 1.0)
        assert ts.classify(5.0).rho == 4.0 and ts.classify(4.0).sigma == 5.0
        assert not ts.in_kappa(7.0)

    def test_dense_min_kept(self):
        ts = TimeScale([ClosedInterval(0, 1)])
        assert ts.kappa() is ts
        # accumulation at 0 keeps 0 in the derivative domain
        tsa = two_generator_scale()
        assert tsa.kappa() is tsa
        assert tsa.in_kappa(0.0)


class TestApproach:
    def test_dense_interval_side(self):
        ts = TimeScale([ClosedInterval(0, 1)])
        assert ts.sigma(0.5) == 0.5  # no forward jump inside an interval
        (stream,) = ts.approach_streams(0.5, "right", 3)
        assert stream.synthetic
        seq = stream.points
        assert len(seq) == 3
        assert all(0.5 < s < 0.6 for s in seq)
        # strictly decreasing toward t
        assert seq[0] > seq[1] > seq[2]

    def test_scattered_side_gives_jump_neighbor(self):
        ts = TimeScale([ArithmeticGrid(0, 10, 1)])
        assert ts.classify(3.0).left is Side.SCATTERED
        assert ts.rho(3.0) == 2.0
        # the nearest point of the side's stream is the jump neighbor
        (left,) = ts.approach_streams(3.0, "left", 5)
        (right,) = ts.approach_streams(3.0, "right", 5)
        assert left.nearest == ts.rho(3.0)
        assert right.nearest == ts.sigma(3.0) == 4.0

    def test_interleaves_generators(self):
        ts = two_generator_scale()
        streams = ts.approach_streams(0.0, "right", 6)
        assert len(streams) == 2  # one per generator, both represented
        for s in streams:
            assert len(s.points) == 6
            assert all(p > 0 for p in s.points)
        # sigma picks the nearest point across the interleaved generators
        assert ts.sigma(0.0) == min(s.nearest for s in streams) == 1.0 / 1000

    def test_streams_are_labeled(self):
        ts = two_generator_scale()
        streams = ts.approach_streams(0.0, "right", 4)
        labels = {s.label for s in streams}
        assert labels == {"recip(1,1000)", f"recip({SQRT2!r},1000)"}
        for s in streams:
            assert len(s.points) == 4
            # ordered toward t: strictly decreasing values for a right stream
            pts = list(s.points)
            assert all(a > b for a, b in zip(pts, pts[1:]))

    def test_empty_side(self):
        ts = TimeScale([ClosedInterval(0, 1)])
        assert ts.approach_streams(0.0, "left", 3) == []
        assert ts.rho(0.0) == 0.0  # at the min, returns t

    def test_members_only(self):
        ts = two_generator_scale()
        for stream in ts.approach_streams(0.0, "right", 8):
            for s in stream.points:
                assert ts.contains(s)


class TestStructuralDensity:
    """A side is dense only by structure: its jump is t itself, or a
    reciprocal grid accumulates at 0 from that side. A gap, however small,
    is a jump."""

    def test_close_generators_stay_scattered(self):
        # sqrt2/9990 lies 6.5e-11 above 1/7064; the closest pair of the
        # scale is 1.3e-12 apart
        ts = parse_timescale("union(recip(1,10000), recip(sqrt2,10000), points(0))")
        t = 0.00014156291915646597
        pc = ts.classify(t)
        assert (pc.left, pc.right) == (Side.SCATTERED, Side.SCATTERED)
        assert 0 < pc.nu < 1e-9
        pts = ts.left_scattered_points()
        # every member but 0, the minimum
        assert len(pts) == 20000 and t in pts

    def test_window_floor_is_membership_tol(self):
        # the interval's probes reach 1.6e-14 from 0, so only generators
        # within 1e3 times that join the side; points(5e-10) is farther
        ts = TimeScale([ClosedInterval(0.0, 4e-12), ExplicitPoints((5e-10,))])
        streams = ts.approach_streams(0.0, "right", 8)
        assert [s.label for s in streams] == ["interval(0,4e-12)"]
        assert streams[0].nearest < 2e-14

    def test_merge_keeps_first_of_each_cluster(self):
        # each point is within the membership tolerance of the one before;
        # the third is not within it of the first, which is kept
        ts = TimeScale([ExplicitPoints((0.0,)), ExplicitPoints((0.7e-12,)),
                        ExplicitPoints((1.4e-12,)), ExplicitPoints((1.0,))])
        assert ts.discrete_points.tolist() == [0.0, 1.4e-12, 1.0]


finite_pieces = st.one_of(
    st.builds(lambda a, n, h: ArithmeticGrid(a, a + n * h, h),
              st.integers(-4, 4).map(float), st.integers(1, 8),
              st.sampled_from([0.1, 0.25, 1.0 / 3.0, 1.0])),
    st.builds(GeometricGrid, st.sampled_from([1.5, 2.0, 10.0]),
              st.integers(-4, 0), st.integers(0, 4)),
    st.builds(ReciprocalGrid, st.sampled_from([1.0, -1.0, SQRT2, -SQRT2, 3.0]),
              st.integers(1, 60), st.booleans()),
    st.builds(lambda v: ExplicitPoints(tuple(v)),
              st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=4)),
)


@given(st.lists(finite_pieces, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_finite_members_are_left_scattered(pieces):
    """Every realized point other than the minimum and a left accumulation
    point at 0 is left-scattered, and its rho is the previous point."""
    ts = TimeScale(pieces)
    pts = ts.discrete_points.tolist()
    accumulates_left = any(isinstance(p, ReciprocalGrid) and p.scale < 0
                           for p in pieces)
    for prev, t in zip(pts, pts[1:]):
        pc = ts.classify(t)
        if accumulates_left and abs(t) <= 1e-12:
            assert pc.left is Side.DENSE
            continue
        assert pc.left is Side.SCATTERED and pc.rho == prev
        assert t in ts.left_scattered_points()


def brute_force_record(pieces, ts, t):
    """(left, right, at_min, at_max, t, rho, sigma) of member t, by scanning
    the scale's realized points and its pieces' interval endpoints."""
    tol = 1e-12 * max(1.0, abs(t))
    pts = ts.discrete_points.tolist()
    ivs = [(p.a, p.b) for p in pieces if isinstance(p, ClosedInterval) and p.a < p.b]
    if any(a + tol <= t <= b + tol for a, b in ivs):
        rho = t  # members just below t
    else:
        rho = max([s for s in pts if s < t - tol]
                  + [b for _, b in ivs if b < t - tol], default=t)
    if any(a - tol <= t <= b - tol for a, b in ivs):
        sigma = t  # members just above t
    else:
        sigma = min([s for s in pts if s >= t + tol]
                    + [a for a, _ in ivs if a > t + tol], default=t)
    piles = {"right" if p.scale > 0 else "left" for p in pieces
             if isinstance(p, ReciprocalGrid) and abs(t) <= tol}
    lo = min(pts + [a for a, _ in ivs])
    hi = max(pts + [b for _, b in ivs])
    side = {True: Side.DENSE, False: Side.SCATTERED}
    return (side[rho == t or "left" in piles], side[sigma == t or "right" in piles],
            abs(t - lo) <= tol, abs(t - hi) <= tol, t, rho, sigma)


intervals = st.builds(lambda a, w: ClosedInterval(a, a + w),
                      st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0]),
                      st.sampled_from([0.0, 0.5, 1.0, 2.5]))


@given(st.lists(st.one_of(finite_pieces, intervals), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_classify_matches_brute_force(pieces):
    """classify gives the brute-force record at every member tried: realized
    points, interval endpoints and interiors, 0 next to a reciprocal grid,
    and members within the tolerance of a realized point."""
    ts = TimeScale(pieces)
    cand = {0.0}
    for s in ts.discrete_points.tolist():
        cand |= {s, s - 0.4e-12 * max(1.0, abs(s)), s + 0.4e-12 * max(1.0, abs(s))}
    for p in pieces:
        if isinstance(p, ClosedInterval):
            cand |= {p.a + f * (p.b - p.a) for f in (0.0, 0.25, 0.5, 1.0)}
    members = [t for t in sorted(cand) if ts.contains(t)]
    assert members
    for t in members:
        pc = ts.classify(t)
        assert (pc.left, pc.right, pc.at_min, pc.at_max, pc.t, pc.rho, pc.sigma) == (
            brute_force_record(pieces, ts, t)), t


class TestSerialization:
    def test_round_trip(self):
        ts = TimeScale(
            [
                ReciprocalGrid(1.0, 100),
                ClosedInterval(2, 3),
                ArithmeticGrid(4, 6, 0.5),
                GeometricGrid(2.0, 0, 5),
                ExplicitPoints((7.0, 8.5)),
            ]
        )
        again = TimeScale.from_json(ts.to_json())
        assert again == ts

    def test_canonical_piece_order(self):
        a = TimeScale([ExplicitPoints((5.0,)), ClosedInterval(0, 1)])
        b = TimeScale([ClosedInterval(0, 1), ExplicitPoints((5.0,))])
        assert a == b
        assert a.to_json() == b.to_json()


# -- property tests ---------------------------------------------------------

grid_scales = st.builds(
    lambda start, n, step: TimeScale([ArithmeticGrid(start, start + n * step, step)]),
    st.floats(-5, 5).filter(lambda x: abs(x) > 1e-3 or x == 0),
    st.integers(2, 30),
    st.sampled_from([1.0, 0.5, 0.25, 0.125]),
)


@given(grid_scales, st.data())
@settings(max_examples=60, deadline=None)
def test_jump_sandwich(ts, data):
    """rho(t) <= t <= sigma(t), all members of the scale."""
    pts = ts.discrete_points
    t = float(data.draw(st.sampled_from(list(pts))))
    assert ts.rho(t) <= t <= ts.sigma(t)
    assert ts.contains(ts.rho(t))
    assert ts.contains(ts.sigma(t))
    assert ts.nu(t) >= 0


@given(st.sampled_from([1.0, 0.5, 0.25]), st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_dyadic_grid_nu_exact(h, k):
    """On h-grids with dyadic h the graininess is exactly h at interior points."""
    ts = TimeScale([ArithmeticGrid(0, 30 * h, h)])
    t = k * h
    assert ts.nu(t) == h


@given(st.integers(2, 50), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_approach_monotone_property(n, count):
    ts = two_generator_scale(n)
    for stream in ts.approach_streams(0.0, "right", count):
        seq = stream.points
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(ts.contains(s) for s in seq)
        # each step toward 0 is a backward jump of the previous probe or
        # lands further down, never past sigma(0)
        assert all(ts.rho(a) >= b for a, b in zip(seq, seq[1:]))
        assert seq[-1] >= ts.sigma(0.0)
