"""Parser, printer and evaluator for the little spec language."""

import gc
import math
import random
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzynabla.dsl import (
    MAX_DEPTH,
    Arm,
    BinOp,
    Const,
    EndpointsDef,
    Name,
    Neg,
    PieceRef,
    Piecewise,
    Sqrt,
    TriDef,
    _eval,
    _finish,
    _has_column_form,
    _Parser,
    bind_function,
    compile_function,
    eval_expr,
    eval_function,
    parse_function,
    parse_scalar,
    parse_timescale,
    print_canonical,
)
from fuzzynabla.errors import DslSyntaxError, OrderViolation, ValidationError
from fuzzynabla.fuzzy import alpha_grid, hausdorff, triangular
from fuzzynabla.nabla import FuzzyFunction, derivative_report, nabla_many
from fuzzynabla.timescale import (
    ArithmeticGrid,
    ClosedInterval,
    ExplicitPoints,
    GeometricGrid,
    ReciprocalGrid,
    TimeScale,
)

SQRT2 = math.sqrt(2.0)

EXAMPLE_SCALE = "union(recip(1,400), recip(sqrt2,400), points(0))"
EXAMPLE_FN = (
    "tri(piecewise(in recip(1) => -2, in recip(sqrt2) => t-2), "
    "(t^2+t-2)/2, "
    "piecewise(in recip(1) => t^2+t, in recip(sqrt2) => t^2))"
)


class TestTimescaleParsing:
    def test_single_piece(self):
        ts = parse_timescale("interval(0, 1)")
        assert ts == TimeScale([ClosedInterval(0.0, 1.0)])

    def test_union(self):
        ts = parse_timescale(EXAMPLE_SCALE)
        expect = TimeScale([
            ReciprocalGrid(1.0, 400),
            ReciprocalGrid(SQRT2, 400),
            ExplicitPoints((0.0,)),
        ])
        assert ts == expect

    def test_grids(self):
        assert parse_timescale("hgrid(0, 10, 0.5)") == TimeScale(
            [ArithmeticGrid(0.0, 10.0, 0.5)])
        assert parse_timescale("qgrid(2, 0, 12)") == TimeScale(
            [GeometricGrid(2.0, 0, 12)])

    def test_negative_numbers(self):
        ts = parse_timescale("points(-1, 0, 2.5)")
        assert ts.contains(-1.0) and ts.contains(2.5)

    def test_bad_interval_order(self):
        with pytest.raises(DslSyntaxError):
            parse_timescale("interval(3, 1)")

    def test_bad_qgrid_base(self):
        with pytest.raises(DslSyntaxError):
            parse_timescale("qgrid(1, 0, 4)")

    def test_trailing_junk(self):
        with pytest.raises(DslSyntaxError) as e:
            parse_timescale("interval(0, 1) extra")
        assert "end of input" in str(e.value)

    def test_grid_finer_than_membership_tolerance(self):
        # 100 points 1e-7 apart near 1e6, where members merge within 1e-6
        with pytest.raises(ValueError):
            ArithmeticGrid(1e6, 1e6 + 1e-5, 1e-7)
        with pytest.raises(DslSyntaxError) as e:
            parse_timescale("union(points(0), hgrid(1000000, 1000000.00001, 1e-7))")
        assert (e.value.line, e.value.col) == (1, 18)
        with pytest.raises(DslSyntaxError):
            parse_timescale("recip(1, 2000000)")
        with pytest.raises(DslSyntaxError):
            parse_timescale("qgrid(2, -60, 0)")
        # coinciding points of different pieces still merge
        ts = parse_timescale("union(hgrid(0, 1, 0.5), points(1.0000000000001))")
        assert list(ts._points) == [0.0, 0.5, 1.0]


class TestScalarExpressions:
    def test_precedence(self):
        assert eval_expr(parse_scalar("2 + 3 * 4 ^ 2"), 0.0) == 50.0

    def test_left_associativity(self):
        assert eval_expr(parse_scalar("8 - 3 - 2"), 0.0) == 3.0
        assert eval_expr(parse_scalar("8 / 2 / 2"), 0.0) == 2.0

    def test_unary_minus(self):
        e = parse_scalar("-3")
        assert e == Const(-3.0)
        assert eval_expr(parse_scalar("-t^2"), 3.0) == -9.0

    def test_constants(self):
        assert eval_expr(parse_scalar("sqrt2 * sqrt2"), 0.0) == pytest.approx(2.0)
        assert eval_expr(parse_scalar("pi"), 0.0) == math.pi

    def test_sqrt(self):
        assert eval_expr(parse_scalar("sqrt(t + 2)"), 2.0) == 2.0
        for t in (-1.0, np.float64(-1.0), -math.inf):
            with pytest.raises(ValidationError):
                eval_expr(parse_scalar("sqrt(t)"), t)
        assert math.copysign(1.0, eval_expr(parse_scalar("sqrt(t)"), -0.0)) == -1.0
        assert math.isnan(eval_expr(parse_scalar("sqrt(t)"), math.nan))

    def test_division_by_zero(self):
        for t in (0.0, -0.0, np.float64(0.0)):
            with pytest.raises(ValidationError):
                eval_expr(parse_scalar("1 / t"), t)
        assert math.isnan(eval_expr(parse_scalar("1 / t"), math.nan))

    def test_negative_exponent(self):
        assert eval_expr(parse_scalar("t^-2"), 2.0) == 0.25

    def test_integer_t_is_a_float(self):
        # an int t would take Python's exact integer power past the float range
        for run in (lambda t: eval_expr(parse_scalar("t^2000"), t),
                    lambda t: eval_function(parse_function("tri(t^2000, t^2000, t^2000)"), t, 4)):
            for t in (2, 2.0):
                with pytest.raises(ValidationError, match=r"power fails at t=2\.0: "):
                    run(t)

    def test_no_implicit_multiplication(self):
        with pytest.raises(DslSyntaxError):
            parse_scalar("2 t")

    def test_alpha_rejected_outside_endpoints(self):
        with pytest.raises(DslSyntaxError):
            parse_scalar("alpha + 1")


class TestPositionedErrors:
    def test_column_of_unexpected_token(self):
        with pytest.raises(DslSyntaxError) as e:
            parse_function("tri(1, 2 3)")
        assert e.value.line == 1
        assert e.value.col == 10
        assert "','" in e.value.expected

    def test_line_tracking(self):
        with pytest.raises(DslSyntaxError) as e:
            parse_timescale("union(\n  bogus(1))")
        assert e.value.line == 2
        assert e.value.col == 3

    def test_end_of_input(self):
        src = "union(interval(0, 1)"
        with pytest.raises(DslSyntaxError) as e:
            parse_timescale(src)
        assert e.value.col == len(src) + 1

    def test_message_format(self):
        with pytest.raises(DslSyntaxError) as e:
            parse_scalar("(1 + ")
        assert "line 1, col" in str(e.value)

    def test_depth_limit(self):
        n = MAX_DEPTH
        deepest = [
            "(" * (n - 1) + "t" + ")" * (n - 1),
            "sqrt(" * (n - 1) + "t" + ")" * (n - 1),
            "-" * (n - 1) + "t",
            "+".join(["t"] * n),
            "t" + "-t" * (n - 1),
            "t" + "*t" * (n - 1),
        ]
        for src in deepest:
            e = parse_scalar(src)
            eval_expr(e, 0.5)
            assert parse_scalar(print_canonical(e)) == e
        arms = "t"
        for _ in range(n - 1):
            arms = f"piecewise(in hgrid => {arms})"
        e = parse_scalar(arms)
        assert eval_expr(e, 1.0, ts=TimeScale([ArithmeticGrid(0, 2, 1)])) == 1.0
        assert parse_scalar(print_canonical(e)) == e
        for src, col in [("(" * n + "t" + ")" * n, n + 1),
                         ("sqrt(" * n + "t" + ")" * n, 5 * n + 1),
                         ("-" * n + "t", n + 1),
                         ("+".join(["t"] * (n + 1)), 2 * n),
                         ("t" + "*t" * n, 2 * n)]:
            with pytest.raises(DslSyntaxError) as err:
                parse_scalar(src)
            assert (err.value.line, err.value.col) == (1, col), src


class TestFunctionDefs:
    def test_tri_parses(self):
        d = parse_function("tri(t, t + 1, t + 3)")
        assert isinstance(d, TriDef)
        u = eval_function(d, 2.0, K=4)
        assert hausdorff(u, triangular(2.0, 3.0, 5.0, 4)) == 0.0

    def test_endpoints_with_alpha(self):
        d = parse_function("endpoints(t + alpha; 3 * t - alpha)")
        assert isinstance(d, EndpointsDef)
        u = eval_function(d, 2.0, K=4)
        assert astuple(u.level(0.0)) == (2.0, 6.0)
        assert astuple(u.level(1.0)) == (3.0, 5.0)

    def test_alpha_in_tri_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_function("tri(alpha, alpha + 1, alpha + 2)")

    def test_universally_bad_def_rejected_at_bind(self):
        # parsing evaluates nothing; the first sampled member refuses it
        d = parse_function("tri(t, t - 1, t + 1)")
        ts = TimeScale([ArithmeticGrid(0.0, 5.0, 1.0)])
        with pytest.raises(ValidationError) as err:
            bind_function(d, ts, K=4)
        assert str(err.value) == ("definition is invalid at t=0.0: tri endpoints "
                                  "out of order at t=0.0: (0, -1, 1)")

    def test_pointwise_bad_def_passes_parse_fails_bind(self):
        d = parse_function("tri(0, t, 1)")  # needs 0 <= t <= 1
        ts = TimeScale([ArithmeticGrid(0.0, 5.0, 1.0)])
        with pytest.raises(ValidationError):
            bind_function(d, ts, K=4)

    def test_endpoints_crossing_rejected_at_bind(self):
        d = parse_function("endpoints(t; 1 - t)")  # crosses at t = 1/2
        ts = TimeScale([ClosedInterval(0.0, 1.0)])
        with pytest.raises(ValidationError):
            bind_function(d, ts, K=4)


# scales that mix intervals with each kind of grid, and the piece kinds a
# piecewise arm may name (points is missing from some scales, so an arm
# list may leave members uncovered)
BIND_SCALES = [
    "union(interval(0,1), hgrid(1,6,1))",
    "union(hgrid(0.5,2,0.25), interval(2,3))",
    "union(qgrid(2,0,6), interval(64,65))",
    "union(recip(1,30), recip(-1,30), points(0), interval(2,3))",
    "union(interval(-2,-1), points(0, 0.5), qgrid(3,-2,2))",
]
PIECE_KINDS = ["interval", "hgrid", "qgrid", "recip", "points"]


@st.composite
def _poly(draw):
    """c0 + c1*t + c2*t^2 with small integer coefficients."""
    coef = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    e = Const(float(coef[0]))
    for k, c in enumerate(coef[1:], 1):
        e = BinOp("+", e, BinOp("*", Const(float(c)),
                                BinOp("^", Name("t"), Const(float(k)))))
    return e


@st.composite
def _term(draw):
    """A polynomial (most often), its square root, or a piecewise of
    polynomials over some of the piece kinds."""
    kind = draw(st.sampled_from(["poly", "poly", "sqrt", "piecewise"]))
    if kind == "poly":
        return draw(_poly())
    if kind == "sqrt":
        return Sqrt(draw(_poly()))
    kinds = draw(st.lists(st.sampled_from(PIECE_KINDS), min_size=1, max_size=5,
                          unique=True))
    return Piecewise(tuple(Arm(PieceRef(k, ()), draw(_poly())) for k in kinds))


@st.composite
def _width(draw):
    """A term, or its square, which is never negative."""
    w = draw(_term())
    return BinOp("^", w, Const(2.0)) if draw(st.booleans()) else w


@st.composite
def _definition(draw):
    """tri(a, a + w1, a + w1 + w2), or endpoints(a + alpha*w1;
    a + w1 + (1 - alpha)*w2): a fuzzy number wherever every term is real
    and the widths are not negative."""
    a, w1, w2 = draw(_term()), draw(_width()), draw(_width())
    if draw(st.booleans()):
        return TriDef(a, BinOp("+", a, w1), BinOp("+", BinOp("+", a, w1), w2))
    return EndpointsDef(
        BinOp("+", a, BinOp("*", Name("alpha"), w1)),
        BinOp("+", BinOp("+", a, w1),
              BinOp("*", BinOp("-", Const(1.0), Name("alpha")), w2)))


def _fails_at(d, t, K, ts):
    try:
        eval_function(d, t, K, ts)
    except (ValidationError, OrderViolation) as err:
        return str(err)
    return None


class TestBindValidation:
    """A definition is checked once, where it is bound, by the evaluator
    every read uses, at the scale's sampled members; parsing only parses."""

    @given(d=_definition(), scale=st.sampled_from(BIND_SCALES),
           K=st.sampled_from([0, 1, 4, 10]))
    @settings(max_examples=200, deadline=None)
    def test_binds_exactly_when_every_sample_evaluates(self, d, scale, K):
        ts = parse_timescale(scale)
        fails = [(t, why) for t in ts.sample_points(25)
                 if (why := _fails_at(d, t, K, ts)) is not None]
        if not fails:
            bind_function(d, ts, K)
            return
        t, why = fails[0]
        with pytest.raises(ValidationError) as err:
            bind_function(d, ts, K)
        assert str(err.value) == f"definition is invalid at t={t!r}: {why}"

    def test_parse_evaluates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_function evaluated the definition")
        monkeypatch.setattr("fuzzynabla.dsl._eval", refuse)
        parse_function("tri(sqrt(t-5), sqrt(t-5)+1, sqrt(t-5)+2)")
        parse_function("tri(t, t - 1, t + 1)")

    def test_valid_on_the_scale_binds(self):
        # sqrt(t - 5) is real at every member of the scale, though not at
        # the points a scale-free check would pick
        d = parse_function("tri(sqrt(t-5), sqrt(t-5)+1, sqrt(t-5)+2)")
        f = bind_function(d, parse_timescale("hgrid(6,10,1)"), K=2)
        assert f(9.0) == triangular(2.0, 3.0, 4.0, 2)

    def test_non_finite_sample_is_refused(self):
        # finite up to t = 1.3; at the sampled member 1.5 every level is inf
        d = parse_function("tri(1e308*t*t, 1e308*t*t+1, 1e308*t*t+2)")
        with pytest.raises(ValidationError) as err:
            bind_function(d, parse_timescale("interval(0,2)"), K=4)
        assert str(err.value) == ("definition is invalid at t=1.5: "
                                  "level arrays must be finite")
        assert err.value.sample == {"t": 1.5}

    def test_levels_are_checked_on_the_bound_grid(self):
        # the lower end falls between alpha = 0 and 0.125: between levels
        # 0 and 1 of 100, but not on the 4-level grid
        d = parse_function("endpoints((alpha-0.125)^2; 2)")
        ts = parse_timescale("interval(0,1)")
        with pytest.raises(ValidationError) as err:
            bind_function(d, ts, K=100)
        assert str(err.value) == ("definition is invalid at t=0.0: "
                                  "lower endpoint decreases at level index 0")
        assert bind_function(d, ts, K=4)(0.5).lower[0] == 0.015625

    def test_tri_message_keeps_the_values(self):
        d = parse_function("tri(0, t, 1)")
        with pytest.raises(ValidationError) as err:
            eval_function(d, 2.0, 4)
        assert str(err.value) == "tri endpoints out of order at t=2.0: (0, 2, 1)"
        assert err.value.sample == {"t": 2.0, "left": 0.0, "peak": 2.0, "right": 1.0}


class TestExampleFunction:
    def setup_method(self):
        self.ts = parse_timescale(EXAMPLE_SCALE)
        self.d = parse_function(EXAMPLE_FN)

    def test_on_first_generator(self):
        u = eval_function(self.d, 1.0, K=4, ts=self.ts)
        assert hausdorff(u, triangular(-2.0, 0.0, 2.0, 4)) <= 1e-15

    def test_on_second_generator(self):
        t = SQRT2
        u = eval_function(self.d, t, K=4, ts=self.ts)
        expect = triangular(t - 2.0, (t * t + t - 2.0) / 2.0, t * t, 4)
        assert hausdorff(u, expect) <= 1e-15

    def test_at_accumulation_point_first_arm_wins(self):
        u = eval_function(self.d, 0.0, K=4, ts=self.ts)
        assert hausdorff(u, triangular(-2.0, -1.0, 0.0, 4)) <= 1e-15

    def test_binding_validates_and_evaluates(self):
        f = bind_function(self.d, self.ts, K=8)
        u = f(0.5)  # 1/2 lies on the first generator
        assert u.level(1.0).lo == pytest.approx((0.25 + 0.5 - 2.0) / 2.0)

    def test_arms_resolve_per_scale(self):
        # the same arms name different pieces on the two scales: 0.5 is
        # 1/2 on A and inside interval(0,1) on B; 2.5 lies in interval(2,3)
        # on A and is a point of B
        src = {"A": "union(recip(1,20), interval(2,3))",
               "B": "union(interval(0,1), points(2,2.5,3))"}
        want = {("A", 0.5): 2.0, ("A", 2.5): 3.0, ("B", 0.5): 1.0, ("B", 2.5): 4.0}
        d = parse_function("tri(piecewise(in interval(0) => 1, in recip(1) => 2, "
                           "in interval(2) => 3, in points(2) => 4), 5, 6)")

        def check(scales):
            fns = [(k, ts, bind_function(d, ts, K=4)) for k, ts in scales]
            for _ in range(2):
                for k, ts, f in fns:
                    for t in (0.5, 2.5):
                        fresh = eval_function(d, t, 4, parse_timescale(src[k]))
                        assert fresh.lower[0] == want[k, t]
                        assert eval_function(d, t, 4, ts) == fresh
                        assert f(t) == fresh
                        assert _same_bits(f.stack([t])[0][0], fresh.lower)

        scales = [(k, parse_timescale(v)) for k, v in src.items()]
        check(scales)
        # drop a scale and build an equal one, again and again: a new scale
        # often takes the id of a dropped one that differs from it
        for i in range(20):
            del scales[0]
            gc.collect()
            k = "AB"[i % 2]
            scales.append((k, parse_timescale(src[k])))
            check(scales)

    def test_arm_must_cover_scale(self):
        d = parse_function("tri(piecewise(in recip(1) => -2), 0, 2)")
        with pytest.raises(ValidationError):
            bind_function(d, self.ts, K=4)


class TestCanonicalPrinting:
    CASES = [
        "t + 1",
        "t - 1 - 2",
        "2 * (t + 1)",
        "-(t + 1)",
        "t^3",
        "(t + 1)^2",
        "t^-1",
        "sqrt(t + 2)",
        "t / (t + 1) / 2",
        "piecewise(in recip(1) => -2, in recip(sqrt2) => t - 2)",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip(self, src):
        tree = parse_scalar(src)
        printed = print_canonical(tree)
        assert parse_scalar(printed) == tree

    def test_function_round_trip(self):
        d = parse_function(EXAMPLE_FN)
        assert parse_function(print_canonical(d)) == d

    def test_timescale_round_trip(self):
        ts = parse_timescale(EXAMPLE_SCALE)
        assert parse_timescale(print_canonical(ts)) == ts

    def test_integral_floats_print_as_ints(self):
        assert print_canonical(Const(3.0)) == "3"
        assert print_canonical(Const(-2.0)) == "-2"
        assert print_canonical(parse_scalar("2.5 * t")) == "2.5 * t"


def _rand_expr(rng: random.Random, depth: int, allow_alpha: bool):
    if depth == 0:
        roll = rng.random()
        if roll < 0.45:
            if rng.random() < 0.5:
                return Const(float(rng.randint(-9, 9)))
            return Const(round(rng.uniform(-10, 10), 3))
        if roll < 0.8:
            return Name("t")
        if roll < 0.9 and allow_alpha:
            return Name("alpha")
        return Name(rng.choice(["sqrt2", "pi"]))
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice("+-*/")
        return BinOp(op, _rand_expr(rng, depth - 1, allow_alpha),
                     _rand_expr(rng, depth - 1, allow_alpha))
    if roll < 0.7:
        return BinOp("^", _rand_expr(rng, 0, allow_alpha),
                     Const(float(rng.randint(-3, 5))))
    if roll < 0.8:
        arg = _rand_expr(rng, depth - 1, allow_alpha)
        return arg if isinstance(arg, Const) else Neg(arg)
    if roll < 0.9:
        return Sqrt(_rand_expr(rng, depth - 1, allow_alpha))
    kinds = [("recip", (1.0,)), ("recip", (SQRT2,)), ("interval", (0.0, 1.0)),
             ("hgrid", (0.0, 10.0)), ("points", ()), ("qgrid", (2.0,))]
    arms = tuple(
        Arm(PieceRef(k, a), _rand_expr(rng, depth - 1, allow_alpha))
        for k, a in rng.sample(kinds, rng.randint(1, 3))
    )
    return Piecewise(arms)


class TestRandomRoundTrips:
    def test_seeded_sample(self):
        rng = random.Random(20260819)
        for _ in range(500):
            allow_alpha = rng.random() < 0.3
            tree = _rand_expr(rng, rng.randint(0, 4), allow_alpha)
            printed = print_canonical(tree)
            if allow_alpha:
                p = _Parser(printed)
                reparsed = _finish(p, p.expr(True))
            else:
                reparsed = parse_scalar(printed)
            assert reparsed == tree

    def test_eval_matches_python(self):
        rng = random.Random(7)
        for _ in range(200):
            tree = _rand_expr(rng, 2, allow_alpha=False)
            printed = print_canonical(tree)
            try:
                v1 = eval_expr(tree, 1.75)
            except ValidationError:
                continue
            v2 = eval_expr(parse_scalar(printed), 1.75)
            assert v1 == pytest.approx(v2, abs=1e-12)


# every piece kind, with members on both sides of 0 and an interval
VECTOR_SCALE = TimeScale([
    ClosedInterval(2.0, 3.0),
    ExplicitPoints((-1.5, 0.0, 1.75)),
    ArithmeticGrid(-1.0, 1.0, 0.25),
    GeometricGrid(2.0, -2, 2),
    ReciprocalGrid(1.0, 8),
    ReciprocalGrid(-SQRT2, 6),
])
VECTOR_REFS = [PieceRef("interval", (2.0,)), PieceRef("points", (-1.5,)),
               PieceRef("hgrid", (-1.0,)), PieceRef("qgrid", (2.0,)),
               PieceRef("recip", (1.0,)), PieceRef("recip", (-SQRT2,))]
# members, interval points, and points no arm may cover
VECTOR_POINTS = sorted(set(VECTOR_SCALE._points.tolist())
                       | {2.25, 2.5, 3.0, 0.3, -0.7, 5.0, 1e-13})


def _exprs(alpha: bool):
    leaves = st.one_of(
        st.builds(Const, st.sampled_from([0.0, 1.0, -2.0, 0.5, 3.0, 1e200])),
        st.sampled_from([Name("t"), Name("t"), Name("sqrt2"), Name("pi")]
                        + [Name("alpha")] * (2 if alpha else 0)))

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Sqrt, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(lambda b, e: BinOp("^", b, Const(float(e))), children,
                      st.integers(-3, 5)),
            st.builds(lambda arms: Piecewise(tuple(arms)),
                      st.lists(st.builds(Arm, st.sampled_from(VECTOR_REFS),
                                         children), min_size=1, max_size=3)))
    return st.recursive(leaves, extend, max_leaves=10)


EXPRS = {False: _exprs(False), True: _exprs(True)}


def _outcome(run):
    try:
        return run()
    except (ValidationError, ArithmeticError) as err:
        return type(err), str(err), getattr(err, "sample", None)


def _same_bits(a, b) -> bool:
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestVectorForm:
    """An expression evaluates at a column of points in one pass and gives,
    row by row, the bits of eval_expr; the column raises exactly when some
    row does, and compile_function raises the error of the first such t."""

    @given(data=st.data(), with_alpha=st.booleans(), K=st.sampled_from([0, 1, 4]),
           pts=st.lists(st.sampled_from(VECTOR_POINTS), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_eval_expr(self, data, with_alpha, K, pts):
        e = data.draw(EXPRS[with_alpha])
        # only a power of a piecewise that is an alpha array at some points
        # and a float at others has no column form
        assume(_has_column_form(e))
        alpha = alpha_grid(K) if with_alpha else None
        width = K + 1 if with_alpha else 1

        def column(t):
            with np.errstate(all="ignore"):
                return _outcome(lambda: _eval(e, np.array(t).reshape(-1, 1),
                                              None if alpha is None else alpha.reshape(1, -1),
                                              VECTOR_SCALE))

        scalar = [_outcome(lambda: eval_expr(e, t, alpha, VECTOR_SCALE)) for t in pts]
        for t, want in zip(pts, scalar):  # each row alone
            row = column([t])
            assert isinstance(row, tuple) == isinstance(want, tuple)
            if not isinstance(want, tuple):
                assert _same_bits(np.broadcast_to(row, (1, width))[0],
                                  np.broadcast_to(want, (width,)))
        got = column(pts)
        assert isinstance(got, tuple) == any(isinstance(w, tuple) for w in scalar)
        if isinstance(got, tuple):
            assert got[0] is ValidationError
            return
        rows = np.broadcast_to(got, (len(pts), width))
        for row, want in zip(rows, scalar):
            assert _same_bits(row, np.broadcast_to(want, (width,)))

    @pytest.mark.parametrize("e", [
        # 0 * inf at alpha = 0: "invalid value encountered in multiply"
        BinOp("*", Const(0.0), BinOp("^", Name("alpha"), Const(-1.0))),
        BinOp("-", BinOp("^", Name("alpha"), Const(-1.0)),
              BinOp("^", Name("alpha"), Const(-1.0))),
    ])
    def test_array_arithmetic_is_quiet(self, e):
        # NaN at alpha = 0, without a warning; the level fails validation
        alpha = alpha_grid(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = eval_expr(e, -1.5, alpha, VECTOR_SCALE)
            d = EndpointsDef(BinOp("-", e, Const(1.0)), Const(1.0))
            with pytest.raises(OrderViolation, match="level arrays must be finite"):
                eval_function(d, -1.5, 4, VECTOR_SCALE)
        assert math.isnan(want[0]) and want[1:].tolist() == [0.0] * 4
        with np.errstate(all="ignore"):
            got = _eval(e, np.array([[-1.5]]), alpha.reshape(1, -1), VECTOR_SCALE)
        assert _same_bits(got[0], want)

    @pytest.mark.parametrize("e", [2, -1, 3, -3, 5])
    def test_power_is_float_power(self, e):
        # numpy's power differs from float ** int in the last bit for a few
        # percent of inputs; a column gives Python's
        rng = np.random.default_rng(e + 10)
        t = rng.uniform(0.1, 10.0, 2000)
        got = _eval(BinOp("^", Name("t"), Const(float(e))), t.reshape(-1, 1),
                    None, VECTOR_SCALE)
        assert got[:, 0].tolist() == [x ** e for x in t.tolist()]

    @pytest.mark.parametrize("src", [
        EXAMPLE_FN,
        "endpoints(t - (1-alpha)*(t^2+1); t + (1-alpha)*(t^2+1))",
        "endpoints(alpha^3 * sqrt(t^2+1); 2 + t^2/(1+alpha))",
        "tri(piecewise(in hgrid(-1) => t^-2, in qgrid(2) => sqrt(t), in recip(1) => 1/t), "
        "3, piecewise(in interval(2) => 4 + t, in points(-1.5) => 5, in recip(-sqrt2) => 4))",
    ])
    def test_function_stacks(self, src):
        d = parse_function(src)
        ts = parse_timescale(EXAMPLE_SCALE) if src == EXAMPLE_FN else VECTOR_SCALE
        pts = (ts._points.tolist() if ts is not VECTOR_SCALE
               else VECTOR_POINTS)
        scalar = [_outcome(lambda: eval_function(d, t, 6, ts)) for t in pts]
        first_error = next((s for s in scalar if isinstance(s, tuple)), None)
        got = _outcome(lambda: compile_function(d, ts, 6)(pts))
        if first_error is not None:
            assert got == first_error
            pts = [t for t, s in zip(pts, scalar) if not isinstance(s, tuple)]
            scalar = [s for s in scalar if not isinstance(s, tuple)]
            got = compile_function(d, ts, 6)(pts)
        lo, hi = got
        for i, u in enumerate(scalar):
            assert _same_bits(lo[i], u.lower) and _same_bits(hi[i], u.upper)

    def test_stack_validates_rows(self):
        # levels nest everywhere but at t = 0, where the lower end falls
        ts = parse_timescale("hgrid(-2,2,1)")
        d = parse_function("endpoints(alpha*(t^2 - 1/2)/10; 1)")
        f = FuzzyFunction(lambda t: eval_function(d, t, 4, ts), K=4,
                          vector=compile_function(d, ts, 4))
        pts = [-2.0, -1.0, 1.0, 2.0]
        lo, hi = f.stack(pts)
        assert all(_same_bits(lo[i], f(t).lower) for i, t in enumerate(pts))
        with pytest.raises(OrderViolation) as stacked:
            f.stack([2.0, 0.0, -1.0])
        with pytest.raises(OrderViolation) as single:
            f(0.0)
        # the largest of the lower endpoint's falls (the first is at index 0)
        assert str(stacked.value) == "lower endpoint decreases at level index 3"
        assert str(stacked.value) == str(single.value)

    def test_uncovered_arm_names_first_t(self):
        d = parse_function("tri(piecewise(in recip(1) => t), 1, 2)")
        levels = compile_function(d, VECTOR_SCALE, 4)
        with pytest.raises(ValidationError, match=r"t=0\.3\b") as err:
            levels([1.0, 0.5, 0.3, -0.7])
        assert err.value.sample == {"t": 0.3}

    def test_bound_function_has_vector_form(self):
        ts = parse_timescale(EXAMPLE_SCALE)
        f = bind_function(parse_function(EXAMPLE_FN), ts, K=8)
        pts = ts._points.tolist()
        lo, hi = f.stack(pts)
        assert lo.shape == hi.shape == (len(pts), 9)
        assert all(_same_bits(lo[i], f(t).lower) and _same_bits(hi[i], f(t).upper)
                   for i, t in enumerate(pts))
        assert FuzzyFunction(f, K=8)._vector is None

    def test_no_vector_form_reads_each_point(self):
        # a power of a piecewise that is an alpha array at some points only
        ts = parse_timescale("union(recip(1,40), recip(sqrt2,40))")
        d = parse_function(
            "endpoints(-piecewise(in recip(1) => 1 - alpha, in recip(sqrt2) => t + 1)^2; "
            "5 + t)")
        f = bind_function(d, ts, K=4)
        assert f._vector is None
        with pytest.raises(TypeError, match="no column form"):
            _eval(d.lower, np.array([[1.0], [SQRT2]]), alpha_grid(4).reshape(1, -1), ts)
        pts = ts._points.tolist()[1:]
        assert ([r.to_dict() for r in nabla_many(f, ts, pts)]
                == [derivative_report(f, ts, t).to_dict() for t in pts])
