"""Parser, printer and evaluator for the little spec language."""

import math
import random

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
    _compile,
    _finish,
    _NotCompiled,
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
from fuzzynabla.nabla import FuzzyFunction
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
        assert list(ts.discrete_points) == [0.0, 0.5, 1.0]


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
        with pytest.raises(ValidationError):
            eval_expr(parse_scalar("sqrt(t)"), -1.0)

    def test_division_by_zero(self):
        with pytest.raises(ValidationError):
            eval_expr(parse_scalar("1 / t"), 0.0)

    def test_negative_exponent(self):
        assert eval_expr(parse_scalar("t^-2"), 2.0) == 0.25

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
        assert u.level(0.0).as_tuple() == (2.0, 6.0)
        assert u.level(1.0).as_tuple() == (3.0, 5.0)

    def test_alpha_in_tri_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_function("tri(alpha, alpha + 1, alpha + 2)")

    def test_universally_bad_def_rejected_at_parse(self):
        with pytest.raises(ValidationError):
            parse_function("tri(t, t - 1, t + 1)")

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
VECTOR_POINTS = sorted(set(VECTOR_SCALE.discrete_points.tolist())
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
    """A compiled expression evaluates many points in one pass and gives,
    row by row, the bits of eval_expr, with the rows where eval_expr
    raises; compile_function raises the error of the first such t."""

    @given(data=st.data(), with_alpha=st.booleans(),
           pts=st.lists(st.sampled_from(VECTOR_POINTS), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_eval_expr(self, data, with_alpha, pts):
        e = data.draw(EXPRS[with_alpha])
        try:
            fn = _compile(e, VECTOR_SCALE)
        except _NotCompiled:
            # only a power of a piecewise that is an alpha array at some
            # points and a float at others has no vector form
            assume(False)
        alpha = alpha_grid(4) if with_alpha else None
        width = 5 if with_alpha else 1
        with np.errstate(all="ignore"):
            got, failing = fn(np.array(pts).reshape(-1, 1),
                              None if alpha is None else alpha.reshape(1, -1))
        rows = np.broadcast_to(got, (len(pts), width))
        if failing is None:
            failing = np.zeros(len(pts), dtype=bool)
        for t, row, fails in zip(pts, rows, failing.tolist()):
            want = _outcome(lambda: eval_expr(e, t, alpha, VECTOR_SCALE))
            assert isinstance(want, tuple) == fails
            if not fails:
                assert _same_bits(row, np.broadcast_to(want, (width,)))

    @pytest.mark.parametrize("e", [2, -1, 3, -3, 5])
    def test_power_is_float_power(self, e):
        # numpy's power differs from float ** int in the last bit for a few
        # percent of inputs; the vector form gives Python's
        rng = np.random.default_rng(e + 10)
        t = rng.uniform(0.1, 10.0, 2000)
        got, _ = _compile(BinOp("^", Name("t"), Const(float(e))),
                          VECTOR_SCALE)(t.reshape(-1, 1), None)
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
        pts = (ts.discrete_points.tolist() if ts is not VECTOR_SCALE
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
        pts = ts.discrete_points.tolist()
        lo, hi = f.stack(pts)
        assert lo.shape == hi.shape == (len(pts), 9)
        assert all(_same_bits(lo[i], f(t).lower) and _same_bits(hi[i], f(t).upper)
                   for i, t in enumerate(pts))
        assert FuzzyFunction(f, K=8)._vector is None
