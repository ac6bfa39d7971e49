"""Ten end-to-end checks at fixed tolerances, one test per criterion.

Each test prints a single pass line when it succeeds, so a verbose run
reads as a checklist. Expected values come from independent computations
frozen into this file: closed-form endpoint algebra for the two-generator
instance, a brute-force generalized-difference oracle at 10x level
resolution, and hand-worked product-rule arithmetic.
"""

import json
import math
from dataclasses import astuple
import random
import time

import numpy as np
import pytest

from fuzzynabla.cli import main as cli_main
from fuzzynabla.dsl import (
    BinOp,
    Const,
    Name,
    TriDef,
    parse_function,
    print_canonical,
)
from fuzzynabla.errors import DslSyntaxError, ValidationError
from fuzzynabla.fuzzy import (
    FuzzyNumber,
    add,
    crisp,
    gh_diff,
    hausdorff,
    scalar_mul,
    triangular,
)
from fuzzynabla.nabla import (
    DiffCase,
    FuzzyFunction,
    ProbeConfig,
    check_level_consistency,
    check_rho_identity,
    endpoint_derivatives,
    nabla_gh,
)
from fuzzynabla.rules import Verdict, product_fuzzy, product_interval, sum_rule
from fuzzynabla.timescale import (
    ArithmeticGrid,
    ExplicitPoints,
    GeometricGrid,
    ReciprocalGrid,
    TimeScale,
)

SQRT2 = math.sqrt(2.0)
N_BIG = 10_000
K = 100
U123 = triangular(1.0, 2.0, 3.0, K)


# -- shared two-generator instance -------------------------------------------


@pytest.fixture(scope="module")
def big_scale():
    return TimeScale([
        ReciprocalGrid(1.0, N_BIG),
        ReciprocalGrid(SQRT2, N_BIG),
        ExplicitPoints((0.0,)),
    ])


def _on_unit_grid(t: float) -> bool:
    if t == 0.0:
        return True
    n = round(1.0 / t)
    return n > 0 and abs(t - 1.0 / n) < 1e-12


def _two_gen_fn(t: float) -> FuzzyNumber:
    if _on_unit_grid(t):
        a, c = -2.0, t * t + t
    else:
        a, c = t - 2.0, t * t
    return triangular(a, (t * t + t - 2.0) / 2.0, c, K)


BIG_CFG = ProbeConfig(agreement_tol=2e-3)


def test_c01_two_generator_derivative_at_zero(big_scale):
    f = FuzzyFunction(_two_gen_fn, K=K)
    t0 = time.perf_counter()
    res = nabla_gh(f, big_scale, 0.0, BIG_CFG)
    elapsed = time.perf_counter() - t0

    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert res.case is DiffCase.SWITCHING_III
    alphas = res.value.alphas
    gap_lo = np.max(np.abs(res.value.lower - alphas / 2.0))
    gap_hi = np.max(np.abs(res.value.upper - (1.0 - alphas / 2.0)))
    assert max(gap_lo, gap_hi) <= 2e-3
    print(f"criterion 01: PASS  value within {max(gap_lo, gap_hi):.1e} of "
          f"[a/2, 1-a/2], SwitchingIII, {elapsed:.2f}s")


def test_c02_endpoint_nonexistence_certified(big_scale):
    f = FuzzyFunction(_two_gen_fn, K=K)
    report = endpoint_derivatives(f, big_scale, 0.0, BIG_CFG)
    row0 = report.rows()[0]
    assert row0["alpha"] == 0.0

    entry = row0["dplus_lower"]
    assert entry["exists"] is False
    subs = entry["subsequence_limits"]
    assert len(subs) == 2
    by_gen = {label.split(",")[0]: v for label, v in subs.items()}
    assert abs(by_gen["recip(1"] - 0.0) <= 1e-3
    assert abs(by_gen[f"recip({SQRT2!r}"] - 1.0) <= 1e-3

    # the upper endpoint swaps the two limits
    upper = row0["dplus_upper"]
    assert upper["exists"] is False
    assert sorted(upper["subsequence_limits"].values()) == pytest.approx(
        [0.0, 1.0], abs=1e-3)
    print("criterion 02: PASS  level-0 limits 0 (along 1/n) and 1 "
          "(along sqrt2/n), existence certified false")


def test_c03_scattered_exactness():
    ts = TimeScale([ArithmeticGrid(0.0, 20.0, 1.0)])
    f = FuzzyFunction(lambda t: U123 * t, K=K)
    worst = 0.0
    for t in range(1, 21):
        res = nabla_gh(f, ts, float(t))
        assert res.residual == 0.0
        worst = max(worst, hausdorff(res.value, U123))
    assert worst <= 1e-12
    print(f"criterion 03: PASS  20 exact backward quotients, worst gap "
          f"{worst:.1e}")


def test_c04_rho_identity_random_instances():
    rng = random.Random(41)
    h_scales = {
        h: TimeScale([ArithmeticGrid(0.0, 8.0, h)]) for h in (1.0, 0.5, 0.25)
    }
    q_scale = TimeScale([GeometricGrid(2.0, 0, 5)])
    q_members = [2.0 ** k for k in range(1, 6)]

    def poly(c):
        return lambda t: c[0] + c[1] * t + c[2] * t * t

    worst = 0.0
    for i in range(100):
        p = poly([rng.uniform(-3, 3) for _ in range(3)])
        q = poly([rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5), 0.0])
        # one squared width polynomial scaled per side keeps both cut
        # widths moving together, so the step differences exist
        cl, cr = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)

        def fn(t, p=p, q=q, cl=cl, cr=cr):
            mid, w2 = p(t), q(t) ** 2
            return triangular(mid - cl * w2, mid, mid + cr * w2, 30)

        f = FuzzyFunction(fn, K=30)
        if i % 2 == 0:
            h = rng.choice((1.0, 0.5, 0.25))
            ts = h_scales[h]
            t = h * rng.randint(1, int(round(8.0 / h)))
        else:
            ts = q_scale
            t = rng.choice(q_members)
        worst = max(worst, check_rho_identity(f, ts, t))
    assert worst <= 1e-9
    print(f"criterion 04: PASS  100 random reconstruction residuals, worst "
          f"{worst:.1e}")


# -- generalized-difference oracle -------------------------------------------


def _oracle_gh(u3, v3, levels: int):
    """Brute-force difference at 10x resolution, straight from the cut
    formulas; returns (tag, lower, upper) on the coarse grid or
    (tag, None, None)."""
    R = 10 * levels
    A = np.arange(R + 1) / R
    au, bu, cu = u3
    av, bv, cv = v3
    dlo = (au + A * (bu - au)) - (av + A * (bv - av))
    dhi = (cu + A * (bu - cu)) - (cv + A * (bv - cv))
    mag = max(np.max(np.abs(dlo)), np.max(np.abs(dhi)))
    tol = 1e-12 * (1.0 + mag)

    def feasible(lo, hi):
        return (np.all(np.diff(lo) >= -tol) and np.all(np.diff(hi) <= tol)
                and np.all(lo <= hi + tol))

    fi = feasible(dlo, dhi)
    fii = feasible(dhi, dlo)
    sub = slice(None, None, 10)
    if fi and fii:
        return "Both", dlo[sub], dhi[sub]
    if fi:
        return "CaseI", dlo[sub], dhi[sub]
    if fii:
        return "CaseII", dhi[sub], dlo[sub]
    return "None", None, None


def test_c05_gh_difference_oracle_equivalence():
    rng = random.Random(42)
    agree = 0
    for _ in range(1000):
        u3 = tuple(sorted(rng.uniform(-10, 10) for _ in range(3)))
        v3 = tuple(sorted(rng.uniform(-10, 10) for _ in range(3)))
        res = gh_diff(triangular(*u3, K), triangular(*v3, K))
        tag, olo, ohi = _oracle_gh(u3, v3, K)
        assert res.case.value == tag, (u3, v3)
        if olo is not None:
            assert np.max(np.abs(res.value.lower - olo)) <= 1e-10
            assert np.max(np.abs(res.value.upper - ohi)) <= 1e-10
        agree += 1

    res = gh_diff(triangular(0, 1, 5, K), triangular(0, 3, 4, K))
    assert res.case.value == "None" and res.value is None
    assert _oracle_gh((0, 1, 5), (0, 3, 4), K)[0] == "None"
    print(f"criterion 05: PASS  {agree} random pairs match the 10x-resolution "
          "oracle; named pair has no difference in either case")


def test_c06_metric_axioms():
    rng = random.Random(43)
    K64 = 64

    def dyadic_number():
        vals = sorted(rng.randint(-10, 10) for _ in range(3))
        return triangular(*[float(v) for v in vals], K64)

    for _ in range(1000):
        u, v, w, e = (dyadic_number() for _ in range(4))
        k = rng.uniform(-5.0, 5.0)

        base = hausdorff(u, v)
        assert hausdorff(add(u, w), add(v, w)) == base

        scaled = hausdorff(scalar_mul(k, u), scalar_mul(k, v))
        assert scaled == pytest.approx(abs(k) * base, rel=1e-12, abs=1e-15)

        lhs = hausdorff(add(u, v), add(w, e))
        assert lhs <= hausdorff(u, w) + hausdorff(v, e) + 1e-12
    print("criterion 06: PASS  1000 translation/scaling/subadditivity "
          "checks, translation exact on the dyadic lattice")


def test_c07_sum_rule_random_pairs():
    rng = random.Random(44)
    scales = [
        TimeScale([ArithmeticGrid(0.0, 10.0, 1.0)]),
        TimeScale([ArithmeticGrid(0.0, 10.0, 0.5)]),
    ]

    def rand_u():
        a = rng.uniform(-5, 5)
        return triangular(a, a + rng.uniform(0.2, 2), a + rng.uniform(2.2, 4), 20)

    def widening(u):
        c = rng.uniform(0.5, 3.0)
        return FuzzyFunction(lambda t: u * (t + c), K=20)

    def narrowing(u):
        return FuzzyFunction(lambda t: u * (12.0 - t), K=20)

    worst = 0.0
    for i in range(200):
        ts = scales[i % 2]
        h = 1.0 if i % 2 == 0 else 0.5
        t = h * rng.randint(1, int(round(10.0 / h)))
        make = widening if i % 4 < 2 else narrowing
        rep = sum_rule(make(rand_u()), make(rand_u()), ts, t)
        assert rep.verdict is Verdict.VERIFIED, (i, rep.to_dict())
        assert rep.residual <= 1e-8
        worst = max(worst, rep.residual)

    for i in range(50):
        ts = scales[i % 2]
        h = 1.0 if i % 2 == 0 else 0.5
        t = h * rng.randint(1, int(round(10.0 / h)))
        rep = sum_rule(widening(rand_u()), narrowing(rand_u()), ts, t)
        assert rep.verdict is Verdict.HYPOTHESIS_FAILED
    print(f"criterion 07: PASS  200 same-tag pairs Verified (worst residual "
          f"{worst:.1e}), 50 mixed-tag pairs flagged HypothesisFailed")


def test_c08_product_rules_worked_instances():
    # real factor t^2+1 against a drifting triangle on the half-integer grid
    half = TimeScale([ArithmeticGrid(0.0, 4.0, 0.5)])
    g = FuzzyFunction(lambda t: triangular(t, t + 1.0, t + 3.0, K), K=K)
    rep = product_fuzzy(lambda t: t * t + 1.0, g, half, 2.0)
    assert rep.verdict is Verdict.VERIFIED
    assert rep.residual <= 1e-9
    assert rep.extras["rhs_cross_gap"] <= 1e-12

    # interval factor [t, 2t] against 6-t on the integer grid, both the
    # widening (t=3) and narrowing (t=5) identities
    zz = TimeScale([ArithmeticGrid(1.0, 6.0, 1.0)])
    gi = FuzzyFunction(lambda t: FuzzyNumber.interval(t, 2.0 * t), K=0)
    fs = lambda t: 6.0 - t

    rep3 = product_interval(fs, gi, zz, 3.0)
    assert rep3.verdict is Verdict.VERIFIED
    assert rep3.residual <= 1e-9
    assert rep3.extras["equation"] == "widening"
    assert astuple(rep3.lhs.level(0.0)) == pytest.approx((3.0, 6.0))

    rep5 = product_interval(fs, gi, zz, 5.0)
    assert rep5.verdict is Verdict.VERIFIED
    assert rep5.residual <= 1e-9
    assert rep5.extras["equation"] == "narrowing"
    assert astuple(rep5.lhs.level(0.0)) == pytest.approx((-8.0, -4.0))
    print("criterion 08: PASS  fuzzy product at t=2 on the half grid and "
          "both interval identities at t=3, t=5 Verified")


def test_c09_level_consistency(big_scale):
    ts = TimeScale([ArithmeticGrid(0.0, 20.0, 1.0)])
    f = FuzzyFunction(lambda t: U123 * t, K=K)
    worst = max(check_level_consistency(f, ts, float(t)) for t in (1, 5, 20))
    assert worst <= 1e-12

    f2 = FuzzyFunction(_two_gen_fn, K=K)
    gap = check_level_consistency(f2, big_scale, 0.0, BIG_CFG)
    assert gap <= 2e-3
    print(f"criterion 09: PASS  per-level agreement {worst:.1e} exact "
          f"scattered, {gap:.1e} at the two-generator accumulation point")


# -- DSL round-trips ----------------------------------------------------------


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
    if roll < 0.6:
        op = rng.choice("+-*/")
        return BinOp(op, _rand_expr(rng, depth - 1, allow_alpha),
                     _rand_expr(rng, depth - 1, allow_alpha))
    if roll < 0.75:
        return BinOp("^", _rand_expr(rng, 0, allow_alpha),
                     Const(float(rng.randint(-3, 5))))
    from fuzzynabla.dsl import Neg, Sqrt

    if roll < 0.88:
        arg = _rand_expr(rng, depth - 1, allow_alpha)
        return arg if isinstance(arg, Const) else Neg(arg)
    return Sqrt(_rand_expr(rng, depth - 1, allow_alpha))


def test_c10_dsl_round_trips_and_errors(capsys):
    from fuzzynabla.dsl import _Parser, _finish

    rng = random.Random(20260819)
    for _ in range(10_000):
        allow_alpha = rng.random() < 0.3
        tree = _rand_expr(rng, rng.randint(0, 4), allow_alpha)
        printed = print_canonical(tree)
        p = _Parser(printed)
        reparsed = _finish(p, p.expr(allow_alpha))
        assert reparsed == tree, printed

    # documented parse results
    t2 = BinOp("^", Name("t"), Const(2.0))
    expected = TriDef(
        Const(-2.0),
        BinOp("/",
              BinOp("-", BinOp("+", t2, Name("t")), Const(2.0)),
              Const(2.0)),
        BinOp("+", t2, Name("t")),
    )
    assert parse_function("tri(-2, (t^2+t-2)/2, t^2+t)") == expected

    const1 = parse_function("tri(1,1,1)")
    assert const1 == TriDef(Const(1.0), Const(1.0), Const(1.0))
    from fuzzynabla.dsl import eval_function

    v = eval_function(const1, 7.0, 4)
    assert hausdorff(v, crisp(1.0, 4)) == 0.0

    # the peak lies below the left end at every t: refused where it is
    # bound, at the first sampled member
    from fuzzynabla.dsl import bind_function

    bad = parse_function("tri(t, t-1, t+1)")
    with pytest.raises(ValidationError, match=r"^definition is invalid at t=0\.0: "):
        bind_function(bad, TimeScale([ArithmeticGrid(0.0, 5.0, 1.0)]), K=4)

    # malformed text: positioned error and config exit code through the CLI
    with pytest.raises(DslSyntaxError) as exc:
        parse_function("tri(1, 2")
    assert exc.value.line == 1 and exc.value.col == 9

    code = cli_main([
        "diff", "--timescale", "hgrid(0,5,1)",
        "--fn", "tri(1, 2", "--points", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1, col 9" in captured.err
    print("criterion 10: PASS  10000 round-trips, documented parses, "
          "positioned error with exit code 1")
