"""Backward (nabla) derivatives of fuzzy-valued functions on time scales.

At a point with a backward jump the derivative is the exact quotient of the
generalized difference by the graininess. At a left-dense point it is a
limit, estimated from one-sided probe streams: every local generator piece
contributes its own stream, so functions whose endpoint slopes oscillate
between generators (the reason switching cases exist) are handled honestly:
per-stream subsequence estimates are reported, disagreement beyond tolerance
is surfaced instead of averaged away, and non-existence of an endpoint
derivative is only certified when two labeled subsequences drift apart by
more than ten times the agreement tolerance.

Nothing here trusts a theorem hypothesis: classification and the checkers
measure everything they claim.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    FuzzyNablaError,
    GhNonexistent,
    GridMismatch,
    LimitDisagreement,
    NotInDomain,
    NotInTimeScale,
    OrderViolation,
)
from .fuzzy import (
    FuzzyNumber,
    GhCase,
    GhRows,
    add,
    alpha_grid,
    crisp,
    gh_exists,
    hausdorff,
    require_fuzzy,
    scalar_mul,
)
from .timescale import MEMBERSHIP_RTOL, SYNTHETIC_H0, PointClass, Side, TimeScale

# how much larger than the agreement tolerance a subsequence split must be
# before non-existence is certified rather than left inconclusive
NONEXISTENCE_FACTOR = 10.0


@dataclass(frozen=True)
class ProbeConfig:
    """Controls one-sided limit estimation.

    probe_count nearest points per stream are used; the estimate is the
    closest probe's quotient and the residual is the spread over the tail
    half. Richardson extrapolation (ratio-2) applies only to synthetic
    streams inside real intervals; generator streams have step ratios near 1
    where extrapolation is unstable.
    """

    probe_count: int = 8
    agreement_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.probe_count, numbers.Integral):
            raise ValueError(f"probe_count must be an integer, got {self.probe_count!r}")
        if self.probe_count < 3:
            raise ValueError("probe_count must be at least 3")
        # past this count a synthetic probe, SYNTHETIC_H0 / 2**(n - 1) from
        # t, lies within the membership tolerance of t
        most = 1 + int(math.log2(SYNTHETIC_H0 / MEMBERSHIP_RTOL))
        if self.probe_count > most:
            raise ValueError(f"probe_count must be at most {most}")
        if not (self.agreement_tol > 0 and math.isfinite(self.agreement_tol)):
            raise ValueError("agreement_tol must be positive and finite")


DEFAULT_CONFIG = ProbeConfig()


class DiffCase(Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    CRISP = "Crisp"
    SWITCHING_III = "SwitchingIII"
    SWITCHING_IV = "SwitchingIV"
    NOT_DIFFERENTIABLE = "NotDifferentiable"


# a one-record pass at a jump reads f at t, rho and sigma; neighbouring
# points share two of them, so a memo cache of three values costs about one
# evaluation a point, under a stack
_CACHED_POINTS = 3


class FuzzyFunction:
    """A mapping t -> FuzzyNumber on a fixed level grid, with caching.

    A pass reads f at every point of a chunk's records at once
    (_analyses): by vector when given, else by fn point by point through
    the memo cache. A chunk of at most _CACHED_POINTS points, such as one
    jump's t, rho and sigma, also reads through the memo cache: there a
    memoized scalar read costs about one evaluation a point, less than a
    stack. vector maps a vector of points to (N, K+1) stacks of lower and
    upper endpoints whose rows are bit for bit the levels fn returns; it
    raises when fn raises at any of the points, and callers then call fn
    point by point, in order, which raises fn's own error (bind_function
    passes the definition's tree walk at a column of points,
    dsl.compile_function, which raises that error itself). The memo cache
    holds the last _CACHED_POINTS values of fn, the oldest evicted first;
    stack neither reads nor fills it. No analysis outlives its pass
    (_joint_pass).
    """

    def __init__(self, fn: Callable[[float], FuzzyNumber], K: int = 100,
                 vector: Callable[[np.ndarray], tuple] | None = None):
        self._fn = fn
        alpha_grid(K)  # a level count that is not one is refused here
        self.K = int(K)
        self._cache: dict[float, FuzzyNumber] = {}
        self._vector = vector

    def __call__(self, t: float) -> FuzzyNumber:
        t = float(t)
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        val = self._fn(t)
        if not isinstance(val, FuzzyNumber):
            raise TypeError(f"function returned {type(val).__name__}, not FuzzyNumber")
        if val.K != self.K:
            raise GridMismatch(f"function declared K={self.K} but returned K={val.K}")
        self._cache[t] = val
        if len(self._cache) > _CACHED_POINTS:
            del self._cache[next(iter(self._cache))]
        return val

    def stack(self, t) -> tuple[np.ndarray, np.ndarray]:
        """The (N, K+1) lower and upper level stacks of f at the points t,
        validated row by row as __call__ validates one value: the first
        invalid row raises its OrderViolation. Only for f with a vector
        form (_vector is not None). The memo cache is neither read nor
        filled."""
        lo, hi = self._vector(np.asarray(t, dtype=float))
        require_fuzzy(lo, hi)
        return lo, hi


def _require_function(*fns) -> None:
    """TypeError for the first of fns that is not a FuzzyFunction: the
    engine reads a function's level grid, vector form and memo cache."""
    for fn in fns:
        if not isinstance(fn, FuzzyFunction):
            raise TypeError(f"expected a FuzzyFunction, got {type(fn).__name__} "
                            f"(wrap a callable as FuzzyFunction(fn, K))")


# ---------------------------------------------------------------------------
# probing


def _evaluate(f: FuzzyFunction, pts: list[float]):
    """The evaluation step: the (N, K+1) lower and upper level rows of f at
    pts, and None.

    The rows are one stack of f's vector form when f has one, pts are more
    than the memo cache holds and the stack does not raise; else f(p) in
    order, through the memo cache. When f(p) raises, whatever the error,
    the rows before p and that error, so that the caller raises first what
    those rows (and a chunk's records before p's) raise."""
    if f._vector is not None and len(pts) > _CACHED_POINTS:
        try:
            lo, hi = f.stack(pts)
            return lo, hi, None
        except (FuzzyNablaError, ArithmeticError):
            pass  # f(p), in order, meets the error where it arises
    lo, hi = np.empty((2, len(pts), f.K + 1))
    for j, p in enumerate(pts):
        try:
            Fp = f(p)
        except Exception as err:
            return lo[:j], hi[:j], err
        lo[j], hi[j] = Fp.lower, Fp.upper
    return lo, hi, None


@dataclass
class _SideProbes:
    """One function's probes on one dense side of a record, as rows of its
    chunk's probe kernel (_probe_rows). Per stream, in approach order: the
    label, the (streams, K+1) estimates and tail spreads of the lower and
    upper quotients and of their minimum and maximum (v_tail the larger
    of those two spreads), and its probes' gH cases and continuity gaps.
    Per probe: the point and f's levels there; near indexes each stream's
    nearest probe."""

    labels: list[str]
    lo_est: np.ndarray
    hi_est: np.ndarray
    vlo_est: np.ndarray
    vhi_est: np.ndarray
    lo_tail: np.ndarray
    hi_tail: np.ndarray
    v_tail: np.ndarray
    gh_cases: list[list[str]]
    gaps: list[list[float]]
    points: list[float]
    lower: np.ndarray
    upper: np.ndarray
    near: list[int]


def _probe_rows(lo: np.ndarray, hi: np.ndarray, npts: int, width: int,
                slot: dict[float, int], probed: list):
    """The probe kernel of a chunk whose level stacks hold function i's
    levels at p in row slot[p] + i * npts: the quotient rows of each probe
    of each probed side (t, name, streams), function by function, under
    the caller's np.errstate(over="ignore", invalid="ignore"): an
    overflowing quotient stays in the data, and _dense_value rejects it by
    name. One gh_exists call, on f(p) gH- f(t) right of t and f(t) gH- f(p)
    left of it, gives every gH case, diagnostic (as gh_diff gives them) and
    continuity gap. A stream's estimate is its nearest probe's quotient,
    Richardson extrapolated (2 Q[j] - Q[j-1]) when synthetic; its tail
    spread, that sequence's max pairwise spread over its trailing half (of
    at least two rows), is one reduceat segment. Returns gh and side(k,
    i): function i's rows of the k-th probed side, and its data."""
    pr, tr, dt, left, tail_rows, rich, segment, sides = ([] for _ in range(8))
    for i in range(width):
        for t, name, streams in probed:
            q, s0, ranges = len(pr), len(segment), []
            for s in streams:
                a, n = len(pr), len(s.points)
                ranges.append((a - q, a - q + n))
                pr += [slot[p] + i * npts for p in s.points]
                tr += [slot[t] + i * npts] * n
                dt += [p - t for p in s.points]
                left += [name == "left"] * n
                # element j of the stream's sequence is Q[a + r + j], or
                # 2 Q[a + r + j] - Q[a + j] when extrapolated (r = 1)
                r = int(s.synthetic and n >= 2)
                j0 = min(n - r - 2, (n - r) // 2) if n - r >= 2 else 0
                tail_rows += range(a + r + j0, a + n)
                rich += [r] * (n - r - j0)
                segment.append(n - r - j0)
            sides.append((slice(q, len(pr)), slice(s0, len(segment)), streams, ranges))
    f_lo, f_hi = lo.take(pr, axis=0), hi.take(pr, axis=0)
    d_lo, d_hi = f_lo - lo.take(tr, axis=0), f_hi - hi.take(tr, axis=0)
    sign = np.where(left, -1.0, 1.0)[:, None]
    gh = gh_exists(d_lo * sign, d_hi * sign)
    dt = np.array(dt)[:, None]
    Q_lo, Q_hi = d_lo / dt, d_hi / dt
    tail_rows, rich = np.array(tail_rows), np.array(rich, dtype=bool)
    ext = tail_rows[rich]
    nearest = np.cumsum(segment) - 1
    starts = nearest + 1 - segment

    def tails(X):
        """Each stream's estimate row and tail spread row of X."""
        T = X.take(tail_rows, axis=0)
        T[rich] = 2.0 * X.take(ext, axis=0) - X.take(ext - 1, axis=0)
        spread = (np.maximum.reduceat(T, starts, axis=0)
                  - np.minimum.reduceat(T, starts, axis=0))
        spread[np.equal(segment, 1)] = 0.0  # a sequence of one row
        return T.take(nearest, axis=0), spread

    (lo_est, lo_tail), (hi_est, hi_tail), (vlo_est, vlo_tail), (vhi_est, vhi_tail) = (
        tails(X) for X in (Q_lo, Q_hi, np.minimum(Q_lo, Q_hi), np.maximum(Q_lo, Q_hi)))
    v_tail = np.maximum(vlo_tail, vhi_tail)
    for arr in (lo_est, hi_est, vlo_est, vhi_est, lo_tail, hi_tail, v_tail):
        arr.flags.writeable = False  # a report's streams are row views of them
    cases = [c.value for c in gh.cases()]
    gaps = gh.mag.tolist()  # hausdorff(f(p), f(t))

    def side(k: int, i: int) -> tuple[slice, _SideProbes]:
        rows, at, streams, ranges = sides[i * len(probed) + k]
        own_cases, own_gaps = cases[rows], gaps[rows]
        return rows, _SideProbes(
            [s.label for s in streams], lo_est[at], hi_est[at], vlo_est[at],
            vhi_est[at], lo_tail[at], hi_tail[at], v_tail[at],
            [own_cases[a:b] for a, b in ranges], [own_gaps[a:b] for a, b in ranges],
            [p for s in streams for p in s.points], f_lo[rows], f_hi[rows],
            [b - 1 for _a, b in ranges])

    return gh, side


# ---------------------------------------------------------------------------
# endpoint report


@dataclass
class SideData:
    """One-sided endpoint derivative data at a point.

    kind is 'scattered' (exact jump quotient), 'limit' (probed dense side)
    or 'absent' (no points on that side). The exists flags and the residual
    belong to a limit side: per level, a flag is 1 (limit established), 0
    (certified not to exist: two labeled subsequences disagree beyond 10x
    tolerance) or -1 (inconclusive). A scattered side holds only its
    quotient; it is settled, with residual 0.
    """

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    lower_exists: np.ndarray | None = None
    upper_exists: np.ndarray | None = None
    residual: np.ndarray | None = None
    streams: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def settled(self) -> bool:
        if self.kind != "limit":
            return self.kind == "scattered"
        return bool(np.all(self.lower_exists == 1) and np.all(self.upper_exists == 1))


@dataclass
class EndpointReport:
    """Per-level one-sided endpoint derivative estimates at one point.

    point is the scale's record for t; it is not serialized.
    """

    t: float
    alphas: np.ndarray
    minus: SideData
    plus: SideData
    point: PointClass

    def rows(self) -> list[dict]:
        def entry(side: SideData, which: str, k: int):
            if side.kind == "absent":
                return {"value": None, "exists": None, "residual": None,
                        "subsequence_limits": {}}
            arr = side.lower if which == "lower" else side.upper
            if side.kind == "scattered":
                flag, res = True, 0.0
            else:
                ex = (side.lower_exists if which == "lower" else side.upper_exists)[k]
                flag = True if ex == 1 else False if ex == 0 else None
                res = float(side.residual[k])
            subs = {label: float((lo if which == "lower" else hi)[k])
                    for label, (lo, hi) in side.streams.items()}
            return {"value": float(arr[k]), "exists": flag, "residual": res,
                    "subsequence_limits": subs}

        return [{"alpha": float(a),
                 "dminus_lower": entry(self.minus, "lower", k),
                 "dminus_upper": entry(self.minus, "upper", k),
                 "dplus_lower": entry(self.plus, "lower", k),
                 "dplus_upper": entry(self.plus, "upper", k)}
                for k, a in enumerate(self.alphas)]

    def to_dict(self) -> dict:
        return {"t": self.t, "levels": self.rows()}


@np.errstate(over="ignore", invalid="ignore")
def _limit_side(probes: _SideProbes, cfg: ProbeConfig) -> SideData:
    lo_mat, hi_mat = probes.lo_est, probes.hi_est
    n = lo_mat.shape[1]
    lo_tail = probes.lo_tail.max(axis=0)
    hi_tail = probes.hi_tail.max(axis=0)
    lo_spread = lo_mat.max(axis=0) - lo_mat.min(axis=0)
    hi_spread = hi_mat.max(axis=0) - hi_mat.min(axis=0)

    atol = cfg.agreement_tol

    def flags(spread, tail):
        ex = np.full(n, -1, dtype=int)
        ok = (spread <= atol) & (tail <= atol)
        ex[ok] = 1
        if len(lo_mat) > 1:
            ex[spread > NONEXISTENCE_FACTOR * atol] = 0
        return ex

    return SideData(kind="limit", lower=lo_mat.mean(axis=0), upper=hi_mat.mean(axis=0),
                    lower_exists=flags(lo_spread, lo_tail),
                    upper_exists=flags(hi_spread, hi_tail),
                    residual=np.maximum(np.maximum(lo_tail, hi_tail),
                                        np.maximum(lo_spread, hi_spread)),
                    streams=dict(zip(probes.labels, zip(lo_mat, hi_mat))))


def _classify_member(ts: TimeScale, t: float) -> PointClass:
    """The record of t; a non-member is outside the derivative domain."""
    try:
        return ts.classify(t)
    except NotInTimeScale:
        raise NotInDomain(t, f"point {t!r} is not in the time scale") from None


def _classify_in_domain(ts: TimeScale, t: float) -> PointClass:
    """The record of t, which must lie in the derivative domain."""
    pc = _classify_member(ts, t)
    if not pc.in_kappa:
        raise NotInDomain(
            t, f"point {t!r} is a right-scattered minimum: outside the "
               f"derivative domain")
    return pc


def endpoint_derivatives(f: FuzzyFunction, ts: TimeScale, t: float,
                         cfg: ProbeConfig = DEFAULT_CONFIG) -> EndpointReport:
    """One-sided endpoint derivative estimates per level, with existence
    flags and per-generator subsequence limits."""
    _require_function(f)
    pc = _classify_member(ts, float(t))
    return next(_pass(f, ts, [pc], cfg))[0]


# ---------------------------------------------------------------------------
# the derivative


@dataclass
class DerivativeResult:
    t: float
    value: FuzzyNumber | None
    case: DiffCase
    residual: float
    endpoint_report: EndpointReport
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "case": self.case.value,
            "residual": self.residual,
            "value": self.value.to_dict() if self.value is not None else None,
            "endpoint_report": self.endpoint_report.to_dict(),
            "evidence": _jsonable(self.evidence),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


@np.errstate(over="ignore", invalid="ignore")
def _dense_value(probes: dict[str, _SideProbes],
                 cfg: ProbeConfig, t: float):
    """Limit estimate of the derivative from the probed dense sides.

    A side whose estimate, stream spread or tail spread is not finite is
    rejected by name before any tolerance gate: inf - inf is NaN, and NaN
    passes every tolerance gate.
    """
    if not probes:
        raise LimitDisagreement(
            f"no probe points available on any dense side of {t!r}")

    side_means = []
    residual = 0.0
    for side, got in probes.items():
        vlo, vhi = got.vlo_est, got.vhi_est
        spread = max(
            float(np.max(vlo.max(axis=0) - vlo.min(axis=0))),
            float(np.max(vhi.max(axis=0) - vhi.min(axis=0))),
        )
        tail = max(float(np.max(v)) for v in got.v_tail)
        for criterion, values in (("estimate", (vlo, vhi)),
                                  ("stream spread", spread), ("tail spread", tail)):
            values = np.asarray(values, dtype=float).ravel()
            bad = values[~np.isfinite(values)]
            if bad.size:
                value = float(bad[0])
                raise LimitDisagreement(
                    f"the {criterion} on the {side} of {t!r} is not finite ({value!r})",
                    {"side": side, "criterion": criterion, "value": value})
        if spread > cfg.agreement_tol:
            raise LimitDisagreement(
                f"subsequence estimates on the {side} of {t!r} disagree by "
                f"{spread:.3g} (tolerance {cfg.agreement_tol:.3g})",
                {"side": side, "spread": spread})
        if tail > cfg.agreement_tol:
            raise LimitDisagreement(
                f"probe quotients on the {side} of {t!r} have not settled: "
                f"tail spread {tail:.3g} (tolerance {cfg.agreement_tol:.3g})",
                {"side": side, "tail": tail})
        residual = max(residual, spread, tail)
        side_means.append((vlo.mean(axis=0), vhi.mean(axis=0)))

    if len(side_means) == 2:
        gap = max(
            float(np.max(np.abs(side_means[0][0] - side_means[1][0]))),
            float(np.max(np.abs(side_means[0][1] - side_means[1][1]))),
        )
        if gap > cfg.agreement_tol:
            raise LimitDisagreement(
                f"left and right limits at {t!r} disagree by {gap:.3g} "
                f"(tolerance {cfg.agreement_tol:.3g})",
                {"gap": gap})
        residual = max(residual, gap)

    lo = np.mean([m[0] for m in side_means], axis=0)
    hi = np.mean([m[1] for m in side_means], axis=0)

    # estimates carry O(residual) noise; repair to exact cut structure and
    # reject anything that is structurally broken rather than noisy
    viol = 0.0
    if len(lo) > 1:
        viol = max(viol, float(np.max(-np.diff(lo), initial=0.0)),
                   float(np.max(np.diff(hi), initial=0.0)))
    viol = max(viol, float(np.max(lo - hi, initial=0.0)))
    if viol > max(cfg.agreement_tol, 10.0 * residual):
        raise LimitDisagreement(
            f"estimated derivative at {t!r} violates cut structure by {viol:.3g}",
            {"violation": viol})
    lo = np.maximum.accumulate(lo)
    hi = np.minimum.accumulate(hi)
    bad = lo > hi
    if np.any(bad):
        lo[bad] = hi[bad] = 0.5 * (lo[bad] + hi[bad])
    return FuzzyNumber(lo, hi, validate=False), residual


# ---------------------------------------------------------------------------
# the jump quotient


# round-off that f(t) - f(rho) may leave in a jump's width, relative to the
# operands' magnitude (4 ulps): within it, a crisp-width function keeps a
# crisp derivative at any magnitude
JUMP_ROUND_OFF = 4.0 * np.finfo(float).eps


@dataclass
class _Jumps:
    """The backward quotient of a stack of scattered pairs rho < t, one row
    each: the quotient rows of the lower and upper endpoints (side_lo,
    side_hi, read-only: a report's scattered side is a row view of them)
    and, for the leading rows that are jumps, the value rows (lower,
    upper: the sides ordered by the gH case), the gH case of each
    difference and gh_exists' rows of the differences (gh: _derive reads a
    failing row's diagnostics there); finite flags the jumps whose every
    level of the quotient is finite."""

    side_lo: np.ndarray
    side_hi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    gh_case: list[GhCase]
    case: list[DiffCase]
    finite: np.ndarray
    gh: GhRows


# a jump's case by its code, 2 * (crisp) + (case (i) exists)
_JUMP_CASES = (DiffCase.CASE_II, DiffCase.CASE_I, DiffCase.CRISP, DiffCase.CRISP)


def _jump_rows(ft_lo: np.ndarray, ft_hi: np.ndarray, fr_lo: np.ndarray,
               fr_hi: np.ndarray, nu: np.ndarray, cfg: ProbeConfig,
               jumps: int) -> _Jumps:
    """(f(t) - f(rho)) * (1/nu) for each scattered pair rho < t, one row
    each, from (N, K+1) stacks of f's levels at the points (ft) and at
    their rho (fr): the scattered sides of the pair (t's minus side, rho's
    plus side) and, for the leading jumps rows, t's jump quotient.

    A jump's gH case and orientation are gh_exists'. The case is Crisp
    when the value's width is within the agreement tolerance plus the
    round-off of f(t) - f(rho) over nu (JUMP_ROUND_OFF of the operands'
    magnitude), else CaseI when case (i) exists, else CaseII (rows where
    neither exists are rejected by _derive).

    A row's quotient is finite exactly when its difference is (the
    kernel's finite) and so is the difference's largest magnitude (the
    kernel's mag) times 1/nu, since rounding keeps the order of |d|/nu.
    Run under np.errstate(over="ignore", invalid="ignore"): an overflowing
    quotient stays in the report, and a jump whose quotient is not finite
    is flagged (finite) and rejected in _derive.
    """
    # the differences and the quotients, lower endpoints in row 0
    d = np.empty((2, *ft_lo.shape))
    np.subtract(ft_lo, fr_lo, out=d[0])
    np.subtract(ft_hi, fr_hi, out=d[1])
    k = 1.0 / nu
    sides = d * k[:, None]
    sides.setflags(write=False)
    j = slice(jumps)
    gh = gh_exists(d[0, j], d[1, j])
    lower, upper = np.where(gh.ok_i[:, None], sides[:, j], sides[::-1, j])
    finite = gh.finite & np.isfinite(gh.mag * k[j])
    # the operands' magnitude is that of their supports, where the cuts nest
    ends = np.concatenate((ft_lo[j, :1], ft_hi[j, :1], fr_lo[j, :1], fr_hi[j, :1]),
                          axis=1)
    mag = np.maximum.reduce(np.abs(ends, out=ends), axis=1)
    crisp = (np.maximum.reduce(upper - lower, axis=1)
             <= cfg.agreement_tol + JUMP_ROUND_OFF * mag / nu[j])
    return _Jumps(sides[0], sides[1], lower, upper, gh.cases(),
                  [_JUMP_CASES[c] for c in (2 * crisp + gh.ok_i).tolist()], finite, gh)


def classify_case(value: FuzzyNumber, report: EndpointReport,
                  cfg: ProbeConfig = DEFAULT_CONFIG,
                  residual: float = 0.0) -> DiffCase:
    """Structure of the derivative at a left-dense point, whose report has
    at least one probed side (a left-scattered one takes its gH case in
    _jump_rows).

    Crisp values short-circuit. Otherwise the one-sided estimates decide:
    matching orders on the participating sides give the plain cases; a
    correctly-ordered right side against a swapped left side is the third
    (switching) case, the mirror image the fourth. When one-sided limits
    split by generator, the aligned stream's side plays that role.
    """
    ctol = max(cfg.agreement_tol, 2.0 * residual)
    vlo, vhi = value.lower, value.upper
    if float(np.max(vhi - vlo)) <= ctol:
        return DiffCase.CRISP

    def match(a: np.ndarray, b: np.ndarray) -> bool:
        return (float(np.max(np.abs(vlo - a))) <= ctol
                and float(np.max(np.abs(vhi - b))) <= ctol)

    sides = {name: s for name, s in (("minus", report.minus), ("plus", report.plus))
             if s.kind == "limit"}

    if all(s.settled for s in sides.values()):
        al = {name: match(s.lower, s.upper) for name, s in sides.items()}
        sw = {name: match(s.upper, s.lower) for name, s in sides.items()}
        if all(al.values()):
            return DiffCase.CASE_I
        if all(sw.values()):
            return DiffCase.CASE_II
        if len(sides) == 2:
            if al["plus"] and sw["minus"]:
                return DiffCase.SWITCHING_III
            if al["minus"] and sw["plus"]:
                return DiffCase.SWITCHING_IV
        return DiffCase.NOT_DIFFERENTIABLE

    # one-sided limits split by generator: classify stream by stream
    aligned_sides: set[str] = set()
    swapped_sides: set[str] = set()
    for name, s in sides.items():
        for label, (slo, shi) in s.streams.items():
            if match(slo, shi):
                aligned_sides.add(name)
            elif match(shi, slo):
                swapped_sides.add(name)
            else:
                return DiffCase.NOT_DIFFERENTIABLE
    if not swapped_sides and aligned_sides:
        return DiffCase.CASE_I
    if not aligned_sides and swapped_sides:
        return DiffCase.CASE_II
    if "plus" in aligned_sides:
        return DiffCase.SWITCHING_III
    if "minus" in aligned_sides:
        return DiffCase.SWITCHING_IV
    return DiffCase.NOT_DIFFERENTIABLE


def _derive(report: EndpointReport, probes: dict[str, _SideProbes],
            failure: GhNonexistent | None, ft, fr, jump, cfg: ProbeConfig
            ) -> DerivativeResult:
    """The derivative at a point from its one analysis (_analyses): its row
    of the pass's jump quotients at a left-scattered point, the probed
    limit at a left-dense one.

    Raises the first failed probe, GhNonexistent for a jump without a gH
    difference and LimitDisagreement for a limit or case that does not
    resolve, each carrying report as endpoint_report.
    """
    pc = report.point
    t = pc.t
    try:
        if failure is not None:
            raise failure
        if jump is not None:  # a left-scattered point
            jumps, i = jump
            gh_case = jumps.gh_case[i]
            if gh_case is GhCase.NONE:
                raise GhNonexistent(
                    f"generalized difference of f({t!r}) and f({pc.rho!r}) "
                    f"does not exist", jumps.gh.diagnostics(i))
            if not jumps.finite[i]:
                jumps.gh.raise_nonfinite(i)
                raise OrderViolation(
                    f"the jump quotient at {t!r} is not finite: the "
                    f"difference overflows over nu = {pc.nu!r}")
            value = FuzzyNumber(jumps.lower[i], jumps.upper[i], validate=False)
            case = jumps.case[i]
            residual = 0.0
            evidence = {"path": "backward-quotient", "gh_case": gh_case.value}
            if "right" in probes:
                evidence["h_orientations"] = _h_orientations(*fr, probes["right"])
        else:
            value, residual = _dense_value(probes, cfg, t)
            case = classify_case(value, report, cfg, residual)
            evidence = {"path": "one-sided-limits",
                        "gh_cases": {side: dict(zip(p.labels, p.gh_cases))
                                     for side, p in probes.items()}}

        evidence["continuity_gaps"] = ({side: dict(zip(p.labels, p.gaps))
                                        for side, p in probes.items()}
                                       if probes else {})

        if case is DiffCase.NOT_DIFFERENTIABLE:
            raise LimitDisagreement(
                f"derivative estimate at {t!r} converged but the endpoint case "
                f"structure did not resolve", {"residual": residual})
    except (GhNonexistent, LimitDisagreement) as err:
        err.endpoint_report = report  # _not_differentiable builds its row from it
        raise
    return DerivativeResult(t, value, case, residual, report, evidence)


# a difference with a non-finite level raises its OrderViolation below
@np.errstate(over="ignore", invalid="ignore")
def _h_orientations(fr_lo: np.ndarray, fr_hi: np.ndarray,
                    probes: _SideProbes) -> dict:
    """Which classical-difference orientations appear among right probes:
    how many of f(p) -H f(rho) and of f(rho) -H f(p) exist (h_diff), from
    the probes' level rows and f's levels at rho (fr)."""
    d_lo = probes.lower - fr_lo
    d_hi = probes.upper - fr_hi
    # f(p) - f(rho) in the first half of the rows, f(rho) - f(p) in the second
    gh = gh_exists(np.concatenate([d_lo, -d_lo]), np.concatenate([d_hi, -d_hi]))
    gh.raise_nonfinite()
    fwd, bwd = np.split(gh.ok_i, 2)
    return {"forward": int(fwd.sum()), "backward": int(bwd.sum())}


def _not_differentiable(err: GhNonexistent | LimitDisagreement) -> DerivativeResult:
    """The NotDifferentiable result for a derivative that failed with err,
    with the reason in evidence."""
    return DerivativeResult(
        t=err.endpoint_report.t, value=None, case=DiffCase.NOT_DIFFERENTIABLE,
        residual=math.inf, endpoint_report=err.endpoint_report,
        evidence={"failure": type(err).__name__, "message": str(err),
                  "diagnostics": _jsonable(getattr(err, "diagnostics", {}))})


# ---------------------------------------------------------------------------
# the pass


def _records(ts: TimeScale, points) -> tuple[list[PointClass], NotInDomain | None]:
    """The record of each point, up to the first point outside the
    derivative domain, and that point's NotInDomain (None when there is
    none): the caller raises it once the points before it are done."""
    records = []
    for t in points:
        try:
            records.append(_classify_in_domain(ts, float(t)))
        except NotInDomain as err:
            return records, err
    return records, None


# the rows of a chunk's level stack, its distinct points times its
# functions: at 101 levels a (128, K+1) stack is 101 KB, under glibc's
# 128 KB mmap threshold, so each chunk reuses the heap the chunk before it
# freed, and a pass's memory does not grow with its points; a record that
# reads more points than that is a chunk of its own
CHUNK_ROWS = 128


def _chunks(ts: TimeScale, records: list[PointClass], width: int,
            cfg: ProbeConfig):
    """The records in chunks that read at most CHUNK_ROWS // width points,
    each a list of (record, the probe streams of its sides, left then
    right, None for a scattered one) and the slot of each point the chunk
    reads, in the order its records read them: each record's t, its left
    side's rho or probes, its right side's sigma or probes, then rho."""
    chunk, slot, n = [], {}, cfg.probe_count
    for pc in records:
        left = None if pc.left is Side.SCATTERED else ts.approach_streams(pc.t, "left", n)
        right = (None if pc.right is Side.SCATTERED
                 else ts.approach_streams(pc.t, "right", n))
        pts = [pc.t, *([pc.rho] if left is None else (p for s in left for p in s.points)),
               *([pc.sigma] if right is None else (p for s in right for p in s.points)),
               pc.rho]
        if chunk and (len(slot) + len(set(pts).difference(slot))) * width > CHUNK_ROWS:
            yield chunk, slot
            chunk, slot = [], {}
        chunk.append((pc, (left, right)))
        for p in pts:
            slot.setdefault(p, len(slot))
    if chunk:
        yield chunk, slot


def _stacked(cols, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The functions' level rows at n points, one function's above the
    next's, as one stack of each endpoint; rows past those a function's
    evaluation gave are filler, which its records raise before reading."""
    if len(cols) == 1 and len(cols[0][0]) == n:
        return cols[0][0], cols[0][1]
    los = [lo if len(lo) == n else np.resize(lo, (n, lo.shape[1])) for lo, _hi, _err in cols]
    his = [hi if len(hi) == n else np.resize(hi, (n, hi.shape[1])) for _lo, hi, _err in cols]
    return np.concatenate(los), np.concatenate(his)


def _analyses(rows, width: int, chunk: list, slot: dict[float, int],
              cfg: ProbeConfig):
    """Each record's (analyses, err), in record order: the analyses of the
    first of width functions (each one's endpoint report, probe data,
    first failed probe, levels at t and rho, and jump, for _derive), and
    the error the next one raises there (None when all are there), which
    a caller that reads them in order raises at that one's turn.

    rows(pts) is the evaluation step of the width functions, one
    (lo, hi, err) each as _evaluate gives them, at the chunk's points in
    slot order (_chunks), so that a function's rows end at the first
    record that meets its error. One _jump_rows call gives the quotient of
    every distinct scattered pair the records read, (rho, t) and (t,
    sigma): a record's jump is its (rho, t) row, and its scattered sides
    are the rows of both pairs, as row views. One _probe_rows call gives
    every probed side its probe data. The levels at t and rho are the
    function's values there, bit for bit.
    """
    npts = len(slot)
    cols = rows(list(slot))
    have = [len(lo) for lo, _hi, _err in cols]
    lo, hi = _stacked(cols, npts)
    # the scattered pairs (a, b), a < b, the records read: the jumps, then
    # the right sides that are no jump; and the probed sides
    jumps, rights, probed = {}, {}, []
    for pc, (left, right) in chunk:
        if left is None:
            jumps[pc.rho, pc.t] = None
        elif left:
            probed.append((pc.t, "left", left))
        if right is None:
            rights[pc.t, pc.sigma] = None
        elif right:
            probed.append((pc.t, "right", right))
    pairs = dict(zip({**jumps, **rights}, itertools.count()))
    # the kernels keep what is not finite in their rows; the records reject it
    with np.errstate(over="ignore", invalid="ignore"):
        if pairs:  # only a scattered side reads its pair's rows
            # function i's row of pair j is j * width + i, so the jumps lead
            shift = range(0, width * npts, npts)  # each function's first row
            a, b, nu = zip(*[(slot[p] + s, slot[q] + s, q - p)
                             for p, q in pairs for s in shift])
            n = len(b)
            at = np.array(b + a)  # the rows' points b, then their rho a
            at_lo, at_hi = lo.take(at, axis=0), hi.take(at, axis=0)
            quotient = _jump_rows(at_lo[:n], at_hi[:n], at_lo[n:], at_hi[n:],
                                  np.array(nu), cfg, width * len(jumps))
            side_lo, side_hi = quotient.side_lo, quotient.side_hi
        if probed:  # only a probed side reads the probe kernel
            gh, probed_side = _probe_rows(lo, hi, npts, width, slot, probed)
    alphas = alpha_grid(lo.shape[1] - 1)
    m, err = width, None  # the functions a record reads, and the next's error
    short = min(have) < npts  # only then may a record read past some rows

    def reach(p: float) -> None:
        """Stop the record's functions at the first without a row at p."""
        nonlocal m, err
        for i in range(m):
            if slot[p] >= have[i]:
                m, err = i, cols[i][2]
                return

    k = 0  # the chunk's probed sides before the record's
    for pc, (left, right) in chunk:
        m, err = width, None
        if short:
            reach(pc.t)
        # each function's probe data and first failed probe; each side's
        # SideData of each function
        probes, failure, report_sides = [{} for _ in range(width)], [None] * width, []
        for name, streams, neighbor, pair in (
                ("left", left, pc.rho, (pc.rho, pc.t)),
                ("right", right, pc.sigma, (pc.t, pc.sigma))):
            if streams is None:  # scattered: the rows of its pair
                if short:
                    reach(neighbor)
                row = pairs[pair] * width
                report_sides.append([SideData("scattered", side_lo[r], side_hi[r])
                                     for r in range(row, row + m)])
                continue
            if not streams:
                report_sides.append([SideData(kind="absent") for _ in range(m)])
                continue
            sides = []
            for i in range(m):
                own, got = probed_side(k, i)
                # a function raises a difference that is not finite among
                # its probes before the first without a row, then its error
                n = len(got.points)
                reached = next((j for j, p in enumerate(got.points)
                                if slot[p] >= have[i]), n) if short else n
                try:
                    gh.raise_nonfinite(slice(own.start, own.start + reached))
                except OrderViolation as nonfinite:
                    m, err = i, nonfinite
                    break
                if reached < n:
                    m, err = i, cols[i][2]
                    break
                cases = [c for stream in got.gh_cases for c in stream]
                if failure[i] is None and GhCase.NONE.value in cases:
                    j = cases.index(GhCase.NONE.value)
                    failure[i] = GhNonexistent(
                        f"generalized difference does not exist at probe "
                        f"{got.points[j]!r} ({name} of {pc.t!r})",
                        {"probe": got.points[j], "side": name,
                         **gh.diagnostics(own.start + j)})
                probes[i][name] = got
                sides.append(_limit_side(got, cfg))
            report_sides.append(sides)
            k += 1
        if short:
            reach(pc.rho)
        it, ir = slot[pc.t], slot[pc.rho]
        jump = None if left is not None else pairs[pc.rho, pc.t] * width
        minus, plus = report_sides
        yield [(EndpointReport(pc.t, alphas, minus[i], plus[i], pc), probes[i], failure[i],
                (lo[it + i * npts], hi[it + i * npts]),
                (lo[ir + i * npts], hi[ir + i * npts]),
                None if jump is None else (quotient, jump + i))
               for i in range(m)], err


def _joint_pass(rows, width: int, ts: TimeScale, records: list[PointClass],
                cfg: ProbeConfig):
    """Each record's analyses (_analyses) of the width functions rows
    evaluates, per chunk of records (_chunks): a chunk's points through
    the memo cache when they are no more than it holds, else stacked
    (_evaluate). A point that two chunks read is evaluated in each; a plain
    callable is called at each record's points in record order, each point
    once a chunk."""
    chunks = _chunks(ts, records, width, cfg)
    if len(records) == 1:
        (chunk, slot), = chunks  # run to its end, not left suspended
        return _analyses(rows, width, chunk, slot, cfg)
    return itertools.chain.from_iterable(
        _analyses(rows, width, chunk, slot, cfg) for chunk, slot in chunks)


def _pass(f: FuzzyFunction, ts: TimeScale, records: list[PointClass],
          cfg: ProbeConfig):
    """Each record's analysis of f alone, in order (_joint_pass); an error
    is raised at the turn of the record where it arises."""
    def rows(pts):
        return [_evaluate(f, pts)]

    for analyses, err in _joint_pass(rows, 1, ts, records, cfg):
        if err is not None:
            raise err
        yield analyses[0]


def _derived(analysis, cfg: ProbeConfig, report: bool = False) -> DerivativeResult:
    """nabla_gh from a record's analysis; with report, derivative_report: a
    GhNonexistent or LimitDisagreement comes back as a NotDifferentiable
    result."""
    try:
        return _derive(*analysis, cfg)
    except (GhNonexistent, LimitDisagreement) as err:
        if not report:
            raise
        return _not_differentiable(err)


def _derivatives(f: FuzzyFunction, ts: TimeScale, records: list[PointClass],
                 cfg: ProbeConfig, report: bool = False):
    """_derived at each record's point, in order, from one pass (_pass)."""
    for analysis in _pass(f, ts, records, cfg):
        yield _derived(analysis, cfg, report)


def nabla_gh(f: FuzzyFunction, ts: TimeScale, t: float,
             cfg: ProbeConfig = DEFAULT_CONFIG) -> DerivativeResult:
    """The backward derivative of f at t.

    Left-scattered t: exact quotient of the generalized difference by the
    graininess (residual 0). Left-dense t: both one-sided limits (where the
    scale has points) must settle and agree within cfg.agreement_tol.

    Raises NotInDomain outside the derivative domain, GhNonexistent when a
    required generalized difference fails at a probe or at the jump, and
    LimitDisagreement when estimates do not settle or sides disagree. Both
    of the latter carry the endpoint report as endpoint_report.
    """
    _require_function(f)
    pc = _classify_in_domain(ts, float(t))
    return _derived(next(_pass(f, ts, [pc], cfg)), cfg)


def derivative_report(f: FuzzyFunction, ts: TimeScale, t: float,
                      cfg: ProbeConfig = DEFAULT_CONFIG) -> DerivativeResult:
    """nabla_gh, but failures come back as a NotDifferentiable result with
    the reason in evidence instead of an exception (NotInDomain still
    raises: asking outside the domain is a caller error)."""
    _require_function(f)
    pc = _classify_in_domain(ts, float(t))
    return _derived(next(_pass(f, ts, [pc], cfg)), cfg, report=True)


def nabla_many(f: FuzzyFunction, ts: TimeScale, points,
               cfg: ProbeConfig = DEFAULT_CONFIG) -> list[DerivativeResult]:
    """derivative_report at every point, in order, from one pass over the
    points' records: per chunk of records (_chunks), f is read once at
    every point they read (a bound definition in one stack)."""
    _require_function(f)
    records, err = _records(ts, points)
    out = list(_derivatives(f, ts, records, cfg, report=True))
    if err is not None:
        raise err
    return out


def nabla_scalar(g: Callable[[float], float], ts: TimeScale, t: float,
                 cfg: ProbeConfig = DEFAULT_CONFIG) -> float:
    """Backward derivative of a real-valued function on the scale: nabla_gh
    of g as a crisp function with one level (K = 0), from its one-record
    pass. A value of g that is not finite raises OrderViolation, as does a
    difference of two values that is not finite; a limit is refused by
    _dense_value's criteria (an estimate or spread that is not finite, a
    stream or tail spread, or a gap between the left and right limits
    beyond cfg.agreement_tol) with LimitDisagreement."""
    pc = _classify_in_domain(ts, float(t))
    f = FuzzyFunction(lambda s: crisp(g(s), 0), K=0)
    return float(_derived(next(_pass(f, ts, [pc], cfg)), cfg).value.lower[0])


# ---------------------------------------------------------------------------
# identity checkers


def check_rho_identity(f: FuzzyFunction, ts: TimeScale, t: float,
                       cfg: ProbeConfig = DEFAULT_CONFIG) -> float:
    """Residual of the backward reconstruction identity at t.

    One of the two reconstructions must hold: f(t) = f(rho(t)) + nu * value,
    or f(rho(t)) = f(t) + (-nu) * value. Returns the smaller residual."""
    _require_function(f)
    analysis = next(_pass(f, ts, [_classify_in_domain(ts, float(t))], cfg))
    return _rho_residual(analysis, _derived(analysis, cfg))


def _rho_residual(analysis, r: DerivativeResult) -> float:
    """check_rho_identity from a record's analysis (_pass), whose levels at
    t and rho are f(t) and f(rho), and the derivative r derived from it."""
    nu = r.endpoint_report.point.nu
    Ft, Fr = (FuzzyNumber(*levels, validate=False) for levels in analysis[3:5])
    first = hausdorff(Ft, add(Fr, scalar_mul(nu, r.value)))
    second = hausdorff(Fr, add(Ft, scalar_mul(-nu, r.value)))
    return min(first, second)


def check_level_consistency(f: FuzzyFunction, ts: TimeScale, t: float,
                            cfg: ProbeConfig = DEFAULT_CONFIG) -> float:
    """Worst gap between the fuzzy derivative's cuts and interval-valued
    derivatives computed independently level by level.

    The per-level path works on plain floats: backward quotient of the
    interval endpoints at a left-scattered point, probed one-sided interval
    quotients at a left-dense point. No fuzzy machinery is reused."""
    return _level_residual(f, ts, nabla_gh(f, ts, t, cfg), cfg)


def _level_residual(f: FuzzyFunction, ts: TimeScale, r: DerivativeResult,
                    cfg: ProbeConfig) -> float:
    """check_level_consistency from the derivative r it takes at its point,
    whose record gives the point's class and rho."""
    pc = r.endpoint_report.point
    t = pc.t
    K = f.K
    worst = 0.0

    if pc.left is Side.SCATTERED:
        rho = pc.rho
        nu = t - rho
        Ft, Fr = f(t), f(rho)
        for k in range(K + 1):
            dlo = (Ft.lower[k] - Fr.lower[k]) / nu
            dhi = (Ft.upper[k] - Fr.upper[k]) / nu
            ilo, ihi = min(dlo, dhi), max(dlo, dhi)
            cut = r.value.level(k / K if K else 0.0)
            worst = max(worst, abs(ilo - cut.lo), abs(ihi - cut.hi))
        return float(worst)

    # dense: replicate the estimation per level with scalar arithmetic
    sides = [ts.approach_streams(t, side, cfg.probe_count)
             for side, density in (("left", pc.left), ("right", pc.right))
             if density is Side.DENSE]
    Ft = f(t)
    # each stream with f at its probes, read once, in order
    sides = [[(s, [f(p) for p in s.points]) for s in streams]
             for streams in sides if streams]
    for k in range(K + 1):
        side_los, side_his = [], []
        for streams in sides:
            s_lo, s_hi = [], []
            for s, values in streams:
                q_lo, q_hi = [], []
                for p, Fp in zip(s.points, values):
                    a = (Fp.lower[k] - Ft.lower[k]) / (p - t)
                    b = (Fp.upper[k] - Ft.upper[k]) / (p - t)
                    q_lo.append(min(a, b))
                    q_hi.append(max(a, b))
                if s.synthetic and len(q_lo) >= 2:
                    q_lo = [2 * q_lo[j + 1] - q_lo[j] for j in range(len(q_lo) - 1)]
                    q_hi = [2 * q_hi[j + 1] - q_hi[j] for j in range(len(q_hi) - 1)]
                s_lo.append(q_lo[-1])
                s_hi.append(q_hi[-1])
            side_los.append(sum(s_lo) / len(s_lo))
            side_his.append(sum(s_hi) / len(s_hi))
        ilo = sum(side_los) / len(side_los)
        ihi = sum(side_his) / len(side_his)
        cut = r.value.level(k / K if K else 0.0)
        worst = max(worst, abs(ilo - cut.lo), abs(ihi - cut.hi))
    return float(worst)
