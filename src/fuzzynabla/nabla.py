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

import math
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
    add,
    alpha_grid,
    gh_exists,
    hausdorff,
    require_fuzzy,
    scalar_mul,
)
from .timescale import PointClass, Side, TimeScale

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
        if self.probe_count < 3:
            raise ValueError("probe_count must be at least 3")
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


class FuzzyFunction:
    """A mapping t -> FuzzyNumber on a fixed level grid, with caching.

    vector, when given, is the same mapping at a vector of points in one
    pass: it returns (N, K+1) stacks of lower and upper endpoints whose
    rows are bit for bit the levels fn returns, and raises when fn raises
    at any of the points; callers then call fn point by point, in order,
    which raises fn's own error (bind_function passes the compiled
    definition, which raises that error itself). The memo cache holds
    values of fn only, or rows of a stack, which are those bit for bit;
    stack itself neither reads nor fills it.
    """

    def __init__(self, fn: Callable[[float], FuzzyNumber], K: int = 100,
                 vector: Callable[[np.ndarray], tuple] | None = None):
        self._fn = fn
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


# ---------------------------------------------------------------------------
# probing


@dataclass
class _StreamData:
    """Slope data for one probe stream on one side (columns = levels), with
    f's level rows at its points and the Hausdorff distance of each from
    f(t)."""

    label: str
    synthetic: bool
    points: tuple[float, ...]
    lo_est: np.ndarray
    hi_est: np.ndarray
    lo_tail: np.ndarray
    hi_tail: np.ndarray
    vlo_est: np.ndarray
    vhi_est: np.ndarray
    v_tail: np.ndarray
    gh_cases: list[str]
    lower: np.ndarray
    upper: np.ndarray
    gaps: list[float]


def _tail_spread(Q: np.ndarray) -> np.ndarray:
    """Max pairwise spread per column over the trailing half (>= 2 rows)."""
    m = len(Q)
    if m < 2:
        return np.zeros(Q.shape[1])
    start = min(m - 2, m // 2)
    tail = Q[start:]
    return tail.max(axis=0) - tail.min(axis=0)


# a one-record pass reads f at t, rho and sigma; neighbouring points share
# two of them, so the memo cache costs about one evaluation, under a stack
_CACHED_POINTS = 3


def _evaluate(f: FuzzyFunction, pts: list[float]):
    """The evaluation step: the (N, K+1) lower and upper level rows of f at
    pts, and None.

    The rows are one stack of f's vector form when f has one, pts are more
    than _CACHED_POINTS and the stack does not raise; else f(p) in order,
    through the memo cache. When f(p) fails (FuzzyNablaError or
    ArithmeticError), the rows before p and that error, so that the caller
    raises first what those rows raise."""
    if f._vector is not None and len(pts) > _CACHED_POINTS:
        try:
            lo, hi = f.stack(pts)
            return lo, hi, None
        except (FuzzyNablaError, ArithmeticError):
            pass  # f(p), in order, meets the error where it arises
    lo = np.empty((len(pts), f.K + 1))
    hi = np.empty_like(lo)
    for j, p in enumerate(pts):
        try:
            Fp = f(p)
        except (FuzzyNablaError, ArithmeticError) as err:
            return lo[:j], hi[:j], err
        lo[j], hi[j] = Fp.lower, Fp.upper
    return lo, hi, None


# an overflowing quotient stays in the data; _dense_value rejects it by name
@np.errstate(over="ignore", invalid="ignore")
def _probe_side(f: FuzzyFunction, ts: TimeScale, t: float, side: str,
                cfg: ProbeConfig, ft_lo: np.ndarray, ft_hi: np.ndarray
                ) -> tuple[list[_StreamData], GhNonexistent | None]:
    """Quotient data for every probe stream on a dense side of t, and the
    error for the first probe whose generalized difference does not exist,
    from f's levels at t (ft).

    One row pass over f's levels at the side's probes, in stream order,
    gives the quotients, the gH cases and diagnostics (gh_exists, as
    gh_diff gives them), and the continuity gaps. The quotients do not
    need the difference, so a failing probe is recorded and the report is
    complete either way.
    """
    streams = ts.approach_streams(t, side, cfg.probe_count)
    pts = [p for s in streams for p in s.points]
    if not pts:
        return [], None
    lo, hi, err = _evaluate(f, pts)
    d_lo = lo - ft_lo
    d_hi = hi - ft_hi
    # f(p) gH- f(t) on the right, f(t) gH- f(p) on the left
    gh = gh_exists(d_lo, d_hi) if side == "right" else gh_exists(-d_lo, -d_hi)
    gh.raise_nonfinite()
    if err is not None:
        raise err
    cases = [c.value for c in gh.cases()]
    failure = None
    if GhCase.NONE.value in cases:
        j = cases.index(GhCase.NONE.value)
        failure = GhNonexistent(
            f"generalized difference does not exist at probe {pts[j]!r} "
            f"({side} of {t!r})",
            {"probe": pts[j], "side": side, **gh.diagnostics(j)},
        )
    dt = (np.array(pts) - t)[:, None]
    Q_lo = d_lo / dt
    Q_hi = d_hi / dt
    gaps = gh.mag.tolist()  # hausdorff(f(p), f(t))

    out: list[_StreamData] = []
    start = 0
    for s in streams:
        rows = slice(start, start + len(s.points))
        start = rows.stop
        Qlo, Qhi = Q_lo[rows], Q_hi[rows]
        Vlo = np.minimum(Qlo, Qhi)
        Vhi = np.maximum(Qlo, Qhi)
        if s.synthetic and len(s.points) >= 2:
            Qlo = 2.0 * Qlo[1:] - Qlo[:-1]
            Qhi = 2.0 * Qhi[1:] - Qhi[:-1]
            Vlo = 2.0 * Vlo[1:] - Vlo[:-1]
            Vhi = 2.0 * Vhi[1:] - Vhi[:-1]

        out.append(
            _StreamData(
                label=s.label,
                synthetic=s.synthetic,
                points=s.points,
                lo_est=Qlo[-1].copy(),
                hi_est=Qhi[-1].copy(),
                lo_tail=_tail_spread(Qlo),
                hi_tail=_tail_spread(Qhi),
                vlo_est=Vlo[-1].copy(),
                vhi_est=Vhi[-1].copy(),
                v_tail=np.maximum(_tail_spread(Vlo), _tail_spread(Vhi)),
                gh_cases=cases[rows],
                lower=lo[rows],
                upper=hi[rows],
                gaps=gaps[rows],
            )
        )
    return out, failure


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
        if self.kind == "scattered":
            return True
        if self.kind != "limit":
            return False
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
        out = []

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
            subs = {
                label: float((lo if which == "lower" else hi)[k])
                for label, (lo, hi) in side.streams.items()
            }
            return {
                "value": float(arr[k]),
                "exists": flag,
                "residual": res,
                "subsequence_limits": subs,
            }

        for k, a in enumerate(self.alphas):
            out.append(
                {
                    "alpha": float(a),
                    "dminus_lower": entry(self.minus, "lower", k),
                    "dminus_upper": entry(self.minus, "upper", k),
                    "dplus_lower": entry(self.plus, "lower", k),
                    "dplus_upper": entry(self.plus, "upper", k),
                }
            )
        return out

    def to_dict(self) -> dict:
        return {"t": self.t, "levels": self.rows()}


# an overflowing quotient stays in the report, as its own value; a jump
# whose own quotient is not finite is rejected by name in _derive
@np.errstate(over="ignore", invalid="ignore")
def _scattered_side(ft_lo: np.ndarray, ft_hi: np.ndarray, fn_lo: np.ndarray,
                    fn_hi: np.ndarray, dt: float) -> SideData:
    """The exact quotient (f(neighbor) - f(t)) / (neighbor - t) toward a
    jump, from the levels of f at t (ft) and at the neighbor (fn) and
    dt = neighbor - t."""
    return SideData(kind="scattered", lower=(fn_lo - ft_lo) / dt,
                    upper=(fn_hi - ft_hi) / dt)


@np.errstate(over="ignore", invalid="ignore")
def _limit_side(streams: list[_StreamData], cfg: ProbeConfig) -> SideData:
    n = len(streams[0].lo_est)
    lo_mat = np.stack([s.lo_est for s in streams])
    hi_mat = np.stack([s.hi_est for s in streams])
    lo_tail = np.stack([s.lo_tail for s in streams]).max(axis=0)
    hi_tail = np.stack([s.hi_tail for s in streams]).max(axis=0)
    lo_spread = lo_mat.max(axis=0) - lo_mat.min(axis=0)
    hi_spread = hi_mat.max(axis=0) - hi_mat.min(axis=0)

    atol = cfg.agreement_tol

    def flags(spread, tail):
        ex = np.full(n, -1, dtype=int)
        ok = (spread <= atol) & (tail <= atol)
        ex[ok] = 1
        if len(streams) > 1:
            ex[spread > NONEXISTENCE_FACTOR * atol] = 0
        return ex

    return SideData(
        kind="limit",
        lower=lo_mat.mean(axis=0),
        upper=hi_mat.mean(axis=0),
        lower_exists=flags(lo_spread, lo_tail),
        upper_exists=flags(hi_spread, hi_tail),
        residual=np.maximum(
            np.maximum(lo_tail, hi_tail), np.maximum(lo_spread, hi_spread)
        ),
        streams={s.label: (s.lo_est, s.hi_est) for s in streams},
    )


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
    pc = _classify_member(ts, float(t))
    return next(_analyses(f, ts, [pc], cfg))[0]


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


def _require_finite(t: float, side: str | None, criteria) -> None:
    """Raise LimitDisagreement naming the first (criterion, values) pair
    with a value that is not finite, on side of t (or at t when side is
    None): inf - inf is NaN, and NaN passes every tolerance gate."""
    for criterion, values in criteria:
        values = np.asarray(values, dtype=float).ravel()
        bad = values[~np.isfinite(values)]
        if bad.size:
            value = float(bad[0])
            where = f"at {t!r}" if side is None else f"on the {side} of {t!r}"
            raise LimitDisagreement(
                f"the {criterion} {where} is not finite ({value!r})",
                {"side": side, "criterion": criterion, "value": value},
            )


@np.errstate(over="ignore", invalid="ignore")
def _dense_value(probes: dict[str, list[_StreamData]],
                 cfg: ProbeConfig, t: float):
    """Limit estimate of the derivative from the probed dense sides.

    A side whose estimate, stream spread or tail spread is not finite is
    rejected by name before any tolerance gate.
    """
    if not probes:
        raise LimitDisagreement(
            f"no probe points available on any dense side of {t!r}")

    side_means = []
    residual = 0.0
    for side, streams in probes.items():
        vlo = np.stack([s.vlo_est for s in streams])
        vhi = np.stack([s.vhi_est for s in streams])
        spread = max(
            float(np.max(vlo.max(axis=0) - vlo.min(axis=0))),
            float(np.max(vhi.max(axis=0) - vhi.min(axis=0))),
        )
        tail = max(float(np.max(s.v_tail)) for s in streams)
        _require_finite(t, side, (("estimate", (vlo, vhi)),
                                  ("stream spread", spread),
                                  ("tail spread", tail)))
        if spread > cfg.agreement_tol:
            raise LimitDisagreement(
                f"subsequence estimates on the {side} of {t!r} disagree by "
                f"{spread:.3g} (tolerance {cfg.agreement_tol:.3g})",
                {"side": side, "spread": spread},
            )
        if tail > cfg.agreement_tol:
            raise LimitDisagreement(
                f"probe quotients on the {side} of {t!r} have not settled: "
                f"tail spread {tail:.3g} (tolerance {cfg.agreement_tol:.3g})",
                {"side": side, "tail": tail},
            )
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
                {"gap": gap},
            )
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
            {"violation": viol},
        )
    lo = np.maximum.accumulate(lo)
    hi = np.minimum.accumulate(hi)
    bad = lo > hi
    if np.any(bad):
        mid = 0.5 * (lo[bad] + hi[bad])
        lo = lo.copy()
        hi = hi.copy()
        lo[bad] = mid
        hi[bad] = mid
    return FuzzyNumber(lo, hi, validate=False), residual


# ---------------------------------------------------------------------------
# the jump quotient


# round-off that f(t) - f(rho) may leave in a jump's width, relative to the
# operands' magnitude (4 ulps): within it, a crisp-width function keeps a
# crisp derivative at any magnitude
JUMP_ROUND_OFF = 4.0 * np.finfo(float).eps


@dataclass
class _Jumps:
    """The jump quotient at a stack of left-scattered points, one row each,
    with the gH case of each difference; finite flags the rows whose every
    level of the quotient is finite."""

    lower: np.ndarray
    upper: np.ndarray
    gh_case: list[GhCase]
    case: list[DiffCase]
    finite: np.ndarray


# a non-finite row is flagged (finite); _derive rejects it by name
@np.errstate(over="ignore", invalid="ignore")
def _jump_rows(ft_lo: np.ndarray, ft_hi: np.ndarray, fr_lo: np.ndarray,
               fr_hi: np.ndarray, nu: np.ndarray, cfg: ProbeConfig) -> _Jumps:
    """[f(t) gH- f(rho)] / nu at each left-scattered point, one row each,
    from (N, K+1) stacks of f's levels at the points (ft) and at their
    rho (fr).

    The difference's gH case and orientation are gh_exists'. The case is
    Crisp when the value's width is within the agreement tolerance plus
    the round-off of f(t) - f(rho) over nu (JUMP_ROUND_OFF of the
    operands' magnitude), else CaseI when case (i) exists, else CaseII
    (rows where neither exists are rejected by _derive).
    """
    gh = gh_exists(ft_lo - fr_lo, ft_hi - fr_hi)
    lower, upper = gh.values()
    k = (1.0 / nu)[:, None]
    lower *= k
    upper *= k
    # a non-finite difference leaves its quotient non-finite too
    finite = np.isfinite(lower).all(axis=1) & np.isfinite(upper).all(axis=1)
    # the operands' magnitude is that of their supports, where the cuts nest
    mag = np.abs([ft_lo[:, 0], ft_hi[:, 0], fr_lo[:, 0], fr_hi[:, 0]]).max(axis=0)
    crisp = (upper - lower).max(axis=1) <= cfg.agreement_tol + JUMP_ROUND_OFF * mag / nu
    case = [DiffCase.CRISP if c else DiffCase.CASE_I if i else DiffCase.CASE_II
            for c, i in zip(crisp.tolist(), gh.ok_i.tolist())]
    return _Jumps(lower, upper, gh.cases(), case, finite)


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

    sides = {}
    if report.minus.kind == "limit":
        sides["minus"] = report.minus
    if report.plus.kind == "limit":
        sides["plus"] = report.plus

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


def _derive(report: EndpointReport, probes: dict[str, list[_StreamData]],
            failure: GhNonexistent | None, jump, cfg: ProbeConfig
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
    evidence: dict = {}
    try:
        if failure is not None:
            raise failure
        if pc.left is Side.SCATTERED:
            jumps, i, ft, fr = jump
            if jumps.gh_case[i] is GhCase.NONE or not jumps.finite[i]:
                # the failing row again: the pass keeps no candidate rows
                with np.errstate(over="ignore", invalid="ignore"):
                    gh = gh_exists((ft[0] - fr[0])[None], (ft[1] - fr[1])[None])
                gh.raise_nonfinite()
                if jumps.gh_case[i] is GhCase.NONE:
                    raise GhNonexistent(
                        f"generalized difference of f({t!r}) and f({pc.rho!r}) "
                        f"does not exist", gh.diagnostics(0))
                raise OrderViolation(
                    f"the jump quotient at {t!r} is not finite: the "
                    f"difference overflows over nu = {pc.nu!r}")
            value = FuzzyNumber(jumps.lower[i], jumps.upper[i], validate=False)
            case = jumps.case[i]
            residual = 0.0
            evidence["path"] = "backward-quotient"
            evidence["gh_case"] = jumps.gh_case[i].value
            if "right" in probes:
                evidence["h_orientations"] = _h_orientations(*fr, probes["right"])
        else:
            value, residual = _dense_value(probes, cfg, t)
            case = classify_case(value, report, cfg, residual)
            evidence["path"] = "one-sided-limits"
            evidence["gh_cases"] = {
                side: {s.label: s.gh_cases for s in streams}
                for side, streams in probes.items()
            }

        evidence["continuity_gaps"] = {
            side: {s.label: s.gaps for s in streams}
            for side, streams in probes.items()
        }

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
                    streams: list[_StreamData]) -> dict:
    """Which classical-difference orientations appear among right probes:
    how many of f(p) -H f(rho) and of f(rho) -H f(p) exist (h_diff), from
    the probes' level rows and f's levels at rho (fr)."""
    d_lo = np.concatenate([s.lower for s in streams]) - fr_lo
    d_hi = np.concatenate([s.upper for s in streams]) - fr_hi
    # f(p) - f(rho) in the first half of the rows, f(rho) - f(p) in the second
    gh = gh_exists(np.concatenate([d_lo, -d_lo]), np.concatenate([d_hi, -d_hi]))
    gh.raise_nonfinite()
    fwd, bwd = np.split(gh.ok_i, 2)
    return {"forward": int(fwd.sum()), "backward": int(bwd.sum())}


def _not_differentiable(err: GhNonexistent | LimitDisagreement) -> DerivativeResult:
    """The NotDifferentiable result for a derivative that failed with err,
    with the reason in evidence."""
    return DerivativeResult(
        t=err.endpoint_report.t,
        value=None,
        case=DiffCase.NOT_DIFFERENTIABLE,
        residual=math.inf,
        endpoint_report=err.endpoint_report,
        evidence={"failure": type(err).__name__, "message": str(err),
                  "diagnostics": _jsonable(getattr(err, "diagnostics", {}))},
    )


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


def _analyses(f: FuzzyFunction, ts: TimeScale, records: list[PointClass],
              cfg: ProbeConfig, keep: bool = False):
    """Each record's endpoint report, probe data, first failed probe and
    jump (for _derive), in record order; an error is raised at the turn of
    the point where it arises.

    f's levels at every record's t, rho and sigma come from one evaluation
    step (_evaluate), and every left-scattered record's quotient from one
    _jump_rows call; a dense side is probed at its record's turn. Without
    a vector form the pass takes one record at a time, so a plain callable
    is called as by the loop over single points, in order. With keep, f's
    memo cache keeps those levels for a caller that reads f there again.
    """
    if f._vector is None and len(records) > 1:
        for pc in records:
            yield from _analyses(f, ts, [pc], cfg, keep)
        return
    slot: dict[float, int] = {}
    for pc in records:
        slot.setdefault(pc.t, len(slot))
        if pc.left is Side.SCATTERED:
            slot.setdefault(pc.rho, len(slot))
        if pc.right is Side.SCATTERED:
            slot.setdefault(pc.sigma, len(slot))
    lo, hi, err = _evaluate(f, list(slot))
    if keep:
        for p, j in slot.items():
            if j < len(lo) and p not in f._cache:
                f._cache[p] = FuzzyNumber(lo[j], hi[j], validate=False)

    def levels(p: float):
        """f's levels at p, or the evaluation step's error past its rows."""
        j = slot[p]
        if j >= len(lo):
            raise err
        return lo[j], hi[j]

    scattered = [r for r, pc in enumerate(records) if pc.left is Side.SCATTERED
                 and max(slot[pc.t], slot[pc.rho]) < len(lo)]
    it = np.array([slot[records[r].t] for r in scattered], dtype=int)
    ir = np.array([slot[records[r].rho] for r in scattered], dtype=int)
    nu = np.array([records[r].nu for r in scattered])
    jumps = _jump_rows(lo.take(it, axis=0), hi.take(it, axis=0),
                       lo.take(ir, axis=0), hi.take(ir, axis=0), nu, cfg)
    row = {r: i for i, r in enumerate(scattered)}
    alphas = alpha_grid(f.K)

    for r, pc in enumerate(records):
        ft = levels(pc.t)
        probes: dict[str, list[_StreamData]] = {}
        failure = None
        sides = []
        for side, density, neighbor in (("left", pc.left, pc.rho),
                                        ("right", pc.right, pc.sigma)):
            if density is Side.SCATTERED:
                sides.append(_scattered_side(*ft, *levels(neighbor),
                                             neighbor - pc.t))
                continue
            streams, failed = _probe_side(f, ts, pc.t, side, cfg, *ft)
            failure = failure or failed
            if streams:
                probes[side] = streams
                sides.append(_limit_side(streams, cfg))
            else:
                sides.append(SideData(kind="absent"))
        report = EndpointReport(pc.t, alphas, *sides, pc)
        jump = None
        if pc.left is Side.SCATTERED:
            jump = (jumps, row[r], ft, levels(pc.rho))
        yield report, probes, failure, jump


def _derivatives(f: FuzzyFunction, ts: TimeScale, records: list[PointClass],
                 cfg: ProbeConfig, report: bool = False, keep: bool = False):
    """nabla_gh at each record's point, in order, from one pass
    (_analyses, with keep); with report, derivative_report: a GhNonexistent
    or LimitDisagreement comes back as a NotDifferentiable result."""
    for analysis in _analyses(f, ts, records, cfg, keep):
        try:
            res = _derive(*analysis, cfg)
        except (GhNonexistent, LimitDisagreement) as err:
            if not report:
                raise
            res = _not_differentiable(err)
        yield res


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
    pc = _classify_in_domain(ts, float(t))
    return next(_derivatives(f, ts, [pc], cfg))


def derivative_report(f: FuzzyFunction, ts: TimeScale, t: float,
                      cfg: ProbeConfig = DEFAULT_CONFIG) -> DerivativeResult:
    """nabla_gh, but failures come back as a NotDifferentiable result with
    the reason in evidence instead of an exception (NotInDomain still
    raises: asking outside the domain is a caller error)."""
    pc = _classify_in_domain(ts, float(t))
    return next(_derivatives(f, ts, [pc], cfg, report=True))


def nabla_many(f: FuzzyFunction, ts: TimeScale, points,
               cfg: ProbeConfig = DEFAULT_CONFIG) -> list[DerivativeResult]:
    """derivative_report at every point, in order, from one pass over the
    points' records: a bound definition is evaluated once over every t,
    rho and sigma."""
    records, err = _records(ts, points)
    out = list(_derivatives(f, ts, records, cfg, report=True))
    if err is not None:
        raise err
    return out


def nabla_scalar(g: Callable[[float], float], ts: TimeScale, t: float,
                 cfg: ProbeConfig = DEFAULT_CONFIG) -> float:
    """Backward derivative of a real-valued function on the scale."""
    return _scalar_at(g, ts, _classify_in_domain(ts, float(t)), cfg)


@np.errstate(over="ignore", invalid="ignore")
def _scalar_at(g: Callable[[float], float], ts: TimeScale, pc: PointClass,
               cfg: ProbeConfig) -> float:
    """nabla_scalar at the point of the record pc. A quotient, tail
    spread, stream spread or value that is not finite is rejected by name
    (_require_finite) before any tolerance gate."""
    t = pc.t
    if pc.left is Side.SCATTERED:
        value = (g(t) - g(pc.rho)) / pc.nu
        _require_finite(t, "left", (("quotient", value),))
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
            tail = float(_tail_spread(q[:, None])[0])
            _require_finite(t, side, (("quotient", q), ("tail spread", tail)))
            ests.append(float(q[-1]))
            worst_tail = max(worst_tail, tail)
    if not ests:
        raise LimitDisagreement(f"no probe points around {t!r}")
    spread = max(ests) - min(ests)
    value = float(np.mean(ests))
    _require_finite(t, None, (("stream spread", spread), ("value", value)))
    if spread > cfg.agreement_tol or worst_tail > cfg.agreement_tol:
        raise LimitDisagreement(
            f"scalar derivative estimates at {t!r} disagree by "
            f"{max(spread, worst_tail):.3g}")
    return value


# ---------------------------------------------------------------------------
# identity checkers


def check_rho_identity(f: FuzzyFunction, ts: TimeScale, t: float,
                       cfg: ProbeConfig = DEFAULT_CONFIG) -> float:
    """Residual of the backward reconstruction identity at t.

    One of the two reconstructions must hold: f(t) = f(rho(t)) + nu * value,
    or f(rho(t)) = f(t) + (-nu) * value. Returns the smaller residual."""
    return _rho_residual(f, ts, nabla_gh(f, ts, t, cfg), cfg)


def _rho_residual(f: FuzzyFunction, ts: TimeScale, r: DerivativeResult,
                  cfg: ProbeConfig) -> float:
    """check_rho_identity from the derivative r it takes at its point
    (ts and cfg are unused: the signature is _level_residual's)."""
    pc = r.endpoint_report.point
    nu = pc.nu
    Ft, Fr = f(pc.t), f(pc.rho)
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
    sides = []
    for side in ("left", "right"):
        if side == "left" and pc.left is not Side.DENSE:
            continue
        if side == "right" and pc.right is not Side.DENSE:
            continue
        streams = ts.approach_streams(t, side, cfg.probe_count)
        if streams:
            sides.append((side, streams))
    Ft = f(t)
    for k in range(K + 1):
        side_los, side_his = [], []
        for side, streams in sides:
            s_lo, s_hi = [], []
            for s in streams:
                q_lo, q_hi = [], []
                for p in s.points:
                    Fp = f(p)
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
