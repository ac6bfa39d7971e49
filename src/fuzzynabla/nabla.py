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
)
from .fuzzy import (
    FuzzyNumber,
    GhCase,
    add,
    alpha_grid,
    gh_diff,
    gh_exists,
    h_diff,
    hausdorff,
    invalid_rows,
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
    values of fn only: stack neither reads nor fills it.
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
        bad = invalid_rows(lo, hi)
        if bad.any():
            i = int(np.argmax(bad))
            FuzzyNumber(lo[i], hi[i])  # raises that row's OrderViolation
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


def _gh_rows(d_lo: np.ndarray, d_hi: np.ndarray):
    """gh_exists on (N, K+1) stacks of candidate endpoints, and the rows
    where gh_diff raises instead of answering: a case holds but a level is
    not finite, so its value fails validation."""
    ok_i, ok_ii, _ = gh_exists(d_lo, d_hi)
    finite = np.isfinite(d_lo).all(axis=1) & np.isfinite(d_hi).all(axis=1)
    return ok_i, ok_ii, (ok_i | ok_ii) & ~finite


def _side_levels(f: FuzzyFunction, pts: list[float]):
    """The (N, K+1) lower and upper level rows of f at pts and None: one
    stack when f has a vector form and the stack does not raise, else f(p)
    in order. When f(p) fails (FuzzyNablaError or ArithmeticError), the
    rows before p and that error, so that the caller raises first what
    those rows raise."""
    if f._vector is not None:
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
                cfg: ProbeConfig) -> tuple[list[_StreamData], GhNonexistent | None]:
    """Quotient data for every probe stream on a dense side of t, and the
    error for the first probe whose generalized difference does not exist.

    One row pass over f's levels at the side's probes, in stream order,
    gives the quotients, the gH cases (the test is row-wise, so one
    gh_exists call labels every probe as gh_diff would), and the
    continuity gaps; gh_diff runs only at the first failing probe. The
    quotients do not need the difference, so a failing probe is recorded
    and the report is complete either way.
    """
    streams = ts.approach_streams(t, side, cfg.probe_count)
    Ft = f(t)
    pts = [p for s in streams for p in s.points]
    if not pts:
        return [], None
    lo, hi, err = _side_levels(f, pts)
    d_lo = lo - Ft.lower
    d_hi = hi - Ft.upper
    # f(p) gH- f(t) on the right, f(t) gH- f(p) on the left
    if side == "right":
        ok_i, ok_ii, raises = _gh_rows(d_lo, d_hi)
    else:
        ok_i, ok_ii, raises = _gh_rows(-d_lo, -d_hi)

    def gh_at(j: int):
        Fp = FuzzyNumber(lo[j], hi[j], validate=False)
        return gh_diff(Fp, Ft) if side == "right" else gh_diff(Ft, Fp)

    if raises.any():
        gh_at(int(np.argmax(raises)))  # raises its OrderViolation
    if err is not None:
        raise err
    failure = None
    missing = ~(ok_i | ok_ii)
    if missing.any():
        j = int(np.argmax(missing))
        res = gh_at(j)
        failure = GhNonexistent(
            f"generalized difference does not exist at probe {pts[j]!r} "
            f"({side} of {t!r})",
            {"probe": pts[j], "side": side, **res.diagnostics},
        )
    cases = [_GH_CASES[c].value for c in (2 * ok_i + ok_ii).tolist()]
    dt = (np.array(pts) - t)[:, None]
    Q_lo = d_lo / dt
    Q_hi = d_hi / dt
    # hausdorff(f(p), f(t)): Python's max of the two endpoint distances
    a = np.abs(d_lo).max(axis=1)
    b = np.abs(d_hi).max(axis=1)
    gaps = np.where(b > a, b, a).tolist()

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


def _analyze(f: FuzzyFunction, ts: TimeScale, pc: PointClass, cfg: ProbeConfig):
    """Endpoint report, probe data and the first failed probe (left side
    before right) at a classified point."""
    t = pc.t
    probes: dict[str, list[_StreamData]] = {}
    failure = None
    sides = []
    for side, density, neighbor in (("left", pc.left, pc.rho),
                                    ("right", pc.right, pc.sigma)):
        if density is Side.SCATTERED:
            Ft, Fn = f(t), f(neighbor)
            sides.append(_scattered_side(Ft.lower, Ft.upper, Fn.lower, Fn.upper,
                                         neighbor - t))
            continue
        streams, failed = _probe_side(f, ts, t, side, cfg)
        failure = failure or failed
        if streams:
            probes[side] = streams
            sides.append(_limit_side(streams, cfg))
        else:
            sides.append(SideData(kind="absent"))

    minus, plus = sides
    report = EndpointReport(t=t, alphas=alpha_grid(f.K), minus=minus,
                            plus=plus, point=pc)
    return report, probes, failure


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
    return _analyze(f, ts, _classify_member(ts, float(t)), cfg)[0]


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


def _require_finite(t: float, side: str, criteria) -> None:
    """Raise LimitDisagreement naming the first (criterion, values) pair
    with a value that is not finite: inf - inf is NaN, and NaN passes
    every tolerance gate."""
    for criterion, values in criteria:
        values = np.asarray(values, dtype=float).ravel()
        bad = values[~np.isfinite(values)]
        if bad.size:
            value = float(bad[0])
            raise LimitDisagreement(
                f"the {criterion} on the {side} of {t!r} is not finite "
                f"({value!r})",
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

# indexed by 2 * case_i_exists + case_ii_exists
_GH_CASES = (GhCase.NONE, GhCase.CASE_II, GhCase.CASE_I, GhCase.BOTH)


@dataclass
class _Jumps:
    """The jump quotient at a stack of left-scattered points, one row each."""

    lower: np.ndarray
    upper: np.ndarray
    gh_case: list[GhCase]
    case: list[DiffCase]
    finite: np.ndarray


def _jump_rows(ft_lo: np.ndarray, ft_hi: np.ndarray, fr_lo: np.ndarray,
               fr_hi: np.ndarray, nu: np.ndarray, cfg: ProbeConfig) -> _Jumps:
    """[f(t) gH- f(rho)] / nu at each left-scattered point, one row each,
    from (N, K+1) stacks of f's levels at the points (ft) and at their
    rho (fr).

    The case is the gH difference's own: Crisp when the value's width is
    within the agreement tolerance plus the round-off of f(t) - f(rho)
    over nu (JUMP_ROUND_OFF of the operands' magnitude), else CaseI when
    case (i) exists, else CaseII (rows where neither exists are rejected by
    _derive).
    """
    d_lo = ft_lo - fr_lo
    d_hi = ft_hi - fr_hi
    ok_i, ok_ii, _ = gh_exists(d_lo, d_hi)
    finite = np.isfinite(d_lo).all(axis=1) & np.isfinite(d_hi).all(axis=1)
    # case (i), alone or with (ii), keeps the candidates' order
    keep = ok_i[:, None]
    k = (1.0 / nu)[:, None]
    lower = k * np.where(keep, d_lo, d_hi)
    upper = k * np.where(keep, d_hi, d_lo)
    # the operands' magnitude is that of their supports, where the cuts nest
    mag = np.abs([ft_lo[:, 0], ft_hi[:, 0], fr_lo[:, 0], fr_hi[:, 0]]).max(axis=0)
    crisp = (upper - lower).max(axis=1) <= cfg.agreement_tol + JUMP_ROUND_OFF * mag / nu
    gh = [_GH_CASES[c] for c in (2 * ok_i + ok_ii).tolist()]
    case = [DiffCase.CRISP if c else DiffCase.CASE_I if i else DiffCase.CASE_II
            for c, i in zip(crisp.tolist(), ok_i.tolist())]
    return _Jumps(lower, upper, gh, case, finite)


def _jump_at(f: FuzzyFunction, pc: PointClass, cfg: ProbeConfig) -> _Jumps:
    """_jump_rows at one classified left-scattered point, from f's values."""
    Ft, Fr = f(pc.t), f(pc.rho)
    return _jump_rows(Ft.lower[None], Ft.upper[None], Fr.lower[None],
                      Fr.upper[None], np.array([pc.nu]), cfg)


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


def _derive(f: FuzzyFunction, report: EndpointReport,
            probes: dict[str, list[_StreamData]],
            failure: GhNonexistent | None, cfg: ProbeConfig,
            jump: _Jumps | None = None, i: int = 0) -> DerivativeResult:
    """The derivative at a point from its one analysis: row i of jump (or
    the point's own quotient when jump is None) at a left-scattered point,
    the probed limit at a left-dense one.

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
            if jump is None:
                jump = _jump_at(f, pc, cfg)
            if jump.gh_case[i] is GhCase.NONE or not jump.finite[i]:
                res = gh_diff(f(t), f(pc.rho))  # raises OrderViolation on non-finite levels
                raise GhNonexistent(
                    f"generalized difference of f({t!r}) and f({pc.rho!r}) does "
                    f"not exist", res.diagnostics)
            value = FuzzyNumber(jump.lower[i], jump.upper[i], validate=False)
            case = jump.case[i]
            residual = 0.0
            evidence["path"] = "backward-quotient"
            evidence["gh_case"] = jump.gh_case[i].value
            if "right" in probes:
                evidence["h_orientations"] = _h_orientations(f(pc.rho),
                                                             probes["right"])
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
        err.endpoint_report = report  # _reported builds its row from it
        raise
    return DerivativeResult(t, value, case, residual, report, evidence)


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
    return _derive(f, *_analyze(f, ts, pc, cfg), cfg)


def _h_orientations(Fr: FuzzyNumber, streams: list[_StreamData]) -> dict:
    """Which classical-difference orientations appear among right probes:
    how many of f(p) -H f(rho) and of f(rho) -H f(p) exist (h_diff), from
    the probes' level rows, with Fr = f(rho)."""
    lo = np.concatenate([s.lower for s in streams])
    hi = np.concatenate([s.upper for s in streams])
    fwd, _, fwd_raises = _gh_rows(lo - Fr.lower, hi - Fr.upper)
    bwd, _, bwd_raises = _gh_rows(Fr.lower - lo, Fr.upper - hi)
    raises = fwd_raises | bwd_raises
    if raises.any():
        j = int(np.argmax(raises))
        Fp = FuzzyNumber(lo[j], hi[j], validate=False)
        h_diff(Fp, Fr)
        h_diff(Fr, Fp)  # one of the two raises its OrderViolation
    return {"forward": int(fwd.sum()), "backward": int(bwd.sum())}


def _reported(derive: Callable[..., DerivativeResult], *args) -> DerivativeResult:
    """derive(*args), with a GhNonexistent or LimitDisagreement turned into
    a NotDifferentiable result that carries the reason in evidence."""
    try:
        return derive(*args)
    except (GhNonexistent, LimitDisagreement) as e:
        return DerivativeResult(
            t=e.endpoint_report.t,
            value=None,
            case=DiffCase.NOT_DIFFERENTIABLE,
            residual=math.inf,
            endpoint_report=e.endpoint_report,
            evidence={"failure": type(e).__name__, "message": str(e),
                      "diagnostics": _jsonable(getattr(e, "diagnostics", {}))},
        )


def derivative_report(f: FuzzyFunction, ts: TimeScale, t: float,
                      cfg: ProbeConfig = DEFAULT_CONFIG) -> DerivativeResult:
    """nabla_gh, but failures come back as a NotDifferentiable result with
    the reason in evidence instead of an exception (NotInDomain still
    raises: asking outside the domain is a caller error)."""
    return _reported(nabla_gh, f, ts, t, cfg)


def _jump_columns(ts: TimeScale, points: list[float]):
    """The points the stacked pass takes: (slot, record) of every realized
    jump among points with a jump or nothing on its right, the sorted
    unique points among their t, rho and sigma, and each row's indices
    into those for t, rho and sigma."""
    rows = [(slot, pc) for slot, pc in enumerate(ts._realized_classes(points))
            if pc is not None and pc.left is Side.SCATTERED
            and (pc.right is Side.SCATTERED or pc.at_max)]
    if not rows:
        return rows, None, None
    t = np.array([pc.t for _, pc in rows])
    rho = np.array([pc.rho for _, pc in rows])
    sigma = np.array([pc.sigma for _, pc in rows])
    at, where = np.unique(np.concatenate([t, rho, sigma]), return_inverse=True)
    return rows, at, np.split(where, 3)


def _jump_results(f: FuzzyFunction, lo: np.ndarray, hi: np.ndarray, rows,
                  index, cfg: ProbeConfig):
    """derivative_report at every row of _jump_columns, one at a time, from
    f's level stacks (lo, hi) at its unique points. None when a jump
    quotient is not finite (derivative_report raises there); f itself is
    called only at a jump without a gH difference."""
    it, ir, isg = index
    nu = np.array([pc.nu for _, pc in rows])
    jump = _jump_rows(lo[it], hi[it], lo[ir], hi[ir], nu, cfg)
    if not jump.finite.all():
        return None
    alphas = alpha_grid(lo.shape[1] - 1)

    def result(r: int, pc: PointClass) -> DerivativeResult:
        i, n = it[r], ir[r]
        minus = _scattered_side(lo[i], hi[i], lo[n], hi[n], pc.rho - pc.t)
        n = isg[r]
        plus = (_scattered_side(lo[i], hi[i], lo[n], hi[n], pc.sigma - pc.t)
                if pc.right is Side.SCATTERED else SideData(kind="absent"))
        report = EndpointReport(pc.t, alphas, minus, plus, pc)
        return _reported(_derive, f, report, {}, None, cfg, jump, r)

    return (result(r, pc) for r, (_, pc) in enumerate(rows))


def _stacked(f: FuzzyFunction, ts: TimeScale, points: list[float],
             cfg: ProbeConfig) -> list[DerivativeResult | None]:
    """derivative_report at every point that _jump_columns takes, from one
    evaluation of f's vector form over these points, their rho and their
    sigma. None at every other point; at every point when f has no vector
    form, or when the stacks raise or hold a non-finite jump, so
    derivative_report meets the error where it arises."""
    out: list = [None] * len(points)
    if f._vector is None:
        return out
    rows, at, index = _jump_columns(ts, points)
    if not rows:
        return out
    try:
        lo, hi = f.stack(at)
    except (FuzzyNablaError, ArithmeticError):
        return out
    results = _jump_results(f, lo, hi, rows, index, cfg)
    if results is not None:
        for (slot, _), r in zip(rows, results):
            out[slot] = r
    return out


def nabla_many(f: FuzzyFunction, ts: TimeScale, points,
               cfg: ProbeConfig = DEFAULT_CONFIG) -> list[DerivativeResult]:
    """derivative_report at every point, in order.

    For a function with a vector form (a bound definition), the points that
    are realized jumps with a jump or nothing on their right take their
    results from one array pass (_stacked); every other point is
    derivative_report, in order.
    """
    points = [float(t) for t in points]
    out = _stacked(f, ts, points, cfg)
    return [r if r is not None else derivative_report(f, ts, t, cfg)
            for t, r in zip(points, out)]


def nabla_scalar(g: Callable[[float], float], ts: TimeScale, t: float,
                 cfg: ProbeConfig = DEFAULT_CONFIG) -> float:
    """Backward derivative of a real-valued function on the scale."""
    return _scalar_at(g, ts, _classify_in_domain(ts, float(t)), cfg)


def _scalar_at(g: Callable[[float], float], ts: TimeScale, pc: PointClass,
               cfg: ProbeConfig) -> float:
    """nabla_scalar at the point of the record pc."""
    t = pc.t
    if pc.left is Side.SCATTERED:
        return (g(t) - g(pc.rho)) / pc.nu

    gt = g(t)
    ests = []
    worst_tail = 0.0
    for side in ("left", "right"):
        if side == "left" and pc.left is not Side.DENSE:
            continue
        if side == "right" and pc.right is not Side.DENSE:
            continue
        streams = ts.approach_streams(t, side, cfg.probe_count)
        for s in streams:
            q = np.array([(g(p) - gt) / (p - t) for p in s.points])
            if s.synthetic and len(q) >= 2:
                q = 2.0 * q[1:] - q[:-1]
            ests.append(float(q[-1]))
            worst_tail = max(worst_tail, float(_tail_spread(q[:, None])[0]))
    if not ests:
        raise LimitDisagreement(f"no probe points around {t!r}")
    spread = max(ests) - min(ests)
    if spread > cfg.agreement_tol or worst_tail > cfg.agreement_tol:
        raise LimitDisagreement(
            f"scalar derivative estimates at {t!r} disagree by "
            f"{max(spread, worst_tail):.3g}")
    return float(np.mean(ests))


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
