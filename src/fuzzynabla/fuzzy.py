"""Fuzzy numbers on a uniform membership-level grid.

A fuzzy number is stored by its level cuts at alpha_k = k/K for k = 0..K:
two arrays, a non-decreasing lower endpoint and a non-increasing upper
endpoint with lower <= upper (so the cuts are nested intervals). K = 0 is
the degenerate interval case: a single cut that stands for every level.

The generalized difference gh_diff(u, v) looks for a w with u = v + w
(case i) or v = u + (-1)w (case ii); existence is decided by endpoint
monotonicity of the candidate arrays. Analytically monotone data carries
ulp-level float noise, so all monotonicity checks forgive violations up to
MONO_RTOL * (1 + magnitude).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlphaOutOfRange, GridMismatch, OrderViolation

MONO_RTOL = 1e-10


def alpha_grid(K: int) -> np.ndarray:
    """Levels k/K for k = 0..K as correctly rounded quotients (not linspace,
    whose step accumulation lands off-grid: 3*0.1 != 3/10)."""
    if K == 0:
        return np.array([0.0])
    return np.arange(K + 1, dtype=float) / K


@dataclass(frozen=True)
class Interval:
    """A closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.hi < self.lo:
            raise OrderViolation(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def hausdorff(self, other: "Interval") -> float:
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi))

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)


class GhCase(Enum):
    CASE_I = "CaseI"
    CASE_II = "CaseII"
    BOTH = "Both"
    NONE = "None"


class FuzzyNumber:
    """Immutable level-grid fuzzy number."""

    __slots__ = ("_lower", "_upper")

    def __init__(self, lower, upper, validate: bool = True):
        lo = np.array(lower, dtype=float)
        hi = np.array(upper, dtype=float)
        if lo.ndim != 1 or hi.ndim != 1 or len(lo) != len(hi) or len(lo) < 1:
            raise OrderViolation("level arrays must be 1-d, equal length, nonempty")
        self._lower = lo
        self._upper = hi
        if validate:
            self.validate()
        lo.flags.writeable = False
        hi.flags.writeable = False

    # -- construction ---------------------------------------------------

    @classmethod
    def triangular(cls, a: float, b: float, c: float, K: int = 100) -> "FuzzyNumber":
        """Triangular number with support [a, c] and core b; cuts are linear."""
        if not (a <= b <= c):
            raise OrderViolation(f"triangular requires a <= b <= c, got ({a}, {b}, {c})")
        if K < 1:
            raise ValueError("triangular needs K >= 1")
        alphas = alpha_grid(K)
        return cls(a + alphas * (b - a), c + alphas * (b - c), validate=False)

    @classmethod
    def crisp(cls, x: float, K: int = 100) -> "FuzzyNumber":
        n = K + 1
        return cls(np.full(n, float(x)), np.full(n, float(x)), validate=False)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "FuzzyNumber":
        """Degenerate K = 0 number: one cut standing for every level."""
        if hi < lo:
            raise OrderViolation(f"interval requires lo <= hi, got [{lo}, {hi}]")
        return cls(np.array([float(lo)]), np.array([float(hi)]), validate=False)

    # -- accessors --------------------------------------------------------

    @property
    def lower(self) -> np.ndarray:
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        return self._upper

    @property
    def K(self) -> int:
        return len(self._lower) - 1

    @property
    def alphas(self) -> np.ndarray:
        return alpha_grid(len(self._lower) - 1)

    @property
    def support(self) -> Interval:
        return Interval(float(self._lower[0]), float(self._upper[0]))

    @property
    def core(self) -> Interval:
        return Interval(float(self._lower[-1]), float(self._upper[-1]))

    def __repr__(self):
        s, c = self.support, self.core
        return (
            f"FuzzyNumber(K={self.K}, support=[{s.lo:g}, {s.hi:g}], "
            f"core=[{c.lo:g}, {c.hi:g}])"
        )

    def __eq__(self, other):
        return (
            isinstance(other, FuzzyNumber)
            and len(self._lower) == len(other._lower)
            and bool(np.all(self._lower == other._lower))
            and bool(np.all(self._upper == other._upper))
        )

    def __hash__(self):
        return hash((self._lower.tobytes(), self._upper.tobytes()))

    def allclose(self, other: "FuzzyNumber", tol: float) -> bool:
        return hausdorff(self, other) <= tol

    def magnitude(self) -> float:
        return float(max(np.max(np.abs(self._lower)), np.max(np.abs(self._upper))))

    def is_crisp(self, tol: float = 0.0) -> bool:
        return bool(np.max(self._upper - self._lower) <= tol)

    # -- invariants -------------------------------------------------------

    def validate(self, tol_scale: float = MONO_RTOL) -> None:
        """Check the cut invariants, forgiving float noise up to
        tol_scale * (1 + magnitude)."""
        lo, hi = self._lower, self._upper
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise OrderViolation("level arrays must be finite")
        tol = tol_scale * (1.0 + max(np.max(np.abs(lo)), np.max(np.abs(hi))))
        if len(lo) > 1:
            dlo = np.diff(lo)
            if np.min(dlo) < -tol:
                k = int(np.argmin(dlo))
                raise OrderViolation(f"lower endpoint decreases at level index {k}")
            dhi = np.diff(hi)
            if np.max(dhi) > tol:
                k = int(np.argmax(dhi))
                raise OrderViolation(f"upper endpoint increases at level index {k}")
        gap = lo - hi
        if np.max(gap) > tol:
            k = int(np.argmax(gap))
            raise OrderViolation(f"lower exceeds upper at level index {k}")

    # -- level queries -----------------------------------------------------

    def level(self, alpha: float) -> Interval:
        """The cut at membership level alpha (piecewise-linear between grid
        levels, exact on them). A K = 0 number returns its single cut."""
        if not (0.0 <= alpha <= 1.0):
            raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
        n = len(self._lower)
        if n == 1:
            return Interval(float(self._lower[0]), float(self._upper[0]))
        K = n - 1
        pos = alpha * K
        k = round(pos)
        if abs(pos - k) <= 1e-9:
            lo, hi = float(self._lower[k]), float(self._upper[k])
            # ulp-level inversions are forgiven by the validator; keep the
            # interval well-formed
            return Interval(min(lo, hi), max(lo, hi))
        k0 = int(np.floor(pos))
        frac = pos - k0
        lo = self._lower[k0] + frac * (self._lower[k0 + 1] - self._lower[k0])
        hi = self._upper[k0] + frac * (self._upper[k0 + 1] - self._upper[k0])
        return Interval(float(min(lo, hi)), float(max(lo, hi)))

    def len_alpha(self, alpha: float) -> float:
        return self.level(alpha).width

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, FuzzyNumber):
            return add(self, other)
        return NotImplemented

    def __mul__(self, k):
        if isinstance(k, (int, float)):
            return scalar_mul(float(k), self)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return scalar_mul(-1.0, self)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "lower": [float(x) for x in self._lower],
            "upper": [float(x) for x in self._upper],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "FuzzyNumber":
        if "tri" in d:
            a, b, c = d["tri"]
            return cls.triangular(a, b, c, K=d.get("K", 100))
        return cls(d["lower"], d["upper"])

    @classmethod
    def from_json(cls, s: str) -> "FuzzyNumber":
        return cls.from_dict(json.loads(s))

    def csv_rows(self) -> list[tuple[float, float, float]]:
        return [
            (float(a), float(lo), float(hi))
            for a, lo, hi in zip(self.alphas, self._lower, self._upper)
        ]

    def to_csv(self) -> str:
        lines = ["alpha,lower,upper"]
        for a, lo, hi in self.csv_rows():
            lines.append(f"{a!r},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"


@dataclass
class GhDiffResult:
    """Outcome of a generalized difference: value (if it exists), which
    construction produced it, and per-case diagnostics."""

    value: FuzzyNumber | None
    case: GhCase
    diagnostics: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "value": self.value.to_dict() if self.value is not None else None,
            "diagnostics": dict(self.diagnostics),
        }


# ---------------------------------------------------------------------------
# operations


def _require_same_grid(u: FuzzyNumber, v: FuzzyNumber) -> None:
    if u.K != v.K:
        raise GridMismatch(f"level grids differ: K={u.K} vs K={v.K}")


def add(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber:
    """Level-wise sum: [u+v]_a = [u_a^- + v_a^-, u_a^+ + v_a^+]."""
    _require_same_grid(u, v)
    return FuzzyNumber(u.lower + v.lower, u.upper + v.upper, validate=False)


def scalar_mul(k: float, u: FuzzyNumber) -> FuzzyNumber:
    """Level-wise scalar multiple; a negative k swaps the endpoints."""
    k = float(k)
    if k >= 0:
        return FuzzyNumber(k * u.lower, k * u.upper, validate=False)
    return FuzzyNumber(k * u.upper, k * u.lower, validate=False)


def gh_exists(d_lo: np.ndarray, d_hi: np.ndarray):
    """Row-wise existence of the two gH constructions.

    d_lo and d_hi are (N, K+1) stacks of candidate endpoints u^- - v^- and
    u^+ - v^+. Case (i) exists when d_lo is non-decreasing, d_hi is
    non-increasing and d_lo <= d_hi; case (ii) is the same test with the
    roles swapped. Violations up to MONO_RTOL * (1 + row magnitude) are
    forgiven. Returns (ok_i, ok_ii, tol), one entry per row.
    """
    mag_lo = np.abs(d_lo).max(axis=1)
    mag_hi = np.abs(d_hi).max(axis=1)
    # max(mag_lo, mag_hi) with Python's max(): NaN in mag_lo wins, NaN in
    # mag_hi loses
    tol = MONO_RTOL * (1.0 + np.where(mag_hi > mag_lo, mag_hi, mag_lo))
    col = tol[:, None]
    dl = d_lo[:, 1:] - d_lo[:, :-1]
    dh = d_hi[:, 1:] - d_hi[:, :-1]
    gap = d_lo - d_hi
    ok_i = ~(((dl < -col) | (dh > col)).any(axis=1) | (gap.max(axis=1) > tol))
    ok_ii = ~(((dh < -col) | (dl > col)).any(axis=1) | (gap.min(axis=1) < -tol))
    return ok_i, ok_ii, tol


def invalid_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rows of (N, K+1) level stacks that FuzzyNumber.validate rejects:
    non-finite levels, or cut invariants broken by more than MONO_RTOL *
    (1 + row magnitude)."""
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    with np.errstate(invalid="ignore"):
        tol = MONO_RTOL * (1.0 + np.maximum(np.abs(lo).max(axis=1),
                                            np.abs(hi).max(axis=1)))
        bad = (lo - hi).max(axis=1) > tol
        if lo.shape[1] > 1:
            bad |= np.diff(lo, axis=1).min(axis=1) < -tol
            bad |= np.diff(hi, axis=1).max(axis=1) > tol
    return ~finite | bad


def _gh_problems(lo: np.ndarray, hi: np.ndarray, tol: float) -> str:
    """Why (lo, hi) is not a fuzzy number: the constraints it violates."""
    probs = []
    bad = np.nonzero(lo[1:] - lo[:-1] < -tol)[0]
    if len(bad):
        probs.append(f"lower candidate not nondecreasing at level index {bad[0]}")
    bad = np.nonzero(hi[1:] - hi[:-1] > tol)[0]
    if len(bad):
        probs.append(f"upper candidate not nonincreasing at level index {bad[0]}")
    gap = lo - hi
    if gap.max() > tol:
        probs.append(f"lower exceeds upper at level index {gap.argmax()}")
    return "; ".join(probs)


def gh_diff(u: FuzzyNumber, v: FuzzyNumber) -> GhDiffResult:
    """Generalized difference u gh- v.

    Candidate endpoints are d_lo = u^- - v^- and d_hi = u^+ - v^+. The
    case (i) value is (d_lo, d_hi); case (ii) swaps them. Existence is
    gh_exists on the one row; when neither case holds the result is None
    and diagnostics name the violated constraints.
    """
    _require_same_grid(u, v)
    d_lo = u.lower - v.lower
    d_hi = u.upper - v.upper
    ok_i, ok_ii, tol = gh_exists(d_lo[None], d_hi[None])
    ok_i, ok_ii, tol = bool(ok_i[0]), bool(ok_ii[0]), tol[0]
    diag = {
        "case_i": "ok" if ok_i else _gh_problems(d_lo, d_hi, tol),
        "case_ii": "ok" if ok_ii else _gh_problems(d_hi, d_lo, tol),
    }
    if ok_i and ok_ii:
        return GhDiffResult(FuzzyNumber(d_lo, d_hi), GhCase.BOTH, diag)
    if ok_i:
        return GhDiffResult(FuzzyNumber(d_lo, d_hi), GhCase.CASE_I, diag)
    if ok_ii:
        return GhDiffResult(FuzzyNumber(d_hi, d_lo), GhCase.CASE_II, diag)
    return GhDiffResult(None, GhCase.NONE, diag)


def h_diff(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber | None:
    """Classical (Hukuhara) difference: the case (i) construction only."""
    res = gh_diff(u, v)
    if res.case in (GhCase.CASE_I, GhCase.BOTH):
        return res.value
    return None


def hausdorff(u: FuzzyNumber, v: FuzzyNumber) -> float:
    """Supremum over levels of the endpoint distance."""
    _require_same_grid(u, v)
    return float(
        max(np.max(np.abs(u.lower - v.lower)), np.max(np.abs(u.upper - v.upper)))
    )


def triangular(a: float, b: float, c: float, K: int = 100) -> FuzzyNumber:
    return FuzzyNumber.triangular(a, b, c, K)


def crisp(x: float, K: int = 100) -> FuzzyNumber:
    return FuzzyNumber.crisp(x, K)
