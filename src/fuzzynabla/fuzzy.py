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

import functools
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import AlphaOutOfRange, GridMismatch, OrderViolation, ValidationError
from .timescale import MAX_GRID_POINTS

MONO_RTOL = 1e-10


@functools.lru_cache(typed=True)
def alpha_grid(K: int) -> np.ndarray:
    """Levels k/K for k = 0..K as correctly rounded quotients (not linspace,
    whose step accumulation lands off-grid: 3*0.1 != 3/10). Built once per
    K and read-only, so every caller shares it. K must be an integer from
    0 to MAX_GRID_POINTS (ValidationError), checked before the grid is
    built."""
    if not (isinstance(K, numbers.Integral) and 0 <= K <= MAX_GRID_POINTS):
        raise ValidationError(f"the level count K must be an integer from 0 to "
                              f"{MAX_GRID_POINTS}, got {K!r}")
    grid = np.array([0.0]) if K == 0 else np.arange(K + 1, dtype=float) / K
    grid.flags.writeable = False
    return grid


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
        """Triangular number with support [a, c] and core b; cuts are linear.
        A level that is not finite (b - a may overflow) fails validation."""
        if not (a <= b <= c):
            raise OrderViolation(f"triangular requires a <= b <= c, got ({a}, {b}, {c})")
        if K < 1:
            raise ValueError("triangular needs K >= 1")
        alphas = alpha_grid(K)
        with np.errstate(over="ignore", invalid="ignore"):
            lo = a + alphas * (b - a)
            hi = c + alphas * (b - c)
        return cls(lo, hi)

    @classmethod
    def crisp(cls, x: float, K: int = 100) -> "FuzzyNumber":
        """The crisp number x on alpha_grid(K); x must be finite
        (OrderViolation)."""
        lo = np.full_like(alpha_grid(K), float(x))
        return cls(lo, lo)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "FuzzyNumber":
        """Degenerate K = 0 number: one finite cut standing for every level."""
        if hi < lo:
            raise OrderViolation(f"interval requires lo <= hi, got [{lo}, {hi}]")
        return cls([lo], [hi])

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
        return self.level(0.0)

    @property
    def core(self) -> Interval:
        return self.level(1.0)

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
        # equal numbers hash alike: -0.0 == 0.0, so both hash as 0.0
        return hash(((self._lower + 0.0).tobytes(), (self._upper + 0.0).tobytes()))

    # -- invariants -------------------------------------------------------

    def validate(self) -> None:
        """Raise OrderViolation unless the levels are finite and the cuts
        nest: case (i) of gh_exists against 0 (require_fuzzy)."""
        require_fuzzy(self._lower[None], self._upper[None])

    # -- level queries -----------------------------------------------------

    def level(self, alpha: float) -> Interval:
        """The cut at membership level alpha (piecewise-linear between grid
        levels, exact on them). A K = 0 number returns its single cut."""
        if not (0.0 <= alpha <= 1.0):
            raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
        K = len(self._lower) - 1
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


_NOT_FINITE = "level arrays must be finite"


@dataclass
class GhDiffResult:
    """Outcome of a generalized difference: value (if it exists), which
    construction produced it, and per-case diagnostics."""

    value: FuzzyNumber | None
    case: GhCase
    diagnostics: dict[str, str]


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


class GhRows(NamedTuple):
    """gh_exists' verdict on (N, K+1) stacks of candidate endpoints, one
    entry per row, with the candidates and each row's magnitude (mag)."""

    ok_i: np.ndarray
    ok_ii: np.ndarray
    tol: np.ndarray
    finite: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    mag: np.ndarray

    def raise_nonfinite(self, rows=slice(None)) -> None:
        """gh_diff's OrderViolation where a row (of rows) has a case but a
        level that is not finite."""
        if ((self.ok_i[rows] | self.ok_ii[rows]) & ~self.finite[rows]).any():
            raise OrderViolation(_NOT_FINITE)

    def cases(self) -> list[GhCase]:
        by_code = (GhCase.NONE, GhCase.CASE_II, GhCase.CASE_I, GhCase.BOTH)
        return [by_code[2 * i + ii]
                for i, ii in zip(self.ok_i.tolist(), self.ok_ii.tolist())]

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """The value rows: the candidates where case (i) exists, swapped
        where only case (ii) does."""
        keep = self.ok_i[:, None]
        return (np.where(keep, self.d_lo, self.d_hi),
                np.where(keep, self.d_hi, self.d_lo))

    @np.errstate(over="ignore", invalid="ignore")
    def diagnostics(self, i: int) -> dict[str, str]:
        """gh_diff's diagnostics for row i."""
        lo, hi, tol = self.d_lo[i], self.d_hi[i], self.tol[i]
        return {"case_i": "ok" if self.ok_i[i] else _gh_problems(lo, hi, tol),
                "case_ii": "ok" if self.ok_ii[i] else _gh_problems(hi, lo, tol)}


def gh_exists(d_lo: np.ndarray, d_hi: np.ndarray) -> GhRows:
    """The row-wise gH test on (N, K+1) stacks of candidate endpoints
    u^- - v^- and u^+ - v^+: case (i) exists when d_lo is non-decreasing,
    d_hi is non-increasing and d_lo <= d_hi; case (ii) is the same test
    with the roles swapped. Violations up to MONO_RTOL * (1 + row
    magnitude) are forgiven. Levels are a fuzzy number exactly when they
    are finite and their case (i) against 0 exists."""
    with np.errstate(over="ignore", invalid="ignore"):
        # one (N, K+1) buffer holds |d_lo|, |d_hi|, then the gaps
        buf = np.abs(d_lo, dtype=float)
        mag_lo = np.maximum.reduce(buf, axis=1)
        mag_hi = np.maximum.reduce(np.abs(d_hi, out=buf), axis=1)
        # mag_hi if mag_hi > mag_lo else mag_lo, as Python's max: a NaN upper
        # candidate leaves the tests on
        mag = np.maximum(mag_lo, np.fmax(mag_hi, mag_lo))
        tol = MONO_RTOL * (1.0 + mag)
        # the steps of d_lo and of -d_hi: case (i) needs each >= -tol, case
        # (ii) each <= tol, and a NaN step fails no test (their maxima
        # overwrite dl)
        dl = d_lo[:, 1:] - d_lo[:, :-1]
        ndh = d_hi[:, :-1] - d_hi[:, 1:]
        gap = np.subtract(d_lo, d_hi, out=buf)
        ntol = -tol
        ok_i = ~((np.fmin.reduce(np.fmin(dl, ndh), axis=1, initial=np.inf) < ntol)
                 | (np.maximum.reduce(gap, axis=1) > tol))
        ok_ii = ~((np.fmax.reduce(np.fmax(dl, ndh, out=dl), axis=1, initial=-np.inf) > tol)
                  | (np.minimum.reduce(gap, axis=1) < ntol))
        finite = np.isfinite(np.maximum(mag_lo, mag_hi))
    return GhRows(ok_i, ok_ii, tol, finite, d_lo, d_hi, mag)


def require_fuzzy(lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise OrderViolation for the first invalid row of (N, K+1) level
    stacks, naming the first of non-finite levels, a decreasing lower
    endpoint, an increasing upper one and crossing cuts, at the level
    index where that violation is largest.

    A row is valid exactly when it is finite and case (i) of gh_exists
    against 0 holds. That test passes, and no kernel runs, when every row
    is finite and its lower endpoints, then its upper endpoints raised by
    MONO_RTOL / 2 in reverse order, never decrease: the raise lets the
    core cross by round-off, it keeps the upper endpoints in order up to
    ties of a few ulps, and so every step and gap stays within MONO_RTOL,
    the least tolerance the kernel takes. Otherwise gh_exists decides, and
    builds the message for the first invalid row."""
    seq = np.concatenate((lo, hi[:, ::-1] + MONO_RTOL / 2), axis=1)
    if (np.logical_and.reduce(seq[:, 1:] >= seq[:, :-1], axis=None)
            and np.logical_and.reduce(np.isfinite(seq), axis=None)):
        return
    rows = gh_exists(lo, hi)
    bad = ~(rows.ok_i & rows.finite)
    if not bad.any():
        return
    i = int(bad.argmax())
    if not rows.finite[i]:
        raise OrderViolation(_NOT_FINITE)
    lo, hi, tol = lo[i], hi[i], rows.tol[i]
    with np.errstate(over="ignore"):
        dlo, dhi = np.diff(lo), np.diff(hi)
        if dlo.min(initial=0.0) < -tol:
            raise OrderViolation(f"lower endpoint decreases at level index {dlo.argmin()}")
        if dhi.max(initial=0.0) > tol:
            raise OrderViolation(f"upper endpoint increases at level index {dhi.argmax()}")
        raise OrderViolation(f"lower exceeds upper at level index {(lo - hi).argmax()}")


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


@np.errstate(over="ignore", invalid="ignore")
def gh_diff(u: FuzzyNumber, v: FuzzyNumber) -> GhDiffResult:
    """Generalized difference u gh- v: gh_exists on the one row of
    candidates d_lo = u^- - v^- and d_hi = u^+ - v^+. The case (i) value
    is (d_lo, d_hi); case (ii) swaps them. When neither case holds the
    value is None and diagnostics name the violated constraints."""
    _require_same_grid(u, v)
    rows = gh_exists((u.lower - v.lower)[None], (u.upper - v.upper)[None])
    rows.raise_nonfinite()
    value = None
    if rows.ok_i[0] or rows.ok_ii[0]:
        value = FuzzyNumber(*(x[0] for x in rows.values()), validate=False)
    return GhDiffResult(value, rows.cases()[0], rows.diagnostics(0))


def h_diff(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber | None:
    """Classical (Hukuhara) difference: the case (i) construction only."""
    res = gh_diff(u, v)
    return res.value if res.case in (GhCase.CASE_I, GhCase.BOTH) else None


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
