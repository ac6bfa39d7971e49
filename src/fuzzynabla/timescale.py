"""Time scales: nonempty closed subsets of the reals built from generator pieces.

A scale is a finite union of pieces: closed intervals, explicit point lists,
arithmetic grids, geometric grids, and reciprocal grids {c/n : n = 1..N}.
Pieces keep their identity after construction so probing machinery and
piecewise function definitions can tell numerically interleaved generators
apart (1/n versus sqrt2/n near 0, for instance).

All realized point sets are finite; a reciprocal grid may declare 0 as an
accumulation point so density queries at 0 reflect the untruncated scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotInTimeScale

MEMBERSHIP_RTOL = 1e-12

# window factor for deciding which discrete generators count as "local" to a
# dense side: pieces whose nearest point is more than NEIGHBOR_WINDOW times
# farther than the closest generator are not meaningful probe sources
NEIGHBOR_WINDOW = 1e3

# base offset for synthetic probe points inside a real interval
SYNTHETIC_H0 = 1e-4


def membership_tol(t: float) -> float:
    return MEMBERSHIP_RTOL * max(1.0, abs(t))


def _membership_tols(t: np.ndarray) -> np.ndarray:
    """membership_tol at every entry of t."""
    return MEMBERSHIP_RTOL * np.maximum(1.0, np.abs(t))


# most points one grid may have. A grid is realized as arrays of its points
# several times over (here, in the scale's merge, in every probe-stream
# query), and the scale merges its points in a Python loop at about a
# second per million: past this count a grid costs more time and memory than
# any run can use, so it is refused before it is built. The largest grid a
# test, the README or a benchmark workload builds has 10,000 points.
MAX_GRID_POINTS = 1_000_000


def _require_resolvable(grid, count: int) -> None:
    """Reject a grid of more than MAX_GRID_POINTS points (count, known
    before any point is built), with points beyond the float range, or with
    consecutive points within the membership tolerance: the scale would
    merge them into one member and change every jump."""
    if count > MAX_GRID_POINTS:
        raise ValueError(f"{grid.label()}: {count} points, more than the "
                         f"{MAX_GRID_POINTS} a grid may have")
    pts = grid.realized()
    if not np.isfinite(pts).all():
        raise ValueError(f"{grid.label()}: points beyond the float range")
    close = np.diff(pts) <= _membership_tols(pts[1:])
    if np.any(close):
        k = int(np.argmax(close))
        raise ValueError(
            f"{grid.label()}: consecutive points {_fmt(pts[k])} and "
            f"{_fmt(pts[k + 1])} are within the membership tolerance")


def _fmt(x: float) -> str:
    if math.isfinite(x) and x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


class Side(Enum):
    DENSE = "Dense"
    SCATTERED = "Scattered"


@dataclass(frozen=True)
class PointClass:
    """Density classification of one point of a time scale, with its jumps.

    TimeScale.classify builds it once per query; everything downstream reads
    rho, sigma, nu and in_kappa from here instead of asking the scale again.
    """

    left: Side
    right: Side
    at_min: bool = False
    at_max: bool = False
    t: float = 0.0
    rho: float = 0.0
    sigma: float = 0.0

    @property
    def nu(self) -> float:
        """Backward graininess t - rho(t)."""
        return self.t - self.rho

    @property
    def in_kappa(self) -> bool:
        """Whether t lies in the derivative domain (not a right-scattered min)."""
        return not (self.at_min and self.right is Side.SCATTERED)


def _point_class(t: float, rho, sigma, dense_left, dense_right,
                 at_min, at_max) -> PointClass:
    """The record of t from its entries of TimeScale._jumps_at."""
    return PointClass(
        left=Side.DENSE if dense_left else Side.SCATTERED,
        right=Side.DENSE if dense_right else Side.SCATTERED,
        at_min=bool(at_min),
        at_max=bool(at_max),
        t=t,
        rho=float(rho),
        sigma=float(sigma),
    )


@dataclass(frozen=True)
class Stream:
    """One labeled probe stream approaching a point from one side.

    points are ordered toward the target: points[-1] is the closest.
    synthetic streams are generated inside a real interval (not realized
    scale points of a discrete generator).
    """

    label: str
    points: tuple[float, ...]
    synthetic: bool


# ---------------------------------------------------------------------------
# pieces


@dataclass(frozen=True)
class ClosedInterval:
    a: float
    b: float

    kind = "interval"

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.b < self.a:
            raise ValueError(f"interval requires a <= b, got ({self.a}, {self.b})")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    def realized(self) -> np.ndarray:
        # a degenerate interval acts as a single point
        if self.a == self.b:
            return np.array([self.a])
        return np.array([])

    def min_value(self) -> float:
        return self.a

    def max_value(self) -> float:
        return self.b

    def contains(self, t: float) -> bool:
        tol = membership_tol(t)
        return self.a - tol <= t <= self.b + tol

    def label(self) -> str:
        return f"interval({_fmt(self.a)},{_fmt(self.b)})"

    def canonical_args(self) -> tuple[float, ...]:
        return (self.a, self.b)



@dataclass(frozen=True)
class ExplicitPoints:
    values: tuple[float, ...]

    kind = "points"

    def __post_init__(self):
        if not self.values:
            raise ValueError("points piece needs at least one value")
        vals = sorted(float(v) for v in self.values)
        out = [vals[0]]
        for v in vals[1:]:
            if v - out[-1] > membership_tol(v):
                out.append(v)
        object.__setattr__(self, "values", tuple(out))

    def realized(self) -> np.ndarray:
        return np.array(self.values)

    def min_value(self) -> float:
        return self.values[0]

    def max_value(self) -> float:
        return self.values[-1]

    def contains(self, t: float) -> bool:
        tol = membership_tol(t)
        return any(abs(t - v) <= tol for v in self.values)

    def label(self) -> str:
        return f"points({','.join(_fmt(v) for v in self.values)})"

    def canonical_args(self) -> tuple[float, ...]:
        return self.values



@dataclass(frozen=True)
class ArithmeticGrid:
    start: float
    stop: float
    step: float

    kind = "hgrid"

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("hgrid step must be positive")
        if self.stop < self.start:
            raise ValueError("hgrid requires start <= stop")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "step", float(self.step))
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ValueError(f"{self.label()}: stop - start beyond the float range")
        _require_resolvable(self, self._count())

    def _count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def realized(self) -> np.ndarray:
        return self.start + np.arange(self._count(), dtype=float) * self.step

    def min_value(self) -> float:
        return self.start

    def max_value(self) -> float:
        return self.start + (self._count() - 1) * self.step

    def contains(self, t: float) -> bool:
        tol = membership_tol(t)
        if t < self.start - tol or t > self.max_value() + tol:
            return False
        k = round((t - self.start) / self.step)
        return abs(self.start + k * self.step - t) <= tol

    def label(self) -> str:
        return f"hgrid({_fmt(self.start)},{_fmt(self.stop)},{_fmt(self.step)})"

    def canonical_args(self) -> tuple[float, ...]:
        return (self.start, self.stop, self.step)



@dataclass(frozen=True)
class GeometricGrid:
    base: float
    kmin: int
    kmax: int

    kind = "qgrid"

    def __post_init__(self):
        if self.base <= 1:
            raise ValueError("qgrid base must exceed 1")
        if self.kmax < self.kmin:
            raise ValueError("qgrid requires kmin <= kmax")
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "kmin", int(self.kmin))
        object.__setattr__(self, "kmax", int(self.kmax))
        _require_resolvable(self, self.kmax - self.kmin + 1)

    def realized(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf is rejected in construction
            return self.base ** np.arange(self.kmin, self.kmax + 1, dtype=float)

    def min_value(self) -> float:
        return self.base**self.kmin

    def max_value(self) -> float:
        return self.base**self.kmax

    def contains(self, t: float) -> bool:
        if t <= 0:
            return False
        tol = membership_tol(t)
        k = round(math.log(t) / math.log(self.base))
        if k < self.kmin or k > self.kmax:
            return False
        return abs(self.base**k - t) <= tol

    def label(self) -> str:
        return f"qgrid({_fmt(self.base)},{self.kmin},{self.kmax})"

    def canonical_args(self) -> tuple[float, ...]:
        return (self.base, float(self.kmin), float(self.kmax))



@dataclass(frozen=True)
class ReciprocalGrid:
    """Points {scale/n : n = 1..count}, accumulating at 0.

    The grid always accumulates at 0 (from the right for scale > 0, from the
    left for scale < 0); 0 is not a member of the piece itself.
    """

    scale: float
    count: int

    kind = "recip"

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("recip scale must be nonzero")
        if self.count < 1:
            raise ValueError("recip count must be at least 1")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "count", int(self.count))
        _require_resolvable(self, self.count)

    def realized(self) -> np.ndarray:
        return np.sort(self.scale / np.arange(1, self.count + 1, dtype=float))

    def min_value(self) -> float:
        if self.scale > 0:
            return self.scale / self.count
        return self.scale

    def max_value(self) -> float:
        if self.scale > 0:
            return self.scale
        return self.scale / self.count

    def accumulation_side(self) -> str:
        # side of 0 on which the realized points pile up
        return "right" if self.scale > 0 else "left"

    def contains(self, t: float) -> bool:
        tol = membership_tol(t)
        if abs(t) <= tol:
            return False
        q = self.scale / t
        if not math.isfinite(q):  # |t| too small for any member
            return False
        n = round(q)
        if n < 1 or n > self.count:
            return False
        return abs(self.scale / n - t) <= tol

    def predicate_contains(self, t: float) -> bool:
        # for piecewise membership predicates the accumulation point counts
        # as part of the generator even when not realized by this piece
        return self.contains(t) or abs(t) <= membership_tol(t)

    def predicate_contains_many(self, t: np.ndarray) -> np.ndarray:
        """predicate_contains at every entry of t."""
        tol = _membership_tols(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            n = np.rint(self.scale / t)
            hit = ((n >= 1) & (n <= self.count)
                   & (np.abs(self.scale / n - t) <= tol))
        return hit | (np.abs(t) <= tol)

    def label(self) -> str:
        return f"recip({_fmt(self.scale)},{self.count})"

    def canonical_args(self) -> tuple[float, ...]:
        return (self.scale, float(self.count))


Piece = ClosedInterval | ExplicitPoints | ArithmeticGrid | GeometricGrid | ReciprocalGrid


def _args_match(args: tuple[float, ...], actual: tuple[float, ...]) -> bool:
    """Whether actual begins with args, each within 1e-9 relative."""
    if len(args) > len(actual):
        return False
    return all(abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
               for a, b in zip(args, actual))


# ---------------------------------------------------------------------------
# the scale itself


class TimeScale:
    """Immutable union of pieces with jump operators and probe streams."""

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("time scale needs at least one piece")
        for p in pieces:
            if not isinstance(p, Piece.__args__):
                raise TypeError(f"not a time scale piece: {p!r}")
        # canonical order: by minimum, then label for ties
        self._pieces = tuple(sorted(pieces, key=lambda p: (p.min_value(), p.label())))

        pts = np.concatenate([p.realized() for p in self._pieces])
        pts = np.sort(pts)
        keep = []
        for v in pts:
            if not keep or v - keep[-1] > membership_tol(v):
                keep.append(float(v))
        self._points = np.array(keep)
        self._points.flags.writeable = False

        ivs = sorted(
            (p.a, p.b) for p in self._pieces if isinstance(p, ClosedInterval) and p.a < p.b
        )
        merged: list[list[float]] = []
        for a, b in ivs:
            if merged and a <= merged[-1][1] + membership_tol(a):
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self._intervals = tuple((a, b) for a, b in merged)

        lo = [self._points[0]] if len(self._points) else []
        hi = [self._points[-1]] if len(self._points) else []
        lo += [a for a, _ in self._intervals]
        hi += [b for _, b in self._intervals]
        if not lo:
            raise ValueError("time scale is empty")
        self._min = min(lo)
        self._max = max(hi)
        self._jumps = self._jumps_at(self._points)
        self._named: dict[tuple, tuple[Piece, ...]] = {}

    # -- basic accessors ----------------------------------------------------

    @property
    def pieces(self) -> tuple[Piece, ...]:
        return self._pieces

    def pieces_named(self, kind: str, args: tuple[float, ...]) -> tuple[Piece, ...]:
        """The pieces of kind whose canonical arguments begin with args,
        each equal within 1e-9 relative: the pieces a piecewise arm names.
        Resolved once per scale and kept."""
        key = (kind, args)
        hit = self._named.get(key)
        if hit is None:
            hit = self._named[key] = tuple(
                p for p in self._pieces if p.kind == kind and _args_match(
                    args, p.canonical_args()))
        return hit

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeScale) and self._pieces == other._pieces

    def __hash__(self):
        return hash(self._pieces)

    def __repr__(self):
        return f"TimeScale({', '.join(p.label() for p in self._pieces)})"

    def contains(self, t: float) -> bool:
        t = float(t)
        if not math.isfinite(t):
            return False
        for a, b in self._intervals:
            if a - membership_tol(t) <= t <= b + membership_tol(t):
                return True
        i = np.searchsorted(self._points, t)
        for j in (i - 1, i):
            if 0 <= j < len(self._points) and abs(self._points[j] - t) <= membership_tol(t):
                return True
        return False

    def _require_member(self, t: float) -> float:
        t = float(t)
        if not self.contains(t):
            raise NotInTimeScale(t)
        return t

    def snap(self, t: float) -> float:
        """Nearest realized point / interval projection of a member query."""
        t = self._require_member(t)
        for a, b in self._intervals:
            if a <= t <= b:
                return t
            if abs(t - a) <= membership_tol(t):
                return a
            if abs(t - b) <= membership_tol(t):
                return b
        i = np.searchsorted(self._points, t)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(self._points):
                d = abs(self._points[j] - t)
                if best is None or d < best[0]:
                    best = (d, float(self._points[j]))
        return best[1]

    # -- jump operators -----------------------------------------------------

    def sigma(self, t: float) -> float:
        """Forward jump: least scale point strictly above t (t itself at the max)."""
        return self.classify(t).sigma

    def rho(self, t: float) -> float:
        """Backward jump: greatest scale point strictly below t (t itself at the min)."""
        return self.classify(t).rho

    # -- the point record -----------------------------------------------------

    def _jumps_at(self, pts: np.ndarray) -> tuple[np.ndarray, ...]:
        """rho, sigma, the two density masks and the at_min/at_max masks of
        every member point in pts: the one formula for a point's record.

        The scale runs it once on its realized points and classify on a
        one-entry array for any other member. rho and sigma are the nearest
        members below and above t, beyond its membership tolerance; inside
        an interval, or with no member on a side, the jump is t itself."""
        realized = self._points
        tol = _membership_tols(pts)
        ends = np.concatenate(([-np.inf], realized, [np.inf]))
        rho = ends[np.searchsorted(realized, pts - tol)]
        sigma = ends[np.searchsorted(realized, pts + tol) + 1]
        inside_left = np.zeros(len(pts), dtype=bool)
        inside_right = np.zeros(len(pts), dtype=bool)
        for a, b in self._intervals:
            past = pts > b + tol
            rho = np.where(past, np.maximum(rho, b), rho)
            inside_left |= ~past & (pts >= a + tol)
            before = pts < a - tol
            sigma = np.where(before, np.minimum(sigma, a), sigma)
            inside_right |= ~before & (pts <= b - tol)
        rho = np.where(inside_left | (rho == -np.inf), pts, rho)
        sigma = np.where(inside_right | (sigma == np.inf), pts, sigma)
        # a side is dense only by structure: its jump is t itself, or a
        # reciprocal grid accumulates at 0 from that side
        at_zero = np.abs(pts) <= tol
        sides = {p.accumulation_side() for p in self._pieces
                 if isinstance(p, ReciprocalGrid)}
        dense_left = (rho == pts) | (at_zero & ("left" in sides))
        dense_right = (sigma == pts) | (at_zero & ("right" in sides))
        at_min = np.abs(pts - self._min) <= tol
        at_max = np.abs(pts - self._max) <= tol
        return rho, sigma, dense_left, dense_right, at_min, at_max

    def _realized_class(self, i: int) -> PointClass:
        """The record of the i-th realized point, read from the arrays."""
        return _point_class(float(self._points[i]), *(a[i] for a in self._jumps))

    def classify(self, t: float) -> PointClass:
        """Every fact about one member point: density per side, jumps and
        whether it is an extreme, all from _jumps_at.

        A realized point reads its record from the arrays built with the
        scale; any other point is checked for membership and runs the same
        formula on its own."""
        t = float(t)
        i = int(self._points.searchsorted(t))
        if i < len(self._points) and self._points[i] == t:
            return self._realized_class(i)
        t = self._require_member(t)
        return _point_class(t, *(a[0] for a in self._jumps_at(np.array([t]))))

    # -- derivative domain --------------------------------------------------

    def kappa(self) -> "TimeScale":
        """The scale minus a right-scattered minimum, if it has one."""
        m = self._min
        if self.classify(m).right is not Side.SCATTERED:
            return self
        out = []
        for p in self._pieces:
            q = _drop_min_point(p, m)
            if q is not None:
                out.append(q)
        return TimeScale(out)

    def in_kappa(self, t: float) -> bool:
        try:
            return self.classify(t).in_kappa
        except NotInTimeScale:
            return False

    def sample_points(self, n: int = 25) -> list[float]:
        """Up to n representative members, deterministic.

        Always includes the extremes (and 0 when it is a member); discrete
        generators contribute their realized points, intervals their
        endpoints and quarter points.
        """
        cand: set[float] = set(float(x) for x in self._points)
        for a, b in self._intervals:
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                cand.add(a + frac * (b - a))
        allpts = sorted(cand)
        if len(allpts) <= n:
            return allpts
        forced = {self._min, self._max}
        if self.contains(0.0):
            forced.add(self.snap(0.0))
        idx = np.linspace(0, len(allpts) - 1, n).round().astype(int).tolist()
        chosen = sorted({allpts[i] for i in idx} | forced)
        while len(chosen) > n:
            spare = next((c for c in chosen[1:-1] if c not in forced), None)
            if spare is None:
                break
            chosen.remove(spare)
        return chosen

    # -- probe streams ------------------------------------------------------

    def approach_streams(self, t: float, side: str, count: int) -> list[Stream]:
        """Labeled probe streams approaching t from one dense side.

        Every discrete generator that is local to the side contributes its own
        stream (nearest points, ordered toward t); real intervals contribute a
        synthetic geometric stream. Keeping generators separate is what makes
        distinct subsequence limits observable.
        """
        t = self._require_member(t)
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if count < 1:
            raise ValueError("count must be positive")
        mtol = membership_tol(t)

        streams: list[Stream] = []
        for a, b in self._intervals:
            if side == "right" and a - mtol <= t < b - mtol:
                gap = b - t
            elif side == "left" and a + mtol < t <= b + mtol:
                gap = t - a
            else:
                continue
            h0 = min(SYNTHETIC_H0 * max(1.0, abs(t)), gap / 2.0)
            hs = h0 * 2.0 ** (1.0 - np.arange(1, count + 1, dtype=float))
            pts = t + hs if side == "right" else t - hs
            streams.append(
                Stream(f"interval({_fmt(a)},{_fmt(b)})", tuple(float(x) for x in pts), True)
            )

        discrete: list[tuple[str, tuple[float, ...], float, bool]] = []
        for p in self._pieces:
            if isinstance(p, ClosedInterval):
                continue
            pts = p.realized()
            if side == "right":
                sel = pts[pts > t + mtol][:count]
                if len(sel) == 0:
                    continue
                ordered = tuple(float(x) for x in sel[::-1])
                dist = float(sel[0] - t)
            else:
                sel = pts[pts < t - mtol][-count:]
                if len(sel) == 0:
                    continue
                ordered = tuple(float(x) for x in sel)
                dist = float(t - sel[-1])
            accum = (
                isinstance(p, ReciprocalGrid)
                and abs(t) <= mtol
                and p.accumulation_side() == side
            )
            discrete.append((p.label(), ordered, dist, accum))

        if discrete:
            dmin = min(d for _, _, d, _ in discrete)
            for s in streams:
                dmin = min(dmin, abs(s.points[-1] - t))
            window = max(NEIGHBOR_WINDOW * dmin, mtol)
            for label, ordered, dist, accum in discrete:
                if accum or dist <= window:
                    streams.append(Stream(label, ordered, False))
        return streams

    def left_scattered_points(self) -> list[float]:
        """Realized points of the derivative domain with a backward jump."""
        _, _, dense_left, dense_right, at_min, _ = self._jumps
        in_kappa = ~(at_min & ~dense_right)
        return self._points[in_kappa & ~dense_left].tolist()


def _drop_min_point(p: Piece, m: float) -> Piece | None:
    """Piece with the global minimum point m removed (None if emptied)."""
    tol = membership_tol(m)
    if isinstance(p, ClosedInterval):
        if p.a == p.b and abs(p.a - m) <= tol:
            return None
        return p  # a < b: the left endpoint is right-dense, never dropped
    if isinstance(p, ExplicitPoints):
        vals = tuple(v for v in p.values if abs(v - m) > tol)
        return ExplicitPoints(vals) if vals else None
    if isinstance(p, ArithmeticGrid):
        if abs(p.start - m) <= tol:
            if p._count() <= 1:
                return None
            return ArithmeticGrid(p.start + p.step, p.stop, p.step)
        return p
    if isinstance(p, GeometricGrid):
        if abs(p.base**p.kmin - m) <= tol:
            if p.kmin == p.kmax:
                return None
            return GeometricGrid(p.base, p.kmin + 1, p.kmax)
        return p
    if isinstance(p, ReciprocalGrid):
        if p.scale > 0 and abs(p.scale / p.count - m) <= tol:
            if p.count == 1:
                return None
            return ReciprocalGrid(p.scale, p.count - 1)
        if p.scale < 0 and abs(p.scale - m) <= tol:
            if p.count == 1:
                return None
            # dropping n=1 shifts the family; fall back to explicit points
            return ExplicitPoints(tuple(p.scale / n for n in range(2, p.count + 1)))
        return p
    return p
