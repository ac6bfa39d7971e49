"""A small expression language for time scales and fuzzy-valued functions.

Time scale specs name generator pieces:

    union(recip(1,10000), recip(sqrt2,10000), points(0))
    interval(0, 1)
    hgrid(0, 10, 0.5)
    qgrid(2, 0, 12)

Function specs build level sets from arithmetic in t (and alpha, for raw
endpoint definitions):

    tri((t^2+1)*1, t^2+2, t^2+4)
    endpoints(t + alpha; 3*t - alpha)

Scalar arithmetic supports + - * / ^ (integer powers), unary minus, sqrt,
the names t, alpha, sqrt2, pi, and piecewise(...) whose arms dispatch on
which generator piece the argument belongs to:

    piecewise(in recip(1) => -2, in recip(sqrt2) => t-2)

There is no implicit multiplication. Parse errors carry line and column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DslSyntaxError, OrderViolation, ValidationError
from .fuzzy import FuzzyNumber, alpha_grid
from .timescale import (
    MAX_GRID_POINTS,
    ArithmeticGrid,
    ClosedInterval,
    ExplicitPoints,
    GeometricGrid,
    ReciprocalGrid,
    TimeScale,
    _fmt,
)

SQRT2 = math.sqrt(2.0)

# deepest syntax tree, and deepest nesting of parentheses, arguments and
# unary minus, the parser accepts; parsing, evaluation and printing recurse
# once per level
MAX_DEPTH = 100

_CONSTANTS = {"sqrt2": SQRT2, "pi": math.pi}


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str  # NUM NAME PUNCT ARROW END
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "=" and i + 1 < n and src[i + 1] == ">":
            toks.append(Token("ARROW", "=>", line, col))
            i += 2
            col += 2
            continue
        if c in "(),;+-*/^":
            toks.append(Token("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                ch = src[j]
                if ch.isdigit():
                    j += 1
                elif ch == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif ch in "eE" and not seen_exp and j > i:
                    if j + 1 < n and (src[j + 1].isdigit() or
                                      (src[j + 1] in "+-" and j + 2 < n and src[j + 2].isdigit())):
                        seen_exp = True
                        j += 2 if src[j + 1] in "+-" else 1
                    else:
                        break
                else:
                    break
            toks.append(Token("NUM", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Token("NAME", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(line, col, "a token", repr(c))
    toks.append(Token("END", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Name(Expr):
    ident: str  # t | alpha | sqrt2 | pi


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True)
class PieceRef:
    """A generator piece named by kind and leading canonical arguments."""

    kind: str
    args: tuple[float, ...]

    def label(self) -> str:
        inner = ",".join(_fmt(a) for a in self.args)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class Arm:
    piece: PieceRef
    body: Expr


@dataclass(frozen=True)
class Piecewise(Expr):
    arms: tuple[Arm, ...]


@dataclass(frozen=True)
class TriDef:
    left: Expr
    peak: Expr
    right: Expr


@dataclass(frozen=True)
class EndpointsDef:
    lower: Expr
    upper: Expr


FuzzyFuncDef = TriDef | EndpointsDef


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0  # expressions and unary minuses being parsed
        self.height = 0  # syntax-tree height of the last expression parsed

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def _fail(self, expected: str):
        t = self.cur
        found = repr(t.text) if t.kind != "END" else "end of input"
        raise DslSyntaxError(t.line, t.col, expected, found)

    def eat(self, text: str | None = None, kind: str | None = None) -> Token:
        t = self.cur
        if kind is not None and t.kind != kind:
            self._fail(text or kind)
        if text is not None and t.text != text:
            self._fail(repr(text))
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("PUNCT", "NAME")

    def done(self) -> bool:
        return self.cur.kind == "END"

    def _too_deep(self, tok: Token):
        raise DslSyntaxError(tok.line, tok.col,
                             f"an expression at most {MAX_DEPTH} levels deep",
                             repr(tok.text))

    def _nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self._too_deep(self.cur)

    def _grow(self, tok: Token, *heights: int) -> int:
        """Height of a node with children of the given heights, built at tok."""
        h = 1 + max(heights)
        if h > MAX_DEPTH:
            self._too_deep(tok)
        return h

    # numbers ---------------------------------------------------------------

    def number(self) -> float:
        neg = False
        while self.at("-"):
            self.eat("-")
            neg = not neg
        t = self.cur
        if t.kind == "NUM":
            self.pos += 1
            val = float(t.text)
        elif t.kind == "NAME" and t.text in _CONSTANTS:
            self.pos += 1
            val = _CONSTANTS[t.text]
        else:
            self._fail("a number")
        if not math.isfinite(val):
            raise DslSyntaxError(t.line, t.col, "a finite number", repr(t.text))
        return -val if neg else val

    def integer(self) -> int:
        t = self.cur
        val = self.number()
        if val != int(val):
            raise DslSyntaxError(t.line, t.col, "an integer", repr(t.text))
        return int(val)

    # time scale pieces -----------------------------------------------------

    def piece(self):
        t = self.cur
        if t.kind != "NAME":
            self._fail("a piece (interval, points, hgrid, qgrid, recip)")
        name = t.text
        if name == "interval":
            self.eat("interval")
            self.eat("(")
            a = self.number()
            self.eat(",")
            b = self.number()
            self.eat(")")
            if b < a or not math.isfinite(b - a):
                raise DslSyntaxError(t.line, t.col,
                                     "interval(a,b) with a <= b and a finite width",
                                     f"a={_fmt(a)}, b={_fmt(b)}")
            return ClosedInterval(a, b)
        if name == "points":
            self.eat("points")
            self.eat("(")
            vals = [self.number()]
            while self.at(","):
                self.eat(",")
                vals.append(self.number())
            self.eat(")")
            return ExplicitPoints(tuple(vals))
        if name == "hgrid":
            self.eat("hgrid")
            self.eat("(")
            a = self.number()
            self.eat(",")
            b = self.number()
            self.eat(",")
            h = self.number()
            self.eat(")")
            if h <= 0 or b < a:
                raise DslSyntaxError(t.line, t.col,
                                     "hgrid(start,stop,step) with step > 0 and stop >= start",
                                     f"start={_fmt(a)}, stop={_fmt(b)}, step={_fmt(h)}")
            return self._grid(t, ArithmeticGrid, a, b, h)
        if name == "qgrid":
            self.eat("qgrid")
            self.eat("(")
            q = self.number()
            self.eat(",")
            kmin = self.integer()
            self.eat(",")
            kmax = self.integer()
            self.eat(")")
            if q <= 1 or kmax < kmin:
                raise DslSyntaxError(t.line, t.col,
                                     "qgrid(q,kmin,kmax) with q > 1 and kmax >= kmin",
                                     f"q={_fmt(q)}, kmin={kmin}, kmax={kmax}")
            return self._grid(t, GeometricGrid, q, kmin, kmax)
        if name == "recip":
            self.eat("recip")
            self.eat("(")
            scale = self.number()
            self.eat(",")
            tok = self.cur
            count = self.integer()
            self.eat(")")
            if scale == 0.0:
                raise DslSyntaxError(t.line, t.col, "recip(scale,count) with scale != 0", "0")
            if count < 1:
                raise DslSyntaxError(tok.line, tok.col, "a positive count", repr(tok.text))
            return self._grid(t, ReciprocalGrid, scale, count)
        self._fail("a piece (interval, points, hgrid, qgrid, recip)")

    def _grid(self, tok: Token, cls, *args):
        # the arguments passed the checks above; what is left is the
        # realized points: not too many, in the float range and resolvable
        try:
            return cls(*args)
        except ValueError as err:
            raise DslSyntaxError(tok.line, tok.col,
                                 f"at most {MAX_GRID_POINTS} finite grid points "
                                 "farther apart than the membership tolerance",
                                 str(err)) from None

    def timescale(self) -> TimeScale:
        if self.at("union"):
            self.eat("union")
            self.eat("(")
            pieces = [self.piece()]
            while self.at(","):
                self.eat(",")
                pieces.append(self.piece())
            self.eat(")")
        else:
            pieces = [self.piece()]
        return TimeScale(pieces)

    # expressions -----------------------------------------------------------

    def expr(self, allow_alpha: bool) -> Expr:
        self._nest()
        node = self.term(allow_alpha)
        height = self.height
        while self.at("+") or self.at("-"):
            tok = self.eat()
            rhs = self.term(allow_alpha)
            height = self._grow(tok, height, self.height)
            node = BinOp(tok.text, node, rhs)
        self.depth -= 1
        self.height = height
        return node

    def term(self, allow_alpha: bool) -> Expr:
        node = self.unary(allow_alpha)
        height = self.height
        while self.at("*") or self.at("/"):
            tok = self.eat()
            rhs = self.unary(allow_alpha)
            height = self._grow(tok, height, self.height)
            node = BinOp(tok.text, node, rhs)
        self.height = height
        return node

    def unary(self, allow_alpha: bool) -> Expr:
        if self.at("-"):
            tok = self.eat("-")
            self._nest()
            arg = self.unary(allow_alpha)
            self.depth -= 1
            if isinstance(arg, Const):
                return Const(-arg.value)
            self.height = self._grow(tok, self.height)
            return Neg(arg)
        return self.power(allow_alpha)

    def power(self, allow_alpha: bool) -> Expr:
        base = self.atom(allow_alpha)
        if self.at("^"):
            caret = self.eat("^")
            t = self.cur
            neg = False
            if self.at("-"):
                self.eat("-")
                neg = True
            if self.cur.kind != "NUM":
                self._fail("an integer exponent")
            etok = self.eat(kind="NUM")
            val = float(etok.text)
            if not math.isfinite(val) or val != int(val):
                raise DslSyntaxError(t.line, t.col, "an integer exponent", repr(etok.text))
            e = -int(val) if neg else int(val)
            self.height = self._grow(caret, self.height, 1)
            return BinOp("^", base, Const(float(e)))
        return base

    def atom(self, allow_alpha: bool) -> Expr:
        t = self.cur
        if t.kind == "NUM":
            self.pos += 1
            self.height = 1
            return Const(float(t.text))
        if self.at("("):
            self.eat("(")
            node = self.expr(allow_alpha)
            self.eat(")")
            return node
        if t.kind == "NAME":
            if t.text == "sqrt":
                self.eat("sqrt")
                self.eat("(")
                node = self.expr(allow_alpha)
                self.eat(")")
                self.height = self._grow(t, self.height)
                return Sqrt(node)
            if t.text == "piecewise":
                return self.piecewise(allow_alpha)
            if t.text == "t":
                self.pos += 1
                self.height = 1
                return Name("t")
            if t.text == "alpha":
                if not allow_alpha:
                    raise DslSyntaxError(t.line, t.col,
                                         "an expression in t (alpha is only "
                                         "available in endpoints definitions)",
                                         "'alpha'")
                self.pos += 1
                self.height = 1
                return Name("alpha")
            if t.text in _CONSTANTS:
                self.pos += 1
                self.height = 1
                return Name(t.text)
        self._fail("a number, name, or '('")

    def piecewise(self, allow_alpha: bool) -> Piecewise:
        t = self.eat("piecewise")
        self.eat("(")
        arms = [self.arm(allow_alpha)]
        height = self.height
        while self.at(","):
            self.eat(",")
            arms.append(self.arm(allow_alpha))
            height = max(height, self.height)
        self.eat(")")
        self.height = self._grow(t, height)
        return Piecewise(tuple(arms))

    def arm(self, allow_alpha: bool) -> Arm:
        self.eat("in")
        ref = self.piece_ref()
        self.eat("=>")
        body = self.expr(allow_alpha)
        return Arm(ref, body)

    def piece_ref(self) -> PieceRef:
        t = self.cur
        if t.kind != "NAME" or t.text not in ("interval", "points", "hgrid", "qgrid", "recip"):
            self._fail("a piece name (interval, points, hgrid, qgrid, recip)")
        kind = self.eat().text
        args: list[float] = []
        if self.at("("):
            self.eat("(")
            if not self.at(")"):
                args.append(self.number())
                while self.at(","):
                    self.eat(",")
                    args.append(self.number())
            self.eat(")")
        return PieceRef(kind, tuple(args))

    # function definitions ----------------------------------------------------

    def fundef(self) -> FuzzyFuncDef:
        t = self.cur
        if self.at("tri"):
            self.eat("tri")
            self.eat("(")
            a = self.expr(False)
            self.eat(",")
            b = self.expr(False)
            self.eat(",")
            c = self.expr(False)
            self.eat(")")
            return TriDef(a, b, c)
        if self.at("endpoints"):
            self.eat("endpoints")
            self.eat("(")
            lo = self.expr(True)
            self.eat(";")
            hi = self.expr(True)
            self.eat(")")
            return EndpointsDef(lo, hi)
        self._fail("'tri' or 'endpoints'")


def _finish(p: _Parser, what):
    if not p.done():
        p._fail("end of input")
    return what


def parse_timescale(src: str) -> TimeScale:
    p = _Parser(src)
    return _finish(p, p.timescale())


def parse_scalar(src: str) -> Expr:
    p = _Parser(src)
    return _finish(p, p.expr(False))


def parse_function(src: str) -> FuzzyFuncDef:
    p = _Parser(src)
    return _finish(p, p.fundef())


# ---------------------------------------------------------------------------
# canonical printing


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print_expr(e: Expr, parent: int = 0) -> str:
    if isinstance(e, Const):
        s = _fmt(e.value)
        # a leading minus binds looser than ^, so -2^4 would reparse as -(2^4)
        if e.value < 0 and parent > _PREC["neg"]:
            return f"({s})"
        return s
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Sqrt):
        return f"sqrt({_print_expr(e.arg)})"
    if isinstance(e, Piecewise):
        arms = ", ".join(
            f"in {a.piece.label()} => {_print_expr(a.body)}" for a in e.arms
        )
        return f"piecewise({arms})"
    if isinstance(e, Neg):
        inner = _print_expr(e.arg, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent > _PREC["neg"] else s
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        if e.op == "^":
            base = _print_expr(e.left, prec + 1)
            return f"{base}^{_fmt(e.right.value)}"
        left = _print_expr(e.left, prec)
        # binary ops parse left-associative: a right child at the same
        # precedence level must keep its parens to round-trip structurally
        right = _print_expr(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if parent > prec else s
    raise TypeError(f"not an expression: {e!r}")


def print_canonical(obj) -> str:
    """One canonical text form; parsing it back yields an equal tree."""
    if isinstance(obj, TriDef):
        parts = ", ".join(_print_expr(x) for x in (obj.left, obj.peak, obj.right))
        return f"tri({parts})"
    if isinstance(obj, EndpointsDef):
        return f"endpoints({_print_expr(obj.lower)}; {_print_expr(obj.upper)})"
    if isinstance(obj, Expr):
        return _print_expr(obj)
    if isinstance(obj, TimeScale):
        inner = ", ".join(p.label() for p in obj.pieces)
        return f"union({inner})" if len(obj.pieces) > 1 else inner
    raise TypeError(f"cannot print {type(obj).__name__}")


# ---------------------------------------------------------------------------
# evaluation


def _arm_applies(ref: PieceRef, ts: TimeScale | None, t: float) -> bool:
    if ts is None:
        return False
    for piece in ts.pieces_named(ref.kind, ref.args):
        if (piece.predicate_contains(t) if isinstance(piece, ReciprocalGrid)
                else piece.contains(t)):
            return True
    return False


def eval_expr(e: Expr, t: float, alpha=None, ts: TimeScale | None = None):
    """Evaluate at scalar t; alpha may be an array (results broadcast).

    Numpy arithmetic (alpha arrays) runs under np.errstate: a level that
    overflows, or is 0 * inf, comes out inf or NaN, and FuzzyNumber
    validation rejects it, as in the compiled form. Float arithmetic
    raises where it fails."""
    if alpha is None and not isinstance(t, (np.ndarray, np.generic)):
        return _eval(e, t, None, ts)
    with np.errstate(all="ignore"):
        return _eval(e, t, alpha, ts)


def _eval(e: Expr, t: float, alpha, ts: TimeScale | None):
    """eval_expr, without its np.errstate."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Name):
        if e.ident == "t":
            return t
        if e.ident == "alpha":
            if alpha is None:
                raise ValidationError("alpha used outside an endpoints definition")
            return alpha
        return _CONSTANTS[e.ident]
    if isinstance(e, Neg):
        return -_eval(e.arg, t, alpha, ts)
    if isinstance(e, Sqrt):
        v = _eval(e.arg, t, alpha, ts)
        # a float is tested in Python: numpy costs microseconds on one value
        if v < 0 if isinstance(v, float) else np.any(np.asarray(v) < 0):
            raise ValidationError("sqrt of a negative value", sample={"t": t})
        return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
    if isinstance(e, Piecewise):
        for arm in e.arms:
            if _arm_applies(arm.piece, ts, t):
                return _eval(arm.body, t, alpha, ts)
        raise ValidationError(
            f"no piecewise arm covers t={t!r}", sample={"t": t})
    if isinstance(e, BinOp):
        a = _eval(e.left, t, alpha, ts)
        b = _eval(e.right, t, alpha, ts)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0 if isinstance(b, float) else np.any(np.asarray(b) == 0):
                raise ValidationError("division by zero", sample={"t": t})
            return a / b
        if e.op == "^":
            try:
                return a ** int(b)
            except ArithmeticError as err:  # float overflow, or 0 to a negative power
                raise ValidationError(f"power fails at t={t!r}: {err}",
                                      sample={"t": t}) from None
    raise TypeError(f"not an expression: {e!r}")


def eval_function(d: FuzzyFuncDef, t: float, K: int = 100,
                  ts: TimeScale | None = None) -> FuzzyNumber:
    """Evaluate a definition at one point on a K-level grid."""
    if isinstance(d, TriDef):
        a = float(eval_expr(d.left, t, None, ts))
        b = float(eval_expr(d.peak, t, None, ts))
        c = float(eval_expr(d.right, t, None, ts))
        if not (a <= b <= c):
            raise ValidationError(
                f"tri endpoints out of order at t={t!r}: "
                f"({_fmt(a)}, {_fmt(b)}, {_fmt(c)})",
                sample={"t": t, "left": a, "peak": b, "right": c})
        grid = alpha_grid(K)
        return FuzzyNumber(a + grid * (b - a), c + grid * (b - c))
    grid = alpha_grid(K)
    lo = np.broadcast_to(np.asarray(eval_expr(d.lower, t, grid, ts), dtype=float), grid.shape)
    hi = np.broadcast_to(np.asarray(eval_expr(d.upper, t, grid, ts), dtype=float), grid.shape)
    return FuzzyNumber(np.array(lo, dtype=float), np.array(hi, dtype=float))


# ---------------------------------------------------------------------------
# vector evaluation
#
# A compiled expression evaluates at a column of points t, shape (n, 1), and
# a row of levels alpha, shape (1, K+1), in one pass. Its value broadcasts
# to (n, K+1): (n, 1) when it depends on t alone, (1, K+1) on alpha alone, a
# float on neither. With the value comes a mask of the n rows where
# eval_expr raises (None when no row can fail); the values in those rows are
# meaningless. Every operation is the one eval_expr applies to the same
# operands, so each row is bit for bit eval_expr's value at that t.


class _NotCompiled(Exception):
    """An expression outside the vector form: a non-constant exponent, or a
    power of a piecewise whose arms are alpha arrays at some points only."""


def _alpha_kind(e: Expr) -> str:
    """Whether eval_expr's value of e is an alpha array at "always",
    "never" or only "some" points (a piecewise whose arms differ)."""
    if isinstance(e, Name):
        return "always" if e.ident == "alpha" else "never"
    if isinstance(e, BinOp):
        kinds = {_alpha_kind(e.left), _alpha_kind(e.right)}
        return ("always" if "always" in kinds
                else "some" if "some" in kinds else "never")
    if isinstance(e, (Neg, Sqrt)):
        return _alpha_kind(e.arg)
    if isinstance(e, Piecewise):
        kinds = {_alpha_kind(a.body) for a in e.arms}
        return kinds.pop() if len(kinds) == 1 else "some"
    return "never"


def _rows(cond, n: int) -> np.ndarray:
    """The rows (of n) where cond holds at some level."""
    cond = np.asarray(cond)
    if cond.ndim == 0:
        return np.full(n, bool(cond))
    return np.broadcast_to(cond.any(axis=1), (n,))


def _either(a, b):
    if a is None:
        return b
    return a if b is None else a | b


def _compile(e: Expr, ts: TimeScale):
    """e as a function (t, alpha) -> (value, failing rows); see above."""
    if isinstance(e, Const):
        v = e.value
        return lambda t, alpha: (v, None)
    if isinstance(e, Name):
        if e.ident == "t":
            return lambda t, alpha: (t, None)
        if e.ident == "alpha":
            return lambda t, alpha: ((0.0, _rows(True, len(t))) if alpha is None
                                     else (alpha, None))
        v = _CONSTANTS[e.ident]
        return lambda t, alpha: (v, None)
    if isinstance(e, Neg):
        arg = _compile(e.arg, ts)

        def neg(t, alpha):
            v, bad = arg(t, alpha)
            return -v, bad
        return neg
    if isinstance(e, Sqrt):
        return _compile_sqrt(_compile(e.arg, ts))
    if isinstance(e, Piecewise):
        return _compile_piecewise(e, ts)
    if isinstance(e, BinOp):
        left, right = _compile(e.left, ts), _compile(e.right, ts)
        if e.op == "^":
            if not isinstance(e.right, Const):
                raise _NotCompiled
            return _compile_power(left, int(e.right.value), _alpha_kind(e.left))
        return _compile_arith(e.op, left, right)
    raise TypeError(f"not an expression: {e!r}")


def _compile_sqrt(arg):
    def sqrt(t, alpha):
        v, bad = arg(t, alpha)
        if isinstance(v, float):
            if v < 0:
                return math.nan, _rows(True, len(t))
            return math.sqrt(v), bad
        return np.sqrt(v), _either(bad, _rows(v < 0, len(t)))
    return sqrt


def _compile_arith(op: str, left, right):
    def arith(t, alpha):
        a, bad_a = left(t, alpha)
        b, bad_b = right(t, alpha)
        bad = _either(bad_a, bad_b)
        if op == "+":
            return a + b, bad
        if op == "-":
            return a - b, bad
        if op == "*":
            return a * b, bad
        zero = _rows(np.asarray(b) == 0, len(t))
        if isinstance(a, float) and isinstance(b, float) and b == 0:
            return math.nan, zero
        return a / b, _either(bad, zero)
    return arith


def _power_float(x: float, e: int) -> tuple[float, bool]:
    try:
        return x ** e, False
    except ArithmeticError:  # overflow, or 0 to a negative power
        return math.nan, True


def _compile_power(base, e: int, alpha_kind: str):
    if alpha_kind == "some":
        # eval_expr takes numpy's power at some points and float ** int at
        # others, which a mask of rows does not follow
        raise _NotCompiled

    def power(t, alpha):
        v, bad = base(t, alpha)
        if isinstance(v, float):
            x, fails = _power_float(v, e)
            return x, _either(bad, _rows(fails, len(t)))
        if alpha_kind == "always":
            # eval_expr raises an array to the power: numpy's power, which
            # gives the same bits for a row and for a stack of rows
            return v ** e, bad
        # eval_expr's float ** int, point by point: numpy's power differs
        # from it in the last bit for a few percent of inputs
        col = v[:, 0].tolist()
        try:
            return np.array([x ** e for x in col]).reshape(-1, 1), bad
        except ArithmeticError:
            vals, fails = zip(*(_power_float(x, e) for x in col))
            return (np.array(vals).reshape(-1, 1),
                    _either(bad, np.array(fails)))
    return power


def _arm_mask(pieces: tuple, t: np.ndarray) -> np.ndarray:
    """_arm_applies at every entry of t, for the pieces an arm names: in
    one pass for a reciprocal grid, point by point for the others."""
    hit = np.zeros(len(t), dtype=bool)
    for piece in pieces:
        if isinstance(piece, ReciprocalGrid):
            hit |= piece.predicate_contains_many(t)
        else:
            hit |= np.array([piece.contains(x) for x in t.tolist()], dtype=bool)
    return hit


def _compile_piecewise(e: Piecewise, ts: TimeScale):
    arms = [(ts.pieces_named(a.piece.kind, a.piece.args), _compile(a.body, ts))
            for a in e.arms]

    def piecewise(t, alpha):
        n = len(t)
        free = np.ones(n, dtype=bool)  # rows no earlier arm took
        parts = []
        for pieces, body in arms:
            took = free & _arm_mask(pieces, t[:, 0])
            if took.any():
                parts.append((took, *body(t[took], alpha)))
                free &= ~took
        width = max((np.shape(v)[1] for _, v, _ in parts if np.ndim(v)),
                    default=1)
        out = np.full((n, width), math.nan)
        bad = free.copy()  # no arm covers these rows
        for took, v, b in parts:
            out[took] = v
            if b is not None:
                bad[took] |= b
        return out, bad
    return piecewise


def compile_function(d: FuzzyFuncDef, ts: TimeScale, K: int = 100):
    """The definition as a vector form of eval_function: a function of a
    vector of points t that returns the (len(t), K+1) lower and upper level
    stacks, row i bit for bit eval_function(d, t[i], K, ts). Where
    eval_function raises, it raises the error eval_function raises at the
    first such t. None when the definition has no vector form."""
    exprs = ((d.left, d.peak, d.right) if isinstance(d, TriDef)
             else (d.lower, d.upper))
    try:
        fns = [_compile(x, ts) for x in exprs]
    except _NotCompiled:
        return None
    grid = alpha_grid(K)

    def levels(t):
        t = np.asarray(t, dtype=float)
        col = t.reshape(-1, 1)
        n = len(t)
        with np.errstate(all="ignore"):
            if isinstance(d, TriDef):
                (a, ba), (b, bb), (c, bc) = (fn(col, None) for fn in fns)
                a, b, c = (np.broadcast_to(x, col.shape) for x in (a, b, c))
                bad = _either(_either(ba, bb), bc)
                bad = _either(bad, _rows(~((a <= b) & (b <= c)), n))
                lo, hi = a + grid * (b - a), c + grid * (b - c)
            else:
                (lo, bl), (hi, bh) = (fn(col, grid.reshape(1, -1)) for fn in fns)
                bad = _either(bl, bh)
                lo = np.array(np.broadcast_to(lo, (n, K + 1)), dtype=float)
                hi = np.array(np.broadcast_to(hi, (n, K + 1)), dtype=float)
        if bad is not None and bad.any():
            eval_function(d, float(t[int(np.argmax(bad))]), K, ts)
            raise AssertionError("eval_function does not fail where its vector form does")
        return lo, hi
    return levels


def bind_function(d: FuzzyFuncDef, ts: TimeScale, K: int = 100):
    """Attach a definition to a scale, validating it on sampled members.

    Evaluates the definition, as every read does (eval_function), at up to
    25 sampled members in order (always including min, max and 0 when
    present). The first member where it fails raises ValidationError naming
    that t. Returns a FuzzyFunction with the definition's vector form.
    """
    from .nabla import FuzzyFunction

    alpha_grid(K)  # a bad level count is refused by name, not blamed on d

    def fn(t: float) -> FuzzyNumber:
        return eval_function(d, t, K, ts)

    for t in ts.sample_points(25):
        try:
            fn(t)
        except (ValidationError, OrderViolation) as err:
            raise ValidationError(f"definition is invalid at t={t!r}: {err}",
                                  sample=getattr(err, "sample", None) or {"t": t}) from None

    return FuzzyFunction(fn, K=K, vector=compile_function(d, ts, K))
