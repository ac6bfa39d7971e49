"""Exception taxonomy shared across the package."""

from __future__ import annotations


class FuzzyNablaError(Exception):
    """Base class for all package errors."""


class NotInTimeScale(FuzzyNablaError):
    """A queried point is not a member of the time scale."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"point {t!r} is not in the time scale")


class EmptySide(FuzzyNablaError):
    """No points of the time scale lie on the requested side of t."""


class NotInDomain(FuzzyNablaError):
    """Derivative queried at a point outside the derivative domain."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"point {t!r} is outside the derivative domain")


class OrderViolation(FuzzyNablaError):
    """Triangular parameters out of order (requires a <= b <= c)."""


class GridMismatch(FuzzyNablaError):
    """Binary operation on fuzzy numbers with different level grids."""


class AlphaOutOfRange(FuzzyNablaError):
    """Membership level outside [0, 1]."""


class GhNonexistent(FuzzyNablaError):
    """A required generalized set difference does not exist."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class LimitDisagreement(FuzzyNablaError):
    """One-sided limit estimates disagree beyond the agreement tolerance."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class EndpointDerivativeMissing(FuzzyNablaError):
    """An endpoint derivative required two-sidedly does not exist."""


class SignHypothesisFailed(FuzzyNablaError):
    """Sign condition f(t)*f'(t) required by a product rule does not hold."""


class LengthDirectionUndetermined(FuzzyNablaError):
    """Probes disagree on whether the product's length grows or shrinks."""


class DslSyntaxError(FuzzyNablaError):
    """Positioned syntax error from the expression/scale parser."""

    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        what = f", found {found}" if found else ""
        super().__init__(f"line {line}, col {col}: expected {expected}{what}")


class ValidationError(FuzzyNablaError):
    """A parsed definition fails its invariants at a sample point, or a
    level count is not one."""

    def __init__(self, message: str, sample: dict | None = None):
        self.sample = sample
        super().__init__(message)
