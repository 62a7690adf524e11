"""Typed errors raised on violated preconditions."""


class DslforgeError(Exception):
    """Base class for all errors raised by this package."""


class NonzeroLowWeight(DslforgeError):
    """Input has nonzero coefficients at weight 0 or 1 where none are allowed."""


class NonUnitConstant(DslforgeError):
    """Constant term is not 1."""


class NonzeroConstant(DslforgeError):
    """Constant term is not 0."""


class NotInTm1(DslforgeError):
    """Series is not in the Lie-algebra shape: coefficient of x1 and of every
    power of x0 (including the empty word) must vanish."""


class NotInTM1(DslforgeError):
    """Series is not in the group shape: coefficient of x1 must be 1 and every
    power of x0 (including the empty word) must have coefficient 0."""


class NotPrimitive(DslforgeError):
    """Series fails the shuffle primitivity test."""


class NotInImage(DslforgeError):
    """Linear system for the bracketing preimage is inconsistent."""


class PreconditionViolation(DslforgeError):
    """Generic precondition failure with a descriptive message."""
