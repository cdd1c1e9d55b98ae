"""Exception types shared across the package."""

__all__ = [
    "MTLabError",
    "InvalidParameterError",
    "SeriesOverflowError",
    "DegenerateProfileError",
    "GridOverflowError",
    "BracketNotFoundError",
]


class MTLabError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(MTLabError, ValueError):
    """A parameter violates a documented precondition."""


class SeriesOverflowError(MTLabError, OverflowError):
    """A value leaves the floating range: e^t of a series argument, or a power sum of a norm."""


class DegenerateProfileError(MTLabError, ValueError):
    """An operation requires a nonzero profile (or nonzero norm) and got none."""


class GridOverflowError(MTLabError, ValueError):
    """A rescaled grid would exceed the configured radial bounds."""


class BracketNotFoundError(MTLabError, RuntimeError):
    """No parameter value in the searched range certified the tested property."""
