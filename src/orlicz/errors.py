"""Exception types shared across the package."""

__all__ = ["OrliczError", "DomainError", "InputError", "NumericError"]


class OrliczError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OrliczError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InputError(OrliczError, ValueError):
    """Structurally invalid input: bad grids, misaligned data, malformed files."""


class NumericError(OrliczError, RuntimeError):
    """A numerical routine failed to converge; the message carries diagnostics."""
