"""Exception types shared by all catphase modules."""

__all__ = [
    "CatPhaseError", "NullStateError", "DomainError", "NoConvergenceError", "CutoffTooSmallError"
]


class CatPhaseError(Exception):
    """Base class for every error raised by this package."""


class NullStateError(CatPhaseError, ValueError):
    """The requested superposition has (numerically) zero norm."""


class DomainError(CatPhaseError, ValueError):
    """An argument lies outside the domain an operation supports."""


class NoConvergenceError(CatPhaseError, RuntimeError):
    """A series or iteration failed to converge within its cap."""


class CutoffTooSmallError(CatPhaseError, ValueError):
    """A Fock-space truncation is too small for the requested accuracy."""
