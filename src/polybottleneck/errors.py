"""Exception types shared across the package."""


class PolyBottleneckError(Exception):
    """Base class for all package-specific errors."""


class GameFormatError(PolyBottleneckError):
    """A game description (file or constructor input) is invalid."""


class UsageError(PolyBottleneckError, ValueError):
    """A parameter or command-line option is invalid."""


class InvalidProfileError(PolyBottleneckError):
    """A strategy profile does not match the game it is used with."""


class StateSpaceTooLargeError(PolyBottleneckError):
    """The product strategy space exceeds the configured enumeration cap, or
    another fixed size limit (resources, delay-table entry bits)."""


class NonConvergenceError(PolyBottleneckError):
    """Best-response dynamics exhausted its step budget."""


class PreconditionError(PolyBottleneckError):
    """An operation was invoked on input that violates its contract."""


class StructuralError(PolyBottleneckError):
    """An internal invariant broke; carries diagnostics."""

    def __init__(self, message: str, state: dict | None = None):
        super().__init__(message)
        self.state = state or {}


class DominationError(PolyBottleneckError):
    """A transformed game failed one of the domination checks."""
