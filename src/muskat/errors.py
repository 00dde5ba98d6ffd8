"""Exception types shared across the library."""


class MuskatError(Exception):
    """Base class for all library-specific errors."""


class DomainError(MuskatError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class OutOfRangeError(MuskatError, ValueError):
    """A branch parameter lies outside its feasible window."""

    def __init__(self, value, window, message=None):
        self.value = value
        self.window = window
        if message is None:
            message = (
                f"lambda={value:.12g} outside feasible window "
                f"({window[0]:.12g}, {window[1]:.12g}]"
            )
        super().__init__(message)


class SaturationError(MuskatError, RuntimeError):
    """Raised by nothing: the slope solves resolve the whole branch window.  Kept for callers that catch it."""


class ConvergenceError(MuskatError, RuntimeError):
    """An iteration hit its step bound before reaching its tolerance."""


class ParityError(MuskatError, ValueError):
    """A profile does not have the parity required by the operation."""


class SingularityError(MuskatError, RuntimeError):
    """A pendulum angle approaches +/- pi/2 too closely for the tangent map."""


class ConfigError(MuskatError, ValueError):
    """A run-configuration field failed validation; the message names the field."""
