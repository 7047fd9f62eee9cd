"""Exception types shared across the package."""


class PadrootError(Exception):
    """Base class for all package errors."""


class ParseError(PadrootError):
    """Malformed polynomial text; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DuplicateExponent(ParseError):
    """Two terms of the input share an exponent; merging is never silent."""


class PreconditionFailed(PadrootError):
    """An operation's mathematical precondition does not hold for the input."""


class PrecisionExhausted(PadrootError):
    """The requested result cannot be produced at the available precision."""


class CapExceeded(PadrootError):
    """A configurable size cap (exponent bound, enumeration bound) was hit."""


class SearchExhausted(PadrootError):
    """A bounded constructive search ran out of candidates.

    Carries the search trace so the failure is reportable, not silent.
    """

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)


class InternalError(PadrootError):
    """An invariant the library guarantees was violated; always a bug."""
