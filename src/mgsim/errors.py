"""Exception hierarchy shared across the package."""


class MgsimError(Exception):
    """Base class for all domain errors raised by mgsim."""


class DimensionError(MgsimError):
    """Operands live on different numbers of qubit lines."""


class GateClassError(MgsimError):
    """A gate violates the constraints of its declared class."""


class MatchgateError(MgsimError):
    """A matrix fails a matchgate precondition (identities, invertibility)."""


class LogBranchError(MatchgateError):
    """No logarithm branch of the matrix lies in the generator span."""


class ParseError(MgsimError):
    """Circuit file syntax or validation error, with source location."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SizeLimitError(MgsimError):
    """An engine invoked beyond its size cap (oracle lines, Lie engine memory)."""


class InconsistencyError(MgsimError):
    """An internal cross-check failed (e.g. non-real expectation for a unitary circuit)."""
