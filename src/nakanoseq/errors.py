"""Exception types shared across the package."""


class NakanoError(Exception):
    """Base class for all package errors."""


class ParseError(NakanoError):
    """Raised on malformed DSL input; carries position and a caret excerpt."""

    def __init__(self, message, source, pos):
        self.source = source
        self.pos = pos
        line = source.count("\n", 0, pos) + 1
        col = pos - (source.rfind("\n", 0, pos) + 1) + 1
        self.line = line
        self.column = col
        excerpt = source.splitlines()[line - 1] if source.splitlines() else ""
        caret = " " * (col - 1) + "^"
        super().__init__(f"{message} at line {line}, column {col}\n  {excerpt}\n  {caret}")


class SemanticError(NakanoError):
    """Raised when a syntactically valid descriptor violates a value constraint."""


class PreconditionError(NakanoError):
    """An operation was invoked while its precondition verdict does not hold."""


class HorizonExhausted(NakanoError):
    """A witness scan ran out of budget before finding the next index."""

    def __init__(self, message, k=None, horizon=None):
        super().__init__(message)
        self.k = k
        self.horizon = horizon


class NormComputationError(NakanoError):
    """The norm solver hit its iteration cap before reaching the tolerance, or
    the norm exceeds the float64 range."""


class InternalInconsistency(NakanoError):
    """Two certified verdicts contradict each other.  Always a bug, never user error."""
