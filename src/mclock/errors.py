"""Exception hierarchy shared by all mclock modules."""


class MClockError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MClockError):
    """Operands live on incompatible tensor-product spaces."""


class InvalidParameter(MClockError):
    """A model or sampling parameter is outside its admissible range."""


class NumericalError(MClockError):
    """A numerical invariant (norm, Hermiticity, probability range) failed."""


class EigensolverFailure(NumericalError):
    """The Hermitian eigensolver did not converge or reconstruct; abort the run."""


class ParseError(MClockError):
    """Scenario text is structurally malformed (bad JSON, wrong types, unknown or repeated keys)."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = []
        if field is not None:
            where.append(f"field '{field}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ValidationError(MClockError):
    """Scenario values are well-formed but outside their admissible ranges."""
