"""Exception types shared across the package.

Everything user-facing derives from DomainError so the CLI can map
"mathematically impossible request" to a single exit code, distinct
from malformed input.
"""


class DomainError(Exception):
    """A well-formed request whose answer does not exist in the given ring/group."""


class SchemaError(Exception):
    """Malformed textual input: ring specs, vector files, group descriptors."""


def excerpt(value, limit=80) -> str:
    """repr(value) as an error message quotes it: cut to limit characters,
    naming its full length, so that no input floods the message."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


class NonExactDivision(DomainError):
    pass


class NumericalityViolation(DomainError):
    pass


class IntegralityViolation(DomainError):
    pass


class NotAGroup(SchemaError):
    pass


class OrderBoundExceeded(DomainError):
    def __init__(self, order, bound):
        super().__init__(f"group order {order} exceeds supported bound {bound}")
        self.order = order
        self.bound = bound


class NotInImage(DomainError):
    """An inverse transform was requested for a vector outside the map's image."""


class NonIntegralConstant(DomainError):
    """A structure constant is a proper fraction and the ring cannot absorb it."""


class NotInvertibleIndex(DomainError):
    def __init__(self, label):
        super().__init__(f"component scaling by a subgroup index is not invertible at {label!r}")
        self.label = label


class NotBinomial(DomainError):
    """Operation needs rational coefficients the coefficient ring cannot supply."""


class TruncationTooSmall(DomainError):
    pass
