"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """The requested series does not converge for the given parameters."""
