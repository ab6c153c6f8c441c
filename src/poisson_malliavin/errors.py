"""Exception hierarchy for the package.

Every error raised by this library derives from :class:`PoissonMalliavinError`
so callers can catch the whole family with one clause.
"""


class PoissonMalliavinError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSiteError(PoissonMalliavinError):
    """A site index or site set refers outside the ground space."""


class ShapeError(PoissonMalliavinError):
    """A counts vector or array does not match the ground space dimension, or
    a generator matrix does not match its state table."""


class BudgetExceededError(PoissonMalliavinError):
    """A truncation plan needs more states than the enumeration budget allows."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"truncated state space needs {required} states, budget is {budget}"
        )


class TruncationError(PoissonMalliavinError):
    """A truncated state table's probability mass contradicts its tail bound."""


class BoundaryLeakError(PoissonMalliavinError):
    """Generator truncation leaks too much probability mass for a reliable solve."""


class SolverError(PoissonMalliavinError):
    """A linear solve did not meet its residual contract."""


class NonFiniteValueError(PoissonMalliavinError):
    """A functional produced NaN or infinity during an expectation sweep."""


class ConfigError(PoissonMalliavinError, ValueError):
    """A configuration file, binding spec or setting failed validation.

    Also a ``ValueError``, the builtin for a bad argument value.
    """
