"""Shared exception types and the budgets enumerations are checked against."""

ENUMERATION_BUDGET = 10**7  # norm bounds, windows, ball and region boxes
FACTOR_BUDGET = 10**15  # the largest ideal norm that is factored
NU_POINT_BUDGET = 10**6  # region points that each get a nu weight
TUPLE_BUDGET = 10**8  # sample tuples, hypergraph states, squarefree lists
COUNT_BUDGET = 4 * 10**6  # the bound of count_ideals


class IdealSieveError(Exception):
    """Base class for package errors."""


class UnsupportedFieldError(IdealSieveError):
    """Raised for fields outside the vetted monogenic list, or for
    operations that require a finite unit group on a field without one."""


class BudgetExceededError(IdealSieveError):
    """Raised when an enumeration or factorization would exceed its budget."""


def check_budget(what, size, limit):
    """BudgetExceededError naming what, its size and the limit, if over."""
    if size > limit:
        raise BudgetExceededError(f"{what} {size} exceeds budget {limit}")


class ReduciblePolynomialError(IdealSieveError):
    """Raised when a defining polynomial is not irreducible over Q."""
