"""Exception types shared across the package."""


class SpecMismatchError(ValueError):
    """Operands belong to different ring specs."""


class NonUnitError(ValueError):
    """Inversion was requested for a non-invertible ring element."""


class DomainError(ValueError):
    """A precondition on the arguments does not hold."""


class InternalConsistencyError(RuntimeError):
    """A property that the construction guarantees failed to hold."""


class UnsupportedCaseError(ValueError):
    """The operation is not defined for this embedding case."""


class BudgetExhausted(RuntimeError):
    """A budgeted search ran out of steps before reaching a conclusion."""
