"""Exception types shared across the package."""


class CfrsError(Exception):
    """Base class for package-specific errors."""


class MatrixError(CfrsError):
    """Malformed matrix, split, or input file."""


class ConflictError(CfrsError):
    """An operation that needs a conflict-free matrix was given one that is not.

    Carries the offending column pair and row triple.
    """

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"matrix is not conflict-free: {witness}")


class BudgetError(CfrsError):
    """An exact solver or brute-force oracle would exceed its size budget."""


class InternalError(CfrsError):
    """A self-check failed: the package computed a wrong or uncertified result."""
