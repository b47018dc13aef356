"""Exception taxonomy.

Every error carries a machine-readable ``kind`` so the CLI can emit
structured error JSON.  Mathematical precondition failures are subclasses
of TriformsError; parse problems get their own branch so the CLI can map
them to a distinct exit code.
"""


class TriformsError(Exception):
    kind = "error"


class DomainMismatchError(TriformsError):
    kind = "domain-mismatch"


class VariableSetError(TriformsError):
    kind = "variable-mismatch"


class DegreeError(TriformsError):
    kind = "degree"


class ZeroInputError(TriformsError):
    kind = "zero-input"


class SingularMatrixError(TriformsError):
    kind = "singular-matrix"


class PrimeError(TriformsError):
    kind = "bad-prime"


class ExponentOverflowError(TriformsError):
    kind = "exponent-overflow"


class DegeneratePointError(TriformsError):
    """A projection has a positive-dimensional fiber over the named point."""

    kind = "degenerate-point"

    def __init__(self, message, point=None, side=None):
        super().__init__(message)
        self.point = point
        self.side = side


class BudgetExceededError(TriformsError):
    """The work an input needs exceeds a fixed budget; refused, not guessed."""

    kind = "budget"


class ParseError(TriformsError):
    kind = "parse"
