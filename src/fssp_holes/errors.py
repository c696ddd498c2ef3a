"""Exception types shared across the package.

Validation failures carry a short machine-readable ``code`` plus a witness
(the offending position, when there is one) so callers and the CLI can report
what went wrong without parsing message strings.
"""

from __future__ import annotations


class FsspError(Exception):
    """Base class for all package errors."""

    code = "error"


class ValidationError(FsspError, ValueError):
    """A candidate configuration violates one of the three invariants."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BoundaryHoleError(ValidationError):
    code = "BoundaryHole"


class TooManyHolesError(ValidationError):
    code = "TooManyHoles"


class DisconnectedError(ValidationError):
    code = "Disconnected"


class ParseError(FsspError, ValueError):
    """Unreadable input: a configuration, plan or checkpoint file, or a CLI argument."""

    code = "ParseError"


class CheckpointMismatchError(FsspError, ValueError):
    """A checkpoint record written for another k or format version."""

    code = "CheckpointMismatch"


class NotANodeError(FsspError, ValueError):
    code = "NotANode"


class OutOfSquareError(FsspError, ValueError):
    code = "OutOfSquare"


class WrongHoleCountError(FsspError, ValueError):
    code = "WrongHoleCount"


class SizeMismatchError(FsspError, ValueError):
    code = "SizeMismatch"


class SizeTooSmallError(FsspError, ValueError):
    code = "SizeTooSmall"


class SizeTooLargeError(FsspError, ValueError):
    """An input asks for a square side or line length above grid.MAX_SIZE."""

    code = "SizeTooLarge"


class UnreachableError(FsspError, ValueError):
    code = "Unreachable"


class BudgetExceededError(FsspError, ValueError):
    code = "BudgetExceeded"


class NotUpperBoundCaseError(FsspError, ValueError):
    code = "NotUpperBoundCase"


class PreconditionViolatedError(FsspError, ValueError):
    code = "PreconditionViolated"

