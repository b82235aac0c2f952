"""Exception hierarchy shared by all modules.

Every contract violation raises a named subclass of MatSemiError so the CLI
can map failures onto its exit codes: CapExceeded -> 3, verification
failures -> 1, everything else user-facing -> 2.
"""

from __future__ import annotations


class MatSemiError(Exception):
    """Base class for all library errors."""


class NotPrime(MatSemiError):
    pass


class CapExceeded(MatSemiError):
    """An enumeration or scan would exceed its configured cap."""


class DivisionByZero(MatSemiError):
    pass


class DimMismatch(MatSemiError):
    pass


class FieldMismatch(MatSemiError):
    """Operands belong to different fields."""


class NotInvertible(MatSemiError):
    pass


class AmbientMismatch(MatSemiError):
    """Subspaces of different ambient spaces were combined."""


class RankNotOne(MatSemiError):
    pass


class NotClosed(MatSemiError):
    """A set was not closed under multiplication; carries a witness pair."""

    def __init__(self, msg: str, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotNilpotent(MatSemiError):
    pass


class NotAChain(MatSemiError):
    pass


class PreconditionViolated(MatSemiError):
    pass


class SignatureMismatch(MatSemiError):
    pass


class BadSignature(MatSemiError):
    pass


class BadDimension(MatSemiError):
    """A matrix dimension below 1."""


class OutputNotWritable(MatSemiError):
    """The --out file could not be written."""


class ConflictingOptions(MatSemiError):
    """Exactly one of two alternative inputs was required."""


class NotInContext(MatSemiError):
    pass


class ZeroElement(MatSemiError):
    pass


class BadK(MatSemiError):
    """Rank stratum index outside 1..n-1."""


class ContainmentViolation(MatSemiError):
    """A kernel-family line sits inside an image-family hyperplane."""


class EmptyFamily(MatSemiError):
    pass


class InvariantViolation(MatSemiError):
    """A constructor was asked to build an object violating its invariant."""


class VerificationFailed(MatSemiError):
    """A theorem cross-check failed; carries structured evidence."""

    def __init__(self, msg: str, evidence=None):
        super().__init__(msg)
        self.evidence = evidence


class InternalError(MatSemiError):
    """A postcondition the library guarantees failed to hold."""
