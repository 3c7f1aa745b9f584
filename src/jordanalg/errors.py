"""Exception hierarchy shared by all jordanalg modules.

Everything derives from AlgebraError so callers can catch library
failures in one place.  ParseError and BadParameters signal bad input
syntax or option values; every other subclass signals a violated
mathematical precondition.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all jordanalg errors."""


class ParseError(AlgebraError):
    """Malformed text input (algebra files, map files, scalars, elements)."""


class BadParameters(AlgebraError):
    """Command parameters that are syntactically valid but unusable."""


class FieldMismatch(AlgebraError):
    """Operands belong to different fields."""


class DivisionByZero(AlgebraError):
    """Division or inversion of a zero scalar."""


class AmbientMismatch(AlgebraError):
    """Subspace operands live in different ambient spaces."""


class NotSymmetric(AlgebraError):
    """A symmetric matrix was required."""


class AlgebraMismatch(AlgebraError):
    """Elements or maps attached to different algebra tables."""


class NotAnIdeal(AlgebraError):
    """A subspace that had to be an ideal is not one."""


class NotUnital(AlgebraError):
    """The operation needs a unit element and the table has none."""


class NotAssociative(AlgebraError):
    """The operation needs an associative product."""


class NotAnInvolution(AlgebraError):
    """The supplied linear map is not an involution of the algebra."""


class NotClosed(AlgebraError):
    """A subspace that had to be multiplicatively closed is not."""


class NotScalar(AlgebraError):
    """A value that had to be a scalar multiple of the unit is not."""


class NotIdempotent(AlgebraError):
    """The supplied element is not idempotent."""


class IncompletePeirce(AlgebraError):
    """Eigenspace dimensions do not add up to a full decomposition."""


class NotSpinFactor(AlgebraError):
    """The table does not carry spin-factor construction data."""


class NotAlbertType(AlgebraError):
    """The table does not carry Albert-type construction data."""


class NotADerivation(AlgebraError):
    """The supplied linear map violates the Leibniz rule."""


class NoDerivations(AlgebraError):
    """The table has no nonzero derivation to sample."""


class CriterionNotSatisfied(AlgebraError):
    """Witness vectors do not satisfy the two-vector criterion."""


class RecipeFailure(AlgebraError):
    """A construction step that is guaranteed by theory failed on the
    concrete input; this signals an internal inconsistency and is meant
    to abort loudly rather than be caught."""


class CertificationError(AlgebraError):
    """A computed result failed its own exact re-check."""


class CapExceeded(AlgebraError):
    """An exhaustive search would exceed the configured cap."""


class NotFinite(AlgebraError):
    """The operation needs a finite field."""


def certify(ok, message: str) -> None:
    """Raise CertificationError(message) unless ok.  Unlike an assert,
    the check still runs under python -O."""
    if not ok:
        raise CertificationError(message)
