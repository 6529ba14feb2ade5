"""Exception types shared by every k3ord module.

Each class names the condition it reports. All of them derive from
:class:`K3OrdError` so callers can catch the package's failures with a
single except clause while tests can pin the precise condition.
"""


class K3OrdError(Exception):
    """Base class for every error raised by this package."""


# --- exact linear algebra ---------------------------------------------------

class NonSquare(K3OrdError):
    """A square matrix was required (determinants, signatures)."""


class NotSymmetric(K3OrdError):
    """A symmetric matrix was required (Gram matrices, signatures)."""


class DimensionMismatch(K3OrdError):
    """Operand shapes are incompatible."""


# --- involution extension ---------------------------------------------------

class SingularFrame(K3OrdError):
    """Q = P^T.G.P is singular: the embedded lattice and its orthogonal
    complement do not span the ambient space, so no extension exists."""


class ActionNotIsometric(K3OrdError):
    """The supplied action does not preserve the source Gram matrix."""


# --- cyclic cohomology / quotient lattices ----------------------------------

class OddEntry(K3OrdError):
    """Halving a Gram matrix requires every entry to be even."""


# --- divisor calculus -------------------------------------------------------

class GensDoNotSpan(K3OrdError):
    """The generator list does not span the lattice rationally."""


# --- orders and ramification ------------------------------------------------

class UnsupportedParameter(K3OrdError):
    """A surface-model parameter outside the supported range."""


class DNotDividing(K3OrdError):
    """The partial-ramification parameter d must divide the group order."""


# --- fibration section groups -----------------------------------------------

class NotANumericalSection(K3OrdError):
    """A class failed the numerical section conditions E^2 = -1, E.F = 1."""


class UnsupportedAction(K3OrdError):
    """An endomorphism outside the modeled block shapes."""


# --- CLI and corpus ---------------------------------------------------------

class ParseError(K3OrdError):
    """A scenario or data file could not be parsed."""


class SchemaError(K3OrdError):
    """A parsed file has wrong shapes or missing fields."""


class MissingCorpus(K3OrdError):
    """The corpus directory does not exist."""
