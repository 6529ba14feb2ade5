"""Surface models, ramification data, and classification of orders.

An order on a surface is described here purely numerically: a Picard
model of the base surface, a list of ramified divisor classes with
their ramification indices, and the degree of the cyclic cover the
order lives on.  That is enough to compute the canonical class

    K_A = K_Z + sum_i (1 - 1/e_i) D_i

exactly, to decide whether the order is numerically Calabi-Yau or
carries a del Pezzo certificate, to transfer ramification indices from
a cover, to test applicability of the overlap condition (lcm of the
indices equals the cover degree), to form restriction classes for
non-total ramification, and to run the sufficiency test for maximality.

Everything is exact: divisor classes on a surface are tuples of
:class:`fractions.Fraction` over a fixed basis of the numerical Picard
model, paired through ``lattices.pair(model.pic, a, b)``.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .cohomology import GLattice
from .errors import (
    DNotDividing,
    DimensionMismatch,
    UnsupportedParameter,
)
from .lattices import Lattice, pair
from .matrices import IntMatrix

IntVector = tuple[int, ...]
# A rational divisor class is its coordinate tuple in the model's basis.
QDivisor = tuple[Fraction, ...]


class YesNoUnknown(Enum):
    """Three-valued oracle answer for geometric facts we cannot decide.

    Irreducibility of the cyclic cover of a ramified divisor is not
    visible from lattice data, so descriptors record the asserted
    answer and the maximality test treats anything but YES as
    inconclusive.
    """

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SurfaceModel:
    """Numerical Picard model of a surface together with its canonical class.

    The class may hold ints; canonical_order_class converts every entry.
    """

    pic: Lattice
    k_class: QDivisor

    def __post_init__(self):
        if len(self.k_class) != self.pic.rank:
            raise DimensionMismatch(
                f"canonical class has length {len(self.k_class)} "
                f"on a rank-{self.pic.rank} model"
            )

    @property
    def rank(self) -> int:
        return self.pic.rank


@dataclass(frozen=True)
class RamifiedDivisor:
    """One component of the ramification locus of an order."""

    d_class: QDivisor
    e: int
    cover_irreducible: YesNoUnknown = YesNoUnknown.UNKNOWN

    def __post_init__(self):
        if self.e < 2:
            raise UnsupportedParameter(
                f"ramification index must be at least 2, got {self.e}"
            )


@dataclass(frozen=True)
class OrderDescriptor:
    """Numerical data of an order: base surface, ramification, cover degree."""

    surface: SurfaceModel
    ramification: tuple[RamifiedDivisor, ...] = ()
    cover_degree: int = 1

    def __post_init__(self):
        for div in self.ramification:
            if len(div.d_class) != self.surface.rank:
                raise DimensionMismatch(
                    "ramified class length does not match the surface model"
                )
        if self.cover_degree < 1:
            raise UnsupportedParameter(
                f"cover degree must be positive, got {self.cover_degree}"
            )


# --- surface model builders ---------------------------------------------------


def surface_p2() -> SurfaceModel:
    """The projective plane: Pic = ZH with H^2 = 1 and K = -3H."""
    return SurfaceModel(Lattice(IntMatrix.from_rows([[1]])), (-3,))


def surface_quadric() -> SurfaceModel:
    """The smooth quadric: two rulings f1, f2 with f1.f2 = 1 and K = (-2, -2)."""
    return SurfaceModel(Lattice(IntMatrix.from_rows([[0, 1], [1, 0]])), (-2, -2))


def surface_hirzebruch(n: int) -> SurfaceModel:
    """The Hirzebruch surface with a section of self-intersection -n.

    Basis (C0, F) with C0^2 = -n, F^2 = 0, C0.F = 1; the canonical
    class is -2C0 - (n+2)F.  For n = 2 this is the value forced by the
    anticanonical computation D = -2K = 4C0 + 8F on that surface.
    """
    if n < 0:
        raise UnsupportedParameter(f"negative section parameter {n}")
    return SurfaceModel(Lattice(IntMatrix.from_rows([[-n, 1], [1, 0]])), (-2, -(n + 2)))


def surface_ruled_elliptic(deg_e: int) -> SurfaceModel:
    """A ruled surface over an elliptic curve, split or of degree one.

    Only the two cases that come up in the order constructions are
    modeled.  deg_e = 0 is the split case: C0^2 = 0 and K = -2C0.
    deg_e = 1 has C0^2 = 1 and K = -2C0 + F; the F-coefficient is the
    case value quoted with the construction, which differs in sign from
    the general ruled-surface formula (a degree-convention slip in the
    source we choose not to repair silently).
    """
    if deg_e == 0:
        gram = IntMatrix.from_rows([[0, 1], [1, 0]])
        k = (-2, 0)
    elif deg_e == 1:
        gram = IntMatrix.from_rows([[1, 1], [1, 0]])
        k = (-2, 1)
    else:
        raise UnsupportedParameter(
            f"only degree 0 and 1 ruled-elliptic models are supported, got {deg_e}"
        )
    return SurfaceModel(Lattice(gram), k)


def surface_rational_elliptic() -> SurfaceModel:
    """The plane blown up in nine base points of a cubic pencil.

    Pic = ZH + ZE1 + ... + ZE9 with Gram diag(1, -1, ..., -1) and
    K = -3H + E1 + ... + E9.  The fibre class of the elliptic fibration
    is F = -K, with F^2 = 0.
    """
    rows = [[0] * 10 for _ in range(10)]
    rows[0][0] = 1
    for i in range(1, 10):
        rows[i][i] = -1
    return SurfaceModel(Lattice(IntMatrix.from_rows(rows)), (-3,) + (1,) * 9)


# --- canonical class and classification ----------------------------------------


def canonical_order_class(order: OrderDescriptor) -> QDivisor:
    """K_A = K_Z + sum (1 - 1/e_i) D_i, exact over the rationals.

    Every entry comes back a Fraction, also for int-valued classes.

    >>> o = OrderDescriptor(surface_p2(), (RamifiedDivisor((6,), 2),), 2)
    >>> canonical_order_class(o)
    (Fraction(0, 1),)
    """
    total = [Fraction(c) for c in order.surface.k_class]
    for div in order.ramification:
        weight = Fraction(div.e - 1, div.e)
        total = [t + weight * d for t, d in zip(total, div.d_class)]
    return tuple(total)


class OrderKind(Enum):
    NCY = "numerically-calabi-yau"
    DEL_PEZZO = "del-pezzo"
    OTHER = "other"


@dataclass(frozen=True)
class Classification:
    """Verdict of :func:`classify_order` with the numbers behind it.

    anti_square is (-K_A)^2 and pairings lists -K_A paired with each
    basis class of the surface model; together they form the del Pezzo
    certificate when the verdict is DEL_PEZZO.  Positivity against the
    basis classes is numerical evidence read off the model, not a proof
    of ampleness, so the assumption is recorded.
    """

    kind: OrderKind
    k_order: QDivisor
    anti_square: Fraction
    pairings: tuple[Fraction, ...]
    assumptions: tuple[str, ...] = ()


_DEL_PEZZO_ASSUMPTION = (
    "positivity is certified against the model's basis classes only"
)


def classify_order(order: OrderDescriptor) -> Classification:
    """Sort an order into numerically Calabi-Yau, del Pezzo, or other.

    NCY means K_A is numerically trivial.  The del Pezzo verdict needs
    (-K_A)^2 > 0 and -K_A positive against every basis class of the
    model.  Anything else is OTHER.
    """
    model = order.surface
    k_a = canonical_order_class(order)
    anti = tuple([-a for a in k_a])
    anti_square = pair(model.pic, anti, anti)
    # the Gram matrix is symmetric, so row i of G.anti is anti . (basis i)
    pairings = model.pic.gram.mul_vec(anti)
    if not any(pairings):
        kind = OrderKind.NCY
        assumptions: tuple[str, ...] = ()
    elif anti_square > 0 and all(p > 0 for p in pairings):
        kind = OrderKind.DEL_PEZZO
        assumptions = (_DEL_PEZZO_ASSUMPTION,)
    else:
        kind = OrderKind.OTHER
        assumptions = ()
    return Classification(kind, k_a, anti_square, pairings, assumptions)


# --- ramification bookkeeping ---------------------------------------------------


def ramification_transfer(order: OrderDescriptor) -> tuple[int, ...]:
    """Ramification vector of an order read off a cover's branch profile.

    The ramification index of the order along each branch divisor is
    the ramification index of the cover there, so the vector is just
    the sorted multiset of indices.

    >>> sextic = RamifiedDivisor((6,), 2)
    >>> ramification_transfer(OrderDescriptor(surface_p2(), (sextic,), 2))
    (2,)
    >>> ramification_transfer(OrderDescriptor(surface_p2()))
    ()
    """
    return tuple(sorted([div.e for div in order.ramification]))


def overlap_applicable(order: OrderDescriptor) -> bool:
    """True iff the lcm of the ramification indices equals the cover degree.

    This is the hypothesis under which every relation class gives a
    well-defined cyclic algebra.  An unramified order has lcm 1, so the
    test fails for any étale cover of degree at least 2.
    """
    return lcm(*[div.e for div in order.ramification]) == order.cover_degree


def untot_restriction(
    gl: GLattice, line_class: Sequence[int], d: int
) -> tuple[IntVector, int]:
    """Restriction class over a branch divisor with d components upstairs.

    When the preimage of a branch divisor splits into d components,
    each of ramification index n/d, the restriction of the relation
    class L is the sum of the d translates

        L + sigma L + ... + sigma^(d-1) L,

    an (n/d)-torsion class.  The count of factors follows the local
    computation (the degree-d product of conjugates), not the printed
    closed form, which lists one translate too many; d is therefore an
    explicit argument rather than something inferred.

    Returns the summed class in lattice coordinates together with the
    claimed torsion n/d.
    """
    n = gl.order
    if d < 1 or n % d != 0:
        raise DNotDividing(f"{d} does not divide the cover degree {n}")
    if len(line_class) != gl.lattice.rank:
        raise DimensionMismatch(
            f"class length {len(line_class)} on a rank-{gl.lattice.rank} lattice"
        )
    current = tuple(line_class)
    total = list(current)
    for _ in range(d - 1):
        current = gl.sigma.mul_vec(current)
        for i, c in enumerate(current):
            total[i] += c
    return tuple(total), n // d


class MaximalityVerdict(Enum):
    AZUMAYA = "azumaya"
    MAXIMAL = "maximal"
    UNKNOWN = "unknown"


def maximality_check(order: OrderDescriptor) -> MaximalityVerdict:
    """Sufficiency test for maximality of a cyclic order.

    An unramified order is Azumaya, hence maximal.  A ramified one is
    maximal if the cyclic cover of every ramified divisor is
    irreducible; that criterion is one-directional, so any NO or
    UNKNOWN answer leaves the verdict UNKNOWN rather than declaring the
    order non-maximal.
    """
    if not order.ramification:
        return MaximalityVerdict.AZUMAYA
    if all(
        div.cover_irreducible is YesNoUnknown.YES for div in order.ramification
    ):
        return MaximalityVerdict.MAXIMAL
    return MaximalityVerdict.UNKNOWN
