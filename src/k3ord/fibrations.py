"""Section groups of elliptic fibrations and their twist bookkeeping.

The group of sections of an elliptically fibred surface is modeled as

    Z^r  +  Z/m_1 + ... + Z/m_k  +  E^e,

where each E is a symbolic divisible group standing for the points of
an elliptic curve: the only facts encoded are that multiplication by
any m >= 1 is surjective and that the m-torsion is (Z/m)^2.  No curve
arithmetic over a field happens here.

Supported endomorphisms are block diagonal: an integer matrix on the
free part (kept as a GLattice on the zero form), a multiplier on each
finite cyclic summand, and a signed permutation of the elliptic
summands (kept as its signed cycles).  An endomorphism is built for its
model and checks its blocks against it once, when it is built; the
functions that take it do not check them again.  For a cyclic group
acting through such an endomorphism the
module computes H^1 and decides the cocycle and coboundary conditions
for twisting the action block by block: Shapiro's lemma reduces a
permutation cycle to the single summand it wraps around, so no walk
follows a whole element, whose orbit is as long as the lcm of the cycle
lengths.  An element is data in block coordinates: nothing here adds
whole elements or applies the action to one.  The module also adds
numerical sections on the rank-ten elliptic model.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .cohomology import CohResult, GLattice, h1
from .divisors import DivisorClass
from .errors import (
    DimensionMismatch,
    NotANumericalSection,
    UnsupportedAction,
    UnsupportedParameter,
)
from .lattices import Lattice, pair
from .matrices import IntMatrix
from .orders import surface_rational_elliptic


@dataclass(frozen=True)
class AbGroupModel:
    """Shape of a section group: free rank, finite moduli, elliptic summands."""

    free_rank: int = 0
    finite_cyclic: tuple[int, ...] = ()
    elliptic_count: int = 0

    def __post_init__(self):
        if self.free_rank < 0 or self.elliptic_count < 0:
            raise UnsupportedParameter("summand counts must be nonnegative")
        for m in self.finite_cyclic:
            if m < 2:
                raise UnsupportedParameter(
                    f"finite cyclic modulus must be at least 2, got {m}"
                )


@dataclass(frozen=True)
class BlockEndo:
    """A block-diagonal endomorphism of model, generating a cyclic action
    of the given order.

    The blocks are checked against the model here, once: free_action is
    free_rank square and periodic, finite_action holds one multiplier u
    per modulus m with u^order = 1 mod m, and elliptic_action lists one
    (sign, image) pair per elliptic summand: summand i is sent to summand
    image with the given sign.  Anything that is not a signed permutation,
    or whose order-th power is not the identity, is refused outright.
    cycles keeps the permutation's cycles, each with its net sign.
    """

    model: AbGroupModel
    free_action: IntMatrix
    finite_action: tuple[int, ...]
    elliptic_action: tuple[tuple[int, int], ...]
    order: int
    free: GLattice = field(init=False, compare=False, repr=False)
    cycles: tuple[tuple[tuple[int, ...], int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise UnsupportedParameter(f"order must be positive, got {self.order}")
        model = self.model
        rank = model.free_rank
        if (
            (self.free_action.rows, self.free_action.cols) != (rank, rank)
            or len(self.finite_action) != len(model.finite_cyclic)
            or len(self.elliptic_action) != model.elliptic_count
        ):
            raise DimensionMismatch("endomorphism blocks do not match the model")
        try:
            free = GLattice(Lattice(IntMatrix.zeros(rank, rank)), self.free_action, self.order)
        except UnsupportedParameter:
            raise UnsupportedAction(
                f"free action is not periodic of order {self.order}"
            ) from None
        object.__setattr__(self, "free", free)
        images = [image for _, image in self.elliptic_action]
        if sorted(images) != list(range(model.elliptic_count)):
            raise UnsupportedAction("elliptic images must form a permutation")
        for sign, _ in self.elliptic_action:
            if sign not in (1, -1):
                raise UnsupportedAction(f"elliptic sign must be +-1, got {sign}")
        cycles = tuple(_signed_cycles(self.elliptic_action))
        for cycle, net in cycles:
            length = len(cycle)
            if self.order % length != 0:
                raise UnsupportedAction(
                    "an elliptic cycle length must divide the order"
                )
            if net == -1 and (self.order // length) % 2 != 0:
                raise UnsupportedAction(
                    "a sign-reversing cycle needs even order on its summand"
                )
        object.__setattr__(self, "cycles", cycles)
        for u, m in zip(self.finite_action, model.finite_cyclic):
            if pow(u, self.order, m) != 1:
                raise UnsupportedAction(
                    f"multiplier {u} is not periodic of order {self.order} mod {m}"
                )


def _signed_cycles(
    elliptic_action: tuple[tuple[int, int], ...],
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Cycles of a signed permutation, each with the product of its signs."""
    seen: set[int] = set()
    for start in range(len(elliptic_action)):
        if start not in seen:
            cycle = [start]
            while (image := elliptic_action[cycle[-1]][1]) != start:
                cycle.append(image)
            seen.update(cycle)
            yield tuple(cycle), math.prod(elliptic_action[i][0] for i in cycle)


def trivial_endo(model: AbGroupModel, order: int) -> BlockEndo:
    """The identity on every block, declared with the given order."""
    return BlockEndo(
        model=model,
        free_action=IntMatrix.identity(model.free_rank),
        finite_action=(1,) * len(model.finite_cyclic),
        elliptic_action=tuple([(1, i) for i in range(model.elliptic_count)]),
        order=order,
    )


def negation_endo(model: AbGroupModel, order: int = 2) -> BlockEndo:
    """Negation on every block: the fibrewise inverse action."""
    return BlockEndo(
        model=model,
        free_action=IntMatrix.identity(model.free_rank).scale(-1),
        finite_action=tuple([m - 1 for m in model.finite_cyclic]),
        elliptic_action=tuple([(-1, i) for i in range(model.elliptic_count)]),
        order=order,
    )


@dataclass(frozen=True)
class TorsionPoint:
    """An integer multiple of one named point of declared exact order."""

    symbol: str
    order: int
    mult: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise UnsupportedParameter(
                f"a point's exact order must be positive, got {self.order}"
            )


def _reduce_point(point: Optional[TorsionPoint]) -> Optional[TorsionPoint]:
    if point is None or point.mult % point.order == 0:
        return None
    return TorsionPoint(point.symbol, point.order, point.mult % point.order)


def _add_points(
    a: Optional[TorsionPoint], b: Optional[TorsionPoint]
) -> Optional[TorsionPoint]:
    a = _reduce_point(a)
    b = _reduce_point(b)
    if a is None:
        return b
    if b is None:
        return a
    if a.symbol != b.symbol or a.order != b.order:
        raise UnsupportedAction(
            f"cannot add unrelated symbolic points {a.symbol} of order "
            f"{a.order} and {b.symbol} of order {b.order}"
        )
    return _reduce_point(TorsionPoint(a.symbol, a.order, a.mult + b.mult))


def _scale_point(
    point: Optional[TorsionPoint], factor: int
) -> Optional[TorsionPoint]:
    if point is None:
        return None
    return _reduce_point(
        TorsionPoint(point.symbol, point.order, factor * point.mult)
    )


@dataclass(frozen=True)
class GroupElement:
    """An element of a section-group model, in block coordinates.

    Finite coordinates are reduced mod their moduli; elliptic coordinates
    are symbolic torsion points reduced mod their orders, or None for the
    zero point.
    """

    model: AbGroupModel
    free: tuple[int, ...] = ()
    finite: tuple[int, ...] = ()
    elliptic: tuple[Optional[TorsionPoint], ...] = ()

    def __post_init__(self):
        if (
            len(self.free) != self.model.free_rank
            or len(self.finite) != len(self.model.finite_cyclic)
            or len(self.elliptic) != self.model.elliptic_count
        ):
            raise DimensionMismatch(
                "element coordinates do not match the model shape"
            )
        # tuples throughout, so that equal elements compare equal
        finite = zip(self.finite, self.model.finite_cyclic)
        object.__setattr__(self, "free", tuple(self.free))
        object.__setattr__(self, "finite", tuple([c % m for c, m in finite]))
        object.__setattr__(self, "elliptic", tuple([_reduce_point(p) for p in self.elliptic]))


def geometric_sum(u: int, n: int, m: int) -> int:
    """1 + u + ... + u^(n-1) mod m in O(log n) steps, by doubling:
    S(2k) = S(k)(1 + u^k) and S(k+1) = S(k) + u^k."""
    total, power = 0, 1  # S(k) and u^k mod m, k the leading bits of n
    for bit in bin(n)[2:]:
        total, power = total * (1 + power) % m, power * power % m
        if bit == "1":
            total, power = (total + power) % m, power * u % m
    return total


def _cycle_sums(
    endo: BlockEndo, s: GroupElement
) -> Iterator[tuple[int, int, Optional[TorsionPoint]]]:
    """Length k, net sign and the points of s carried once around each
    elliptic cycle: the first k terms of the norm at the cycle's start."""
    for cycle, net in endo.cycles:
        total: Optional[TorsionPoint] = None
        for i in cycle:
            sign, image = endo.elliptic_action[i]
            total = _add_points(_scale_point(total, sign), s.elliptic[image])
        yield len(cycle), net, total


def cocycle_check(endo: BlockEndo, s: GroupElement) -> bool:
    """True iff the norm annihilates s, so s can twist the cyclic action.

    Decided blockwise: the free part from the Smith form of its D, kept on
    `endo.free` (`CohResult.verdict`; no norm matrix is built),
    c * geometric_sum(u, n, m) on a finite summand, and (n/k) * (cycle sum)
    on an elliptic cycle of length k and net sign +1.  A net -1 cycle always
    passes: its n/k terms alternate in sign, and n/k is even.

    >>> model = AbGroupModel(elliptic_count=1)
    >>> s = GroupElement(model, elliptic=(TorsionPoint("eps", 3),))
    >>> cocycle_check(trivial_endo(model, 3), s)
    True
    """
    if s.model != endo.model:
        raise DimensionMismatch("the element is not of the endomorphism's model")
    n = endo.order
    cocycle, _ = h1(endo.free).verdict(s.free)
    if not cocycle:
        return False
    for u, c, m in zip(endo.finite_action, s.finite, endo.model.finite_cyclic):
        if c * geometric_sum(u, n, m) % m:
            return False
    sums = _cycle_sums(endo, s)
    return all(net == -1 or _scale_point(total, n // k) is None for k, net, total in sums)


def coboundary_check(endo: BlockEndo, s: GroupElement) -> bool:
    """True iff s = t - sigma(t) for some t, i.e. the twist class is trivial.

    Decided blockwise: the free part from the Smith form of its D, the one
    `cocycle_check` reads (`CohResult.verdict`), a gcd condition on each
    finite summand, and a walk around each elliptic cycle.  On a cycle
    whose net sign is -1 the equation 2t = (cycle sum) is always solvable
    because the group is 2-divisible; on a net-positive cycle the signed
    sum of the coordinates must vanish.
    """
    if s.model != endo.model:
        raise DimensionMismatch("the element is not of the endomorphism's model")
    _, coboundary = h1(endo.free).verdict(s.free)
    if not coboundary:
        return False
    for u, c, m in zip(endo.finite_action, s.finite, endo.model.finite_cyclic):
        g = math.gcd((1 - u) % m, m)
        if c % g != 0:
            return False
    return all(net == -1 or total is None for _, net, total in _cycle_sums(endo, s))


# --- structured cohomology --------------------------------------------------------


@dataclass(frozen=True)
class StructuredH1:
    """H^1 of a cyclic action on a section-group model, block by block.

    invariant_factors normalizes the combined torsion; the per-block
    fields keep the provenance (free classes come with generator
    vectors through free_part).
    """

    invariant_factors: tuple[int, ...]
    free_rank: int
    free_part: CohResult
    finite_factors: tuple[int, ...]
    elliptic_factors: tuple[int, ...]


def _push(runs: list, factor: int, count: int) -> None:
    if count and factor > 1:
        if runs and runs[-1][0] == factor:
            runs[-1] = (factor, runs[-1][1] + count)
        else:
            runs.append((factor, count))


def invariant_chain(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (all > 1) of the sum of Z/a over
    the positive orders a.

    Each order enters the chain from the top: Z/c + Z/a = Z/lcm(c, a) +
    Z/gcd(c, a), and the gcd goes on down, so no factoring and no Smith
    form is needed.  The chain is kept as runs (factor, count), largest
    first.  A carry that has passed the top copy of a run divides its
    factor, so only that copy changes: equal orders, such as the pairs of
    elliptic factors, cost one step each, and memory is at most linear in
    the number of orders.

    >>> invariant_chain([2, 3, 2, 4, 1])
    (2, 2, 12)
    """
    runs: list[tuple[int, int]] = []
    for a in orders:
        above, runs = runs, []
        for i, (c, n) in enumerate(above):
            if a == 1:
                runs += above[i:]
                break
            _push(runs, math.lcm(c, a), 1)
            _push(runs, c, n - 1)
            a = math.gcd(c, a)
        else:
            _push(runs, a, 1)
    return tuple([c for c, n in reversed(runs) for _ in range(n)])


def h1_structured(endo: BlockEndo) -> StructuredH1:
    """H^1 of the cyclic group generated by endo, acting on the model it
    was built for.

    >>> model = AbGroupModel(elliptic_count=1)
    >>> h1_structured(trivial_endo(model, 4)).invariant_factors
    (4, 4)
    """
    free_part = h1(endo.free)
    finite_factors = []
    for u, m in zip(endo.finite_action, endo.model.finite_cyclic):
        kernel_size = math.gcd(geometric_sum(u, endo.order, m), m)
        image_size = m // math.gcd((1 - u) % m, m)
        size = kernel_size // image_size
        if size > 1:
            finite_factors.append(size)
    elliptic_factors = []
    for cycle, net in endo.cycles:
        m = endo.order // len(cycle)
        if net == 1 and m > 1:
            elliptic_factors.extend((m, m))
    return StructuredH1(
        invariant_factors=invariant_chain(
            [*free_part.invariant_factors, *finite_factors, *elliptic_factors]
        ),
        free_rank=free_part.free_rank,
        free_part=free_part,
        finite_factors=tuple(finite_factors),
        elliptic_factors=tuple(elliptic_factors),
    )


# --- the group law on numerical sections -------------------------------------------


def mw_sum_rational_elliptic(
    c1: DivisorClass, c2: DivisorClass, s0: DivisorClass
) -> DivisorClass:
    """Sum of two sections of the rational elliptic fibration, as classes.

    On the plane blown up in nine points, with zero section s0 and
    fibre class F = -K, two numerical sections add up to

        c1 + c2 - s0 + alpha F,   alpha = (c1 + c2).s0 - c1.c2 + 1.

    Every input must satisfy the numerical section conditions
    c^2 = -1 and c.F = 1; the output satisfies them again.
    """
    model = surface_rational_elliptic()
    lattice = model.pic
    fibre = tuple([-c for c in model.k_class])
    classes = {"c1": c1, "c2": c2, "s0": s0}
    for name, cls in classes.items():
        if len(cls) != 10:
            raise DimensionMismatch(
                f"{name} must live on the rank-10 model"
            )
        if pair(lattice, cls, cls) != -1:
            raise NotANumericalSection(f"{name} has square != -1")
        if pair(lattice, cls, fibre) != 1:
            raise NotANumericalSection(f"{name} does not meet the fibre once")
    both = tuple([a + b for a, b in zip(c1, c2)])
    alpha = pair(lattice, both, s0) - pair(lattice, c1, c2) + 1
    return tuple([
        a + b - c + alpha * f for a, b, c, f in zip(c1, c2, s0, fibre)
    ])
