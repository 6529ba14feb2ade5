"""First cohomology of a finite cyclic group acting on a lattice.

For a generator sigma of order n acting on a lattice M, the group cohomology
H^1 is the homology of the periodic pair

    N = 1 + sigma + ... + sigma^(n-1),      D = 1 - sigma,

namely ker N / im D.  N is built from the period k of sigma, which divides
n, as (n/k)(1 + sigma + ... + sigma^(k-1)).

The quotient is read off D alone.  A sigma of finite order is semisimple
over Q, so Q^r = ker(1 - sigma) + im(1 - sigma) is a direct sum; N is
multiplication by n on the first summand and 0 on the second, so ker N and
im D span the same subspace over Q.  ker N is saturated, being a kernel, so
it is the saturation of im D, and ker N / im D is the torsion subgroup of
Z^r / im D.  One Smith normal form U.D.V = diag(d) gives it as the sum of
Z/d_i over the d_i > 1.  One representative cocycle per such factor is
D.V.e_i / d_i, an exact division: D.V.e_i = d_i U^-1.e_i, and U^-1.e_i lies
in the saturation of im D, so N kills it.  Each generator can be checked
directly: it is killed by N and is not an image of D.  The generators are
representatives read off V, which is not unique, so they are not canonical
vectors: another V can give other generators of the same group.

Since ker N / im D is the torsion of Z^r / im D, H^1 has no free part (as
for any finite group, n times a cocycle lies in im D); free_rank is always
0 and is kept in the result for completeness.

The fixed sublattice ker(1 - sigma) is returned as a saturated embedding.
For an involution whose fixed pairing is uniformly even, halving that Gram
matrix gives the pairing of the quotient lattice downstairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

from .embeddings import Embedding
from .errors import (
    ActionNotIsometric,
    DimensionMismatch,
    OddEntry,
    UnsupportedParameter,
)
from .lattices import Lattice
from .matrices import IntMatrix, IntVector, integer_kernel, snf


def orbit(step, start, limit: int) -> list | None:
    """[start, step(start), ...] up to the first return to start.

    None when that return takes more than limit steps, or when a step gives
    None.  A sum over a cyclic group of order n is n/k times the sum over an
    orbit of length k.
    """
    points = [start]
    while (current := step(points[-1])) != start:
        if current is None or len(points) == limit:
            return None
        points.append(current)
    return points


@cache
def period_bound(rank: int) -> int:
    """An upper bound on the order of every finite-order element of GL_rank(Z).

    Such an element is diagonalizable over C with roots of unity, and its
    minimal polynomial is a product of distinct cyclotomic polynomials
    Phi_m_i with sum phi(m_i) <= rank; its order is lcm(m_i).  Split each
    m_i into prime powers q.  Every q != 2 has phi(q) >= 2, and a product of
    numbers >= 2 is at least their sum, while phi(2) = 1 leaves the product
    alone, so phi(m_i) >= sum of phi(q) over its q != 2.  Hence the largest
    power q of each prime p != 2 in the lcm, and the power of 2 if it is
    4 or more, come from distinct primes with sum phi(q) <= rank, and the
    lcm is at most twice their product.  The bound is twice the largest such
    product, found by a knapsack over primes: 2 at rank 1, 8 at rank 2,
    5040 at rank 22, against the true maxima 2, 6 and 2520 (Levitt and
    Nicolas, J. Algebra 1998).
    """
    best = [1] * (rank + 1)  # best[b]: largest product with sum phi(q) <= b
    for p in range(2, rank + 2):
        if any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
            continue
        powers = []
        q = 4 if p == 2 else p
        while (phi := q - q // p) <= rank:
            powers.append((q, phi))
            q *= p
        for b in range(rank, 0, -1):
            for q, phi in powers:
                if phi <= b:
                    best[b] = max(best[b], best[b - phi] * q)
    return 2 * best[rank]


@dataclass(frozen=True)
class GLattice:
    """A lattice together with an isometry generating a finite cyclic group.

    `norm` is N = 1 + sigma + ... + sigma^(order-1), summed from the walk
    over the powers of sigma that validates the order.  The walk stops at
    period_bound(rank) steps, or at the first power whose |trace| exceeds
    the rank: the eigenvalues of a finite-order sigma are roots of unity,
    so no power of it has a larger trace.  It also stops at a power other
    than I whose trace equals the rank, such as any power of a unipotent
    sigma: a finite-order power with that trace has every eigenvalue 1 and
    is diagonalizable, so it is I.
    """

    lattice: Lattice
    sigma: IntMatrix
    order: int
    norm: IntMatrix = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.lattice.rank
        if not self.sigma.is_square or self.sigma.rows != n:
            raise DimensionMismatch(
                f"sigma is {self.sigma.rows}x{self.sigma.cols} on rank {n}"
            )
        if self.order < 1:
            raise UnsupportedParameter(f"group order {self.order} < 1")
        g = self.lattice.gram
        if self.sigma.transpose() @ g @ self.sigma != g:
            raise ActionNotIsometric("sigma does not preserve the pairing")

        eye = IntMatrix.identity(n)

        def step(power: IntMatrix) -> IntMatrix | None:
            power = power @ self.sigma
            trace = sum(power.entries[:: n + 1])
            return None if abs(trace) > n or (trace == n and power != eye) else power

        powers = orbit(step, eye, min(self.order, period_bound(n)))
        if powers is None or self.order % len(powers):
            raise UnsupportedParameter(
                f"sigma^{self.order} is not the identity"
            )
        norm = sum(powers[1:], powers[0]).scale(self.order // len(powers))
        object.__setattr__(self, "norm", norm)


@dataclass(frozen=True)
class CohResult:
    """Torsion invariant factors, free rank, and generator representatives."""

    invariant_factors: tuple[int, ...]
    free_rank: int
    generators: tuple[IntVector, ...]

    @property
    def group_order(self) -> int:
        return math.prod(self.invariant_factors)


def norm_and_diff(gl: GLattice) -> tuple[IntMatrix, IntMatrix]:
    """The norm N = sum of sigma^i and difference D = 1 - sigma."""
    return gl.norm, IntMatrix.identity(gl.lattice.rank) - gl.sigma


def h1(gl: GLattice) -> CohResult:
    """ker N / im D with explicit torsion generators, from one Smith form of D.

    The torsion of Z^r / im D is ker N / im D because ker N is the
    saturation of im D (see the module docstring), so N itself is never
    eliminated and free_rank is 0.

    >>> from .lattices import Lattice
    >>> minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    >>> res = h1(GLattice(Lattice(IntMatrix.zeros(2, 2)), minus, 2))
    >>> res.invariant_factors
    (2, 2)
    """
    _, diff = norm_and_diff(gl)
    res = snf(diff)
    torsion = tuple([d for d in res.diagonal if d > 1])
    generators = tuple([
        tuple([x // d for x in diff.mul_vec(res.V.col(i))])
        for i, d in enumerate(res.diagonal)
        if d > 1
    ])
    return CohResult(torsion, 0, generators)


def fixed_sublattice(gl: GLattice) -> Embedding:
    """The saturated sublattice of vectors fixed by sigma."""
    diff = IntMatrix.identity(gl.lattice.rank) - gl.sigma
    kernel = integer_kernel(diff)
    gram = kernel.transpose() @ gl.lattice.gram @ kernel
    return Embedding(Lattice(gram), gl.lattice, kernel)


def half_gram_quotient(gl: GLattice) -> Lattice:
    """The fixed sublattice with its pairing halved.

    Models the lattice downstairs of a double quotient, where pullback
    doubles every intersection number.  Requires order 2 and a uniformly
    even fixed Gram matrix.
    """
    if gl.order != 2:
        raise UnsupportedParameter(f"quotient halving needs order 2, got {gl.order}")
    gram = fixed_sublattice(gl).source.gram
    if any(e % 2 for e in gram.entries):
        raise OddEntry("fixed sublattice pairing is not uniformly even")
    return Lattice(IntMatrix(gram.rows, gram.cols, tuple([e // 2 for e in gram.entries])))
