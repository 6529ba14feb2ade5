"""First cohomology of a finite cyclic group acting on a lattice.

For a generator sigma of order n acting on a lattice M, the group cohomology
H^1 is the homology of the periodic pair

    N = 1 + sigma + ... + sigma^(n-1),      D = 1 - sigma,

namely ker N / im D.  N is built from the period k of sigma, which divides
n, as (n/k)(1 + sigma + ... + sigma^(k-1)).  The quotient is computed
exactly: one Smith normal form U.K.V = [I; 0] of a saturated basis K of
ker N rewrites every column of D in K-coordinates (possible since N.D = 0),
and the Smith normal form of that coordinate matrix reads off the invariant
factors.  One representative cocycle per torsion factor is lifted back
through the unimodular transform, so each generator can be checked
directly: it is killed by N and is not an image of D.

Multiplying any cocycle by n lands in im D, so the quotient is always
n-torsion; free_rank is recorded for completeness and equals 0 for every
valid action.

The fixed sublattice ker(1 - sigma) is returned as a saturated embedding.
For an involution whose fixed pairing is uniformly even, halving that Gram
matrix gives the pairing of the quotient lattice downstairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    None when that return takes more than limit steps.  A sum over a cyclic
    group of order n is n/k times the sum over an orbit of length k.
    """
    points = [start]
    while (current := step(points[-1])) != start:
        if len(points) == limit:
            return None
        points.append(current)
    return points


@dataclass(frozen=True)
class GLattice:
    """A lattice together with an isometry generating a finite cyclic group."""

    lattice: Lattice
    sigma: IntMatrix
    order: int

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
        powers = orbit(lambda p: p @ self.sigma, IntMatrix.identity(n), self.order)
        if powers is None or self.order % len(powers):
            raise UnsupportedParameter(
                f"sigma^{self.order} is not the identity"
            )


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
    ident = IntMatrix.identity(gl.lattice.rank)
    powers = orbit(lambda p: p @ gl.sigma, ident, gl.order)
    norm = sum(powers[1:], powers[0]).scale(gl.order // len(powers))
    return norm, ident - gl.sigma


def h1(gl: GLattice) -> CohResult:
    """ker N / im D with explicit torsion generators.

    >>> from .lattices import Lattice
    >>> minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    >>> res = h1(GLattice(Lattice(IntMatrix.zeros(2, 2)), minus, 2))
    >>> res.invariant_factors
    (2, 2)
    """
    norm, diff = norm_and_diff(gl)
    kernel = integer_kernel(norm)
    k = kernel.cols
    if k == 0:
        return CohResult((), 0, ())
    # K is saturated, so U.K.V = [I; 0] and K.c = d reads c = V.(top k rows of U.d)
    basis = snf(kernel)
    moved = basis.U @ diff
    if any(moved.entries[k * moved.cols:]):
        raise UnsupportedParameter("im D does not lie in the saturated ker N")
    coords = basis.V @ IntMatrix(k, moved.cols, moved.entries[:k * moved.cols])
    res = snf(coords)
    torsion = tuple([d for d in res.invariant_factors if d > 1])
    free_rank = k - res.rank
    u_inv = res.U.to_rat().inverse().to_int()
    generators = tuple([
        kernel.mul_vec(u_inv.col(i))
        for i, d in enumerate(res.diagonal)
        if d > 1
    ])
    return CohResult(torsion, free_rank, generators)


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
