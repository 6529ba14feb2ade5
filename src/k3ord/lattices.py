"""Even lattices given by integer Gram matrices.

A lattice here is a free Z-module of finite rank together with a symmetric
integer bilinear form, recorded as a Gram matrix in a fixed basis.  The
builders below assemble the standard summands used throughout the package:
the negative definite E8 form, the hyperbolic plane H, and their orthogonal
sum E8 + E8 + H + H + H of rank 22 and signature (3, 19).

A lattice carries nothing but its Gram matrix; K3 is built once, at import.
Its rank 22 basis is, in order, la1..la8 and la1p..la8p for the two E8
blocks, then mu1, mu2, mu1p, mu2p, mu1pp, mu2pp for the three hyperbolic
blocks; the columns of the catalog's embedding matrices are in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, NotSymmetric
from .matrices import IntMatrix

E8_GRAM = IntMatrix.from_rows([
    [-2, 0, 0, 1, 0, 0, 0, 0],
    [0, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [1, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 0],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 0, 1, -2],
])

H_GRAM = IntMatrix.from_rows([[0, 1], [1, 0]])


@dataclass(frozen=True)
class Lattice:
    """A finite rank Z-lattice with a symmetric integer pairing.

    >>> Lattice(H_GRAM).rank
    2
    """

    gram: IntMatrix

    def __post_init__(self):
        if not self.gram.is_symmetric:
            raise NotSymmetric("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return self.gram.rows


def build_H() -> Lattice:
    """The hyperbolic plane: rank 2, Gram [[0,1],[1,0]]."""
    return Lattice(H_GRAM)


_K3 = Lattice(IntMatrix.block_diag([E8_GRAM, E8_GRAM, H_GRAM, H_GRAM, H_GRAM]))


def build_K3() -> Lattice:
    """The rank 22 orthogonal sum E8 + E8 + H + H + H, built once at import.

    >>> build_K3().rank
    22
    """
    return _K3


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    """Orthogonal sum: block diagonal Gram."""
    return Lattice(IntMatrix.block_diag([a.gram, b.gram]))


def pair(lattice: Lattice, x: Sequence[int], y: Sequence[int]) -> int:
    """The bilinear form x . y evaluated in the lattice basis.

    >>> pair(build_H(), (1, 0), (0, 1))
    1
    """
    n = lattice.rank
    if len(x) != n or len(y) != n:
        raise DimensionMismatch(
            f"vectors of length {len(x)}, {len(y)} against rank {n}"
        )
    gy = lattice.gram.mul_vec(y)
    return sum(x[i] * gy[i] for i in range(n))
