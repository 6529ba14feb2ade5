"""Even lattices given by integer Gram matrices.

A lattice here is a free Z-module of finite rank together with a symmetric
integer bilinear form, recorded as a Gram matrix in a fixed basis.  The
builders below assemble the standard summands used throughout the package:
the negative definite E8 form, the hyperbolic plane H, and their orthogonal
sum E8 + E8 + H + H + H of rank 22 and signature (3, 19).

Basis labels are optional metadata for reporting.  Arithmetic never consults
them; the Gram matrix is the single source of truth.

The rank 22 form is labelled la1..la8, la1p..la8p for the two E8 blocks and
mu1, mu2, mu1p, mu2p, mu1pp, mu2pp for the three hyperbolic blocks, in that
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not self.gram.is_symmetric:
            raise NotSymmetric("Gram matrix must be symmetric")
        if self.labels is not None and len(self.labels) != self.gram.rows:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for rank {self.gram.rows}"
            )

    @property
    def rank(self) -> int:
        return self.gram.rows


def build_E8() -> Lattice:
    """The negative definite even unimodular lattice of rank 8."""
    return Lattice(E8_GRAM, labels=tuple([f"e{i}" for i in range(1, 9)]))


def build_H() -> Lattice:
    """The hyperbolic plane: rank 2, Gram [[0,1],[1,0]]."""
    return Lattice(H_GRAM, labels=("u", "v"))


def build_K3() -> Lattice:
    """The rank 22 orthogonal sum E8 + E8 + H + H + H.

    >>> build_K3().rank
    22
    """
    labels = (
        tuple([f"la{i}" for i in range(1, 9)])
        + tuple([f"la{i}p" for i in range(1, 9)])
        + ("mu1", "mu2", "mu1p", "mu2p", "mu1pp", "mu2pp")
    )
    gram = IntMatrix.block_diag([E8_GRAM, E8_GRAM, H_GRAM, H_GRAM, H_GRAM])
    return Lattice(gram, labels=labels)


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    """Orthogonal sum: block diagonal Gram, labels kept when both have them."""
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    return Lattice(IntMatrix.block_diag([a.gram, b.gram]), labels=labels)


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


def is_even(lattice: Lattice) -> bool:
    """True iff x . x is even for every x (equivalently: even diagonal).

    >>> is_even(build_H())
    True
    >>> is_even(Lattice(IntMatrix.from_rows([[-1, 1], [1, 0]])))
    False
    """
    return all(lattice.gram.entry(i, i) % 2 == 0 for i in range(lattice.rank))
