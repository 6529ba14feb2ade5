"""Extending a Picard-lattice involution across the whole ambient lattice.

Given a sublattice embedded by P, an isometry of it given by a matrix
`action`, and the orthogonal complement T, there is a unique rational map of
the ambient lattice restricting to the action on the image of P and to -1 on
the span of T.  In the frame A = [P | T] it is

    phi = A . blockdiag(action, -I) . A^(-1),

computed exactly over the integers: phi is an integer numerator over
det A, from the adjugate of A, reduced to lowest terms.  phi preserves the
integer lattice exactly when that reduced denominator is 1, never by a
tolerance test.  The result records that integrality flag together with
exact orthogonality and involutivity certificates.

The map is determined by its values on the two rational spans, so the choice
of complement basis cannot change it; an alternative basis may still be
supplied to exercise exactly that independence.

Only the lattice-side conditions are certified.  Whether the extension is
induced by a geometric symmetry involves conditions on the transcendental
part and the ample cone that this module does not see; they are listed in
``ExtensionResult.assumptions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embeddings import Embedding, orthogonal_complement
from .errors import ActionNotIsometric, DimensionMismatch, SingularFrame
from .lattices import Lattice
from .matrices import IntMatrix, RatMatrix

EXTENSION_ASSUMPTIONS = (
    "acts as -1 on the orthogonal complement of the embedded sublattice",
    "preservation of a Hodge structure or of an ample cone is not certified",
)


@dataclass(frozen=True)
class ExtensionResult:
    """The rational extension together with its exact certificates."""

    phi: RatMatrix
    integral: bool
    orthogonal: bool
    involutive: bool
    phi_integer: Optional[IntMatrix]
    assumptions: tuple[str, ...] = EXTENSION_ASSUMPTIONS


def extend_by_minus_one(
    target: Lattice,
    pic: Embedding,
    action: IntMatrix,
    complement: Optional[IntMatrix] = None,
) -> ExtensionResult:
    """Extend `action` on the image of `pic` by -1 on its complement.

    `complement` overrides the computed complement basis; any basis of the
    same rational span yields the same phi.
    """
    if pic.target.gram != target.gram:
        raise DimensionMismatch("embedding target does not match the given lattice")
    n = pic.source.rank
    if not action.is_square or action.rows != n:
        raise DimensionMismatch(
            f"action is {action.rows}x{action.cols}, expected {n}x{n}"
        )
    q = pic.source.gram
    if action.transpose() @ q @ action != q:
        raise ActionNotIsometric("action does not preserve the sublattice pairing")

    t = complement if complement is not None else orthogonal_complement(pic).complement.matrix
    frame = pic.matrix.hstack(t)
    a = frame.to_rat()
    try:
        a_inv = a.inverse() if frame.is_square else None
    except ValueError:  # singular
        a_inv = None
    if a_inv is None:
        raise SingularFrame("embedding and complement do not span the ambient space")

    blocks = IntMatrix.block_diag([action, IntMatrix.identity(t.cols).scale(-1)])
    phi = a @ blocks.to_rat() @ a_inv

    g = target.gram.to_rat()
    orthogonal = phi.transpose() @ g @ phi == g
    involutive = phi @ phi == RatMatrix.identity(target.rank)
    integral = phi.is_integral
    phi_integer = phi.to_int() if integral else None
    return ExtensionResult(
        phi=phi,
        integral=integral,
        orthogonal=orthogonal,
        involutive=involutive,
        phi_integer=phi_integer,
    )
