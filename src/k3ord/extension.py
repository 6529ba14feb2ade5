"""Extending a Picard-lattice involution across the whole ambient lattice.

Given a sublattice embedded by P into a lattice with Gram matrix G and an
isometry `action` of it, there is a unique rational map of the ambient
lattice restricting to the action on the image of P and to -1 on its
orthogonal complement.  With M = P^T.G and Q = M.P it is

    phi = -I + P.(action + I).Q^(-1).M:

write x = P.a + t with t orthogonal to P; then M.x = Q.a, and
phi(x) = P.action.a - t = -x + P.(action + I).a.  P.Q^(-1).M is the
orthogonal projection onto the image of P, as in Nikulin's gluing of
isometries of S + S^perp (1979), so no complement basis is chosen and only
the n x n matrix Q is eliminated.  Q is nonsingular exactly when the image of
P and a basis T of ker M form a square nonsingular frame [P | T]: applying
M to P.a + T.b = 0 gives Q.a = 0, and Q.a = 0 puts P.a in ker M.

phi is computed as an integer numerator F over d = det Q, with no inverse
formed: one fraction-free elimination of the n x 2n matrix
[Q | (action + I)^T] (`matrices.solve_scaled`) gives the Z with
Q.Z = d.(action + I)^T, so, Q being symmetric, Z^T = d.(action + I).Q^(-1)
and

    F = P.Z^T.M - d.I,    phi = F / d,

reduced to lowest terms by one gcd.  phi preserves the integer lattice
exactly when the reduced denominator is 1, never by a tolerance test.  The
result records that integrality flag with two certificates of the computed
phi, each an integer identity tested exactly on the reduced F over d: phi
is orthogonal when F^T.G.F = d^2.G (`matrices.is_congruence`) and
involutive when F.F - d^2.I = 0 (`matrices.annihilates`).

Only the lattice-side conditions are certified.  Whether the extension is
induced by a geometric symmetry involves conditions on the transcendental
part and the ample cone that this module does not see; they are listed in
``ExtensionResult.assumptions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .embeddings import Embedding
from .errors import ActionNotIsometric, DimensionMismatch, SingularFrame
from .matrices import IntMatrix, RatMatrix, annihilates, is_congruence, solve_scaled

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


def extend_by_minus_one(pic: Embedding, action: IntMatrix) -> ExtensionResult:
    """Extend `action` on the image of `pic` by -1 on its complement.

    phi = -I + P.(action + I).Q^(-1).M with M = P^T.G and Q = M.P, taken
    as (P.Z^T.M - d.I) / d from the one solve Q.Z = d.(action + I)^T with
    d = det Q; raises SingularFrame exactly when d = 0, that is when the
    image of P and its orthogonal complement do not span the ambient
    space.
    """
    target = pic.target
    n = pic.source.rank
    if not action.is_square or action.rows != n:
        raise DimensionMismatch(
            f"action is {action.rows}x{action.cols}, expected {n}x{n}"
        )
    if not is_congruence(action, pic.source.gram, pic.source.gram):
        raise ActionNotIsometric("action does not preserve the sublattice pairing")

    p = pic.matrix
    m = p.transpose() @ target.gram
    try:
        d, z = solve_scaled(m @ p, (action + IntMatrix.identity(n)).transpose())
    except ValueError:  # singular
        raise SingularFrame("embedding and complement do not span the ambient space") from None
    # d.phi = P.Z^T.M - d.I; P is mostly zeros, so it leads the outer product
    lift = list((p @ (z.transpose() @ m)).entries)
    diagonal = slice(None, None, target.rank + 1)
    lift[diagonal] = [x - d for x in lift[diagonal]]
    phi = RatMatrix(IntMatrix(target.rank, target.rank, tuple(lift)), d)

    f, d = phi.num, phi.den
    orthogonal = is_congruence(f, target.gram, target.gram.scale(d * d))
    involutive = annihilates((-d * d, 0, 1), f)
    integral = phi.is_integral
    phi_integer = phi.to_int() if integral else None
    return ExtensionResult(
        phi=phi,
        integral=integral,
        orthogonal=orthogonal,
        involutive=involutive,
        phi_integer=phi_integer,
    )
