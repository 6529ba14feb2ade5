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
formed.  Let B hold the w nonzero rows of action + I and P_B the matching
columns of P; a zero row of action + I adds nothing to P.(action + I), so
P.(action + I) = P_B.B.  One fraction-free elimination of the n x (n + w)
matrix [Q | B^T] (`matrices.solve_scaled`) gives the Y with Q.Y = d.B^T,
so, Q being symmetric, Y^T = d.B.Q^(-1) and

    F = P_B.Y^T.M - d.I,    phi = F / d,

returned as that numerator and denominator (`num`, `den`), reduced to lowest
terms by one gcd with den > 0.  The solve is only as wide as B: on
every sextic cover action + I has two nonzero rows of n, and for
action = -I it has none, when the elimination only finds d.

phi preserves the integer lattice exactly when den is 1
(`ExtensionResult.integral`), never by a tolerance test.  The result records
two certificates of the computed phi, each an integer identity tested
exactly on the reduced F over d: phi is orthogonal when F^T.G.F = d^2.G
(`matrices.is_congruence`) and involutive when F.F - d^2.I = 0
(`matrices.annihilates`).

Only the lattice-side conditions are certified.  Whether the extension is
induced by a geometric symmetry involves conditions on the transcendental
part and the ample cone that this module does not see; they are listed in
``ExtensionResult.assumptions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embeddings import Embedding
from .errors import ActionNotIsometric, DimensionMismatch, SingularFrame
from .matrices import IntMatrix, annihilates, is_congruence, solve_scaled

EXTENSION_ASSUMPTIONS = (
    "acts as -1 on the orthogonal complement of the embedded sublattice",
    "preservation of a Hodge structure or of an ample cone is not certified",
)


@dataclass(frozen=True)
class ExtensionResult:
    """phi = num / den in lowest terms, den > 0, with its exact certificates."""

    num: IntMatrix
    den: int
    orthogonal: bool
    involutive: bool
    assumptions: tuple[str, ...] = EXTENSION_ASSUMPTIONS

    @property
    def integral(self) -> bool:
        return self.den == 1


def extend_by_minus_one(pic: Embedding, action: IntMatrix) -> ExtensionResult:
    """Extend `action` on the image of `pic` by -1 on its complement.

    phi = -I + P.(action + I).Q^(-1).M with M = P^T.G and Q = M.P, taken
    as (P_B.Y^T.M - d.I) / d from the one solve Q.Y = d.B^T with d = det Q,
    B the nonzero rows of action + I and P_B the matching columns of P;
    raises SingularFrame exactly when d = 0, that is when the image of P
    and its orthogonal complement do not span the ambient space, however
    few rows B has.
    """
    target = pic.target
    n = pic.source.rank
    if not action.is_square or action.rows != n:
        raise DimensionMismatch(
            f"action is {action.rows}x{action.cols}, expected {n}x{n}"
        )
    if not is_congruence(action, pic.source.gram, pic.source.gram):
        raise ActionNotIsometric("action does not preserve the sublattice pairing")

    p, big = pic.matrix, target.rank
    m = p.transpose() @ target.gram
    # B: the nonzero rows of action + I, the only ones that reach phi
    plus = (action + IntMatrix.identity(n)).to_rows()
    live = [i for i, r in enumerate(plus) if any(r)]
    b = IntMatrix(len(live), n, tuple([x for i in live for x in plus[i]]))
    try:
        d, y = solve_scaled(m @ p, b.transpose())
    except ValueError:  # singular
        raise SingularFrame("embedding and complement do not span the ambient space") from None
    # d.phi = P_B.Y^T.M - d.I; P is mostly zeros, so it leads the outer product
    p_b = IntMatrix(big, len(live), tuple([r[i] for r in p.to_rows() for i in live]))
    lift = list((p_b @ (y.transpose() @ m)).entries)
    diagonal = slice(None, None, big + 1)
    lift[diagonal] = [x - d for x in lift[diagonal]]
    # lowest terms, den > 0
    g = math.gcd(d, *lift) * (1 if d > 0 else -1)
    if g != 1:
        lift, d = [x // g for x in lift], d // g
    f = IntMatrix(big, big, tuple(lift))

    orthogonal = is_congruence(f, target.gram, target.gram.scale(d * d))
    involutive = annihilates((-d * d, 0, 1), f)
    return ExtensionResult(f, d, orthogonal, involutive)
