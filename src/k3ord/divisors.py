"""Numerical divisor calculus on an even Picard lattice: ampleness
certificates in the style of the Nakai-Moishezon criterion.

A certificate is only as strong as its hypotheses.  Positivity of s.s and of
every pairing s . s_i and s . (s - s_i) is decided exactly; the section
existence h0(s - s_i) > 0 is not lattice-decidable, so it is recorded as an
explicit assumption (sanity-checked by (s - s_i)^2 >= -2) instead of being
silently claimed.  As the Gram matrix G is symmetric, a certificate forms G s
once and reads every pairing off it: s.s = s . Gs, s.g = g . Gs,
s.(s - g) = s.s - s.g and (s - g)^2 = s.s - 2 s.g + g.G.g, where g.G.g sums
g_i (row i of G) . g over the nonzero coordinates g_i of g.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionMismatch, GensDoNotSpan
from .lattices import Lattice
from .matrices import IntMatrix, _echelon


# A divisor class is its coordinate tuple in a fixed Picard basis.
DivisorClass = tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: Optional[str] = None


@dataclass(frozen=True)
class AmpleCertificate:
    """Exact positivity data for one candidate ample class.

    pair_checks holds one triple (i, s.s_i, s.(s-s_i)) per generator,
    1-based.  verdict.passed requires s.s > 0 and strict positivity of every
    listed pairing, with each (s - s_i)^2 >= -2 so the assumed section
    existence is at least numerically consistent.
    """

    s: DivisorClass
    self_int: int
    pair_checks: tuple[tuple[int, int, int], ...]
    assumptions: tuple[str, ...]
    verdict: Verdict


def nakai_certificate(
    lattice: Lattice, s: DivisorClass, gens: Sequence[DivisorClass]
) -> AmpleCertificate:
    """Certify ampleness of s against effective generators of the lattice:
    they span when one `_echelon` of their rows finds rank many pivots, and
    each pairing is read off one G s by the identities of the module docstring."""
    gen_rows = [list(g) for g in gens]
    ncols = IntMatrix.from_rows(gen_rows).cols  # rejects ragged and non-integer rows
    if len(list(_echelon(gen_rows, ncols, []))) < lattice.rank:
        raise GensDoNotSpan("generators do not span the lattice over Q")

    n, e = lattice.rank, lattice.gram.entries
    for length in (len(s), ncols):  # ncols is the length of every generator
        if length != n:
            raise DimensionMismatch(f"vectors of length {len(s)}, {length} against rank {n}")
    gs = lattice.gram.mul_vec(s)
    self_int = sum(map(mul, s, gs))
    checks, assumptions, reason = [], [], None
    if self_int <= 0:
        reason = f"s.s = {self_int} is not positive"
    for i, g in enumerate(gens, start=1):
        with_gen = sum(map(mul, g, gs))
        with_residual = self_int - with_gen
        g_square = sum([x * sum(map(mul, e[k * n:k * n + n], g)) for k, x in enumerate(g) if x])
        residual_square = self_int - 2 * with_gen + g_square
        checks.append((i, with_gen, with_residual))
        assumptions.append(f"h0(s - s{i}) > 0 assumed; (s - s{i})^2 = {residual_square}")
        if reason is None and with_gen <= 0:
            reason = f"s . s{i} = {with_gen} is not positive"
        elif reason is None and with_residual <= 0:
            reason = f"s . (s - s{i}) = {with_residual} is not positive"
        elif reason is None and residual_square < -2:
            reason = f"(s - s{i})^2 = {residual_square} < -2 cannot be effective"
    verdict = Verdict(passed=reason is None, reason=reason)
    return AmpleCertificate(
        s=s,
        self_int=self_int,
        pair_checks=tuple(checks),
        assumptions=tuple(assumptions),
        verdict=verdict,
    )
