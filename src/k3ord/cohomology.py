"""First cohomology of a finite cyclic group acting on a lattice.

For a generator sigma of order n acting on a lattice M, the group cohomology
H^1 is the homology of the periodic pair

    N = 1 + sigma + ... + sigma^(n-1),      D = 1 - sigma,

namely ker N / im D.

The test sigma^n = I and N both use the minimal polynomial mu of sigma.
sigma^n = I exactly when mu divides the squarefree x^n - 1: mu is a product
of distinct cyclotomic polynomials Phi_m, each m dividing n.  Then sigma is
semisimple over Q and N is n on the eigenvalue 1 and 0 on the others, as is
(n / g(1)) g(sigma) for mu = (x - 1) g, or 0 if mu(1) != 0.  So N needs
sigma^k only for k < deg mu, and an involution forms no product.  mu is kept
with the lattice and N is built from it when first read, so a caller that
reads only D never forms N.

mu is the lcm of the minimal polynomials mu_j of the basis vectors e_j, each
the first integer relation among e_j, sigma e_j, sigma^2 e_j, ..., found on
rows of rank entries.  Each mu_j divides mu, so each must be a product of
distinct Phi_m with m dividing n, and the lcm is the product of Phi_m over
the union of their m.  The lcm of mu_1, ..., mu_j divides mu, so it is mu as
soon as it kills sigma; that is tested exactly by `matrices.annihilates`
each time the lcm grows, and after e_rank it is mu anyway.

The quotient is read off D alone.  As sigma is semisimple over Q,
Q^r = ker(1 - sigma) + im(1 - sigma) is a direct sum; N is
multiplication by n on the first summand and 0 on the second, so ker N and
im D span the same subspace over Q.  ker N is saturated, being a kernel, so
it is the saturation of im D, and ker N / im D is the torsion subgroup of
Z^r / im D.  One Smith normal form U.D.V = diag(d) gives it as the sum of
Z/d_i over the d_i > 1.  One representative cocycle per such factor is
U^-1.e_i = D.V.e_i / d_i, read by undoing the Smith form's logged row
operations on e_i, so neither V nor a product with D is formed.  d_i times
it lies in im D, so it lies in the saturation of im D and N kills it.  Each
generator can be checked directly: it is killed by N and is not an image of
D.  The generators are representatives read off U, which is not unique, so
they are not canonical vectors: another U can give other generators of the
same group.  The result keeps the Smith form and undoes its log only when
the generators are first read, and results compare as groups.

The same Smith form decides a class v, with c = U.v read by walking the
row log forwards.  As V is unimodular, im D = U^-1 im diag(d), so v lies
in im D exactly when c_i = 0 past the rank of D and d_i divides c_i below
it; its saturation, ker N, is U^-1 of the c vanishing past the rank.  So v
is a cocycle when c vanishes past the rank, and a coboundary when also
every d_i divides c_i: no check kind builds N or eliminates D again.

Since ker N / im D is the torsion of Z^r / im D, H^1 has no free part (as
for any finite group, n times a cocycle lies in im D); free_rank is always
0 and is kept in the result for completeness.

The Smith form of D and the fixed sublattice ker(1 - sigma), a saturated
embedding, are each built on first read and kept, as N is.  For an
involution whose fixed pairing is uniformly even, halving its Gram matrix
gives the pairing of the quotient downstairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, mod, mul
from typing import Sequence

from .embeddings import Embedding
from .errors import (
    ActionNotIsometric,
    DimensionMismatch,
    OddEntry,
    UnsupportedParameter,
)
from .lattices import Lattice
from .matrices import (
    IntMatrix,
    IntVector,
    SNFResult,
    _apply,
    _echelon,
    _replay,
    _undo,
    annihilates,
    integer_kernel,
    is_congruence,
    snf,
)


def _divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic b, coefficients constant term first."""
    a, k = list(a), len(b) - 1
    q = [0] * (len(a) - k)
    for i in reversed(range(len(q))):
        q[i] = c = a[i + k]
        a[i:i + k + 1] = [x - c * y for x, y in zip(a[i:i + k + 1], b)]
    return q, a[:k]


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials, coefficients constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyclotomic_orders(mu: list[int]) -> dict[int, list[int]] | None:
    """The Phi_m, keyed by m, whose product is mu, or None if it is not a
    product of distinct cyclotomic polynomials.

    Each Phi_m with phi(m) at most the degree left is divided out once, so a
    repeated or non-cyclotomic factor stays; phi(m) >= sqrt(m) for m > 6
    bounds m.  Phi_m is x^m - 1 over the built Phi_e, e | m, and m less their
    degrees is phi(m), or more when some e had phi(e) too large to be built.
    """
    built, factors, m = {}, {}, 0
    while len(mu) > 1 and (m := m + 1) <= max(6, (len(mu) - 1) ** 2):
        below = [f for e, f in built.items() if m % e == 0]
        if m - sum(len(f) - 1 for f in below) < len(mu):
            poly = [-1] + [0] * (m - 1) + [1]
            for f in below:
                poly = _divide(poly, f)[0]
            built[m] = poly
            quotient, rest = _divide(mu, poly)
            if not any(rest):
                mu, factors[m] = quotient, poly
    return factors if mu == [1] else None


@dataclass(frozen=True)
class GLattice:
    """A lattice together with an isometry generating a finite cyclic group.

    sigma^order = I when the minimal polynomial mu of sigma is a product of
    distinct Phi_m, each m dividing `order`, and UnsupportedParameter is
    raised otherwise.  mu is the lcm of the minimal polynomials of the basis
    vectors, and the search stops once the lcm kills sigma (see the module
    docstring).  `mu` is kept, coefficients constant term first.  `diff` is
    D = 1 - sigma, built here; `norm`, N = sum_{i<order} sigma^i from mu,
    `smith`, the Smith form U.D.V = diag(d) that `h1` and every class verdict
    read (v is a cocycle when U.v vanishes past the rank of D, a coboundary
    when also each d_i divides (U.v)_i), and `fixed`, the saturated ker D,
    are built on first read, or never.

    >>> phi6 = IntMatrix.from_rows([[0, -1], [1, 1]])
    >>> GLattice(Lattice(IntMatrix.zeros(2, 2)), phi6, 6).norm == IntMatrix.zeros(2, 2)
    True
    >>> GLattice(Lattice(IntMatrix.zeros(2, 2)), phi6, 4)
    Traceback (most recent call last):
      ...
    k3ord.errors.UnsupportedParameter: sigma^4 is not the identity
    """

    lattice: Lattice
    sigma: IntMatrix
    order: int
    mu: tuple[int, ...] = field(init=False, compare=False, repr=False)
    diff: IntMatrix = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.lattice.rank
        if not self.sigma.is_square or self.sigma.rows != n:
            raise DimensionMismatch(
                f"sigma is {self.sigma.rows}x{self.sigma.cols} on rank {n}"
            )
        if self.order < 1:
            raise UnsupportedParameter(f"group order {self.order} < 1")
        if not is_congruence(self.sigma, self.lattice.gram, self.lattice.gram):
            raise ActionNotIsometric("sigma does not preserve the pairing")

        # For each e_j, W * krylov is an echelon form, W unimodular and logged
        # by every run in one log, as each run goes on from the rows the last
        # one reduced.  The first dependent sigma^k e_j lies in the integer
        # span of the vectors below (mu_j is monic and integral, dividing the
        # characteristic polynomial), so its row is reduced without a swap
        # and row k of W, replayed from the log, is mu_j
        ms, mu = set(), [1]
        for j in range(n):
            v, krylov, log = [int(i == j) for i in range(n)], [], []
            while True:
                krylov.append(list(v))
                if len(list(_echelon(krylov, n, log))) < len(krylov):
                    break
                v = self.sigma.mul_vec(v)
            mu_j = _replay(log, [0] * (len(krylov) - 1) + [1])
            if (factors := _cyclotomic_orders(mu_j)) is None or any(self.order % m for m in factors):
                raise UnsupportedParameter(f"sigma^{self.order} is not the identity")
            new = factors.keys() - ms
            for m in new:
                mu = _times(mu, factors[m])
            ms |= new
            if new and j < n - 1 and annihilates(mu, self.sigma):
                break
        object.__setattr__(self, "mu", tuple(mu))
        diff = [-x for x in self.sigma.entries]
        diff[::n + 1] = [1 + x for x in diff[::n + 1]]
        object.__setattr__(self, "diff", IntMatrix(n, n, tuple(diff)))

    @cached_property
    def norm(self) -> IntMatrix:
        """N = sum_{i<order} sigma^i, built from mu on first read."""
        n = self.lattice.rank
        # g(1) divides lcm(ms), so order // g(1) is exact
        g, (mu_at_1,) = _divide(self.mu, [-1, 1])
        norm = [0] * (n * n)
        if not mu_at_1:
            k, power = self.order // sum(g), IntMatrix.identity(n)
            for i, c in enumerate(g):
                if i:
                    power = self.sigma if i == 1 else power @ self.sigma
                if c:
                    norm = list(map(add, norm, map(mul, repeat(c * k), power.entries)))
        return IntMatrix(n, n, tuple(norm))

    @cached_property
    def smith(self) -> SNFResult:
        """The Smith form of D, built on first read."""
        return snf(self.diff)

    @cached_property
    def fixed(self) -> Embedding:
        """The saturated sublattice ker D of vectors fixed by sigma, built on first read."""
        kernel = integer_kernel(self.diff)
        gram = kernel.transpose() @ self.lattice.gram @ kernel
        return Embedding(Lattice(gram), self.lattice, kernel)


@dataclass(frozen=True)
class CohResult:
    """Torsion invariant factors, free rank, and generator representatives.

    `generators` holds one representative per torsion factor, undone from
    the row log of `smith`, the Smith form U.D.V = diag(d) of D, on first
    read.  They are not canonical (see the module docstring), so two
    results compare equal when they are the same group: same invariant
    factors and free rank.  `verdict(v)` decides a class from c = U.v:
    im D = U^-1 im diag(d), as V is unimodular, and ker N is its saturation,
    so v is a cocycle when c vanishes past the rank of D and a coboundary
    when also each d_i divides c_i.

    >>> phi3 = IntMatrix.from_rows([[0, -1], [1, -1]])
    >>> res = h1(GLattice(Lattice(IntMatrix.zeros(2, 2)), phi3, 3))
    >>> res.verdict((1, 2)), res.verdict((1, 1))
    ((True, True), (True, False))
    """

    invariant_factors: tuple[int, ...]
    free_rank: int
    smith: SNFResult = field(repr=False, compare=False)

    @cached_property
    def generators(self) -> tuple[IntVector, ...]:
        n = self.smith.D.rows
        return tuple([
            tuple(_undo(self.smith.ulog, [int(j == i) for j in range(n)]))
            for i, d in enumerate(self.smith.diagonal)
            if d > 1
        ])

    def verdict(self, v: Sequence[int]) -> tuple[bool, bool]:
        """(cocycle, coboundary) for the class of v, read off c = U.v."""
        n = self.smith.D.rows
        if len(v) != n:
            raise DimensionMismatch(f"vector length {len(v)} != rank {n}")
        c = _apply(self.smith.ulog, list(v))
        ds = self.smith.invariant_factors
        if any(c[len(ds):]):
            return False, False
        return True, not any(map(mod, c, ds))


def norm_and_diff(gl: GLattice) -> tuple[IntMatrix, IntMatrix]:
    """The norm N = sum of sigma^i and difference D = 1 - sigma."""
    return gl.norm, gl.diff


def h1(gl: GLattice) -> CohResult:
    """ker N / im D with explicit torsion generators, from one Smith form of D.

    The torsion of Z^r / im D is ker N / im D because ker N is the
    saturation of im D (see the module docstring), so N itself is never
    eliminated and free_rank is 0.  The Smith form is `gl.smith`, of
    `gl.diff`, built once per G-lattice; the generator of each Z/d_i,
    d_i > 1, is U^-1.e_i, undone from its row log when the result's
    `generators` are first read, and not before.

    >>> from .lattices import Lattice
    >>> minus = IntMatrix.from_rows([[-1, 0], [0, -1]])
    >>> res = h1(GLattice(Lattice(IntMatrix.zeros(2, 2)), minus, 2))
    >>> res.invariant_factors
    (2, 2)
    """
    res = gl.smith
    return CohResult(tuple([d for d in res.diagonal if d > 1]), 0, res)


def fixed_sublattice(gl: GLattice) -> Embedding:
    """The saturated sublattice of vectors fixed by sigma, kept as `gl.fixed`."""
    return gl.fixed


def half_gram_quotient(gl: GLattice) -> Lattice:
    """The fixed sublattice with its pairing halved.

    Models the lattice downstairs of a double quotient, where pullback
    doubles every intersection number.  Requires order 2, checked before the
    fixed sublattice is read, and a uniformly even fixed Gram matrix.
    """
    if gl.order != 2:
        raise UnsupportedParameter(f"quotient halving needs order 2, got {gl.order}")
    gram = gl.fixed.source.gram
    if any(e % 2 for e in gram.entries):
        raise OddEntry("fixed sublattice pairing is not uniformly even")
    return Lattice(IntMatrix(gram.rows, gram.cols, tuple([e // 2 for e in gram.entries])))
