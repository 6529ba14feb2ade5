"""Exact integer and rational matrix kernel.

Everything downstream (lattices, embeddings, cohomology, the involution
extension) reduces to a handful of operations implemented here with
arbitrary-precision integers. No floating point is used anywhere, and no
`fractions.Fraction` either: a rational matrix is an integer numerator over
one positive common denominator in lowest terms, as the involution extension
returns phi.  No package path builds a `RatMatrix`, that pair as a class; it
is kept for its product and inverse, which the benchmark's tracer names.

Provided operations:

* `snf`: Smith normal form with unimodular transforms, U * A * V = D; U
  and V are built from the elimination's log only when read, a column
  U^-1 * e_i is read by `_undo` and a product U * v by `_apply`, neither
  building U.
* `hermite_row_basis`: canonical (row Hermite) basis of a row lattice.
* `integer_kernel`: saturated kernel basis (a direct summand of Z^cols),
  the rows of the unimodular W of a row echelon form W * A^T = E whose E
  row is zero, each replayed from the log of that elimination.
* `solve_integer`: certified integer linear solving of a.x = b, by forward
  substitution through the same E, then x = W^T * y replayed from the log;
  a pivot that does not divide, or a remainder left when the pivots are
  used up, certifies that no solution exists.
* `det` and `solve_scaled`: one forward fraction-free (Bareiss) elimination,
  of A or of [A | B]; `solve_scaled` then reads the X with A * X = det(A) * B
  off by exact back-substitution, and `RatMatrix.inverse` is its B = I case
  over the determinant.  A row that a step would only scale is left as it
  is until it is read, so a row costs work only where it meets the pivot
  column; `solve_scaled` eliminates last index first, which keeps the
  catalog's Gram matrices, dense in their first row, from filling in.
* `signature`: exact signature of a symmetric matrix by congruence
  diagonalization over Z, by the eager fraction-free step, `_bareiss_step`,
  as its row and column additions need every row at one scale; the sign
  of each pivot is read by Jacobi's rule.
* `_probe(n, bound)` is the vector x = (1, T, ..., T^(n-1)), T = 2^t with
  t = bound.bit_length() + 1.  An n-column integer matrix whose entries are
  at most `bound` in absolute value is zero exactly when it kills x
  (Kronecker substitution: each row is read as the integer it packs in base
  T), so an identity A = B of matrices with |A - B| <= bound is tested as
  A * x == B * x: a few matrix-vector products instead of n x n products.
* `is_congruence(p, g, h)` tests p^T * g * p = h and `annihilates(mu, a)`
  tests mu(a) = 0, each on one probe; they are its only callers, so every
  certified matrix identity in the package takes its bound from them.
* One density rule picks the loop of every product with a matrix A:
  `IntMatrix.__matmul__` (and `RatMatrix.__matmul__`, which delegates to
  it) with A on the left, `mul_vec` (A * v) and `tmul_vec` (A^T * v).
  When at least half of the entries of A are zero, the loop runs over its
  nonzero x = A[i][k] only, kept as a list once read (`_nonzero`): an
  output row of A * B is the sum of x * (row k of B), entry i of A * v the
  sum of x * v[k], and x * v[i] is added to entry k of A^T * v.  So the
  cost follows the nonzero entries: the Gram matrix of the K3 lattice
  U^3 + E8(-1)^2, the embeddings into it and the involutions on it are
  mostly zeros, and every probe entry they skip has hundreds of bits.  A
  denser A keeps one C-level dot product per output entry, which is
  faster when few terms can be skipped.  The echelon elimination below
  needs no such rule: its row operations always skip the zero entries.

Conventions, pinned so outputs are reproducible:

* SNF diagonal entries are normalized nonnegative and each divides the next.
* The one echelon elimination behind `snf`, `hermite_row_basis`,
  `integer_kernel` and `solve_integer` pivots on the nonzero entry of minimal
  absolute value in the column, ties broken by row index.  It applies its
  row operations to the matrix alone, each in place and only where the
  pivot row is nonzero, so the pivots, E and the log are those of whole-row
  updates.  It logs them; the transform W is never carried along: W * y is
  read by walking the log forwards with `_apply`, W^T * y by walking it
  backwards with `_replay`, and W^-1 * y by walking it backwards with `_undo`.
* `integer_kernel` returns the unique column Hermite basis of the kernel.
* When the signature diagonalization meets a zero diagonal entry it first
  looks for a nonzero diagonal entry to swap in; failing that it adds row j
  and column j to row i and column i, where g[i][j] is the first nonzero
  off-diagonal entry; failing that row i is zero, counts as a zero of the
  form, and the previous pivot carries over to the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch, NonSquare, NotSymmetric

IntVector = tuple[int, ...]
RowOp = tuple[int, int, int]


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order.

    >>> m = IntMatrix.from_rows([[0, 1], [1, 0]])
    >>> m.entry(0, 1)
    1
    >>> (m @ m) == IntMatrix.identity(2)
    True
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        # one C-speed type scan; int subclasses and offenders take the per-entry check
        if not set(map(type, self.entries)) <= {int}:
            for x in self.entries:
                _as_int(x)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(nrows, ncols, tuple([x for r in rows for x in r]))

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls.from_rows(cols).transpose()

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        # a 1 and then n zeros, n - 1 times over, and a last 1
        return cls(n, n, ((1,) + (0,) * n) * (n - 1) + (1,) if n else ())

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, tuple([diag[i] if i == j else 0 for i in range(n) for j in range(n)]))

    @classmethod
    def block_diag(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        ncols = sum(b.cols for b in blocks)
        out, c0 = [], 0
        for b in blocks:
            out += [[0] * c0 + list(r) + [0] * (ncols - c0 - b.cols) for r in b.to_rows()]
            c0 += b.cols
        return cls(len(out), ncols, tuple([x for r in out for x in r]))

    # -- access ---------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> IntVector:
        return self.entries[j::self.cols]

    def to_rows(self) -> tuple[IntVector, ...]:
        return tuple([self.row(i) for i in range(self.rows)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def is_symmetric(self) -> bool:
        return self.is_square and all(self.row(i) == self.col(i) for i in range(self.rows))

    # -- arithmetic -----------------------------------------------------

    @cached_property
    def _nonzero(self) -> Optional[tuple[tuple[tuple[int, int], ...], ...]]:
        """The density rule of every product: when at least half of the
        entries are zero, the (k, x) pairs of the nonzero x = self[i][k], row
        by row, so that the cost follows the nonzero entries; None for a
        denser matrix, whose products keep one C-level dot product per
        entry.  Kept once read, as a Gram matrix or a certified phi is read
        by several products."""
        e, c = self.entries, self.cols
        if e.count(0) * 2 < len(e):
            return None
        # one C-level scan finds the nonzero positions; only those cost a step here
        rows = [[] for _ in range(self.rows)]
        for t in compress(range(len(e)), e):
            rows[t // c].append((t % c, e[t]))
        return tuple([tuple(r) for r in rows])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ocols, nonzero = other.cols, self._nonzero
        if nonzero is None:
            cols = [other.col(j) for j in range(ocols)]
            rows = [self.row(i) for i in range(self.rows)]
            return IntMatrix(self.rows, ocols, tuple([
                sum(map(mul, r, c)) for r in rows for c in cols
            ]))
        # each output row sums x * (row k of other) over the nonzero
        # x = self[i][k], one C-level pass per term
        orows = other.to_rows()
        out = []
        for terms in nonzero:
            acc = [0] * ocols
            for k, x in terms:
                if x == 1:
                    acc = list(map(add, acc, orows[k]))
                elif x == -1:
                    acc = list(map(sub, acc, orows[k]))
                else:
                    acc = list(map(add, acc, map(mul, repeat(x), orows[k])))
            out += acc
        return IntMatrix(self.rows, ocols, tuple(out))

    def mul_vec(self, v: Sequence[int]) -> IntVector:
        e, c = self.entries, self.cols
        if len(v) != c:
            raise DimensionMismatch(f"vector length {len(v)} != cols {c}")
        nonzero = self._nonzero
        if nonzero is None:
            return tuple([sum(map(mul, e[i * c:i * c + c], v)) for i in range(self.rows)])
        return tuple([sum([x * v[k] for k, x in terms]) for terms in nonzero])

    def tmul_vec(self, v: Sequence[int]) -> IntVector:
        """self^T * v, one column of self against v per entry, or for a
        sparse self each nonzero x = self[i][k] adding x * v[i] to entry k."""
        if len(v) != self.rows:
            raise DimensionMismatch(f"vector length {len(v)} != rows {self.rows}")
        e, c, nonzero = self.entries, self.cols, self._nonzero
        if nonzero is None:
            return tuple([sum(map(mul, e[j::c], v)) for j in range(c)])
        acc = [0] * c
        for terms, y in zip(nonzero, v):
            if y:
                for k, x in terms:
                    acc[k] += x * y
        return tuple(acc)

    @cached_property
    def height(self) -> int:
        """The largest absolute value of an entry, 0 for an empty matrix; kept once read."""
        return max(map(abs, self.entries), default=0)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, tuple([*map(add, self.entries, other.entries)]))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return IntMatrix(self.rows, self.cols, tuple([*map(sub, self.entries, other.entries)]))

    def scale(self, k: int) -> "IntMatrix":
        if k == 1:
            return self
        return IntMatrix(self.rows, self.cols, tuple([k * a for a in self.entries]))

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows, tuple([x for j in range(c) for x in e[j::c]]))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row counts differ in hstack")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, tuple(out))


@dataclass(frozen=True)
class RatMatrix:
    """The rational matrix num / den, kept in lowest terms with den > 0 so
    that equal rational matrices compare equal."""

    num: IntMatrix
    den: int = 1

    def __post_init__(self):
        g = math.gcd(self.den, *self.num.entries) * (1 if self.den > 0 else -1)
        if g != 1:
            object.__setattr__(self, "num", IntMatrix(
                self.num.rows, self.num.cols, tuple([x // g for x in self.num.entries])
            ))
            object.__setattr__(self, "den", self.den // g)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(self.num @ other.num, self.den * other.den)

    def inverse(self) -> "RatMatrix":
        """Exact inverse. Raises NonSquare / ValueError (singular)."""
        d, adj = solve_scaled(self.num, IntMatrix.identity(self.num.rows))
        return RatMatrix(adj.scale(self.den), d)


def _probe(n: int, bound: int) -> IntVector:
    """(1, T, ..., T^(n-1)) with T = 2^t, t = bound.bit_length() + 1.

    An integer matrix M with n columns and |M_ij| <= bound is zero exactly
    when M * probe = 0.  T > bound, so if a row r of M is nonzero and j is
    its last nonzero index, then
    |sum_{k<j} r_k T^k| <= bound * (T^j - 1) / (T - 1) < T^j <= |r_j T^j|,
    and r . probe != 0.  This is Kronecker substitution (von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4): the deterministic form of
    Freivalds' product check, with no randomness.

    >>> _probe(3, 5)
    (1, 16, 256)
    """
    t = bound.bit_length() + 1
    return tuple([1 << (t * k) for k in range(n)])


def is_congruence(p: IntMatrix, g: IntMatrix, h: IntMatrix) -> bool:
    """p^T * g * p == h for an m x n map p, an m x m form g and an n x n h.

    Both sides are tested on one `_probe` x: p^T * (g * (p * x)) against
    h * x.  An entry of p^T * g * p is a sum of m^2 terms p_ki * g_kl * p_lj,
    so at most m^2 * max|p|^2 * max|g|; that plus max|h| bounds the
    difference.  A zero g forms no probe.

    >>> u = IntMatrix.from_rows([[2, 1], [1, 2]])
    >>> is_congruence(IntMatrix.from_rows([[0, 1], [1, 0]]), u, u)
    True
    """
    m, n = p.rows, p.cols
    if (g.rows, g.cols, h.rows, h.cols) != (m, m, n, n):
        raise DimensionMismatch(f"{m}x{n} map of a {g.rows}x{g.cols} form to {h.rows}x{h.cols}")
    if not any(g.entries):
        return not any(h.entries)
    x = _probe(n, m * m * p.height ** 2 * g.height + h.height)
    return p.tmul_vec(g.mul_vec(p.mul_vec(x))) == h.mul_vec(x)


def annihilates(mu: Sequence[int], a: IntMatrix) -> bool:
    """mu(a) == 0 for a square a and mu = mu_0 + mu_1 x + ..., by Horner on
    one `_probe` x.  An entry of a^k, k >= 1, is at most n^(k-1) * s^k for
    s = max |a|, as one of a^(k+1) = a^k * a sums n products of an entry of
    a^k and one of a; so one of mu(a) is at most
    |mu_0| + sum_{k>=1} |mu_k| * n^(k-1) * s^k.

    >>> annihilates([-1, 0, 1], IntMatrix.from_rows([[0, 1], [1, 0]]))
    True
    """
    if not a.is_square:
        raise NonSquare(f"polynomial of a {a.rows}x{a.cols} matrix")
    n, s = a.rows, a.height
    x = _probe(n, abs(mu[0]) + sum(abs(c) * n ** (k - 1) * s ** k for k, c in enumerate(mu) if k))
    acc = [mu[-1] * y for y in x]
    for c in reversed(mu[:-1]):
        acc = [y + c * z for y, z in zip(a.mul_vec(acc), x)]
    return not any(acc)


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form data: U * A * V = D with U, V unimodular.

    U and V are kept as the logs of the row operations on D and on D^T (see
    `_echelon`), and each is replayed into its matrix when first read: U is
    W of `ulog`, V is W^T of `vlog`.  A column of U^-1 needs neither: it is
    `_undo(ulog, e_i)`."""

    D: IntMatrix
    ulog: tuple[RowOp, ...] = field(repr=False)
    vlog: tuple[RowOp, ...] = field(repr=False)

    @cached_property
    def U(self) -> IntMatrix:
        return IntMatrix.from_rows(_w_rows(self.ulog, self.D.rows))

    @cached_property
    def V(self) -> IntMatrix:
        return IntMatrix.from_cols(_w_rows(self.vlog, self.D.cols))

    @property
    def diagonal(self) -> IntVector:
        n = min(self.D.rows, self.D.cols)
        return self.D.entries[::self.D.cols + 1][:n]

    @property
    def invariant_factors(self) -> IntVector:
        return tuple([d for d in self.diagonal if d != 0])


def snf(a: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    Returns SNFResult(D, ulog, vlog) with U * a * V = D, U and V unimodular,
    D diagonal with nonnegative entries in a divisibility chain, zeros last.

    D is brought to row echelon form by `_echelon` on its rows (logged in
    ulog, so U is their W) and then on its columns, the rows of D^T (logged
    in vlog, so V^T is their W), in turn until it is diagonal; `_echelon`
    leaves its pivots positive and its zero rows last.  If then some d_i
    does not divide a later d_j, row j is added to row i, logged in ulog as
    (i, j, -1), and the alternation starts again (Kannan and Bachem 1979).
    This ends: the leading entry d_0 is the gcd of its column after a row
    pass and of its row after a column pass, so it never grows, and a pass
    that leaves other entries in its row or column lowers it strictly; once
    they are all zero no later pass touches row or column 0, and the
    trailing block follows by induction.  A repair at d_i lowers d_i
    strictly to gcd(d_i, d_j) and leaves d_0, ..., d_(i-1) alone.

    After a repair only rows and columns i and j leave the diagonal, and
    every other row and column keeps its pivot alone, so a pass over the
    whole matrix makes exactly the operations of the same pass over the
    2 x 2 block of rows and columns i, j: the alternation runs on that
    block, its logs read at i and j.  Each d_k, k < i, divides every
    entry of the block, and so every entry after it, so the search for
    the next pair resumes at i; a repair costs the block, not the matrix.

    >>> r = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> r.diagonal
    (2, 4)
    """
    ulog, vlog = [], []
    d, rank = _alternate([list(a.row(i)) for i in range(a.rows)], a.rows, a.cols, ulog, vlog)
    i = 0
    # a bad pair exists exactly when the chain of consecutive d_k breaks
    while any(d[k + 1][k + 1] % d[k][k] for k in range(i, rank - 1)):
        pair = i, j = next(
            (k, j) for k in range(i, rank) for j in range(k + 1, rank) if d[j][j] % d[k][k]
        )
        # the block once row j is added to row i, logged as (i, j, -1)
        block_u, block_v = [(0, 1, -1)], []
        block, _ = _alternate([[d[i][i], d[j][j]], [0, d[j][j]]], 2, 2, block_u, block_v)
        d[i][i], d[j][j] = block[0][0], block[1][1]
        ulog += [(pair[k], pair[t], q) for k, t, q in block_u]
        vlog += [(pair[k], pair[t], q) for k, t, q in block_v]
    dm = IntMatrix(a.rows, a.cols, tuple([x for r in d for x in r]))
    return SNFResult(dm, tuple(ulog), tuple(vlog))


def _alternate(
    d: list[list[int]], nrows: int, ncols: int, ulog: list[RowOp], vlog: list[RowOp]
) -> tuple[list[list[int]], int]:
    """(D, rank): `_echelon` passes on the rows of d, logged in ulog, and on
    its columns, logged in vlog, in turn until D is diagonal.  A row pass
    that leaves D diagonal ends it: its pivots are the diagonal, positive,
    so the column pass would log nothing."""
    while True:
        rank = len(list(_echelon(d, ncols, ulog)))
        if _is_diagonal(d):
            return d, rank
        dt = [list(c) for c in zip(*d)]
        rank = len(list(_echelon(dt, nrows, vlog)))
        d = [list(r) for r in zip(*dt)]
        if _is_diagonal(d):
            return d, rank


def _is_diagonal(d: list[list[int]]) -> bool:
    return not any(any(r[:i]) or any(r[i + 1:]) for i, r in enumerate(d))


def _echelon(rows: list[list[int]], ncols: int, log: list[RowOp]) -> Iterator[int]:
    """Bring `rows` to row echelon form E in place, yielding the column of
    each pivot as soon as its row (the k-th pivot sits in row k) is final.

    Each row operation is appended to `log`: (i, t, q) for row_i -= q * row_t,
    (t, b, 0) for a swap of rows t and b, (t, t, 0) for a negation of row t.
    Their product is the unimodular W with W * rows = E, read by `_replay`;
    a log that holds earlier runs on the same rows gives the W of them all.
    Rows 0..k of E and W no longer change once pivot k is yielded, so a
    caller may stop early.  The pivot is the nonzero entry of minimal
    absolute value in its column, ties by row index, and ends positive; the
    entries below a pivot and the rows past the last pivot end zero.
    `rows` must be distinct lists that the caller owns: row_i -= q * row_t
    changes row i in place, at the nonzero entries of row t only.
    """
    nrows = len(rows)
    top = 0
    for j in range(ncols):
        if top == nrows:
            break
        while True:
            best = best_abs = 0
            for i in range(top, nrows):
                x = rows[i][j]
                if x and (not best_abs or abs(x) < best_abs):
                    best, best_abs = i, abs(x)
            if not best_abs:
                break
            if best != top:
                rows[top], rows[best] = rows[best], rows[top]
                log.append((top, best, 0))
            rt, p = rows[top], rows[top][j]
            done, nz = True, None
            for i in range(top + 1, nrows):
                r = rows[i]
                x = r[j]
                q = x and x // p  # a zero entry is not divided
                if q:
                    # rt is zero before column j; list its nonzero entries once a round
                    nz = nz or list(compress(range(j, len(rt)), rt[j:]))
                    for k in nz:
                        r[k] -= q * rt[k]
                    log.append((i, top, q))
                if x - q * p:
                    done = False
            if done:
                break
        if not best_abs:
            continue
        if rows[top][j] < 0:
            rows[top] = [-x for x in rows[top]]
            log.append((top, top, 0))
        yield j
        top += 1


def _replay(log: Sequence[RowOp], y: list[int]) -> list[int]:
    """W^T * y in place, W the product of the row operations in `log` (see
    `_echelon`): each operation's transpose, last operation first.  Row k
    of W is `_replay(log, e_k)`."""
    for i, t, q in reversed(log):
        if q:
            y[t] -= q * y[i]
        elif i == t:
            y[t] = -y[t]
        else:
            y[i], y[t] = y[t], y[i]
    return y


def _undo(log: Sequence[RowOp], y: list[int]) -> list[int]:
    """W^-1 * y in place, W the product of the row operations in `log` (see
    `_echelon`): each operation's inverse, last operation first, where a
    swap and a negation are their own inverses.  Column k of W^-1 is
    `_undo(log, e_k)`; the sibling of `_replay`."""
    for i, t, q in reversed(log):
        if q:
            y[i] += q * y[t]
        elif i == t:
            y[t] = -y[t]
        else:
            y[i], y[t] = y[t], y[i]
    return y


def _apply(log: Sequence[RowOp], y: list[int]) -> list[int]:
    """W * y in place, W the product of the row operations in `log` (see
    `_echelon`): each operation as it was logged, first operation first.
    Column k of W is `_apply(log, e_k)`; the sibling of `_replay` and
    `_undo`."""
    for i, t, q in log:
        if q:
            y[i] -= q * y[t]
        elif i == t:
            y[t] = -y[t]
        else:
            y[i], y[t] = y[t], y[i]
    return y


def _w_rows(log: Sequence[RowOp], n: int, start: int = 0) -> list[list[int]]:
    """Rows start..n-1 of the n x n W of `log`, each replayed from its e_k."""
    return [_replay(log, [int(i == k) for i in range(n)]) for k in range(start, n)]


def hermite_row_basis(m: IntMatrix) -> IntMatrix:
    """Canonical row basis (row Hermite form) of the lattice spanned by
    the rows of `m`. Zero rows are dropped; pivots are positive; entries
    above a pivot are reduced into [0, pivot)."""
    rows = [list(r) for r in m.to_rows()]
    pivots = list(_echelon(rows, m.cols, []))
    for k, j in enumerate(pivots):
        rk = rows[k]
        for i in range(k):
            q = rows[i][j] // rk[j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rk)]
    top = len(pivots)
    return IntMatrix.from_rows(rows[:top]) if top else IntMatrix(0, m.cols, ())


def _transpose_echelon(a: IntMatrix) -> tuple[list[list[int]], list[RowOp], Iterator[int]]:
    """(E, log, pivots): run `pivots` out and the W of `log` is unimodular
    with W * a^T = E in row echelon form."""
    e, log = [list(a.entries[j::a.cols]) for j in range(a.cols)], []
    return e, log, _echelon(e, a.rows, log)


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : a.x = 0} as matrix columns.

    With W * a^T = E in row echelon form and W unimodular, the rows of W
    whose E row is zero are a basis of the kernel that extends to the basis
    W of Z^cols, so it is saturated (a direct summand).  Only those rows
    are replayed from the log of the elimination; the basis returned is
    their unique column Hermite form, so equal kernels give equal matrices.

    >>> integer_kernel(IntMatrix.from_rows([[1, 1]])).col(0)
    (1, -1)
    """
    _, log, pivots = _transpose_echelon(a)
    rank = len(list(pivots))
    if rank == a.cols:
        return IntMatrix(a.cols, 0, ())
    return hermite_row_basis(IntMatrix.from_rows(_w_rows(log, a.cols, rank))).transpose()


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Optional[IntVector]:
    """One integer solution x of a.x = b, or None when none exists.

    With W * a^T = E in row echelon form and W unimodular, x = W^T * y turns
    the system into E^T * y = b, which is triangular: y is read off pivot by
    pivot, each as the elimination reaches it.  No later pivot touches a
    pivot's column, so a pivot that does not divide what is left of b there,
    or anything left of b once the pivots are used up, certifies that there
    is no solution.  Rows 0..k of E and W are final once pivot k is
    yielded, so the elimination stops there when b is used up, and b = 0
    is solved by x = 0 with no elimination.  W is never built: x = W^T * y
    is replayed from the log of the elimination, once for a solvable b.

    >>> solve_integer(IntMatrix.from_rows([[2, 0], [0, 3]]), (4, 3))
    (2, 1)
    >>> solve_integer(IntMatrix.from_rows([[2, 0], [0, 3]]), (1, 0)) is None
    True
    """
    if len(b) != a.rows:
        raise DimensionMismatch(f"vector length {len(b)} != rows {a.rows}")
    rest, y = list(b), [0] * a.cols
    if not any(rest):
        return tuple(y)
    e, log, pivots = _transpose_echelon(a)
    for k, j in enumerate(pivots):
        ek = e[k]
        q, rem = divmod(rest[j], ek[j])
        if rem:
            return None
        if q:
            rest = [s - q * t for s, t in zip(rest, ek)]
            y[k] = q
            if not any(rest):
                return tuple(_replay(log, y))
    return None


def _bareiss_step(m: list[list[int]], k: int, prev: int) -> int:
    """One fraction-free step on the pivot p = m[k][k]: each row i below k
    becomes (p * row_i - m_ik * row_k) // prev, exact by Sylvester's
    identity (Bareiss 1968) when prev is the previous pivot.  Returns p.
    `signature` takes it; `_bareiss` scales lazily instead."""
    rk, p = m[k], m[k][k]
    for i in range(k + 1, len(m)):
        r = m[i]
        c, r[k] = r[k], 0
        for j in range(k + 1, len(r)):
            r[j] = (p * r[j] - c * rk[j]) // prev
    return p


def _bareiss(m: list[list[int]]) -> int:
    """Forward fraction-free (Bareiss) elimination of the n rows of `m` in
    place (rows may be longer): the first nonzero entry of column k at or
    below row k is swapped up as the pivot p, and each row below becomes
    (p * row_i - m_ik * row_k) / p', p' the pivot before, as in
    `_bareiss_step`.  Returns det of the leading n x n block, the last pivot
    signed by the swaps, or 0 at the first column with no pivot.

    A row with m_ik = 0 is only scaled by p / p', and those factors
    telescope, so it is left as it is: row i holds its true entries times
    stamp[i] / p', stamp[i] the pivot that last updated it, and the stamp
    moves with the row in a swap.  The pivot row is brought current as
    row * p' / stamp; a row with m_ik != 0 takes the step with that factor
    folded in, (p * row_i - m_ik * row_k) / stamp[i].  Each division is
    exact, as the true entries are integer minors."""
    n = len(m)
    sign, prev, stamp = 1, 1, [1] * n
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
            stamp[k], stamp[piv] = stamp[piv], stamp[k]
        if stamp[k] != prev:
            m[k] = [x * prev // stamp[k] for x in m[k]]
        rk, p = m[k], m[k][k]
        for i in range(k + 1, n):
            r = m[i]
            if c := r[k]:
                s, r[k], stamp[i] = stamp[i], 0, p
                for j in range(k + 1, len(r)):
                    r[j] = (p * r[j] - c * rk[j]) // s
        prev = p
    return sign * prev


def det(a: IntMatrix) -> int:
    """Determinant by `_bareiss`; 1 for the 0x0 matrix.

    >>> det(IntMatrix.from_rows([[0, 1], [1, 0]]))
    -1
    """
    if not a.is_square:
        raise NonSquare(f"determinant of a {a.rows}x{a.cols} matrix")
    return _bareiss([list(a.row(i)) for i in range(a.rows)])


def solve_scaled(a: IntMatrix, b: IntMatrix) -> tuple[int, IntMatrix]:
    """(d, X) with d = det a and a @ X == d * b, for a square a; ValueError
    if a is singular.  `_bareiss` on [a | b] leaves [R | L * b], R = L * a
    upper triangular and L invertible; then X is the solution of
    R * X = d * L * b, by back-substitution from the last row, each division
    by R_ii exact as X = adj(a) * b is integral.  With b = I, X is adj a.

    The unknowns are eliminated last index first, on J * a * J and J * b
    for the reversal J: this keeps det a and (d, X) is unique, and the
    dense hyperplane class that the catalog puts first fills in nothing.

    >>> solve_scaled(IntMatrix.from_rows([[1, 2], [3, 4]]), IntMatrix.identity(2))[1].to_rows()
    ((4, -2), (-3, 1))
    """
    if not a.is_square:
        raise NonSquare(f"solve against a {a.rows}x{a.cols} matrix")
    n, w = a.rows, b.cols
    if b.rows != n:
        raise DimensionMismatch(f"{n}x{n} matrix against a {b.rows}x{w} right-hand side")
    m = [[*a.row(i)[::-1], *b.row(i)] for i in reversed(range(n))]
    d = _bareiss(m)
    if not d:
        raise ValueError("matrix is singular")
    x = [[]] * n
    for i in reversed(range(n)):
        r, acc = m[i], [d * y for y in m[i][n:]]
        for j in range(i + 1, n):
            if r[j]:
                acc = [s - r[j] * t for s, t in zip(acc, x[j])]
        x[i] = [s // r[i] for s in acc]
    return d, IntMatrix(n, w, tuple([y for r in reversed(x) for y in r]))


def signature(g: IntMatrix) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) after exact congruence
    diagonalization of the symmetric matrix `g` over Z, by `_bareiss_step`
    run symmetrically.  After each step the trailing block is the previous
    pivot times the Schur complement, whose diagonal entry m_kk / prev is
    the next LDL^T pivot, so pivot k is positive exactly when
    m_kk * prev > 0 (Jacobi's rule; Sylvester's law of inertia keeps the
    counts).  A swap, or the addition of row and column j, is a congruence
    on the trailing indices and keeps that form; a trailing row that is
    all zero counts as a zero of the form and is passed over.

    >>> signature(IntMatrix.from_rows([[0, 1], [1, 0]]))
    (1, 1, 0)
    """
    if not g.is_square:
        raise NonSquare("signature needs a square matrix")
    if not g.is_symmetric:
        raise NotSymmetric("signature needs a symmetric matrix")
    n = g.rows
    m = [list(g.row(i)) for i in range(n)]
    pos = neg = zero = 0
    prev = 1

    def add_row_col(i: int, j: int) -> None:
        m[i] = [x + y for x, y in zip(m[i], m[j])]
        for r in m:
            r[i] += r[j]

    def swap_row_col(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for r in m:
            r[i], r[j] = r[j], r[i]

    for k in range(n):
        if m[k][k] == 0:
            swap_target = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap_target is not None:
                swap_row_col(k, swap_target)
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                # all remaining diagonal entries vanish, so this bumps
                # m[k][k] to 2 * m[k][j] != 0
                add_row_col(k, j)
        if m[k][k] * prev > 0:
            pos += 1
        else:
            neg += 1
        prev = _bareiss_step(m, k, prev)
    return pos, neg, zero
