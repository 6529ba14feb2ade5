"""Independent reference implementations used only by the test suite.

These deliberately avoid the package's SNF-based code paths so that
agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator

from k3ord.matrices import IntMatrix


def _cofactor_det(rs: list[list[int]]) -> int:
    """Determinant of a square list of rows by expansion along the first row."""
    k = len(rs)
    if k == 0:
        return 1
    if k == 1:
        return rs[0][0]
    total = 0
    for j in range(k):
        if rs[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rs[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rs[0][j] * _cofactor_det(minor)
    return total


def det_cofactor(m: IntMatrix) -> int:
    """Cofactor-expansion determinant, practical up to about 7x7."""
    assert m.is_square and m.rows <= 8
    return _cofactor_det([list(r) for r in m.to_rows()])


def adjugate_cofactor(m: IntMatrix) -> list[list[int]]:
    """adj(m) entry by entry: (-1)^(i+j) times the cofactor determinant of m
    without row j and column i."""
    assert m.is_square and m.rows <= 8
    rows = [list(r) for r in m.to_rows()]
    return [
        [(-1) ** (i + j) * _cofactor_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
         for j in range(m.rows)]
        for i in range(m.rows)
    ]


def rational_kernel_basis(m: IntMatrix) -> list[list[Fraction]]:
    """Kernel basis over Q via plain RREF (no SNF involved)."""
    nrows, ncols = m.rows, m.cols
    a = [[Fraction(m.entry(i, j)) for j in range(ncols)] for i in range(nrows)]
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][j]
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][j] != 0:
                c = a[i][j]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == nrows:
            break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, j in enumerate(pivots):
            v[j] = -a[i][f]
        basis.append(v)
    return basis


def mat_mul(a: list[int], b: list[int], rows: int, inner: int, cols: int) -> list[int]:
    """Schoolbook product of a rows x inner and an inner x cols matrix, both
    plain row-major lists; the shapes are explicit, since an empty list
    cannot tell 0 x n from n x 0."""
    return [
        sum(a[i * inner + k] * b[k * cols + j] for k in range(inner))
        for i in range(rows)
        for j in range(cols)
    ]


def random_int_matrix(rng: random.Random, rows: int, cols: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> tuple[IntMatrix, IntMatrix]:
    """(M, M^-1) with M a product of elementary integer row operations, so
    determinant +-1 by construction.  The inverse undoes the same steps in
    reverse order, as column operations applied on the right."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [row[:] for row in m]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            for r in inv:
                r[j] -= c * r[i]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
            for r in inv:
                r[i] = -r[i]
    return IntMatrix.from_rows(m), IntMatrix.from_rows(inv)


def random_symmetric(rng: random.Random, n: int, lo: int, hi: int) -> IntMatrix:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return IntMatrix.from_rows(a)


def no_solution_in_box(a: IntMatrix, b: tuple[int, ...], box: int) -> bool:
    """Exhaustively confirm a.x = b has no solution with |x_i| <= box."""
    rows = a.to_rows()
    for x in itertools.product(range(-box, box + 1), repeat=a.cols):
        if tuple([sum(map(operator.mul, r, x)) for r in rows]) == tuple(b):
            return False
    return True


# --- lattice blocks and divisor classes, on plain lists ------------------------

# The negative definite even unimodular E8 form, as its Gram rows.
E8_ROWS = [
    [-2, 0, 0, 1, 0, 0, 0, 0],
    [0, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0, 0],
    [1, 0, 1, -2, 1, 0, 0, 0],
    [0, 0, 0, 1, -2, 1, 0, 0],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 0, 1, -2],
]


def has_even_diagonal(gram) -> bool:
    """x.x is even for every integer x exactly when each G_ii is even, as
    x.x = sum of G_ii x_i^2 plus twice the terms above the diagonal."""
    return all(row[i] % 2 == 0 for i, row in enumerate(gram))


def _form(gram, x, y) -> int:
    return sum(x[i] * sum(map(operator.mul, row, y)) for i, row in enumerate(gram))


def riemann_roch_sign(gram, c, ample):
    """Which of c and -c is effective on a K3 surface, from the Gram rows.

    Riemann-Roch gives h0(c) + h0(-c) >= c.c/2 + 2, so one of the two is
    effective when c.c >= -2, and an ample class meets a nonzero effective
    class positively.  Returns 1 for c, -1 for -c, 0 when the ample class
    pairs to zero with c (so it cannot be ample), and None when the rule
    does not apply: c = 0 or c.c < -2.
    """
    if not any(c) or _form(gram, c, c) < -2:
        return None
    p = _form(gram, ample, c)
    return (p > 0) - (p < 0)


# --- box-enumeration H1 oracle ---------------------------------------------

def _echelon_column_basis(cols: list[tuple[int, ...]], n: int):
    """Echelon basis of the integer column span: list of (column, pivot_row)
    with increasing pivot rows and positive pivots. Plain gcd column
    reduction, no SNF."""
    work = [list(c) for c in cols if any(c)]
    basis = []
    for r in range(n):
        while True:
            nz = [c for c in work if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[r]))
            p = nz[0]
            for c in nz[1:]:
                q = c[r] // p[r]
                if q:
                    for i in range(n):
                        c[i] -= q * p[i]
        nz = [c for c in work if c[r] != 0]
        if nz:
            p = nz[0]
            work = [c for c in work if c is not p]
            if p[r] < 0:
                p = [-x for x in p]
            basis.append((p, r))
    return basis


def _reduce_mod_lattice(v: tuple[int, ...], basis) -> tuple[int, ...]:
    w = list(v)
    for p, r in basis:
        q = w[r] // p[r]
        if q:
            w = [x - q * y for x, y in zip(w, p)]
    return tuple(w)


def h1_box_class_count(sigma: IntMatrix, order: int, box: int = 3) -> int:
    """Enumerate ker N inside [-box, box]^rank and count cosets modulo
    im(1 - sigma), reducing each vector to a canonical representative
    against an echelon basis of the image lattice.

    Returns the number of distinct cosets met by the box. For box large
    enough to reach every class this is |ker N / im D|.
    """
    n = sigma.rows
    rows = [list(r) for r in sigma.to_rows()]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    npow = eye
    nmat = [[0] * n for _ in range(n)]
    for _ in range(order):
        nmat = [[x + y for x, y in zip(r, s)] for r, s in zip(nmat, npow)]
        npow = [[sum(r[k] * rows[k][j] for k in range(n)) for j in range(n)] for r in npow]
    assert npow == eye, "sigma^order must be the identity"
    dcols = [[int(i == j) - rows[i][j] for i in range(n)] for j in range(n)]
    basis = _echelon_column_basis(dcols, n)
    nrows = [r for r in nmat if any(r)]
    reps = set()
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if not any(sum(map(operator.mul, r, v)) for r in nrows):
            reps.add(_reduce_mod_lattice(v, basis))
    return len(reps)


def rational_solve(a: IntMatrix, b) -> list[Fraction] | None:
    """One rational solution of a x = b via RREF, or None (no SNF involved)."""
    nrows, ncols = a.rows, a.cols
    aug = [[Fraction(a.entry(i, j)) for j in range(ncols)] + [Fraction(b[i])]
           for i in range(nrows)]
    pivots = []
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][j] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][j]
        aug[r] = [x / p for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][j] != 0:
                c = aug[i][j]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, j in enumerate(pivots):
        x[j] = aug[i][ncols]
    return x


def primitive_box_oracle(p: IntMatrix) -> bool:
    """Saturation test by exhaustion, exact for full column rank p.

    If the image of p is not saturated there is an integer vector p.c with c
    in [0,1)^k non-integral, so its entries are bounded by the largest row
    sum of |entries|.  Searching that box is therefore a complete test.
    """
    box = max((sum(abs(p.entry(i, j)) for j in range(p.cols))
               for i in range(p.rows)), default=0)
    for x in itertools.product(range(-box, box + 1), repeat=p.rows):
        c = rational_solve(p, x)
        if c is None:
            continue
        if any(ci.denominator != 1 for ci in c):
            return False
    return True


def maximal_minor_gcd(p: IntMatrix) -> int:
    """gcd of all maximal minors via cofactor expansion (no SNF involved).

    Equals the product of the invariant factors for full column rank input,
    so the image is saturated exactly when this is 1.
    """
    g = 0
    for rows in itertools.combinations(p.to_rows(), p.cols):
        g = math.gcd(g, _cofactor_det([list(r) for r in rows]))
    return g


def fraction_det(m: IntMatrix) -> int:
    """Determinant by Gaussian elimination over Fraction: the product of the
    pivots, each the first nonzero entry of its column at or below the
    diagonal, signed by the swaps; 0 at the first column with none."""
    n = m.rows
    a = [[Fraction(x) for x in m.row(i)] for i in range(n)]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], d = a[piv], a[k], -d
        d *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                c = a[i][k] / a[k][k]
                a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    assert d.denominator == 1
    return d.numerator


def fraction_inverse(m: IntMatrix) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over Fraction, or None when m is singular."""
    n = m.rows
    aug = [[Fraction(m.entry(i, j)) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        p = aug[k][k]
        aug[k] = [x / p for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                c = aug[i][k]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[k])]
    return [r[n:] for r in aug]


def frame_extension(p: IntMatrix, t: IntMatrix, action: IntMatrix) -> list[list[Fraction]] | None:
    """A.diag(action, -I).A^-1 in the frame A = [p | t], over Fraction.

    The map that is action on the columns of p and -1 on those of t; None
    when A is not square or is singular.
    """
    n, k = p.rows, p.cols
    if k + t.cols != n:
        return None
    a = [list(pr) + list(tr) for pr, tr in zip(p.to_rows(), t.to_rows())]
    a_inv = fraction_inverse(IntMatrix.from_rows(a))
    if a_inv is None:
        return None
    a_diag = [
        [sum(map(operator.mul, r[:k], action.col(j))) for j in range(k)] + [-x for x in r[k:]]
        for r in a
    ]
    nonzero = [[(l, x) for l, x in enumerate(r) if x] for r in a_diag]
    return [[sum(x * a_inv[l][j] for l, x in r) for j in range(n)] for r in nonzero]


def fraction_signature(g: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) by congruence diagonalization over Fraction.

    Follows the package's pivot convention (swap in a nonzero diagonal
    entry, else add row and column j), but eliminates over Fraction where
    the package takes fraction-free steps.
    """
    n = g.rows
    m = [[Fraction(g.entry(i, j)) for j in range(n)] for i in range(n)]
    counts = [0, 0, 0]
    for k in range(n):
        if m[k][k] == 0:
            s = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if s is not None:
                m[k], m[s] = m[s], m[k]
                for r in m:
                    r[k], r[s] = r[s], r[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    counts[2] += 1
                    continue
                m[k] = [x + y for x, y in zip(m[k], m[j])]
                for r in m:
                    r[k] += r[j]
        p = m[k][k]
        counts[0 if p > 0 else 1] += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                c = m[i][k] / p
                m[i] = [x - c * y for x, y in zip(m[i], m[k])]
                for r in m:
                    r[i] -= c * r[k]
    return tuple(counts)


# --- section groups: the group law and one step of a block action --------------
#
# An element of Z^r + Z/m_1 + ... + Z/m_k + E^e is a triple (free, finite,
# elliptic) of tuples, the finite coordinates reduced mod m_i.  A point of E
# is a multiple of one named point of exact order n, written
# (symbol, n, mult mod n), and None is the zero point.  A block action is a
# triple (rows of the free matrix, finite multipliers, elliptic (sign, image)
# pairs): summand i is sent to summand image with the given sign.


def _torsion_point(symbol: str, order: int, mult: int):
    mult %= order
    return (symbol, order, mult) if mult else None


def _add_points(a, b):
    if a is None or b is None:
        return b if a is None else a
    if a[:2] != b[:2]:
        raise ValueError(f"cannot add unrelated points {a} and {b}")
    return _torsion_point(a[0], a[1], a[2] + b[2])


def _add(moduli, x, y):
    return (
        tuple([a + b for a, b in zip(x[0], y[0])]),
        tuple([(a + b) % m for a, b, m in zip(x[1], y[1], moduli)]),
        tuple([_add_points(a, b) for a, b in zip(x[2], y[2])]),
    )


def act_once(action, moduli, x):
    """The image of the element x under one step of the block action."""
    free_rows, units, signed_perm = action
    elliptic = [None] * len(x[2])
    for (sign, image), p in zip(signed_perm, x[2]):
        elliptic[image] = p and _torsion_point(p[0], p[1], sign * p[2])
    return (
        tuple([sum(map(operator.mul, r, x[0])) for r in free_rows]),
        tuple([u * c % m for u, c, m in zip(units, x[1], moduli)]),
        tuple(elliptic),
    )


def orbit_sum(action, moduli, x, order: int):
    """x + sigma(x) + ... + sigma^(order-1)(x), one step at a time."""
    total = current = x
    for _ in range(order - 1):
        current = act_once(action, moduli, current)
        total = _add(moduli, total, current)
    return total


def minus_image(action, moduli, x):
    """The coboundary x - sigma(x)."""
    free, finite, elliptic = act_once(action, moduli, x)
    negated = (
        tuple([-a for a in free]),
        tuple([-a % m for a, m in zip(finite, moduli)]),
        tuple([p and _torsion_point(p[0], p[1], -p[2]) for p in elliptic]),
    )
    return _add(moduli, x, negated)


def is_zero_element(x) -> bool:
    return not any(x[0]) and not any(x[1]) and not any(x[2])


# --- the elimination that carries its transform W ------------------------------
#
# The package logs its row operations and replays them where a transform is
# read.  These copies repeat every row operation on an explicit W instead, as
# the package did before, on plain lists of rows; the two must agree exactly.


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def echelon_with_transform(rows: list[list[int]], ncols: int, w: list[list[int]]) -> list[int]:
    """Row echelon form E of `rows` in place, each row operation repeated on
    `w` (W * rows = E when `w` starts as the identity).  The pivot is the
    nonzero entry of least absolute value in its column, ties by row index,
    made positive.  Returns the pivot columns."""
    nrows, top, pivots = len(rows), 0, []
    for j in range(ncols):
        if top == nrows:
            break
        while True:
            nonzero = [i for i in range(top, nrows) if rows[i][j]]
            if not nonzero:
                break
            best = min(nonzero, key=lambda i: abs(rows[i][j]))
            rows[top], rows[best] = rows[best], rows[top]
            w[top], w[best] = w[best], w[top]
            p = rows[top][j]
            for i in range(top + 1, nrows):
                q = rows[i][j] // p
                if q:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[top])]
                    w[i] = [x - q * y for x, y in zip(w[i], w[top])]
            if not any(rows[i][j] for i in range(top + 1, nrows)):
                break
        if not any(rows[i][j] for i in range(top, nrows)):
            continue
        if rows[top][j] < 0:
            rows[top] = [-x for x in rows[top]]
            w[top] = [-x for x in w[top]]
        pivots.append(j)
        top += 1
    return pivots


def dense_echelon(rows: list[list[int]], ncols: int, log: list) -> Iterator[int]:
    """The elimination of the package's `_echelon`, with each row operation
    rebuilding its whole row where `_echelon` updates the pivot row's
    nonzero positions in place.  It must give the same pivots, the same log
    ((i, t, q) for row_i -= q * row_t, (t, b, 0) for a swap, (t, t, 0) for
    a negation) and the same E, each pivot column yielded once its row is
    final."""
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
            done = True
            for i in range(top + 1, nrows):
                x = rows[i][j]
                q = x and x // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rt)]
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


def snf_with_transforms(a: list[list[int]], ncols: int):
    """(U, D, V) as lists of rows with U * a * V = D: row passes on D repeated
    on U, column passes on the rows of D^T repeated on V^T, until D is
    diagonal; a d_i that does not divide a later d_j adds row j to row i."""
    nrows = len(a)
    d, u, vt = [list(r) for r in a], _identity_rows(nrows), _identity_rows(ncols)
    while True:
        echelon_with_transform(d, ncols, u)
        dt = [[r[j] for r in d] for j in range(ncols)]
        rank = len(echelon_with_transform(dt, nrows, vt))
        d = [[r[i] for r in dt] for i in range(nrows)]
        if any(x for i, r in enumerate(d) for j, x in enumerate(r) if i != j):
            continue
        bad = [(i, j) for i in range(rank) for j in range(i + 1, rank) if d[j][j] % d[i][i]]
        if not bad:
            return u, d, [[r[j] for r in vt] for j in range(ncols)]
        i, j = bad[0]
        d[i] = [x + y for x, y in zip(d[i], d[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]


def hermite_rows(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row Hermite form: the echelon rows, nonzero only, with the entries
    above each pivot reduced into [0, pivot)."""
    rows = [list(r) for r in rows]
    pivots = echelon_with_transform(rows, ncols, [[] for _ in rows])
    for k, j in enumerate(pivots):
        for i in range(k):
            q = rows[i][j] // rows[k][j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
    return rows[:len(pivots)]


def kernel_with_transform(a: list[list[int]], ncols: int) -> list[list[int]]:
    """Column Hermite basis of ker a, as its list of columns: the rows of W
    with W * a^T = E whose E row is zero, in row Hermite form."""
    e = [[r[j] for r in a] for j in range(ncols)]
    w = _identity_rows(ncols)
    rank = len(echelon_with_transform(e, len(a), w))
    return hermite_rows(w[rank:], ncols)


def solve_with_transform(a: list[list[int]], ncols: int, bs) -> list:
    """For each b, x = W^T * y with E^T * y = b solved pivot by pivot, W * a^T
    = E; None when a pivot does not divide or a remainder is left."""
    e = [[r[j] for r in a] for j in range(ncols)]
    w = _identity_rows(ncols)
    pivots = echelon_with_transform(e, len(a), w)
    out = []
    for b in bs:
        rest, x = list(b), [0] * ncols
        for k, j in enumerate(pivots):
            q, rem = divmod(rest[j], e[k][j])
            if rem:
                x = None
                break
            rest = [s - q * t for s, t in zip(rest, e[k])]
            x = [s + q * t for s, t in zip(x, w[k])]
        out.append(None if x is None or any(rest) else tuple(x))
    return out


def power_sum(sigma: list[list[int]], order: int) -> list[list[int]]:
    """sigma^0 + sigma^1 + ... + sigma^(order-1), one product at a time."""
    n = len(sigma)
    total, power = _identity_rows(n), _identity_rows(n)
    for _ in range(order - 1):
        power = [[sum(r[k] * sigma[k][j] for k in range(n)) for j in range(n)] for r in power]
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, power)]
    return total


def poly_at(mu: list[int], a: list[list[int]]) -> list[list[int]]:
    """mu(a) = sum of mu_k * a^k, coefficients constant term first, for a
    square matrix a given as rows; each power is one schoolbook product."""
    n = len(a)
    total, power = [[0] * n for _ in range(n)], _identity_rows(n)
    for k, c in enumerate(mu):
        if k:
            power = [[sum(r[i] * a[i][j] for i in range(n)) for j in range(n)] for r in power]
        total = [[x + c * y for x, y in zip(r, s)] for r, s in zip(total, power)]
    return total
