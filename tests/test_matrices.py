"""Unit and property tests for the exact matrix kernel."""

import ast
import itertools
import operator
import random
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import k3ord.fibrations as fibrations
import k3ord.matrices as matrices
from k3ord import catalog, lattices
from k3ord.errors import DimensionMismatch, NonSquare, NotSymmetric
from k3ord.matrices import (
    IntMatrix,
    RatMatrix,
    det,
    hermite_row_basis,
    integer_kernel,
    signature,
    snf,
    solve_integer,
    solve_scaled,
)

from oracles import (
    adjugate_cofactor,
    det_cofactor,
    fraction_inverse,
    fraction_signature,
    kernel_with_transform,
    mat_mul,
    no_solution_in_box,
    random_int_matrix,
    random_symmetric,
    random_unimodular,
    rational_kernel_basis,
    rational_solve,
    snf_with_transforms,
    solve_with_transform,
)

S2_GRAM = IntMatrix.from_rows([[-2, 3, 0], [3, -2, 1], [0, 1, -2]])
H_GRAM = IntMatrix.from_rows([[0, 1], [1, 0]])


def test_oracles_take_no_arithmetic_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    imports = [
        (node.module, [a.name for a in node.names]) for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "k3ord"
    ]
    imports += [
        (a.name, None) for node in nodes if isinstance(node, ast.Import)
        for a in node.names if a.name.split(".")[0] == "k3ord"
    ]
    assert imports == [("k3ord.matrices", ["IntMatrix"])]
    assert not any(isinstance(getattr(node, "op", None), ast.MatMult) for node in nodes)
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    allowed = {"rows", "cols", "entries", "entry", "row", "col", "to_rows", "from_rows", "is_square"}
    assert read & set(vars(IntMatrix)) <= allowed


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_cols([[1, 0], [0]])
    assert IntMatrix.from_cols([[], []]) == IntMatrix(0, 2, ())
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5, 2], [3, 4]])


class _Small(IntEnum):
    TWO = 2


def _type_error(rows, cols, entries) -> str:
    with pytest.raises(TypeError) as err:
        IntMatrix(rows, cols, entries)
    return str(err.value)


def test_entry_validation():
    for bad in (True, 1.0, Fraction(1), "1"):
        assert _type_error(1, 2, (3, bad)) == f"integer entry expected, got {bad!r}"
    # the message names the first offending entry in reading order
    assert _type_error(1, 3, (1, 1.0, "x")) == "integer entry expected, got 1.0"
    assert _type_error(2, 2, (0, 1, False, "x")) == "integer entry expected, got False"
    # int subclasses other than bool stay accepted, as they are
    m = IntMatrix(1, 2, (_Small.TWO, 3))
    assert m.entries[0] is _Small.TWO and m == IntMatrix(1, 2, (2, 3))


def test_basic_ops():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.transpose().to_rows() == ((1, 3), (2, 4))
    assert (a @ IntMatrix.identity(2)) == a
    assert a.mul_vec((1, 1)) == (3, 7)
    assert (a - a) == IntMatrix.zeros(2, 2)
    assert a.hstack(a).row(0) == (1, 2, 1, 2)
    assert IntMatrix.block_diag([a, IntMatrix.identity(1)]).row(2) == (0, 0, 1)
    assert IntMatrix.block_diag([IntMatrix(0, 2, ()), IntMatrix(0, 1, ())]) == IntMatrix(0, 3, ())
    with pytest.raises(DimensionMismatch):
        a.mul_vec((1, 2, 3))


def test_matrix_vector_products_and_height():
    # vectors with every share of zero entries
    rng = random.Random(2121)
    for _ in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = IntMatrix(rows, cols, tuple([rng.randint(-9, 9) for _ in range(rows * cols)]))
        zeros = rng.random()
        u, v = ([0 if rng.random() < zeros else rng.randint(-10**20, 10**20) for _ in range(k)]
                for k in (cols, rows))
        assert list(a.mul_vec(u)) == mat_mul(list(a.entries), u, rows, cols, 1)
        assert list(a.mul_vec(tuple(u))) == mat_mul(list(a.entries), u, rows, cols, 1)
        assert list(a.tmul_vec(v)) == mat_mul(v, list(a.entries), 1, rows, cols)
        assert a.height == max([abs(x) for x in a.entries] + [0])
    with pytest.raises(DimensionMismatch):
        IntMatrix.identity(2).tmul_vec((1, 2, 3))
    for n in range(6):
        assert IntMatrix.identity(n) == IntMatrix.diagonal([1] * n)


def test_matrix_vector_products_on_empty_shapes():
    """A 3x0 matrix maps to three zeros and its transpose to the empty
    vector, and the other way round for 0x3; 0x0 gives the empty vector
    both ways.  A twist check with no free part applies such a 0x0 norm."""
    assert IntMatrix(3, 0, ()).mul_vec(()) == (0, 0, 0)
    assert IntMatrix(3, 0, ()).tmul_vec((1, 2, 3)) == ()
    assert IntMatrix(0, 3, ()).mul_vec((1, 2, 3)) == ()
    assert IntMatrix(0, 3, ()).tmul_vec(()) == (0, 0, 0)
    assert IntMatrix(0, 0, ()).mul_vec(()) == ()
    assert IntMatrix(0, 0, ()).tmul_vec(()) == ()
    model = fibrations.AbGroupModel(elliptic_count=1)
    s = fibrations.GroupElement(model, elliptic=(fibrations.TorsionPoint("eps", 3),))
    endo = fibrations.trivial_endo(model, 3)
    assert endo.free.norm.rows == endo.free.norm.cols == 0
    assert fibrations.cocycle_check(endo, s)


def _with_zeros(rng, rows, cols, zeros):
    """A seeded rows x cols matrix with exactly `zeros` zero entries and the
    others of up to 60 digits, either sign."""
    n = rows * cols
    at = set(rng.sample(range(n), zeros))
    return IntMatrix(rows, cols, tuple([
        0 if p in at else rng.choice((1, -1)) * rng.randint(1, 10**60) for p in range(n)
    ]))


def test_both_product_loops_match_the_oracle():
    """mul_vec and tmul_vec against plain-list products on each side of the
    density rule: all zero, one nonzero, the fewest zeros that take the
    sparse loop (exactly half of an even count), one zero short of that,
    and no zero, on every shape from 0 x n and n x 0 up; then the K3 Gram
    matrix and a dense conjugate of it.  The sparse loop is taken exactly
    when at least half of the entries are zero, a matrix read twice answers
    the same, and a vector of the wrong length is refused by either loop."""
    rng = random.Random(3232)
    k3 = lattices.build_K3().gram
    w, _ = random_unimodular(rng, 22, 200)
    matrices_read = [(k3, True), (w.transpose() @ k3 @ w, False)]
    for rows, cols in [(0, 4), (4, 0), (0, 0), (1, 1), (1, 5), (4, 1), (3, 4), (4, 4), (5, 3)]:
        n = rows * cols
        half = (n + 1) // 2
        for zeros in sorted({n, max(n - 1, 0), half, max(half - 1, 0), 0}):
            matrices_read.append((_with_zeros(rng, rows, cols, zeros), 2 * zeros >= n))
    for a, sparse in matrices_read:
        assert (a._nonzero is not None) == sparse
        rows, cols, e = a.rows, a.cols, list(a.entries)
        for share in (0.0, 0.5, 1.0):
            u, v = ([0 if rng.random() < share else rng.randint(-10**80, 10**80)
                     for _ in range(k)] for k in (cols, rows))
            for _ in range(2):
                assert list(a.mul_vec(u)) == mat_mul(e, u, rows, cols, 1)
                assert list(a.mul_vec(tuple(u))) == mat_mul(e, u, rows, cols, 1)
                assert list(a.tmul_vec(v)) == mat_mul(v, e, 1, rows, cols)
        x = matrices._probe(cols, 10**60)
        assert list(a.mul_vec(x)) == mat_mul(e, list(x), rows, cols, 1)
        with pytest.raises(DimensionMismatch):
            a.mul_vec([0] * (cols + 1))
        with pytest.raises(DimensionMismatch):
            a.tmul_vec([0] * (rows + 1))


def _on_probe(row, bound):
    return sum(map(operator.mul, row, matrices._probe(len(row), bound)))


def test_probe_separates_every_row_within_its_bound():
    """A row with entries at most B in absolute value vanishes on
    _probe(n, B) only when it is zero.  The rows (B, -1) and (-B, 1) are
    the closest calls: on (1, T) they vanish when T = B.  Every row is
    tried for small n and B, and the closest calls at a 60-digit B."""
    for bound in (1, 2, 3, 7, 8, 255, 256, 10**6, 10**60, 10**60 + 7, 2**200 - 1):
        for row in ((bound, -1), (-bound, 1), (bound, -bound), (-1, 1)):
            assert _on_probe(row, bound) != 0, (row, bound)
        x = matrices._probe(4, bound)
        t = x[1]
        assert t > 2 * bound and t & (t - 1) == 0 and x == (1, t, t * t, t ** 3)
        # each row as high as the bound allows and just below T^j
        for j in range(1, 4):
            assert _on_probe([-bound] * j + [1] + [0] * (3 - j), bound) != 0
            assert _on_probe([bound] * j + [-1] + [0] * (3 - j), bound) != 0
    for n, bound in ((1, 5), (2, 4), (3, 3), (5, 1)):
        for row in itertools.product(range(-bound, bound + 1), repeat=n):
            assert (_on_probe(row, bound) == 0) == (not any(row)), (row, bound)
    assert IntMatrix.zeros(3, 4).mul_vec(matrices._probe(4, 10**60)) == (0, 0, 0)
    assert matrices._probe(0, 10**60) == ()
    assert IntMatrix(2, 0, ()).mul_vec(matrices._probe(0, 7)) == (0, 0)


def test_snf_identity_case():
    r = snf(IntMatrix.identity(3))
    assert r.U == IntMatrix.identity(3)
    assert r.D == IntMatrix.identity(3)
    assert r.V == IntMatrix.identity(3)


def test_snf_worked_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    r = snf(a)
    assert r.diagonal == (2, 4)
    assert r.U @ a @ r.V == r.D
    assert abs(det(r.U)) == 1 and abs(det(r.V)) == 1
    assert r.diagonal[0] * r.diagonal[1] == abs(det(a))


def test_snf_already_diagonal():
    a = IntMatrix.from_rows([[1, 0], [0, 0]])
    assert snf(a).diagonal == (1, 0)


def _check_snf(a: IntMatrix):
    r = snf(a)
    assert r.U @ a @ r.V == r.D
    assert abs(det(r.U)) == 1
    assert abs(det(r.V)) == 1
    diag = r.diagonal
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    for i in range(r.D.rows):
        for j in range(r.D.cols):
            if i != j:
                assert r.D.entry(i, j) == 0


def test_snf_random_suite():
    rng = random.Random(20260814)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        _check_snf(random_int_matrix(rng, rows, cols, -9, 9))


@pytest.mark.parametrize("rows, diagonal", [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[4, 0], [0, 6]], (2, 12)),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
    ([[0, 0], [0, 5]], (5, 0)),
    ([[2, 0, 0], [0, 3, 0]], (1, 6)),
    ([[2, 0], [0, 3], [0, 0]], (1, 6)),
])
def test_snf_divisibility_repair(rows, diagonal):
    a = IntMatrix.from_rows(rows)
    _check_snf(a)
    assert snf(a).diagonal == diagonal


def test_snf_repairs_run_on_their_block(monkeypatch):
    """D = 1 - sigma for a sum of 20 Phi_3 companion blocks diagonalizes
    to 1, 3, 1, 3, ..., so the chain needs a repair per pair out of order;
    each runs its passes on the 2 x 2 block of rows and columns i, j, and
    the whole matrix is passed over once by rows and once by columns."""
    n = 40
    rows = [[0] * n for _ in range(n)]
    for b in range(0, n, 2):
        rows[b][b:b + 2] = [1, 1]
        rows[b + 1][b:b + 2] = [-1, 2]
    a = IntMatrix.from_rows(rows)
    sizes = []
    echelon = matrices._echelon
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_echelon", lambda r, c, log: sizes.append(len(r)) or echelon(r, c, log))
        assert snf(a).diagonal == (1,) * 20 + (3,) * 20
    assert sizes.count(n) == 2 and set(sizes) == {2, n}
    _check_snf(a)


def test_snf_of_a_diagonal_chain_makes_one_row_pass(monkeypatch):
    """D = 2I, the Smith form of the 300 x 300 -I free block of a twist
    check, is diagonal after its row pass and its chain 2 | 2 | ... holds,
    so snf makes that one pass, no column pass, and logs nothing in vlog."""
    n = 300
    sizes = []
    echelon = matrices._echelon
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_echelon", lambda r, c, log: sizes.append(len(r)) or echelon(r, c, log))
        r = snf(IntMatrix.diagonal([2] * n))
    assert sizes == [n]
    assert r.D == IntMatrix.diagonal([2] * n)
    assert r.ulog == r.vlog == ()


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
def test_snf_empty_shapes(rows, cols):
    a = IntMatrix(rows, cols, ())
    _check_snf(a)
    r = snf(a)
    assert (r.U.rows, r.U.cols) == (rows, rows)
    assert (r.D.rows, r.D.cols) == (rows, cols)
    assert (r.V.rows, r.V.cols) == (cols, cols)


@st.composite
def _snf_inputs(draw):
    """Up to 6x6, about half the entries zero, so that diagonal inputs,
    zero rows and columns and divisibility repairs all come up."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-30, 30))
    n = rows * cols
    return IntMatrix(rows, cols, tuple(draw(st.lists(entry, min_size=n, max_size=n))))


@given(_snf_inputs())
@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
def test_snf_property(a):
    _check_snf(a)


_NONZERO = st.one_of(
    st.sampled_from([1, -1, 2, -2, 3]),
    st.integers(10**59, 10**60 - 1).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def _products(draw):
    """A rows x inner and an inner x cols factor, shapes down to 0, with
    anything from no zeros to all zeros in the left one, and some whole
    zero rows; plus two nonzero denominators for the rational product."""
    rows, inner, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    n = rows * inner
    zeros = set(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
    zero_rows = draw(st.sets(st.integers(0, 5), max_size=2))
    left = [
        0 if p in zeros or p // inner in zero_rows else draw(_NONZERO) for p in range(n)
    ]
    right = draw(st.lists(st.one_of(st.just(0), _NONZERO),
                          min_size=inner * cols, max_size=inner * cols))
    dens = draw(st.tuples(*[st.integers(-6, 6).filter(bool)] * 2))
    return IntMatrix(rows, inner, tuple(left)), IntMatrix(inner, cols, tuple(right)), dens


def _half_zero(rows, cols, zeros):
    """A rows x cols matrix whose first `zeros` entries are zero."""
    n = rows * cols
    return IntMatrix(rows, cols, tuple([0] * zeros + [-(10**59) - 7] * (n - zeros)))


@given(_products())
@example((_half_zero(2, 3, 3), _half_zero(3, 2, 1), (1, 1)))  # exactly half zero
@example((_half_zero(2, 3, 2), _half_zero(3, 2, 1), (2, -3)))  # one short of half
@example((IntMatrix.zeros(4, 3), _half_zero(3, 5, 0), (1, 5)))
@example((IntMatrix(0, 4, ()), _half_zero(4, 3, 0), (1, 1)))
@example((IntMatrix(3, 0, ()), IntMatrix(0, 2, ()), (1, 1)))
@example((IntMatrix(1, 1, (-5,)), IntMatrix(1, 1, (10**59 + 1,)), (-4, 6)))
@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
def test_product_matches_the_oracle(operands):
    a, b, (da, db) = operands
    expected = mat_mul(list(a.entries), list(b.entries), a.rows, a.cols, b.cols)
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert list(product.entries) == expected
    rat = RatMatrix(a, da) @ RatMatrix(b, db)
    assert [Fraction(x, rat.den) for x in rat.num.entries] == [
        Fraction(x, da * db) for x in expected
    ]


def test_is_symmetric_matches_the_pairwise_rule():
    for n in range(4):
        for entries in itertools.product((0, 1), repeat=n * n):
            m = IntMatrix(n, n, entries)
            pairwise = all(
                entries[i * n + j] == entries[j * n + i] for i in range(n) for j in range(n)
            )
            assert m.is_symmetric == pairwise
            # kept once read, so a Gram matrix checked by the runner, the
            # lattice and the signature is scanned once
            assert vars(m)["is_symmetric"] == pairwise
    assert not IntMatrix(2, 3, (1, 0, 0, 0, 1, 0)).is_symmetric
    assert not IntMatrix(0, 2, ()).is_symmetric


def test_kernel_examples():
    k = integer_kernel(IntMatrix.from_rows([[1, 1]]))
    assert k.cols == 1 and k.col(0) == (1, -1)
    assert integer_kernel(IntMatrix.identity(4)).cols == 0
    assert integer_kernel(IntMatrix.zeros(3, 3)) == IntMatrix.identity(3)


def test_kernel_saturated_and_complete():
    rng = random.Random(7)
    for _ in range(80):
        a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -6, 6)
        k = integer_kernel(a)
        assert a @ k == IntMatrix.zeros(a.rows, k.cols)
        assert k.cols == a.cols - len(snf(a).invariant_factors)
        assert k.cols == len(rational_kernel_basis(a))
        if k.cols:
            assert all(f == 1 for f in snf(k).invariant_factors)


def test_kernel_is_deterministic_canonical():
    a = IntMatrix.from_rows([[2, -4, 6], [1, -2, 3]])
    k1 = integer_kernel(a)
    k2 = integer_kernel(IntMatrix.from_rows([[1, -2, 3], [2, -4, 6]]))
    assert k1 == k2


def test_solve_examples():
    two_i = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert solve_integer(two_i, (2, 4)) == (1, 2)
    assert solve_integer(two_i, (1, 0)) is None
    a = IntMatrix.from_rows([[1, 1], [0, 2]])
    x = solve_integer(a, (3, 4))
    assert x is not None and a.mul_vec(x) == (3, 4)


def test_solve_random_roundtrip_and_certified_no_solution():
    rng = random.Random(99)
    for _ in range(120):
        a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), -3, 3)
        x0 = tuple(rng.randint(-3, 3) for _ in range(a.cols))
        b = a.mul_vec(x0)
        x = solve_integer(a, b)
        assert x is not None and a.mul_vec(x) == b
        b2 = tuple(rng.randint(-4, 4) for _ in range(a.rows))
        x2 = solve_integer(a, b2)
        if x2 is None:
            assert no_solution_in_box(a, b2, 6)
        else:
            assert a.mul_vec(x2) == b2


def _snf_solvable(a: IntMatrix, b) -> bool:
    """a.x = b has an integer solution iff, with U.a.V = D, every entry of
    U.b is divisible by its diagonal entry and zero where D has none."""
    res = snf(a)
    diag = res.diagonal
    c = res.U.mul_vec(tuple(b))
    return all(
        (c[i] % diag[i] == 0) if i < len(diag) and diag[i] else c[i] == 0
        for i in range(a.rows)
    )


def _check_against_snf(a: IntMatrix, b) -> None:
    x = solve_integer(a, b)
    assert (x is not None) == _snf_solvable(a, b)
    if x is not None:
        assert a.mul_vec(x) == tuple(b)
    k = integer_kernel(a)
    assert k.rows == a.cols
    assert k.cols == a.cols - len(snf(a).invariant_factors)
    assert a @ k == IntMatrix.zeros(a.rows, k.cols)
    if k.cols:
        assert all(f == 1 for f in snf(k).invariant_factors)


@st.composite
def _systems(draw):
    """(a, b): any shape up to 5x5 including empty ones, with a zero or
    rank-deficient matrix a third of the time each, and b in the image of a
    about half the time."""
    def ints(n):
        return tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))

    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["random", "zero", "low-rank"]))
    if kind == "zero":
        a = IntMatrix.zeros(rows, cols)
    elif kind == "low-rank":
        r = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        a = IntMatrix(rows, r, ints(rows * r)) @ IntMatrix(r, cols, ints(r * cols))
    else:
        a = IntMatrix(rows, cols, ints(rows * cols))
    b = a.mul_vec(ints(cols)) if draw(st.booleans()) else ints(rows)
    return a, b


@given(_systems())
@example((IntMatrix(0, 3, ()), ()))
@example((IntMatrix(3, 0, ()), (0, 1, 0)))
@example((IntMatrix(3, 0, ()), (0, 0, 0)))
@example((IntMatrix.zeros(2, 3), (0, 0)))
@example((IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]]), (2, 1)))
@example((IntMatrix.from_rows([[2, 4, 6], [1, 2, 3]]), (1, 1)))
@example((IntMatrix.from_rows([[2, 0], [0, 3], [4, 6]]), (2, 3, 10)))
@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
def test_solve_and_kernel_agree_with_snf(system):
    _check_against_snf(*system)


@st.composite
def _column_systems(draw):
    """(a, bs): a matrix as drawn by `_systems` and up to four right-hand
    sides, each in the image of a about half the time."""
    a, _ = draw(_systems())

    def ints(n):
        return tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))

    bs = [
        a.mul_vec(ints(a.cols)) if draw(st.booleans()) else ints(a.rows)
        for _ in range(draw(st.integers(0, 4)))
    ]
    return a, bs


@given(_column_systems())
@example((IntMatrix.from_rows([[2, 0], [0, 3]]), [(0, 0), (4, 0), (4, 1)]))
@example((IntMatrix(0, 2, ()), [(), ()]))
@example((IntMatrix(2, 0, ()), [(0, 0), (0, 1)]))
@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
def test_solve_integer_agrees_with_the_transform_oracle_and_snf(system):
    """The x of `solve_integer`, which stops once b is used up, is the x of
    the oracle that runs the whole elimination on an explicit W."""
    a, bs = system
    rows = [list(r) for r in a.to_rows()]
    assert [solve_integer(a, b) for b in bs] == solve_with_transform(rows, a.cols, bs)
    for b in bs:
        _check_against_snf(a, b)


def test_solve_integer_on_vectors_in_and_outside_the_image():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(60):
        a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -4, 4)
        image = [a.mul_vec([rng.randint(-3, 3) for _ in range(a.cols)]) for _ in range(3)]
        outside = [tuple([rng.randint(-5, 5) for _ in range(a.rows)]) for _ in range(3)]
        for b in image:
            x = solve_integer(a, b)
            assert x is not None and a.mul_vec(x) == b
        for b in outside:
            _check_against_snf(a, b)
            verdicts.add(solve_integer(a, b) is None)
    assert verdicts == {True, False}
    two_i = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert [solve_integer(two_i, b) for b in [(1, 0), (2, 4), (0, 3)]] == [None, (1, 2), None]
    # b is used up at the first pivot, before the second is searched for
    assert solve_integer(IntMatrix.from_rows([[1, 0], [0, 0], [0, 5]]), (3, 0, 0)) == (3, 0)


def test_solve_integer_rejects_a_wrong_length_vector():
    a = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    for b in [(1, 2), (1, 2, 3, 4), (), (0, 0)]:
        with pytest.raises(DimensionMismatch):
            solve_integer(a, b)


def _scaled_system(rng: random.Random, n: int, w: int, bound: int) -> tuple[IntMatrix, IntMatrix]:
    """A seeded n x n matrix a and n x w matrix b, entries at most `bound`;
    a is made singular by a repeated row in every fourth draw."""
    a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.randrange(4) == 0:
        i, j = rng.sample(range(n), 2)
        a[i] = list(a[j])
    b = [rng.randint(-bound, bound) for _ in range(n * w)]
    return IntMatrix(n, n, tuple([x for r in a for x in r])), IntMatrix(n, w, tuple(b))


def test_solve_scaled_against_cofactor_and_rational_oracles():
    """(d, X) = solve_scaled(a, b) has d the cofactor determinant of a and
    each column of X / d the rational solution of a.x = b, on seeded square
    systems n = 0..6 with entries up to 10^12 and right-hand sides of width
    0, 1, n and n + 3; a singular a raises ValueError, a non-square a
    NonSquare, and n = 0 gives d = 1 and a 0 x w matrix."""
    rng = random.Random(31)
    counts = {"solved": 0, "singular": 0}
    for trial in range(350):
        n = trial % 7
        for w in sorted({0, 1, n, n + 3}):
            a, b = _scaled_system(rng, n, w, rng.choice((9, 10**12)))
            d = det_cofactor(a) if n else 1
            if not d:
                counts["singular"] += 1
                with pytest.raises(ValueError, match="matrix is singular"):
                    solve_scaled(a, b)
                continue
            counts["solved"] += 1
            d_x, x = solve_scaled(a, b)
            assert d_x == d and (x.rows, x.cols) == (n, w)
            assert a @ x == b.scale(d)
            for j in range(w):
                assert [Fraction(y, d) for y in x.col(j)] == rational_solve(a, b.col(j)), (a, b)
    assert min(counts.values()) > 100, counts
    assert solve_scaled(IntMatrix(0, 0, ()), IntMatrix(0, 4, ())) == (1, IntMatrix(0, 4, ()))
    for a in (IntMatrix.zeros(2, 3), IntMatrix(0, 2, ())):
        with pytest.raises(NonSquare):
            solve_scaled(a, IntMatrix.zeros(a.rows, 1))
    with pytest.raises(DimensionMismatch):
        solve_scaled(IntMatrix.identity(2), IntMatrix.zeros(3, 1))


def test_strided_access_matches_entrywise_reading():
    rng = random.Random(5)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)]:
        a = random_int_matrix(rng, rows, cols, -9, 9) if rows and cols else IntMatrix(rows, cols, ())
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.entries == tuple([a.entry(i, j) for j in range(cols) for i in range(rows)])
        for j in range(cols):
            c = a.col(j)
            assert type(c) is tuple and c == tuple([a.entry(i, j) for i in range(rows)])
        res = snf(a)
        assert type(res.diagonal) is tuple
        assert res.diagonal == tuple([res.D.entry(i, i) for i in range(min(rows, cols))])


def test_solve_and_kernel_agree_with_snf_on_conjugated_cover():
    # 1 - sigma of the rank-18 cover model under a unimodular change of basis
    rng = random.Random(18)
    model = catalog.sextic_model(18)
    n = model.pic.rank
    solvable = 0
    for _ in range(3):
        p, p_inv = random_unimodular(rng, n, steps=4 * n)
        diff = IntMatrix.identity(n) - p_inv @ model.action @ p
        for _ in range(4):
            _check_against_snf(diff, diff.mul_vec([rng.randint(-3, 3) for _ in range(n)]))
            b = [rng.randint(-1, 1) for _ in range(n)]
            solvable += solve_integer(diff, b) is not None
            _check_against_snf(diff, b)
    # most short random vectors lie outside im(1 - sigma), so both verdicts occur
    assert solvable < 12


def test_det_examples():
    assert det(H_GRAM) == -1
    assert det(S2_GRAM) == 12
    assert det(IntMatrix(0, 0, ())) == 1
    with pytest.raises(NonSquare):
        det(IntMatrix.zeros(2, 3))


def test_det_against_cofactor_oracle():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, n, n, -9, 9)
        assert det(a) == det_cofactor(a)
    # every 3x3 over {-1, 0, 1}: many need a row swap, and many are singular
    singular = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        a = IntMatrix(3, 3, entries)
        d = det(a)
        assert d == det_cofactor(a), a
        if d == 0:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                solve_scaled(a, IntMatrix.identity(3))
            continue
        d_adj, adj = solve_scaled(a, IntMatrix.identity(3))
        assert d_adj == d
        assert [list(r) for r in adj.to_rows()] == adjugate_cofactor(a), a
    assert singular == 7875
    assert solve_scaled(IntMatrix(0, 0, ()), IntMatrix(0, 0, ())) == (1, IntMatrix(0, 0, ()))


def test_signature_examples():
    assert signature(H_GRAM) == (1, 1, 0)
    assert signature(S2_GRAM) == (1, 2, 0)
    assert signature(IntMatrix.zeros(3, 3)) == (0, 0, 3)
    assert signature(IntMatrix.diagonal([3, -5, 0, 2])) == (2, 1, 1)
    with pytest.raises(NonSquare):
        signature(IntMatrix.zeros(2, 3))
    with pytest.raises(NotSymmetric):
        signature(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_signature_zero_diagonal_pivot_fix():
    # all-zero diagonal with off-diagonal pairings, needs the row+column trick
    g = IntMatrix.from_rows([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
    pos, neg, zero = signature(g)
    assert (pos, neg, zero) == (1, 1, 1)
    # a zero row after a negative pivot, then a zero-diagonal block of
    # signature (1, 2): the zero row must not reset the previous pivot
    g = IntMatrix.block_diag([IntMatrix.diagonal([-1, 0]), IntMatrix.from_rows(
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    )])
    assert signature(g) == fraction_signature(g) == (1, 3, 1)
    # against the Fraction diagonalization, half the samples with a zero
    # diagonal and sparse elsewhere, which exercises both pivot fixes
    rng = random.Random(2468)
    for trial in range(400):
        n = rng.randint(1, 7)
        a = [list(r) for r in random_symmetric(rng, n, -4, 4).to_rows()]
        if trial % 2:
            for i in range(n):
                for j in range(i, n):
                    if i == j or rng.random() < 0.6:
                        a[i][j] = a[j][i] = 0
        g = IntMatrix.from_rows(a)
        assert signature(g) == fraction_signature(g), g


def test_signature_on_every_small_symmetric_matrix():
    # every symmetric 3x3 over {-2, ..., 2}: all-zero diagonals, degenerate
    # forms and zero rows included
    for d0, d1, d2, a, b, c in itertools.product(range(-2, 3), repeat=6):
        g = IntMatrix(3, 3, (d0, a, b, a, d1, c, b, c, d2))
        assert signature(g) == fraction_signature(g), g


def test_signature_congruence_invariance():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(1, 5)
        g = random_symmetric(rng, n, -6, 6)
        p, p_inv = random_unimodular(rng, n)
        assert abs(det(p)) == 1
        assert p @ p_inv == IntMatrix.identity(n)
        assert signature(p.transpose() @ g @ p) == signature(g)


def test_signature_matches_diag_of_rank_deficient():
    g = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert signature(g) == (1, 0, 1)


def test_hermite_row_basis_canonical():
    m = IntMatrix.from_rows([[0, 2, 4], [0, 3, 6], [0, 0, 0]])
    h = hermite_row_basis(m)
    assert h == IntMatrix.from_rows([[0, 1, 2]])
    assert hermite_row_basis(h) == h
    m2 = IntMatrix.from_rows([[2, 1], [1, 2]])
    h2 = hermite_row_basis(m2)
    assert h2 == IntMatrix.from_rows([[1, 2], [0, 3]])


def test_rat_matrix_inverse_and_integrality():
    a = RatMatrix(IntMatrix.from_rows([[1, 2], [3, 5]]))
    inv = a.inverse()
    assert a @ inv == RatMatrix(IntMatrix.identity(2))
    assert inv.den == 1
    with pytest.raises(ValueError):
        RatMatrix(IntMatrix.from_rows([[1, 1], [1, 1]])).inverse()
    with pytest.raises(NonSquare):
        RatMatrix(IntMatrix.zeros(2, 3)).inverse()
    # lowest terms with a positive denominator: equal rationals are equal
    m = IntMatrix.from_rows([[3, -6], [9, 4]])
    assert RatMatrix(m.scale(2), 2) == RatMatrix(m)
    assert RatMatrix(m.scale(-4), -12) == RatMatrix(m, 3)
    assert RatMatrix(m, -3).den == 3 and RatMatrix(m, -3).num == m.scale(-1)
    # against the Fraction Gauss-Jordan, a third of the samples singular
    rng = random.Random(1357)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 6)
        m = random_int_matrix(rng, n, n, -3, 3)
        if trial % 3 == 0 and n > 1:
            # a repeated row makes it singular
            rows = list(m.to_rows())
            i, j = rng.sample(range(n), 2)
            rows[i] = rows[j]
            m = IntMatrix.from_rows(rows)
        den = rng.randint(1, 5)
        expected = fraction_inverse(m)
        if expected is None:
            singular += 1
            with pytest.raises(ValueError):
                RatMatrix(m, den).inverse()
            continue
        inv = RatMatrix(m, den).inverse()
        assert [[den * x for x in r] for r in expected] == [
            [Fraction(x, inv.den) for x in r] for r in inv.num.to_rows()
        ]
        d, adj = solve_scaled(m, IntMatrix.identity(n))
        assert d == det(m)
        assert [[d * x for x in r] for r in expected] == [list(r) for r in adj.to_rows()]
    assert singular > 50


def _oracle_case(rng: random.Random, case: int) -> tuple[int, int, list[list[int]]]:
    """A seeded matrix up to 8 x 8, any side possibly 0: every fifth one is
    zero, every fifth one is made rank deficient by repeated rows and a zero
    column, and every twenty-fifth one has 60-digit entries."""
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    if case % 25 == 24:
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        return rows, cols, [
            [rng.choice((0, rng.randint(-9, 9), rng.randrange(-10**60, 10**60))) for _ in range(cols)]
            for _ in range(rows)
        ]
    a = [[rng.randint(-9, 9) if case % 5 else 0 for _ in range(cols)] for _ in range(rows)]
    if case % 5 == 1 and rows > 1 and cols:
        for i in rng.sample(range(rows), rng.randint(1, rows - 1)):
            a[i] = list(rng.choice(a))
        zero = rng.randrange(cols)
        a = [r[:zero] + [0] + r[zero + 1:] for r in a]
    return rows, cols, a


def test_logged_transforms_agree_with_the_carried_transform_oracle():
    """snf's U, D and V, integer_kernel and solve_integer replay their
    transforms from a log of row operations; the oracle repeats every row
    operation on an explicit W.  Both take the same pivots, so they must
    agree exactly, including on the empty shapes."""
    rng = random.Random(19)
    verdicts = {True: 0, False: 0}
    edges = [(0, 0, []), (0, 5, []), (4, 0, [[], [], [], []])]
    for case in range(1200):
        rows, cols, a = edges[case] if case < len(edges) else _oracle_case(rng, case)
        m = IntMatrix(rows, cols, tuple([x for r in a for x in r]))
        u, d, v = snf_with_transforms(a, cols)
        res = snf(m)
        assert [list(r) for r in res.D.to_rows()] == d, a
        assert [list(r) for r in res.U.to_rows()] == u, a
        assert [list(r) for r in res.V.to_rows()] == v, a
        kernel = integer_kernel(m)
        assert kernel.rows == cols
        assert [list(kernel.col(j)) for j in range(kernel.cols)] == kernel_with_transform(a, cols), a
        xs = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(2)]
        bs = [[sum(map(operator.mul, r, x)) for r in a] for x in xs]
        bs += [[rng.randint(-9, 9) for _ in range(rows)], [2 * y + 1 for y in bs[0]]]
        solutions = [solve_integer(m, b) for b in bs]
        assert solutions == solve_with_transform(a, cols, bs), a
        for x in solutions:
            verdicts[x is not None] += 1
    assert min(verdicts.values()) > 300


def test_undo_takes_each_oracle_u_column_back_to_a_unit_vector():
    """_undo walks snf's row log backwards through each operation's inverse,
    so it computes U^-1 * y; on column i of the U the oracle carries along
    it must give e_i.  Every kind of logged operation occurs: eliminations,
    swaps, negations and the divisibility repair (i, j, -1) with i < j."""
    rng = random.Random(20)
    kinds = {"eliminate": 0, "swap": 0, "negate": 0, "repair": 0}
    edges = [(0, 0, []), (0, 5, []), (4, 0, [[], [], [], []])]
    for case in range(1000):
        rows, cols, a = edges[case] if case < len(edges) else _oracle_case(rng, case)
        u, _, _ = snf_with_transforms(a, cols)
        res = snf(IntMatrix(rows, cols, tuple([x for r in a for x in r])))
        for i in range(rows):
            assert matrices._undo(res.ulog, [r[i] for r in u]) == [int(j == i) for j in range(rows)], a
        for i, t, q in res.ulog:
            kinds["repair" if q and i < t else "eliminate" if q else "negate" if i == t else "swap"] += 1
    assert min(kinds.values()) > 0, kinds


def _permuted(m: list[list[int]], perm: list[int]) -> list[list[int]]:
    """P^T * m * P for the permutation matrix P sending e_k to e_perm[k]."""
    return [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]


def _isometry_case(rng: random.Random, kind: str) -> tuple[list[list[int]], list[list[int]]]:
    """(sigma, gram), symmetric gram up to 7 x 7, as plain lists of rows.

    "random": sigma with entries in [-2, 2], almost never an isometry.
    "isometry": sigma swaps two equal blocks B of gram with signs and acts by
    -1 or 1 on a third block C, conjugated by a seeded unimodular matrix.
    "diagonal": sigma doubles a basis vector orthogonal to the rest, so
    sigma^T * gram * sigma differs from gram in one diagonal entry only.
    "pair": sigma negates a basis vector paired with one other only, so the
    two sides differ in one off-diagonal pair only.  The last two are
    conjugated by a seeded permutation, which moves the broken entries.
    """
    if kind == "random":
        n = rng.randint(1, 7)
        sigma = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        return sigma, [list(r) for r in random_symmetric(rng, n, -3, 3).to_rows()]
    if kind == "isometry":
        k, c = rng.randint(1, 3), rng.randint(0, 1)
        b = [list(r) for r in random_symmetric(rng, k, -3, 3).to_rows()]
        ce = rng.randint(-3, 3)
        n = 2 * k + c
        g0 = [[0] * n for _ in range(n)]
        s0 = [[0] * n for _ in range(n)]
        s1, s2, s3 = (rng.choice((-1, 1)) for _ in range(3))
        for i in range(k):
            for j in range(k):
                g0[i][j] = g0[k + i][k + j] = b[i][j]
            s0[k + i][i], s0[i][k + i] = s1, s2
        if c:
            g0[n - 1][n - 1], s0[n - 1][n - 1] = ce, s3
        p, p_inv = random_unimodular(rng, n, steps=3 * n)
        p, p_inv = list(p.entries), list(p_inv.entries)
        pt = [p[j * n + i] for i in range(n) for j in range(n)]
        gram = mat_mul(mat_mul(pt, [x for r in g0 for x in r], n, n, n), p, n, n, n)
        sigma = mat_mul(mat_mul(p_inv, [x for r in s0 for x in r], n, n, n), p, n, n, n)
        return [sigma[i * n:(i + 1) * n] for i in range(n)], [gram[i * n:(i + 1) * n] for i in range(n)]
    head = 1 if kind == "diagonal" else 2
    rest = [list(r) for r in random_symmetric(rng, rng.randint(0, 5), -3, 3).to_rows()]
    n = head + len(rest)
    g0 = [[0] * n for _ in range(head)] + [[0] * head + r for r in rest]
    s0 = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        g0[0][0], s0[0][0] = rng.choice((-2, -1, 1, 2)), rng.choice((-2, 0, 2))
    else:
        g0[0][1] = g0[1][0] = rng.choice((-2, -1, 1, 2))
        g0[0][0], g0[1][1], s0[0][0] = rng.randint(-2, 2), rng.randint(-2, 2), -1
    perm = rng.sample(range(n), n)
    return _permuted(s0, perm), _permuted(g0, perm)


def _congruence(p, g, m, n):
    """p^T * g * p for a plain m x n list p and m x m list g, by the oracle."""
    pt = [p[k * n + i] for i in range(n) for k in range(m)]
    return mat_mul(mat_mul(pt, g, n, m, m), p, n, m, n)


def test_is_congruence_agrees_with_the_triple_product():
    """is_congruence compares p^T * (g * (p * x)) with h * x on one probe
    vector x; the oracle forms the whole triple product.  On isometries
    (p = sigma, h = g) the broken cases pin down which entries of the
    oracle's product differ: one diagonal entry, or one off-diagonal pair,
    so a check that misses a change on the diagonal or off it does not
    pass.  Non-square maps are then checked against their own product,
    changed by 1 at one diagonal entry or one off-diagonal pair."""
    rng = random.Random(21)
    seen = {}
    for case in range(800):
        kind = ("random", "isometry", "diagonal", "pair")[case % 4]
        sigma, gram = _isometry_case(rng, kind)
        n = len(gram)
        flat_s, flat_g = [x for r in sigma for x in r], [x for r in gram for x in r]
        product = _congruence(flat_s, flat_g, n, n)
        broken = [(i, j) for i in range(n) for j in range(n) if product[i * n + j] != flat_g[i * n + j]]
        if kind == "isometry":
            assert broken == [], (sigma, gram)
        elif kind == "diagonal":
            assert len(broken) == 1 and broken[0][0] == broken[0][1], (sigma, gram)
        elif kind == "pair":
            assert len(broken) == 2 and broken[0] == broken[1][::-1], (sigma, gram)
        g = IntMatrix.from_rows(gram)
        verdict = matrices.is_congruence(IntMatrix.from_rows(sigma), g, g)
        assert verdict == (not broken), (kind, sigma, gram)
        seen[kind, verdict] = seen.get((kind, verdict), 0) + 1
    assert seen[("random", False)] > 150 and seen[("isometry", True)] == 200, seen
    assert seen[("diagonal", False)] == seen[("pair", False)] == 200, seen
    # an m x n map with m != n, against its own product and a changed one
    for trial in range(300):
        m, n = rng.randint(1, 6), rng.randint(2, 6)
        m += m == n
        height = 10 ** rng.randint(0, 30)
        p = random_int_matrix(rng, m, n, -height, height)
        g = random_symmetric(rng, m, -height, height)
        h = _congruence(list(p.entries), list(g.entries), m, n)
        assert matrices.is_congruence(p, g, IntMatrix(n, n, tuple(h))), (p, g)
        i, j = rng.randrange(n), rng.randrange(n - 1)
        j += j >= i
        for delta in (1, -1):
            diagonal = list(h)
            diagonal[i * n + i] += delta
            pair = list(h)
            pair[i * n + j] += delta
            pair[j * n + i] += delta
            for changed in (diagonal, pair):
                assert not matrices.is_congruence(p, g, IntMatrix(n, n, tuple(changed)))
        other = random_symmetric(rng, n, -3, 3)
        assert matrices.is_congruence(p, g, other) == (list(other.entries) == h)
    # every entry of p^T * g * p at the bound m^2 * s^2 * t, and h its negative
    for m, n, s, t in ((1, 2, 1, 1), (3, 2, 7, 5), (5, 4, 10**20, 3)):
        p, g = IntMatrix(m, n, (s,) * (m * n)), IntMatrix(m, m, (t,) * (m * m))
        top = IntMatrix(n, n, (m * m * s * s * t,) * (n * n))
        assert matrices.is_congruence(p, g, top)
        assert not matrices.is_congruence(p, g, top.scale(-1))
    # a zero form is sent to zero by anything; shapes must match
    for p in (IntMatrix.from_rows([[5, 1], [2, 3]]), IntMatrix.from_rows([[5, 1, 0], [2, 3, 4]])):
        n = p.cols
        assert matrices.is_congruence(p, IntMatrix.zeros(2, 2), IntMatrix.zeros(n, n))
        assert not matrices.is_congruence(p, IntMatrix.zeros(2, 2), IntMatrix.identity(n))
    p = IntMatrix.zeros(2, 3)
    for g, h in (
        (IntMatrix.identity(3), IntMatrix.identity(3)),  # g does not have p's rows
        (IntMatrix.zeros(2, 3), IntMatrix.identity(3)),  # g is not square
        (IntMatrix.identity(2), IntMatrix.identity(2)),  # h does not have p's columns
        (IntMatrix.identity(2), IntMatrix.zeros(3, 2)),  # h is not square
        (IntMatrix.zeros(2, 2), IntMatrix.zeros(2, 2)),  # zero g, h the wrong size
    ):
        with pytest.raises(DimensionMismatch):
            matrices.is_congruence(p, g, h)


def test_subtraction_is_entrywise_and_checks_shapes():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    b = IntMatrix.from_rows([[6, 5, 4], [3, 2, 1]])
    assert a - b == IntMatrix.from_rows([[-5, -3, -1], [1, 3, 5]])
    assert (a - b) + b == a
    with pytest.raises(DimensionMismatch):
        a - IntMatrix.identity(2)
    with pytest.raises(DimensionMismatch):
        a - a.transpose()
