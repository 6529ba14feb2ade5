"""Tests for cyclic group cohomology on lattices."""

import json
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import k3ord.cohomology as cohomology
from k3ord import catalog
from k3ord.cohomology import (
    CohResult,
    GLattice,
    fixed_sublattice,
    h1,
    half_gram_quotient,
    norm_and_diff,
)
from k3ord.cli import main
from k3ord.divisors import nakai_certificate
from k3ord.embeddings import is_primitive
from k3ord.errors import (
    ActionNotIsometric,
    DimensionMismatch,
    NonSquare,
    OddEntry,
    UnsupportedAction,
    UnsupportedParameter,
)
from k3ord.fibrations import AbGroupModel, BlockEndo, GroupElement, coboundary_check
from k3ord.lattices import Lattice
import k3ord.matrices as matrices
from k3ord.matrices import (
    IntMatrix,
    hermite_row_basis,
    integer_kernel,
    snf,
    solve_integer,
)

from k3ord.runner import PASS, find_cases, load_expected, run_check

from oracles import (
    h1_box_class_count,
    mat_mul,
    poly_at,
    power_sum,
    random_int_matrix,
    random_unimodular,
    snf_with_transforms,
)

REPO = Path(__file__).resolve().parent.parent


def q_glattice(n):
    return GLattice(Lattice(catalog.q_gram(n)), catalog.sextic_action(n), 2)


def model_glattice(model):
    return GLattice(model.pic, model.action, 2)


def cover_models():
    """The 18 catalog cover models."""
    models = [catalog.sextic_model(n) for n in catalog.RANK_RANGE]
    return models + [catalog.quadric_model(), catalog.hirzebruch2_model()]


def class_in_subgroup(v, generators, diff):
    """Is the class of v generated by the given cocycle classes mod im D?"""
    if not generators:
        return solve_integer(diff, v) is not None
    gens = IntMatrix.from_cols([list(g) for g in generators])
    return solve_integer(gens.hstack(diff), v) is not None


def test_glattice_validation():
    z2 = Lattice(IntMatrix.zeros(2, 2))
    with pytest.raises(DimensionMismatch):
        GLattice(z2, IntMatrix.identity(3), 2)
    with pytest.raises(UnsupportedParameter):
        GLattice(z2, IntMatrix.identity(2), 0)
    with pytest.raises(UnsupportedParameter):
        GLattice(z2, IntMatrix.identity(2).scale(-1), 3)
    # period 3: sigma^4 = sigma, sigma^6 = 1
    rotation = IntMatrix.from_rows([[0, -1], [1, -1]])
    with pytest.raises(UnsupportedParameter):
        GLattice(z2, rotation, 4)
    GLattice(z2, rotation, 6)
    h = Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ActionNotIsometric):
        GLattice(h, shear, 2)


def test_norm_and_diff_trivial_cases():
    z2 = Lattice(IntMatrix.zeros(2, 2))
    n, d = norm_and_diff(GLattice(z2, IntMatrix.identity(2), 1))
    assert n == IntMatrix.identity(2)
    assert d == IntMatrix.zeros(2, 2)
    n, d = norm_and_diff(GLattice(z2, IntMatrix.identity(2).scale(-1), 2))
    assert n == IntMatrix.zeros(2, 2)
    assert d == IntMatrix.identity(2).scale(2)


def test_norm_follows_the_period():
    # N at order 2k is k copies of the order-2 sum
    for n in catalog.RANK_RANGE:
        model = catalog.sextic_model(n)
        norm2, _ = norm_and_diff(GLattice(model.pic, model.action, 2))
        for k in (2, 3, 5):
            norm, _ = norm_and_diff(GLattice(model.pic, model.action, 2 * k))
            assert norm == norm2.scale(k), (n, k)


def test_work_follows_the_period_not_the_declared_order(monkeypatch):
    calls = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b)
    )
    minus = IntMatrix.from_rows([[-1]])
    res = h1(GLattice(Lattice(IntMatrix.zeros(1, 1)), minus, 10**6))
    assert res.invariant_factors == (2,)
    assert len(calls) <= 10


def test_zero_form_costs_no_isometry_products(monkeypatch):
    calls = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b)
    )
    for r in (1, 4, 30):
        GLattice(Lattice(IntMatrix.zeros(r, r)), IntMatrix.identity(r), 2)
    assert calls == []


def _largest_finite_order(rank):
    """(max lcm(m_i), the m_i) over distinct m_i >= 2 with sum phi(m_i) <= rank,
    by exhaustive search: the largest order of a finite-order element of
    GL_rank(Z).  phi(m) >= sqrt(m / 2) bounds the candidates."""
    def phi(m):
        return sum(1 for i in range(1, m + 1) if math.gcd(i, m) == 1)

    candidates = [(m, phi(m)) for m in range(2, 2 * rank * rank + 3) if phi(m) <= rank]
    best = (1, ())

    def search(start, budget, lcm, chosen):
        nonlocal best
        best = max(best, (lcm, chosen))
        for i in range(start, len(candidates)):
            m, f = candidates[i]
            if f <= budget:
                search(i + 1, budget - f, math.lcm(lcm, m), chosen + (m,))

    search(0, rank, 1, ())
    return best


def test_largest_finite_orders_are_accepted_exactly_at_their_order():
    largest = {1: 2, 2: 6, 3: 6, 4: 12, 5: 12, 6: 30, 7: 30, 8: 60}
    for rank, expected in largest.items():
        order, ms = _largest_finite_order(rank)
        assert order == expected
        blocks = [_companion(_cyclotomic(m)) for m in ms]
        blocks += [IntMatrix.identity(1)] * (rank - sum(b.rows for b in blocks))
        sigma = IntMatrix.block_diag(blocks)
        zero = Lattice(IntMatrix.zeros(rank, rank))
        GLattice(zero, sigma, order)
        with pytest.raises(UnsupportedParameter):
            GLattice(zero, sigma, order - 1)


def test_non_periodic_action_is_rejected_by_its_minimal_polynomial():
    cat = IntMatrix.from_rows([[2, 1], [1, 1]])
    zero = Lattice(IntMatrix.zeros(2, 2))
    start = time.perf_counter()
    with pytest.raises(UnsupportedParameter, match=r"^sigma\^1000000 is not the identity$"):
        GLattice(zero, cat, 10**6)
    assert time.perf_counter() - start < 1


def test_h1_generators_are_a_basis_of_the_quotient():
    # Each g_i is a cocycle whose class is nonzero and killed by d_i, and
    # [g_1 ... g_t | D] spans ker N; with the right invariant factors the
    # classes of the g_i are then a basis of ker N / im D, whatever route
    # produced them.
    rng = random.Random(808)
    for model in cover_models():
        n = model.pic.rank
        for order in (2, 2 * rng.randint(2, 4)):
            p, p_inv = random_unimodular(rng, n, steps=2 * n)
            gl = GLattice(
                Lattice(p.transpose() @ model.pic.gram @ p), p_inv @ model.action @ p, order
            )
            norm, diff = norm_and_diff(gl)
            res = h1(gl)
            expected = tuple([2] * len(model.h1_generators))
            assert res.invariant_factors == expected, (model.name, order)
            for g, d in zip(res.generators, res.invariant_factors):
                assert not any(norm.mul_vec(g))
                assert solve_integer(diff, [d * x for x in g]) is not None
                assert solve_integer(diff, g) is None
            spanned = IntMatrix.from_cols(res.generators).hstack(diff)
            assert hermite_row_basis(spanned.transpose()) == integer_kernel(norm).transpose()


def test_h1_inverts_nothing_and_multiplies_no_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("unexpected call")

    cases = [(model, model_glattice(model)) for model in cover_models()]
    monkeypatch.setattr(matrices, "solve_scaled", refuse)
    monkeypatch.setattr(matrices, "integer_kernel", refuse)
    monkeypatch.setattr(matrices, "solve_integer", refuse)
    monkeypatch.setattr(cohomology, "integer_kernel", refuse)
    monkeypatch.setattr(cohomology, "solve_integer", refuse, raising=False)
    snf_calls = []
    monkeypatch.setattr(cohomology, "snf", lambda a: snf_calls.append(a) or snf(a))
    for model, gl in cases:
        snf_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(IntMatrix, "__matmul__", refuse)
            norm_and_diff(gl)
            assert h1(gl).invariant_factors == tuple([2] * len(model.h1_generators))
        assert len(snf_calls) == 1, model.name


def _cyclotomic(m):
    """Coefficients of Phi_m, constant term first: x^m - 1 divided by every
    Phi_d with d a proper divisor of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = _cyclotomic(d)
            quot = [0] * (len(poly) - len(den) + 1)
            for k in reversed(range(len(quot))):
                quot[k] = c = poly[k + len(den) - 1]
                for j, b in enumerate(den):
                    poly[k + j] -= c * b
            assert not any(poly)
            poly = quot
    return poly


def _companion(poly):
    """The companion matrix of a monic polynomial: multiplication by x on
    the basis 1, x, ..., x^(k-1) of Z[x]/(poly)."""
    k = len(poly) - 1
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        if i + 1 < k:
            rows[i + 1][i] = 1
        rows[i][k - 1] = -poly[i]
    return IntMatrix.from_rows(rows)


def _prime_of_power(m):
    """p when m is a power p^a with a >= 1, else None."""
    p = next((q for q in range(2, m + 1) if m % q == 0), None)
    while p and m % p == 0:
        m //= p
    return p if m == 1 else None


@st.composite
def _cyclotomic_actions(draw):
    ms = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
        lambda ms: sum(len(_cyclotomic(m)) - 1 for m in ms) <= 12
    ))
    return ms, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@given(_cyclotomic_actions())
@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
def test_h1_of_cyclotomic_blocks_matches_the_closed_form(case):
    # On the companion block of Phi_m, m > 1, sigma is multiplication by a
    # primitive m-th root of unity z on Z[z] and N is 0, so H^1 is
    # Z[z]/(1 - z) = Z/Phi_m(1): Z/p for m = p^a and 0 otherwise.  On the
    # block of Phi_1, sigma is 1 and H^1 = Hom(Z/n, Z) = 0.
    ms, multiple, unimodular_seed = case
    sigma = IntMatrix.block_diag([_companion(_cyclotomic(m)) for m in ms])
    r = sigma.rows
    p, p_inv = random_unimodular(random.Random(unimodular_seed), r, steps=2 * r)
    gl = GLattice(Lattice(IntMatrix.zeros(r, r)), p_inv @ sigma @ p, math.lcm(*ms) * multiple)
    counts = {}
    for m in ms:
        if q := _prime_of_power(m):
            counts[q] = counts.get(q, 0) + 1
    length = max(counts.values(), default=0)
    # the sum of Z/p over the blocks, as a divisibility chain d_1 | ... | d_t
    chain = tuple([
        math.prod([q for q, c in counts.items() if c >= length - i]) for i in range(length)
    ])
    res = h1(gl)
    assert res.invariant_factors == chain, ms
    assert res.free_rank == 0
    norm, diff = norm_and_diff(gl)
    for g, d in zip(res.generators, res.invariant_factors):
        assert not any(norm.mul_vec(g))
        assert solve_integer(diff, [d * x for x in g]) is not None


def _seeded_cyclotomic_actions(rng, count):
    """`count` triples (ms, sigma, order): sigma the sum of the companion
    blocks of Phi_m over ms, rank at most 8, conjugated by a seeded
    unimodular matrix, and order a multiple of lcm(ms)."""
    for _ in range(count):
        ms = []
        while not ms or rng.random() < 0.6:
            m = rng.randint(1, 12)
            if sum(len(_cyclotomic(k)) - 1 for k in ms + [m]) <= 8:
                ms.append(m)
            elif ms:
                break
        sigma = IntMatrix.block_diag([_companion(_cyclotomic(m)) for m in ms])
        r = sigma.rows
        p, p_inv = random_unimodular(rng, r, steps=3 * r)
        yield ms, p_inv @ sigma @ p, math.lcm(*ms) * rng.randint(1, 2)


def test_verdict_agrees_with_the_norm_and_a_solve():
    """CohResult.verdict reads (cocycle, coboundary) off U.v; the reference
    forms N.v and solves D.x = v.  Per seeded action: three random vectors,
    a coboundary (1 - sigma).w, a generator (a random vector when there is
    no torsion) and zero; then identity actions and the rank-0 action."""
    rng = random.Random(3030)

    def agree(gl, vectors):
        res = h1(gl)
        for v in vectors:
            expected = (not any(gl.norm.mul_vec(v)), solve_integer(gl.diff, v) is not None)
            assert res.verdict(v) == expected, (gl.sigma, gl.order, v)
            kinds[expected] += 1

    kinds = {(True, True): 0, (True, False): 0, (False, False): 0}
    for ms, sigma, order in _seeded_cyclotomic_actions(random.Random(3031), 300):
        r = sigma.rows
        gl = GLattice(Lattice(IntMatrix.zeros(r, r)), sigma, order)
        rand = [tuple([rng.randint(-3, 3) for _ in range(r)]) for _ in range(4)]
        gens = h1(gl).generators
        agree(gl, rand[:3] + [gl.diff.mul_vec(rand[3]), gens[0] if gens else rand[3], (0,) * r])
    for r, order in ((1, 1), (3, 2), (2, 5)):
        gl = GLattice(Lattice(IntMatrix.zeros(r, r)), IntMatrix.identity(r), order)
        agree(gl, [(0,) * r, (1,) + (0,) * (r - 1), tuple(range(r))])
    agree(GLattice(Lattice(IntMatrix.zeros(0, 0)), IntMatrix.identity(0), 2), [()])
    assert min(kinds.values()) > 100, kinds
    with pytest.raises(DimensionMismatch):
        h1(gl).verdict((0,) * (gl.lattice.rank + 1))


def test_norm_agrees_with_the_plain_power_sum_on_seeded_actions():
    # each mu_j is replayed from one log shared by the elimination runs of
    # its Krylov loop; a wrong mu gives a wrong N or rejects a valid order
    for ms, sigma, order in _seeded_cyclotomic_actions(random.Random(1919), 300):
        r = sigma.rows
        norm = GLattice(Lattice(IntMatrix.zeros(r, r)), sigma, order).norm
        assert [list(row) for row in norm.to_rows()] == power_sum(
            [list(row) for row in sigma.to_rows()], order
        ), (ms, order)


def _annihilates_as_the_oracle(mu, a):
    """matrices.annihilates(mu, a) against the plain value mu(a), whose
    entries must also keep within the bound the probe is built on; returns
    the verdict."""
    value = poly_at(list(mu), [list(r) for r in a.to_rows()])
    n, s = a.rows, a.height
    bound = abs(mu[0]) + sum(abs(c) * n ** (k - 1) * s ** k for k, c in enumerate(mu) if k)
    assert max((abs(x) for r in value for x in r), default=0) <= bound, (mu, a)
    verdict = matrices.annihilates(mu, a)
    assert verdict == (not any(map(any, value))), (mu, a)
    return verdict


def test_annihilates_agrees_with_the_plain_polynomial_value():
    """annihilates tests mu(a) = 0 by Horner on one probe vector; the oracle
    forms mu(a) from the powers of a.  The cases: seeded matrices and
    polynomials, products of cyclotomic polynomials on sums of their
    companion blocks, s * J (J all ones), whose powers (s J)^k = s^k n^(k-1) J
    meet the bound, and values that are 1 or -1 in a single entry."""
    rng = random.Random(2525)
    kills = 0
    for _ in range(400):
        n = rng.randint(0, 5)
        a = random_int_matrix(rng, n, n, -3, 3)
        mu = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        _annihilates_as_the_oracle(mu, a)
    for ms, sigma, _ in _seeded_cyclotomic_actions(random.Random(2526), 200):
        first, *rest = sorted(set(ms))
        proper, extra = [1], _cyclotomic(rng.randint(1, 12))
        for m in rest:
            proper = _times(proper, _cyclotomic(m))
        mu = _times(proper, _cyclotomic(first))
        for poly in (mu, _times(mu, extra), proper, extra):
            kills += _annihilates_as_the_oracle(poly, sigma)
    assert kills >= 400
    for n, s, k in ((1, 5, 3), (3, 1, 4), (4, 9, 5), (6, 10**12, 3)):
        a, top = IntMatrix(n, n, (s,) * (n * n)), (s * n) ** (k - 1)
        power = [0] * k + [1]
        assert poly_at(power, [list(r) for r in a.to_rows()])[0][0] == s ** k * n ** (k - 1)
        assert not _annihilates_as_the_oracle(power, a)
        assert _annihilates_as_the_oracle([0, -top] + [0] * (k - 2) + [1], a)
        assert not _annihilates_as_the_oracle([rng.choice((-1, 1)), -top] + [0] * (k - 2) + [1], a)
    # c I + E_ij: x - c leaves the single entry 1, (x - c)^2 kills it
    for c in (0, 1, -7, 10**30):
        for n, i, j in ((2, 0, 1), (3, 2, 0), (5, 1, 3)):
            a = IntMatrix.identity(n).scale(c) + IntMatrix.from_rows(
                [[int((r, t) == (i, j)) for t in range(n)] for r in range(n)])
            assert not _annihilates_as_the_oracle([-c, 1], a)
            assert not _annihilates_as_the_oracle([c, -1], a)
            assert _annihilates_as_the_oracle([c * c, -2 * c, 1], a)
            assert not _annihilates_as_the_oracle([c * c + 1, -2 * c, 1], a)
    with pytest.raises(NonSquare):
        matrices.annihilates([0, 1], IntMatrix.zeros(2, 3))


def _lcm_steps(monkeypatch):
    """Record each lcm that GLattice tests on sigma, with the verdict."""
    steps = []
    annihilates = cohomology.annihilates
    monkeypatch.setattr(cohomology, "annihilates", lambda mu, sigma: steps.append(
        (list(mu), annihilates(mu, sigma))) or steps[-1][1])
    return steps


def _plain_norm(sigma, order):
    r = sigma.rows
    norm = GLattice(Lattice(IntMatrix.zeros(r, r)), sigma, order).norm
    return [list(row) for row in norm.to_rows()] == power_sum(
        [list(row) for row in sigma.to_rows()], order)


def test_mu_is_the_lcm_when_sigma_fixes_e_1(monkeypatch):
    # mu_1 = x - 1 is a proper divisor of mu = (x - 1) Phi_3; the lcm grows
    # at e_2 and kills sigma there, so e_3 is never looked at
    steps = _lcm_steps(monkeypatch)
    sigma = IntMatrix.block_diag([IntMatrix.identity(1), _companion(_cyclotomic(3))])
    for order in (3, 6, 9):
        steps.clear()
        assert _plain_norm(sigma, order)
        assert steps == [([-1, 1], False), (_times([-1, 1], _cyclotomic(3)), True)]
    for order in (1, 2, 4):
        with pytest.raises(UnsupportedParameter, match=rf"^sigma\^{order} is not the identity$"):
            GLattice(Lattice(IntMatrix.zeros(3, 3)), sigma, order)


def test_mu_needs_the_lcm_of_every_proper_divisor(monkeypatch):
    # (1) + (-1) + companion(Phi_3): mu_1 = x - 1, mu_2 = x + 1 and
    # mu_3 = mu_4 = Phi_3 are each a proper divisor of mu, their product
    steps = _lcm_steps(monkeypatch)
    sigma = IntMatrix.block_diag([
        IntMatrix.identity(1), IntMatrix.identity(1).scale(-1), _companion(_cyclotomic(3)),
    ])
    mu = _times(_times([-1, 1], [1, 1]), _cyclotomic(3))
    for order in (6, 12):
        steps.clear()
        assert _plain_norm(sigma, order)
        assert steps == [([-1, 1], False), ([-1, 0, 1], False), (mu, True)]
    for order in (2, 3, 4):
        with pytest.raises(UnsupportedParameter, match=rf"^sigma\^{order} is not the identity$"):
            GLattice(Lattice(IntMatrix.zeros(4, 4)), sigma, order)
    # conjugated, e_1 is no longer fixed, and the answer stays the same
    p, p_inv = random_unimodular(random.Random(2121), 4, steps=12)
    assert _plain_norm(p_inv @ sigma @ p, 6)


@pytest.mark.parametrize("sigma", [
    IntMatrix.block_diag([IntMatrix.identity(1), IntMatrix.from_rows([[2, 1], [1, 1]])]),
    IntMatrix.from_rows([[1, 1], [0, 1]]),
])
def test_finite_on_the_first_krylov_space_is_not_enough(sigma):
    # e_1 is fixed, so mu_1 = x - 1 passes; a later mu_j is x^2 - 3x + 1
    # (infinite order) or (x - 1)^2 (not semisimple)
    zero = Lattice(IntMatrix.zeros(sigma.rows, sigma.rows))
    for order in (1, 2, 6, 10**6):
        with pytest.raises(UnsupportedParameter, match=rf"^sigma\^{order} is not the identity$"):
            GLattice(zero, sigma, order)


def test_cover_models_build_no_products(monkeypatch):
    # each cover model's action is an involution, so N = (order / 2)(I + sigma)
    # or a multiple of I, and the isometry and mu tests run on probe vectors
    calls = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b)
    )
    for model in cover_models():
        for order in (2, 4):
            GLattice(model.pic, model.action, order)
    assert calls == []


def _oracle_h1_generators(sigma):
    """D.V.e_i / d_i over the d_i > 1, for D = 1 - sigma and the V that the
    oracle carries through its Smith form, on plain lists; each division is
    checked to be exact."""
    n = sigma.rows
    d = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(sigma.to_rows())]
    _, smith, v = snf_with_transforms(d, n)
    dv = mat_mul([x for r in d for x in r], [x for r in v for x in r], n, n, n)
    generators = []
    for i in range(n):
        if smith[i][i] > 1:
            column = [divmod(dv[j * n + i], smith[i][i]) for j in range(n)]
            assert not any(rem for _, rem in column)
            generators.append(tuple([q for q, _ in column]))
    return generators


def test_h1_generators_are_the_oracle_d_v_columns():
    """h1 reads the generator of each Z/d_i as U^-1.e_i by undoing the
    Smith form's row log; the oracle forms D.V.e_i / d_i from the V it
    carries, which is the same vector, since U.D.V = diag(d)."""
    cases = [(model.pic, model.action, 2) for model in cover_models()]
    cases += [
        (Lattice(IntMatrix.zeros(sigma.rows, sigma.rows)), sigma, order)
        for _, sigma, order in _seeded_cyclotomic_actions(random.Random(2020), 300)
    ]
    factors = 0
    for lattice, sigma, order in cases:
        res = h1(GLattice(lattice, sigma, order))
        assert list(res.generators) == _oracle_h1_generators(sigma), (sigma, order)
        factors += len(res.generators)
    assert factors > 300


def _times(a, b):
    """The product of two polynomials, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# each gives an action of infinite order or one that is not semisimple
_BAD_BLOCKS = [[1, -3, 1], [-1, -1, 0, 1]] + [
    _times(_cyclotomic(m), _cyclotomic(m)) for m in (1, 2, 3, 4, 6)
]


def _companion_sum(polys):
    return IntMatrix.block_diag([_companion(q) for q in polys])


@st.composite
def _companion_sums(draw):
    ms, bad = draw(st.tuples(
        st.lists(st.integers(1, 12), max_size=3),
        st.one_of(st.just([]), st.sampled_from(_BAD_BLOCKS).map(lambda q: [q])),
    ).filter(lambda c: 0 < _companion_sum([_cyclotomic(m) for m in c[0]] + c[1]).rows <= 12))
    multiple, other = draw(st.integers(1, 3)), draw(st.integers(1, 400))
    return ms, bad, multiple, other, draw(st.integers(0, 2**32 - 1))


@given(_companion_sums())
@example(([], [], 1, 7, 0))
@seed(20261020)
@settings(max_examples=60, deadline=None, database=None)
def test_glattice_decides_the_order_of_companion_block_sums(case):
    # A block sum of companions of Phi_m has period lcm(m) and N the plain
    # sum of its powers; one block from _BAD_BLOCKS makes every order fail.
    # Rank 0 comes from the explicit example.
    ms, bad, multiple, other, unimodular_seed = case
    sigma = _companion_sum([_cyclotomic(m) for m in ms] + bad)
    r = sigma.rows
    if r:
        p, p_inv = random_unimodular(random.Random(unimodular_seed), r, steps=2 * r)
        sigma = p_inv @ sigma @ p
    zero = Lattice(IntMatrix.zeros(r, r))
    period = math.lcm(*ms)
    divisors = [period // q for q in range(2, period + 1) if period % q == 0]
    for order in [period * multiple, other] + divisors:
        if bad or order % period:
            with pytest.raises(UnsupportedParameter, match=rf"^sigma\^{order} is not the identity$"):
                GLattice(zero, sigma, order)
            message = f"^free action is not periodic of order {order}$"
            with pytest.raises(UnsupportedAction, match=message):
                BlockEndo(AbGroupModel(free_rank=r), sigma, (), (), order)
            continue
        walk, power = IntMatrix.zeros(r, r), IntMatrix.identity(r)
        for _ in range(order):
            walk, power = walk + power, power @ sigma
        assert power == IntMatrix.identity(r)
        assert GLattice(zero, sigma, order).norm == walk, (ms, order)
        assert BlockEndo(AbGroupModel(free_rank=r), sigma, (), (), order).free.norm == walk


@pytest.mark.parametrize("sigma, order, code", [
    # period 2,520 = lcm(8, 9, 5, 7, 2, 1) on the largest rank
    (_companion_sum([_cyclotomic(m) for m in (8, 9, 5, 7, 2, 1)]), 2520, 0),
    # unipotent: the identity plus one off-diagonal 1
    (IntMatrix.identity(22) + IntMatrix(22, 22, (0, 1) + (0,) * 482), 10**6, 2),
    # x^22 - x - 1 has a real root above 1: infinite order
    (_companion_sum([[-1, -1] + [0] * 20 + [1]]), 10**6, 2),
])
def test_h1_document_time_does_not_follow_the_period(tmp_path, capsys, sigma, order, code):
    doc = {"schema": "k3ord/1", "payload": {
        "gram": [["0"] * 22] * 22,
        "action": [[str(x) for x in row] for row in sigma.to_rows()],
        "order": str(order),
    }}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["h1", str(path), "--format", "json"]) == code
    assert time.perf_counter() - start < 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert ("sigma^1000000 is not the identity" in (check["error"] or "")) == bool(code)


def test_norm_and_diff_rank3():
    gl = q_glattice(3)
    n, d = norm_and_diff(gl)
    assert n == IntMatrix.from_rows([[1, 1, 1], [1, 1, 1], [0, 0, 0]])
    assert d == IntMatrix.from_rows([[1, -1, -1], [-1, 1, -1], [0, 0, 2]])
    zero = IntMatrix.zeros(3, 3)
    assert n @ d == zero
    assert d @ n == zero


def test_norm_times_diff_vanishes_for_models():
    for model in [catalog.sextic_model(7), catalog.quadric_model(),
                  catalog.hirzebruch2_model()]:
        n, d = norm_and_diff(model_glattice(model))
        zero = IntMatrix.zeros(model.pic.rank, model.pic.rank)
        assert n @ d == zero
        assert d @ n == zero


def test_h1_rank_family():
    for n in catalog.RANK_RANGE:
        res = h1(q_glattice(n))
        assert res.invariant_factors == tuple([2] * (n - 2)), n
        assert res.free_rank == 0
        assert len(res.generators) == n - 2


def test_h1_generators_are_valid_cocycles():
    for gl in [q_glattice(3), q_glattice(10),
               model_glattice(catalog.quadric_model()),
               model_glattice(catalog.hirzebruch2_model())]:
        norm, diff = norm_and_diff(gl)
        res = h1(gl)
        for g in res.generators:
            assert all(x == 0 for x in norm.mul_vec(g))
            assert solve_integer(diff, g) is None  # class is nontrivial


def test_h1_generators_match_named_classes():
    # The subgroup generated by the computed classes equals the subgroup
    # generated by the named difference classes, checked by mutual
    # membership modulo im D.
    for n in catalog.RANK_RANGE:
        gl = q_glattice(n)
        _, diff = norm_and_diff(gl)
        res = h1(gl)
        named = []
        for i in range(2, n):
            v = [0] * n
            v[0], v[i] = 1, -1
            named.append(tuple(v))
        for v in named:
            assert class_in_subgroup(v, res.generators, diff)
        for g in res.generators:
            assert class_in_subgroup(g, tuple(named), diff)


def test_h1_quadric():
    gl = model_glattice(catalog.quadric_model())
    res = h1(gl)
    assert res.invariant_factors == (2,)
    _, diff = norm_and_diff(gl)
    named = (0, 1, 0, -1)
    assert class_in_subgroup(named, res.generators, diff)
    assert class_in_subgroup(res.generators[0], (named,), diff)


def test_h1_hirzebruch2():
    gl = model_glattice(catalog.hirzebruch2_model())
    res = h1(gl)
    assert res.invariant_factors == (2,)
    _, diff = norm_and_diff(gl)
    named = (0, 0, 1, 0, -1)
    assert class_in_subgroup(named, res.generators, diff)
    assert class_in_subgroup(res.generators[0], (named,), diff)


def test_h1_identity_action_trivial():
    for order in (1, 2, 3):
        gl = GLattice(Lattice(IntMatrix.zeros(3, 3)), IntMatrix.identity(3), order)
        res = h1(gl)
        assert (res.invariant_factors, res.free_rank, res.generators) == ((), 0, ())


def test_h1_minus_identity():
    gl = GLattice(Lattice(IntMatrix.zeros(3, 3)), IntMatrix.identity(3).scale(-1), 2)
    res = h1(gl)
    assert res.invariant_factors == (2, 2, 2)
    assert math.prod(res.invariant_factors) == 8


def test_h1_always_torsion():
    # H^1 is the finite group ker N / im D: its order is the number of
    # classes met in a box, and every class of a signed permutation has a
    # representative with entries in {0, 1}.
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(1, 4)
        perm = list(range(r))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(r)]
        rows = [[0] * r for _ in range(r)]
        for j, (i, s) in enumerate(zip(perm, signs)):
            rows[i][j] = s
        sigma = IntMatrix.from_rows(rows)
        order = 1
        power = sigma
        while power != IntMatrix.identity(r):
            power = power @ sigma
            order += 1
        gl = GLattice(Lattice(IntMatrix.zeros(r, r)), sigma, order)
        res = h1(gl)
        assert res.free_rank == 0
        assert math.prod(res.invariant_factors) == h1_box_class_count(sigma, order, box=3)


def test_h1_matches_box_enumeration():
    cases = [
        (q_glattice(3), 2),
        (q_glattice(4), 4),
        (model_glattice(catalog.quadric_model()), 2),
        (model_glattice(catalog.hirzebruch2_model()), 2),
        (GLattice(Lattice(IntMatrix.zeros(2, 2)), IntMatrix.identity(2).scale(-1), 2), 4),
    ]
    for gl, expected in cases:
        res = h1(gl)
        assert math.prod(res.invariant_factors) == expected
        assert h1_box_class_count(gl.sigma, gl.order, box=3) == expected


def test_h1_box_enumeration_random_involutions():
    rng = random.Random(2718)
    for _ in range(20):
        r = rng.randint(2, 4)
        perm = list(range(r))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(r)]
        rows = [[0] * r for _ in range(r)]
        for j, (i, s) in enumerate(zip(perm, signs)):
            rows[i][j] = s
        sigma = IntMatrix.from_rows(rows)
        if sigma @ sigma != IntMatrix.identity(r):
            continue
        gl = GLattice(Lattice(IntMatrix.zeros(r, r)), sigma, 2)
        res = h1(gl)
        assert math.prod(res.invariant_factors) == h1_box_class_count(sigma, 2, box=3)


def test_h1_invariant_under_conjugation():
    rng = random.Random(404)
    base_cases = [q_glattice(5), model_glattice(catalog.quadric_model())]
    for gl in base_cases:
        expected = h1(gl).invariant_factors
        for _ in range(20):
            p, p_inv = random_unimodular(rng, gl.lattice.rank)
            sigma = p_inv @ gl.sigma @ p
            gram = p.transpose() @ gl.lattice.gram @ p
            conj = GLattice(Lattice(gram), sigma, gl.order)
            assert h1(conj).invariant_factors == expected


def test_doubled_differences_lie_in_image():
    for n in catalog.RANK_RANGE:
        _, diff = norm_and_diff(q_glattice(n))
        for i in range(2, n):
            v = [0] * n
            v[0], v[i] = 2, -2
            assert solve_integer(diff, v) is not None


def test_fixed_sublattice_rank_family():
    for n in (3, 9, 18):
        fixed = fixed_sublattice(q_glattice(n))
        assert fixed.source.rank == 1
        expected = tuple([1, 1] + [0] * (n - 2))
        assert fixed.matrix.col(0) == expected
        assert fixed.source.gram == IntMatrix.from_rows([[2]])


def test_fixed_sublattice_quadric():
    fixed = fixed_sublattice(model_glattice(catalog.quadric_model()))
    assert fixed.source.rank == 2
    assert fixed.matrix.col(0) == (1, 0, 0, 0)
    assert fixed.matrix.col(1) == (0, 1, 1, 0)
    assert fixed.source.gram == IntMatrix.from_rows([[0, 2], [2, 0]])


def test_fixed_sublattice_hirzebruch2():
    fixed = fixed_sublattice(model_glattice(catalog.hirzebruch2_model()))
    assert fixed.source.rank == 2
    assert fixed.matrix.col(0) == (1, 1, 0, 0, 0)
    assert fixed.matrix.col(1) == (0, 0, 1, 1, 0)
    assert fixed.source.gram == IntMatrix.from_rows([[-4, 2], [2, 0]])


def test_fixed_sublattice_minus_identity_empty():
    gl = GLattice(Lattice(IntMatrix.zeros(3, 3)), IntMatrix.identity(3).scale(-1), 2)
    assert fixed_sublattice(gl).source.rank == 0


def test_half_gram_quotient_models():
    quadric = half_gram_quotient(model_glattice(catalog.quadric_model()))
    assert quadric.gram == IntMatrix.from_rows([[0, 1], [1, 0]])
    f2 = half_gram_quotient(model_glattice(catalog.hirzebruch2_model()))
    assert f2.gram == IntMatrix.from_rows([[-2, 1], [1, 0]])
    plane = half_gram_quotient(q_glattice(6))
    assert plane.gram == IntMatrix.from_rows([[1]])


def test_half_gram_quotient_identity_on_doubled_form():
    doubled = Lattice(IntMatrix.from_rows([[0, 2], [2, 0]]))
    gl = GLattice(doubled, IntMatrix.identity(2), 2)
    assert half_gram_quotient(gl).gram == IntMatrix.from_rows([[0, 1], [1, 0]])


def test_quotient_pic_finds_the_fixed_sublattice_once(monkeypatch):
    calls = []
    kernel = cohomology.integer_kernel
    monkeypatch.setattr(cohomology, "integer_kernel", lambda a: calls.append(1) or kernel(a))
    scenario = json.loads((REPO / "corpus" / "quadric" / "scenario.json").read_text())
    expected = json.loads((REPO / "corpus" / "quadric" / "expected.json").read_text())
    for check in scenario["checks"]:
        if check["kind"] == "quotient-pic":
            outcome = run_check(check["name"], check["kind"], check["payload"],
                                expected["expected"][check["name"]])
            assert outcome.verdict == PASS
    assert calls == [1]
    odd = {"gram": [["1", "0"], ["0", "1"]], "action": [["1", "0"], ["0", "1"]]}
    for order, error in (("3", "UnsupportedParameter: quotient halving needs order 2, got 3"),
                         ("2", "OddEntry: fixed sublattice pairing is not uniformly even")):
        outcome = run_check("q", "quotient-pic", {**odd, "order": order})
        assert outcome.error == error
    # the library pair shares one kernel in either order, kept with the
    # G-lattice and built only when read
    quadric = catalog.quadric_model()
    for first, second in ((fixed_sublattice, half_gram_quotient),
                          (half_gram_quotient, fixed_sublattice)):
        calls.clear()
        gl = model_glattice(quadric)
        h1(gl)
        gl.norm
        assert "fixed" not in vars(gl) and calls == []
        first(gl)
        second(gl)
        assert calls == [1]
        assert fixed_sublattice(gl) is fixed_sublattice(gl) is gl.fixed
        assert half_gram_quotient(gl).gram == IntMatrix.from_rows([[0, 1], [1, 0]])
        assert calls == [1]
    # nothing is shared between two G-lattices of one sigma
    calls.clear()
    a, b = model_glattice(quadric), model_glattice(quadric)
    assert a == b and fixed_sublattice(a) is not fixed_sublattice(b)
    assert fixed_sublattice(a) == fixed_sublattice(b) and calls == [1, 1]
    # the order is checked before any kernel is built
    calls.clear()
    at_three = GLattice(Lattice(IntMatrix.zeros(2, 2)), IntMatrix.identity(2), 3)
    with pytest.raises(UnsupportedParameter, match="needs order 2, got 3"):
        half_gram_quotient(at_three)
    assert calls == [] and "fixed" not in vars(at_three)


def test_transforms_are_replayed_only_where_they_are_read(monkeypatch):
    replayed = []
    replay = matrices._replay
    monkeypatch.setattr(matrices, "_replay", lambda log, y: replayed.append(log) or replay(log, y))
    results = []
    monkeypatch.setattr(cohomology, "snf", lambda a: results.append(snf(a)) or results[-1])
    quadric = catalog.quadric_model()
    # the diagonal alone: no transform is built
    assert is_primitive(quadric.embedding)
    gens = list(IntMatrix.identity(4).to_rows()) + [(0, 1, 1, -1)]
    assert nakai_certificate(quadric.pic, (1, 1, 1, 0), gens).passed
    assert replayed == []
    # h1 builds neither U nor V, replays nothing and undoes nothing; reading
    # its generators undoes ulog once per torsion factor, and a second read
    # undoes nothing more; with no torsion nothing is undone (the GLattices
    # are built first, as each replays its minimal polynomial)
    undone = []
    undo = cohomology._undo
    monkeypatch.setattr(cohomology, "_undo", lambda log, y: undone.append(log) or undo(log, y))
    gl = model_glattice(quadric)
    trivial = GLattice(quadric.pic, IntMatrix.identity(4), 2)
    monkeypatch.setattr(cohomology, "_replay", lambda log, y: replayed.append(log) or replay(log, y))
    h = h1(gl)
    assert h.invariant_factors == (2,)
    (res,) = results
    assert replayed == [] and undone == []
    generators = h.generators
    assert h.generators is generators
    assert len(undone) == len([d for d in res.diagonal if d > 1]) == 1
    assert all(log is res.ulog for log in undone)
    undone.clear()
    h = h1(trivial)
    assert h.invariant_factors == () and h.generators == ()
    assert replayed == [] and undone == []
    # one replay per solvable b, none for a b that stops at a pivot, keeps
    # a remainder past the last pivot, or is zero
    a = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
    bs = [(4, 3, 0), (1, 0, 0), (2, 6, 0), (0, 0, 1), (0, 0, 0)]
    assert [solve_integer(a, b) for b in bs] == [(2, 1, 0), None, (1, 2, 0), None, (0, 0, 0)]
    assert len(replayed) == 2


def _corpus_checks(kind):
    """(name, payload, expected) of every corpus check of the given kind."""
    for case in find_cases(REPO / "corpus"):
        expected = load_expected(case / "expected.json")
        for check in json.loads((case / "scenario.json").read_text())["checks"]:
            if check["kind"] == kind:
                yield check["name"], check["payload"], expected[check["name"]]


def test_checks_build_generators_and_norm_only_where_they_read_them(monkeypatch):
    undone, built, smiths = [], [], []
    undo, build, smith = cohomology._undo, GLattice.norm.func, cohomology.snf
    monkeypatch.setattr(cohomology, "_undo", lambda log, y: undone.append(log) or undo(log, y))
    monkeypatch.setattr(GLattice, "norm", property(lambda gl: built.append(gl) or build(gl)))
    monkeypatch.setattr(cohomology, "snf", lambda a: smiths.append(a) or smith(a))

    def run(kind):
        checks = list(_corpus_checks(kind))
        assert checks, kind
        for name, payload, expected in checks:
            assert run_check(name, kind, payload, expected).verdict == PASS, name
        return len(checks)

    # no check kind builds N: an h1 check reports the group and decides its
    # classes from one Smith form of D
    assert all("classes" in p for _, p, _ in _corpus_checks("h1"))
    checks = run("h1")
    assert len(smiths) == checks and undone == [] and built == []
    # quotient-pic reads D alone
    smiths.clear()
    run("quotient-pic")
    assert built == [] and undone == [] and smiths == []
    # a twist check decides both tests on its free block from one Smith
    # form of that block's D, here of rank 0 and of rank 2
    phi3 = {
        "model": {"free_rank": "2"},
        "endo": {"order": "3", "free_action": [["0", "-1"], ["1", "-1"]]},
    }
    twists = list(_corpus_checks("twist-check")) + [
        (f"phi3-{x}{y}", dict(phi3, element={"free": [x, y]}), {}) for x, y in ("12", "11")
    ]
    for name, payload, expected in twists:
        smiths.clear()
        assert run_check(name, "twist-check", payload, expected).verdict == PASS, name
        rank = int(payload["model"].get("free_rank", "0"))
        assert [(a.rows, a.cols) for a in smiths] == [(rank, rank)], name
    assert built == [] and undone == []
    plane = AbGroupModel(free_rank=2)
    endo = BlockEndo(plane, IntMatrix.from_rows([[0, 1], [1, 0]]), (), (), 2)
    assert coboundary_check(endo, GroupElement(plane, (1, -1)))
    assert built == [] and undone == []
    # fibration-h1 reports the free generators: one undo per free factor
    factors = 0
    for name, payload, expected in _corpus_checks("fibration-h1"):
        outcome = run_check(name, "fibration-h1", payload, expected)
        assert outcome.verdict == PASS, name
        factors += len(outcome.computed["free_generators"])
    assert len(undone) == factors > 0
    assert built == []


def test_lazy_norm_is_the_power_sum_on_seeded_actions():
    # N is formed on the first read only, after work that reads D alone,
    # and kept; it is the plain power sum on actions that are not
    # involutions, where it takes powers of sigma
    count = 0
    for ms, sigma, order in _seeded_cyclotomic_actions(random.Random(2626), 200):
        if order <= 2:
            continue
        r = sigma.rows
        gl = GLattice(Lattice(IntMatrix.zeros(r, r)), sigma, order)
        h1(gl)
        fixed_sublattice(gl)
        assert "norm" not in vars(gl)
        norm = gl.norm
        assert vars(gl)["norm"] is norm is gl.norm
        assert [list(row) for row in norm.to_rows()] == power_sum(
            [list(row) for row in sigma.to_rows()], order
        ), (ms, order)
        count += 1
    assert count > 100


def test_h1_results_of_conjugate_actions_compare_equal():
    # the results compare as groups, whatever generators each Smith form
    # gives; the generators themselves are not compared
    rng = random.Random(2626)
    differ = 0
    for model in cover_models():
        r = model.pic.rank
        p, p_inv = random_unimodular(rng, r, steps=2 * r)
        res = h1(model_glattice(model))
        lattice = Lattice(p.transpose() @ model.pic.gram @ p)
        conj = h1(GLattice(lattice, p_inv @ model.action @ p, 2))
        assert res == conj and hash(res) == hash(conj), model.name
        assert res != CohResult(res.invariant_factors + (2,), 0, snf(IntMatrix.zeros(0, 0)))
        differ += res.generators != conj.generators
    assert differ > 0


def test_half_gram_quotient_errors():
    odd = Lattice(IntMatrix.from_rows([[1, 0], [0, 1]]))
    with pytest.raises(OddEntry):
        half_gram_quotient(GLattice(odd, IntMatrix.identity(2), 2))
    z2 = Lattice(IntMatrix.zeros(2, 2))
    with pytest.raises(UnsupportedParameter):
        half_gram_quotient(GLattice(z2, IntMatrix.identity(2), 3))
