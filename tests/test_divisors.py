"""Tests for divisor-class arithmetic and ampleness certificates."""

import doctest
import itertools

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import k3ord.divisors as divisors
from k3ord import catalog
from k3ord.divisors import nakai_certificate
from k3ord.errors import DimensionMismatch, GensDoNotSpan
from k3ord.lattices import Lattice
from k3ord.matrices import IntMatrix

from oracles import mat_mul, riemann_roch_sign


def basis_classes(rank):
    out = []
    for i in range(rank):
        v = [0] * rank
        v[i] = 1
        out.append(tuple(v))
    return out


def test_doctests_pass():
    failures, _ = doctest.testmod(divisors)
    assert failures == 0


def test_nakai_rank_family():
    for n in catalog.RANK_RANGE:
        lattice = Lattice(catalog.q_gram(n))
        s = (1, 1) + (0,) * (n - 2)
        cert = nakai_certificate(lattice, s, basis_classes(n))
        assert cert.verdict.passed, (n, cert.verdict.reason)
        assert cert.self_int == 2
        assert all(with_gen == 1 for _, with_gen, _ in cert.pair_checks)
        assert len(cert.assumptions) == n


def test_nakai_quadric():
    m = catalog.quadric_model()
    gens = basis_classes(4) + [(0, 1, 1, -1)]
    cert = nakai_certificate(m.pic, (1, 1, 1, 0), gens)
    assert cert.verdict.passed, cert.verdict.reason
    assert cert.self_int == 4


def test_nakai_hirzebruch2():
    m = catalog.hirzebruch2_model()
    gens = basis_classes(5) + [(0, 0, 1, 1, -1)]
    cert = nakai_certificate(m.pic, (1, 1, 3, 3, 0), gens)
    assert cert.verdict.passed, cert.verdict.reason
    assert cert.self_int == 8
    assert all(with_gen == 1 for _, with_gen, _ in cert.pair_checks)


def test_nakai_fail_cases():
    q3 = Lattice(catalog.q_gram(3))
    gens = basis_classes(3)
    cert = nakai_certificate(q3, (0, 0, 1), gens)
    assert not cert.verdict.passed
    assert "not positive" in cert.verdict.reason


def test_nakai_records_assumptions():
    q3 = Lattice(catalog.q_gram(3))
    cert = nakai_certificate(q3, (1, 1, 0), basis_classes(3))
    assert all("h0(" in a and "assumed" in a for a in cert.assumptions)


def test_nakai_gens_must_span():
    q3 = Lattice(catalog.q_gram(3))
    with pytest.raises(GensDoNotSpan):
        nakai_certificate(q3, (1, 1, 0), basis_classes(3)[:2])


def test_certified_ample_separates_all_small_classes():
    # With a passing certificate, every nonzero class of square >= -2 in the
    # small coordinate box pairs nonzero with s, so the Riemann-Roch rule
    # decides which of c and -c is effective.
    cases = [
        (Lattice(catalog.q_gram(3)), (1, 1, 0)),
        (Lattice(catalog.q_gram(4)), (1, 1, 0, 0)),
        (Lattice(catalog.q_gram(5)), (1, 1, 0, 0, 0)),
        (catalog.quadric_model().pic, (1, 1, 1, 0)),
        (catalog.hirzebruch2_model().pic, (1, 1, 3, 3, 0)),
    ]
    for lattice, s in cases:
        gram = lattice.gram.to_rows()
        for coords in itertools.product((-2, -1, 0, 1, 2), repeat=lattice.rank):
            assert riemann_roch_sign(gram, coords, s) != 0, coords


def _form(gram, x, y):
    """x^T * G * y by the oracle's schoolbook products."""
    n = gram.rows
    return mat_mul(mat_mul(list(x), list(gram.entries), 1, n, n), list(y), 1, n, 1)[0]


@st.composite
def _certificate_cases(draw):
    """A symmetric Gram matrix of rank 1-8 with entries up to 10^6, a
    candidate, and generators that span: each +-e_i once, mixed with extra
    unit, dense, zero and negative vectors, in a drawn order."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-10**6, 10**6)
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    gram = IntMatrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])

    def vector():
        kind = draw(st.sampled_from(["unit", "dense", "zero", "negative"]))
        if kind == "zero":
            return (0,) * n
        if kind == "dense":
            return tuple(draw(st.lists(entry, min_size=n, max_size=n)))
        i, sign = draw(st.integers(0, n - 1)), 1 if kind == "unit" else -1
        return tuple([sign * (k == i) for k in range(n)])

    units = [tuple([draw(st.sampled_from([1, -1])) * (k == i) for k in range(n)])
             for i in range(n)]
    gens = draw(st.permutations(units + [vector() for _ in range(draw(st.integers(0, 4)))]))
    return gram, vector(), gens


@given(_certificate_cases())
@example((catalog.q_gram(3), (1, 1, 0), basis_classes(3)))  # passes
@example((catalog.q_gram(3), (0, 0, 1), basis_classes(3)))  # s.s is not positive
@example((IntMatrix.from_rows([[2, 5], [5, 2]]), (1, 0), [(1, 0), (0, 1)]))  # s . (s - s1) = 0
@example((IntMatrix.from_rows([[2, 1], [1, -6]]), (1, 0), [(0, 1), (1, 0)]))  # (s - s1)^2 < -2
@seed(20261022)
@settings(max_examples=300, deadline=None, database=None)
def test_nakai_agrees_with_the_triple_products(case):
    """Every field of the certificate against x^T * G * y formed whole on s
    and on s - g: the self-intersection, both pairings and the residual
    square of each generator, and the verdict the rules give from them."""
    gram, s, gens = case
    lattice = Lattice(gram)
    cert = nakai_certificate(lattice, s, gens)
    self_int = _form(gram, s, s)
    reason = None if self_int > 0 else f"s.s = {self_int} is not positive"
    checks, assumptions = [], []
    for i, g in enumerate(gens, start=1):
        residual = [a - b for a, b in zip(s, g)]
        with_gen, with_residual = _form(gram, s, g), _form(gram, s, residual)
        residual_square = _form(gram, residual, residual)
        checks.append((i, with_gen, with_residual))
        assumptions.append(f"h0(s - s{i}) > 0 assumed; (s - s{i})^2 = {residual_square}")
        if reason is None and with_gen <= 0:
            reason = f"s . s{i} = {with_gen} is not positive"
        elif reason is None and with_residual <= 0:
            reason = f"s . (s - s{i}) = {with_residual} is not positive"
        elif reason is None and residual_square < -2:
            reason = f"(s - s{i})^2 = {residual_square} < -2 cannot be effective"
    assert cert.s == s
    assert cert.self_int == self_int
    assert cert.pair_checks == tuple(checks)
    assert cert.assumptions == tuple(assumptions)
    assert (cert.verdict.passed, cert.verdict.reason) == (reason is None, reason)


# exception type and message of each malformed call, as recorded before the
# certificate read its pairings off one G s; the checks keep their order:
# ragged generators, then spanning, then the candidate's length, then the
# generators' length
@pytest.mark.parametrize("s, gens, error, message", [
    ((1, 1, 0), [(1, 0, 0), (0, 1)], DimensionMismatch, "ragged rows"),
    ((1, 1), [(1, 0, 0), (0, 1)], DimensionMismatch, "ragged rows"),
    ((1, 1, 0), [(1, 0, 0), (0, 1, 0)], GensDoNotSpan,
     "generators do not span the lattice over Q"),
    ((1, 1, 0), [], GensDoNotSpan, "generators do not span the lattice over Q"),
    ((1, 1), [(1, 0, 0, 0), (0, 1, 0, 0)], GensDoNotSpan,
     "generators do not span the lattice over Q"),
    ((1, 1, 0), [(1, 0), (0, 1), (1, 1)], GensDoNotSpan,
     "generators do not span the lattice over Q"),
    ((1, 1), basis_classes(3), DimensionMismatch, "vectors of length 2, 2 against rank 3"),
    ((1, 1, 0, 0), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], DimensionMismatch,
     "vectors of length 4, 4 against rank 3"),
    ((1, 1, 0), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], DimensionMismatch,
     "vectors of length 3, 4 against rank 3"),
    ((1, 1, 0), [(True, 0, 0), (0, 1, 0), (0, 0, 1)], TypeError,
     "integer entry expected, got True"),
])
def test_nakai_errors_keep_their_type_message_and_order(s, gens, error, message):
    with pytest.raises(error) as info:
        nakai_certificate(Lattice(catalog.q_gram(3)), s, gens)
    assert type(info.value) is error and str(info.value) == message
