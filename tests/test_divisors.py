"""Tests for divisor-class arithmetic and ampleness certificates."""

import doctest
import itertools

import pytest

import k3ord.divisors as divisors
from k3ord import catalog
from k3ord.divisors import (
    Effectivity,
    effectivity,
    genus,
    is_nodal_class,
    nakai_certificate,
)
from k3ord.errors import (
    AmbiguousZeroPairing,
    GensDoNotSpan,
    OddSelfIntersection,
    SquareTooNegative,
)
from k3ord.lattices import Lattice, pair
from k3ord.matrices import IntMatrix


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


def test_genus_values():
    q3 = Lattice(catalog.q_gram(3))
    assert genus(q3, (1, 0, 0)) == 0
    assert genus(q3, (0, 0, 0)) == 1
    assert genus(q3, (1, 1, 0)) == 2


def test_genus_symmetry():
    q5 = Lattice(catalog.q_gram(5))
    for coords in itertools.product((-2, -1, 0, 1, 2), repeat=5):
        assert genus(q5, coords) == genus(q5, tuple([-x for x in coords]))


def test_genus_odd_square_rejected():
    odd = Lattice(IntMatrix.from_rows([[1]]))
    with pytest.raises(OddSelfIntersection):
        genus(odd, (1,))


def test_is_nodal_class():
    q18 = Lattice(catalog.q_gram(18))
    for c in basis_classes(18):
        assert is_nodal_class(q18, c)
    assert not is_nodal_class(q18, (0,) * 18)
    assert not is_nodal_class(q18, (1, 1) + (0,) * 16)


def test_effectivity_cases():
    q3 = Lattice(catalog.q_gram(3))
    s = (1, 1, 0)
    assert effectivity(q3, (0, 0, 1), s) == Effectivity.EFFECTIVE
    assert effectivity(q3, (0, 0, 0), s) == Effectivity.ZERO
    assert effectivity(q3, (-1, -1, 1), s) == Effectivity.ANTI_EFFECTIVE


def test_effectivity_errors():
    q3 = Lattice(catalog.q_gram(3))
    s = (1, 1, 0)
    with pytest.raises(SquareTooNegative):
        effectivity(q3, (1, -1, 0), s)
    # a nonzero class orthogonal to the would-be ample class
    h = Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(AmbiguousZeroPairing):
        effectivity(h, (1, 0), (1, 0))


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
    # small coordinate box pairs nonzero with s, so effectivity is total.
    cases = [
        (Lattice(catalog.q_gram(3)), (1, 1, 0)),
        (Lattice(catalog.q_gram(4)), (1, 1, 0, 0)),
        (Lattice(catalog.q_gram(5)), (1, 1, 0, 0, 0)),
        (catalog.quadric_model().pic, (1, 1, 1, 0)),
        (catalog.hirzebruch2_model().pic, (1, 1, 3, 3, 0)),
    ]
    for lattice, s in cases:
        rank = lattice.rank
        for coords in itertools.product((-2, -1, 0, 1, 2), repeat=rank):
            if not any(coords) or pair(lattice, coords, coords) < -2:
                continue
            assert effectivity(lattice, coords, s) in (
                Effectivity.EFFECTIVE,
                Effectivity.ANTI_EFFECTIVE,
            )
