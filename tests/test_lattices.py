"""Tests for the lattice builders and the bilinear pairing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3ord import catalog
from k3ord.errors import DimensionMismatch, NotSymmetric
from k3ord.lattices import Lattice, build_H, build_K3, direct_sum, pair
from k3ord.matrices import IntMatrix, det, signature

from oracles import E8_ROWS, has_even_diagonal

E8 = Lattice(IntMatrix.from_rows(E8_ROWS))


def test_build_H():
    h = build_H()
    assert h.gram == IntMatrix.from_rows([[0, 1], [1, 0]])
    assert det(h.gram) == -1
    assert signature(h.gram) == (1, 1, 0)
    assert has_even_diagonal(h.gram.to_rows())


def test_build_K3():
    k3 = build_K3()
    assert k3 is build_K3()  # built once, at import
    assert k3.rank == 22
    assert has_even_diagonal(k3.gram.to_rows())
    assert det(k3.gram) == -1
    assert signature(k3.gram) == (3, 19, 0)
    assert k3.gram == IntMatrix.block_diag([E8.gram, E8.gram] + [build_H().gram] * 3)
    # each E8 block is negative definite and unimodular
    assert det(E8.gram) == 1
    assert signature(E8.gram) == (0, 8, 0)


def test_pair_of_fraction_zeros_is_a_fraction():
    """orders pairs Fraction vectors and needs a Fraction back, also when
    every coordinate is zero."""
    k3 = build_K3()
    zero, e1 = (Fraction(0),) * 22, (1,) + (0,) * 21
    for x, y in ((zero, zero), (zero, e1), (e1, zero)):
        p = pair(k3, x, y)
        assert p == 0 and type(p) is Fraction


def test_lattice_validation():
    with pytest.raises(NotSymmetric):
        Lattice(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_direct_sum():
    h = build_H()
    assert direct_sum(h, h).rank == 4
    assert det(direct_sum(E8, h).gram) == det(E8.gram) * det(h.gram)
    zero = Lattice(IntMatrix.zeros(0, 0))
    assert direct_sum(h, zero).gram == h.gram


def test_pair_known_values():
    q3 = Lattice(catalog.q_gram(3))
    s1, s2 = (1, 0, 0), (0, 1, 0)
    assert pair(q3, s1, s2) == 3
    assert pair(q3, (1, 1, 0), (1, 1, 0)) == 2
    assert pair(q3, s1, (0, 0, 0)) == 0


def test_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pair(build_H(), (1, 0, 0), (0, 1))


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_pair_symmetric(x, y):
    q3 = Lattice(catalog.q_gram(3))
    assert pair(q3, x, y) == pair(q3, y, x)


def test_pair_bilinear():
    rng = random.Random(7)
    k3 = build_K3()
    for _ in range(40):
        x = [rng.randint(-4, 4) for _ in range(22)]
        y = [rng.randint(-4, 4) for _ in range(22)]
        z = [rng.randint(-4, 4) for _ in range(22)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = [a * yi + b * zi for yi, zi in zip(y, z)]
        assert pair(k3, x, combo) == a * pair(k3, x, y) + b * pair(k3, x, z)


def test_q_gram_family_even():
    for n in catalog.RANK_RANGE:
        assert has_even_diagonal(catalog.q_gram(n).to_rows())


def test_q_gram_truncation_consistent():
    full = catalog.q_gram(18)
    for n in catalog.RANK_RANGE:
        assert catalog.q_gram(n).to_rows() == tuple(r[:n] for r in full.to_rows()[:n])


def test_gram_of_vectors():
    q3 = Lattice(catalog.q_gram(3))
    vectors = [(1, 1, 0), (0, 0, 1)]
    g = [[pair(q3, v, w) for w in vectors] for v in vectors]
    assert g == [[2, 1], [1, -2]]
