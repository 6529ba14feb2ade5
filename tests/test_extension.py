"""Tests for extending sublattice involutions across the ambient lattice."""

import itertools
import random

import pytest

from k3ord import catalog
from k3ord.embeddings import Embedding, orthogonal_complement
from k3ord.errors import ActionNotIsometric, DimensionMismatch, SingularFrame
from k3ord.extension import extend_by_minus_one
from k3ord.lattices import Lattice, build_H, build_K3, direct_sum
from k3ord.matrices import IntMatrix, RatMatrix

from oracles import random_unimodular


def test_rank18_extension_matches_reference():
    k3 = build_K3()
    m = catalog.sextic_model(18)
    res = extend_by_minus_one(k3, m.embedding, m.action)
    assert res.integral and res.orthogonal and res.involutive
    assert res.phi_integer == catalog.reference_involution("p2-sextic")


def test_quadric_extension_matches_reference():
    k3 = build_K3()
    m = catalog.quadric_model()
    res = extend_by_minus_one(k3, m.embedding, m.action)
    assert res.integral and res.orthogonal and res.involutive
    assert res.phi_integer == catalog.reference_involution("quadric")


def test_hirzebruch2_extension_matches_reference():
    k3 = build_K3()
    m = catalog.hirzebruch2_model()
    res = extend_by_minus_one(k3, m.embedding, m.action)
    assert res.integral and res.orthogonal and res.involutive
    assert res.phi_integer == catalog.reference_involution("hirzebruch2")


def test_every_rank_extends_integrally():
    k3 = build_K3()
    for n in catalog.RANK_RANGE:
        m = catalog.sextic_model(n)
        res = extend_by_minus_one(k3, m.embedding, m.action)
        assert res.integral and res.orthogonal and res.involutive, m.name
        assert _fixes(res, m.ample, m.embedding), m.name


def test_identity_action_on_hyperbolic_block():
    k3 = build_K3()
    cols = []
    for idx in (16, 17):
        v = [0] * 22
        v[idx] = 1
        cols.append(v)
    h = Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    e = Embedding(h, k3, IntMatrix.from_cols(cols))
    res = extend_by_minus_one(k3, e, IntMatrix.identity(2))
    assert res.integral
    expected = [[0] * 22 for _ in range(22)]
    for i in range(22):
        expected[i][i] = 1 if i in (16, 17) else -1
    assert res.phi_integer == IntMatrix.from_rows(expected)


def test_fixed_and_antifixed_vectors():
    k3 = build_K3()
    m = catalog.quadric_model()
    res = extend_by_minus_one(k3, m.embedding, m.action)
    assert _fixes(res, m.ample, m.embedding)
    assert _fixes(res, (1, 0, 0, 0), m.embedding)
    assert not _fixes(res, (0, 1, 0, 0), m.embedding)
    t = orthogonal_complement(m.embedding).complement.matrix
    for j in range(3):
        col = t.col(j)
        image = res.phi.num.mul_vec(col)
        assert list(image) == [-res.phi.den * x for x in col]


def _fixes(res, v, pic):
    """True iff phi fixes the image of the sublattice vector v."""
    w = pic.matrix.mul_vec(v)
    return res.phi.num.mul_vec(w) == tuple(res.phi.den * x for x in w)


def test_complement_basis_independence():
    k3 = build_K3()
    m = catalog.quadric_model()
    t = orthogonal_complement(m.embedding).complement.matrix
    base = extend_by_minus_one(k3, m.embedding, m.action)
    rng = random.Random(5)
    for _ in range(8):
        b, _ = random_unimodular(rng, t.cols)
        res = extend_by_minus_one(k3, m.embedding, m.action, complement=t @ b)
        assert res.phi == base.phi


def test_complement_basis_independence_small():
    target = direct_sum(build_H(), build_H())
    cols = [[1, 0, 0, 0], [0, 1, 0, 0]]
    sub = Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    e = Embedding(sub, target, IntMatrix.from_cols(cols))
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    t = orthogonal_complement(e).complement.matrix
    base = extend_by_minus_one(target, e, swap)
    rng = random.Random(6)
    for _ in range(30):
        b, _ = random_unimodular(rng, t.cols)
        res = extend_by_minus_one(target, e, swap, complement=t @ b)
        assert res.phi == base.phi


def test_action_must_be_isometry():
    k3 = build_K3()
    m = catalog.sextic_model(3)
    bad = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    with pytest.raises(ActionNotIsometric):
        extend_by_minus_one(k3, m.embedding, bad)


def test_action_shape_checked():
    k3 = build_K3()
    m = catalog.sextic_model(3)
    with pytest.raises(DimensionMismatch):
        extend_by_minus_one(k3, m.embedding, IntMatrix.identity(4))


def test_singular_frame_rejected():
    k3 = build_K3()
    m = catalog.sextic_model(3)
    t = orthogonal_complement(m.embedding).complement.matrix
    degenerate = IntMatrix.from_cols(
        [list(t.col(0))] * 2 + [list(t.col(j)) for j in range(2, t.cols)]
    )
    with pytest.raises(SingularFrame):
        extend_by_minus_one(k3, m.embedding, m.action, complement=degenerate)


def test_nonintegral_witness_from_catalog():
    pic, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(pic.target, pic, action)
    assert not res.integral
    assert res.phi_integer is None
    assert res.orthogonal and res.involutive


def _hermite_index2_bases():
    """Upper triangular 4x4 bases of the index 2 sublattices of Z^4."""
    for k in range(4):
        diag = [1] * 4
        diag[k] = 2
        offsets = [i for i in range(4) if i < k]
        for bits in itertools.product((0, 1), repeat=len(offsets)):
            rows = [[0] * 4 for _ in range(4)]
            for i in range(4):
                rows[i][i] = diag[i]
            for bit, i in zip(bits, offsets):
                rows[i][k] = bit
            yield IntMatrix.from_rows(rows)


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for j, (i, s) in enumerate(zip(perm, signs)):
                rows[i][j] = s
            yield IntMatrix.from_rows(rows)


def test_witness_search_finds_nonintegral_case():
    # Brute force over index 2 sublattices of H + H with signed permutation
    # actions: the integrality check must reject at least one combination,
    # confirming it is not vacuous.
    target = direct_sum(build_H(), build_H())
    ident = IntMatrix.identity(4)
    nonintegral = 0
    integral = 0
    for p in _hermite_index2_bases():
        source = Lattice(p.transpose() @ target.gram @ p)
        for action in _signed_permutations(4):
            if action.transpose() @ source.gram @ action != source.gram:
                continue
            if action @ action != ident:
                continue
            e = Embedding(source, target, p)
            res = extend_by_minus_one(target, e, action)
            if res.integral:
                integral += 1
            else:
                nonintegral += 1
    assert nonintegral > 0
    assert integral > 0  # the search space also contains extendable actions


def test_involutive_even_when_not_integral():
    pic, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(pic.target, pic, action)
    assert res.phi @ res.phi == RatMatrix.identity(pic.target.rank)


def test_assumptions_are_reported():
    pic, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(pic.target, pic, action)
    assert len(res.assumptions) == 2
