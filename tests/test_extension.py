"""Tests for extending sublattice involutions across the ambient lattice."""

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from k3ord import catalog, jsonio, matrices
from k3ord.embeddings import Embedding, orthogonal_complement
from k3ord.errors import ActionNotIsometric, DimensionMismatch, SingularFrame
from k3ord.extension import extend_by_minus_one
from k3ord.lattices import Lattice, build_H, build_K3, direct_sum
from k3ord.matrices import IntMatrix, RatMatrix
from k3ord.runner import PASS, load_expected, run_check

from oracles import (
    frame_extension,
    mat_mul,
    random_int_matrix,
    random_symmetric,
    random_unimodular,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_rank18_extension_matches_reference():
    m = catalog.sextic_model(18)
    res = extend_by_minus_one(m.embedding, m.action)
    assert res.integral and res.orthogonal and res.involutive
    assert res.num == catalog.reference_involution("p2-sextic")


def test_quadric_extension_matches_reference():
    m = catalog.quadric_model()
    res = extend_by_minus_one(m.embedding, m.action)
    assert res.integral and res.orthogonal and res.involutive
    assert res.num == catalog.reference_involution("quadric")


def test_hirzebruch2_extension_matches_reference():
    m = catalog.hirzebruch2_model()
    res = extend_by_minus_one(m.embedding, m.action)
    assert res.integral and res.orthogonal and res.involutive
    assert res.num == catalog.reference_involution("hirzebruch2")


def test_every_rank_extends_integrally():
    for n in catalog.RANK_RANGE:
        m = catalog.sextic_model(n)
        res = extend_by_minus_one(m.embedding, m.action)
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
    res = extend_by_minus_one(e, IntMatrix.identity(2))
    assert res.integral
    expected = [[0] * 22 for _ in range(22)]
    for i in range(22):
        expected[i][i] = 1 if i in (16, 17) else -1
    assert res.num == IntMatrix.from_rows(expected)


def test_fixed_and_antifixed_vectors():
    m = catalog.quadric_model()
    res = extend_by_minus_one(m.embedding, m.action)
    assert _fixes(res, m.ample, m.embedding)
    assert _fixes(res, (1, 0, 0, 0), m.embedding)
    assert not _fixes(res, (0, 1, 0, 0), m.embedding)
    t = orthogonal_complement(m.embedding).complement.matrix
    for j in range(3):
        col = t.col(j)
        image = res.num.mul_vec(col)
        assert list(image) == [-res.den * x for x in col]


def _fixes(res, v, pic):
    """True iff phi fixes the image of the sublattice vector v."""
    w = pic.matrix.mul_vec(v)
    return res.num.mul_vec(w) == tuple(res.den * x for x in w)


def _fractions(res):
    """The extension num / den as rows of Fractions, the oracle's form."""
    return [[Fraction(x, res.den) for x in r] for r in res.num.to_rows()]


def _agrees_on_rebases(e, action, rng, count):
    """phi equals the frame oracle on the computed complement and on count
    random unimodular re-bases of it."""
    phi = _fractions(extend_by_minus_one(e, action))
    t = orthogonal_complement(e).complement.matrix
    bases = [t] + [t @ random_unimodular(rng, t.cols)[0] for _ in range(count)]
    return all(frame_extension(e.matrix, b, action) == phi for b in bases)


def test_complement_basis_independence():
    m = catalog.quadric_model()
    assert _agrees_on_rebases(m.embedding, m.action, random.Random(5), 8)


def test_complement_basis_independence_small():
    target = direct_sum(build_H(), build_H())
    cols = [[1, 0, 0, 0], [0, 1, 0, 0]]
    sub = Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    e = Embedding(sub, target, IntMatrix.from_cols(cols))
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert _agrees_on_rebases(e, swap, random.Random(6), 30)


def test_action_must_be_isometry():
    m = catalog.sextic_model(3)
    bad = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    with pytest.raises(ActionNotIsometric):
        extend_by_minus_one(m.embedding, bad)


def test_action_shape_checked():
    m = catalog.sextic_model(3)
    with pytest.raises(DimensionMismatch):
        extend_by_minus_one(m.embedding, IntMatrix.identity(4))


def test_singular_frame_rejected():
    target = direct_sum(build_H(), build_H())
    ident = IntMatrix.identity(2)
    for cols in [
        [[1, 0, 0, 0], [0, 0, 1, 0]],  # u1, u2: an isotropic pair in H + H
        [[1, 0, 0, 0], [2, 0, 0, 0]],  # u1, 2 u1: not injective
        [[1, 1, 0, 0], [2, 2, 0, 0]],  # v, 2 v with v.v = 2: not injective
    ]:
        p = IntMatrix.from_cols(cols)
        e = Embedding(Lattice(p.transpose() @ target.gram @ p), target, p)
        t = orthogonal_complement(e).complement.matrix
        assert frame_extension(p, t, ident) is None
        message = "^embedding and complement do not span the ambient space$"
        with pytest.raises(SingularFrame, match=message):
            extend_by_minus_one(e, ident)


def test_extension_matches_frame_oracle_on_small_cases():
    """2,000 seeded cases on ambient ranks up to 5, degenerate target forms
    included: phi is the frame oracle's map on the computed complement, and
    SingularFrame is raised exactly when that frame is singular."""
    rng = random.Random(20261018)
    outcomes = {"integral": 0, "nonintegral": 0, "singular": 0, "permuting": 0}
    for _ in range(2000):
        rank, n = rng.randint(1, 5), rng.randint(0, 3)
        g = _rank_one(rng, rank) if rng.random() < 0.25 else random_symmetric(rng, rank, -3, 3)
        p = random_int_matrix(rng, rank, n, -2, 2)
        q = p.transpose() @ g @ p
        perm = rng.sample(range(n), n)
        action = IntMatrix.from_rows(
            [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        )
        if action.transpose() @ q @ action != q:
            action = IntMatrix.identity(n).scale(rng.choice((1, -1)))
        elif perm != sorted(perm):
            outcomes["permuting"] += 1
        target = Lattice(g)
        e = Embedding(Lattice(q), target, p)
        expected = frame_extension(p, orthogonal_complement(e).complement.matrix, action)
        if expected is None:
            outcomes["singular"] += 1
            with pytest.raises(SingularFrame):
                extend_by_minus_one(e, action)
            continue
        res = extend_by_minus_one(e, action)
        assert _fractions(res) == expected, (g, p, action)
        assert res.den > 0 and math.gcd(res.den, *res.num.entries) == 1, (g, p, action)
        assert res.integral == all(x.denominator == 1 for r in expected for x in r)
        outcomes["integral" if res.integral else "nonintegral"] += 1
    assert min(outcomes.values()) > 50, outcomes


def _rank_one(rng, rank):
    """The form v.v^T of rank at most 1, for a random integer vector v."""
    v = [rng.randint(-2, 2) for _ in range(rank)]
    return IntMatrix.from_rows([[x * y for y in v] for x in v])


def test_isometry_extend_inverts_only_the_sublattice_gram(monkeypatch):
    """The rank-18 corpus check runs without a complement, a kernel or an
    inverse: one `solve_scaled` of the 18x18 matrix Q against the 18x2
    transpose of the two nonzero rows of action + I, with no right-hand
    side as wide as the sublattice, let alone the ambient space."""

    def refuse(*args):
        raise AssertionError("unexpected call")

    shapes = []
    solve_scaled = matrices.solve_scaled

    def spy(a, b):
        shapes.append((a.rows, a.cols, b.rows, b.cols))
        return solve_scaled(a, b)

    for module in [m for name, m in sys.modules.items() if name.startswith("k3ord")]:
        for name, replacement in [
            ("orthogonal_complement", refuse), ("integer_kernel", refuse), ("solve_scaled", spy),
        ]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, replacement)
    monkeypatch.setattr(RatMatrix, "inverse", refuse)
    case = CORPUS / "sextic-n18"
    (node,) = [c for c in jsonio.load_file(case / "scenario.json")["checks"]
               if c["kind"] == "isometry-extend"]
    expected = load_expected(case / "expected.json")[node["name"]]
    outcome = run_check(node["name"], node["kind"], node["payload"], expected)
    assert outcome.verdict == PASS, outcome
    assert shapes == [(18, 18, 18, 2)]


def test_rank_zero_sublattice_extends_to_minus_identity():
    """An empty sublattice of K3 has nothing to glue: Q is 0x0 with
    determinant 1, and phi is -I on the whole lattice."""
    k3 = build_K3()
    e = Embedding(Lattice(IntMatrix(0, 0, ())), k3, IntMatrix(22, 0, ()))
    res = extend_by_minus_one(e, IntMatrix(0, 0, ()))
    assert res.integral and res.orthogonal and res.involutive
    assert (res.num, res.den) == (IntMatrix.identity(22).scale(-1), 1)


def test_nonintegral_witness_from_catalog():
    pic, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(pic, action)
    assert not res.integral
    assert res.den == 2
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
            res = extend_by_minus_one(e, action)
            if res.integral:
                integral += 1
            else:
                nonintegral += 1
    assert nonintegral > 0
    assert integral > 0  # the search space also contains extendable actions


def test_involutive_even_when_not_integral():
    pic, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(pic, action)
    assert res.num @ res.num == IntMatrix.identity(pic.target.rank).scale(res.den ** 2)


def test_assumptions_are_reported():
    pic, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(pic, action)
    assert len(res.assumptions) == 2


def _oracle_certificates(res, gram):
    """(orthogonal, involutive) of phi = F / d by the oracle's schoolbook
    products: F^T.G.F == d^2.G and F.F == d^2.I."""
    f, d, r = list(res.num.entries), res.den, gram.rows
    ft = [f[j * r + i] for i in range(r) for j in range(r)]
    g = list(gram.entries)
    triple = mat_mul(mat_mul(ft, g, r, r, r), f, r, r, r)
    square = mat_mul(f, f, r, r, r)
    return (
        triple == [d * d * x for x in g],
        square == [d * d * int(i == j) for i in range(r) for j in range(r)],
    )


def _ints(rows):
    return IntMatrix.from_rows([[int(x) for x in row] for row in rows])


def corpus_embeddings(kind):
    """(case, embedding, payload) of each corpus check of `kind`."""
    for case in sorted(CORPUS.iterdir()):
        for node in jsonio.load_file(case / "scenario.json")["checks"]:
            if node["kind"] == kind:
                payload = node["payload"]
                target = payload["target"]
                target = build_K3() if target == "K3" else Lattice(_ints(target))
                source = Lattice(_ints(payload["source_gram"]))
                yield case.name, Embedding(source, target, _ints(payload["columns"])), payload


def test_certificates_agree_with_the_oracle_on_the_corpus():
    seen = 0
    for name, e, payload in corpus_embeddings("isometry-extend"):
        res = extend_by_minus_one(e, _ints(payload["action"]))
        assert (res.orthogonal, res.involutive) == _oracle_certificates(res, e.target.gram), name
        seen += 1
    assert seen == 19


def test_certificates_can_fail():
    # the action negates the first vector of diag(1, 2), an isometry of the
    # source form, but the embedding carries it to [[1, 1], [1, 2]], which
    # the action does not keep: phi is an involution that is not orthogonal
    target = Lattice(IntMatrix.identity(3))
    p = IntMatrix.from_cols([[1, 0, 0], [1, 1, 0]])
    e = Embedding(Lattice(IntMatrix.diagonal([1, 2])), target, p)
    res = extend_by_minus_one(e, IntMatrix.diagonal([-1, 1]))
    assert (res.orthogonal, res.involutive) == _oracle_certificates(res, target.gram) == (False, True)
    # a rotation of order 4 on Z^2 inside Z^3 is an isometry, not an involution
    e = Embedding(Lattice(IntMatrix.identity(2)), target, IntMatrix.from_cols([[1, 0, 0], [0, 1, 0]]))
    res = extend_by_minus_one(e, IntMatrix.from_rows([[0, -1], [1, 0]]))
    assert (res.orthogonal, res.involutive) == _oracle_certificates(res, target.gram) == (True, False)
    # an order 3 rotation of A2, embedded isometrically in A2 + (2)
    a2 = IntMatrix.from_rows([[2, -1], [-1, 2]])
    target = Lattice(IntMatrix.block_diag([a2, IntMatrix.diagonal([2])]))
    e = Embedding(Lattice(a2), target, IntMatrix.from_cols([[1, 0, 0], [0, 1, 0]]))
    res = extend_by_minus_one(e, IntMatrix.from_rows([[0, -1], [1, -1]]))
    assert (res.orthogonal, res.involutive) == _oracle_certificates(res, target.gram) == (True, False)


def test_certificates_agree_with_the_oracle_on_seeded_cases():
    """Signed permutation actions, of order 1, 2, 3 or 4, on sources that
    the embedding carries isometrically or not, with entries up to 10^12 so
    that the probe's base is large; every outcome of the two certificates
    must come up."""
    rng = random.Random(2121)
    outcomes = {}
    for case in range(800):
        rank, n = rng.randint(1, 5), rng.randint(0, 3)
        big = 10**12 if case % 4 == 0 else 3
        g = random_symmetric(rng, rank, -big, big)
        p = random_int_matrix(rng, rank, n, -2, 2)
        if case % 3 == 0:
            # c * I on the image, which every signed permutation keeps
            c = rng.choice((-big, -1, 1, 2, big))
            g = IntMatrix.block_diag([IntMatrix.identity(n).scale(c), g])
            rank += n
            p = IntMatrix(rank, n, tuple([int(i == j) for i in range(rank) for j in range(n)]))
        q = p.transpose() @ g @ p
        perm = rng.sample(range(n), n)
        action = IntMatrix.from_rows(
            [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        )
        keeps_q = action.transpose() @ q @ action == q
        source = q if keeps_q and rng.random() < 0.5 else IntMatrix.identity(n)
        e = Embedding(Lattice(source), Lattice(g), p)
        try:
            res = extend_by_minus_one(e, action)
        except SingularFrame:
            continue
        verdict = (res.orthogonal, res.involutive)
        assert verdict == _oracle_certificates(res, g), (g, p, action)
        outcomes[verdict] = outcomes.get(verdict, 0) + 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 20, outcomes
