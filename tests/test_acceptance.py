"""Acceptance gate: one test per headline guarantee of the library.

Each test here restates one user-facing promise end to end, using only the
public API, so that `pytest -v tests/test_acceptance.py` prints one pass/fail
line per guarantee.  The unit suites cover the same ground in smaller pieces;
this file is deliberately redundant with them and should stay that way.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from k3ord import catalog
from k3ord.catalog import RANK_RANGE
from k3ord.cohomology import (
    GLattice,
    fixed_sublattice,
    h1,
    half_gram_quotient,
    norm_and_diff,
)
from k3ord.divisors import nakai_certificate
from k3ord.embeddings import check_isometric, is_primitive, orthogonal_complement
from k3ord.extension import extend_by_minus_one
from k3ord.fibrations import (
    AbGroupModel,
    BlockEndo,
    h1_structured,
    negation_endo,
    trivial_endo,
)
from k3ord.lattices import Lattice, build_K3
from k3ord.matrices import (
    IntMatrix,
    det,
    hermite_row_basis,
    signature,
    snf,
    solve_integer,
)
from k3ord.orders import (
    Classification,
    OrderDescriptor,
    OrderKind,
    RamifiedDivisor,
    classify_order,
    surface_hirzebruch,
    surface_p2,
    surface_quadric,
    surface_ruled_elliptic,
    untot_restriction,
)
from k3ord.runner import PASS, run_scenario

from oracles import (
    frame_extension,
    h1_box_class_count,
    random_symmetric,
    random_unimodular,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

REFERENCE_MODELS = {
    "p2-sextic": catalog.sextic_model(18),
    "quadric": catalog.quadric_model(),
    "hirzebruch2": catalog.hirzebruch2_model(),
}


def _standard_gens(rank):
    basis = IntMatrix.identity(rank)
    return [basis.col(i) for i in range(rank)]


def test_reference_involutions_reproduced_exactly():
    """Extending each packaged action by -1 lands on the packaged matrix."""
    target = build_K3()
    for name, model in REFERENCE_MODELS.items():
        res = extend_by_minus_one(model.embedding, model.action)
        assert res.integral and res.orthogonal and res.involutive
        phi = res.num
        assert phi == catalog.reference_involution(name)
        g = target.gram
        assert phi.transpose() @ g @ phi == g
        assert phi @ phi == IntMatrix.identity(target.rank)


def test_cover_family_signature_embedding_and_cohomology():
    """Every family member is hyperbolic, primitive, with (Z/2)^(n-2) twists."""
    for n in RANK_RANGE:
        model = catalog.sextic_model(n)
        assert signature(model.pic.gram) == (1, n - 1, 0)
        assert check_isometric(model.embedding)
        assert is_primitive(model.embedding)
        gl = GLattice(model.pic, model.action, 2)
        res = h1(gl)
        assert res.invariant_factors == tuple([2] * (n - 2))
        assert res.free_rank == 0
        norm, diff = norm_and_diff(gl)
        assert len(model.h1_generators) == n - 2
        for v in model.h1_generators:
            assert all(x == 0 for x in norm.mul_vec(v))
            assert solve_integer(diff, v) is None


def test_quotient_fixed_lattices_and_half_grams():
    """Named twist classes, fixed sublattices, and halved quotient pairings."""
    quadric = catalog.quadric_model()
    gl = GLattice(quadric.pic, quadric.action, 2)
    assert h1(gl).invariant_factors == (2,)
    norm, diff = norm_and_diff(gl)
    twist = quadric.h1_generators[0]
    assert twist == (0, 1, 0, -1)
    assert all(x == 0 for x in norm.mul_vec(twist))
    assert solve_integer(diff, twist) is None
    fixed = fixed_sublattice(gl)
    expected_span = hermite_row_basis(
        IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0]])
    )
    assert hermite_row_basis(fixed.matrix.transpose()) == expected_span
    assert half_gram_quotient(gl).gram == IntMatrix.from_rows([[0, 1], [1, 0]])

    f2 = catalog.hirzebruch2_model()
    gl2 = GLattice(f2.pic, f2.action, 2)
    assert h1(gl2).invariant_factors == (2,)
    norm2, diff2 = norm_and_diff(gl2)
    twist2 = f2.h1_generators[0]
    assert twist2 == (0, 0, 1, 0, -1)
    assert all(x == 0 for x in norm2.mul_vec(twist2))
    assert solve_integer(diff2, twist2) is None
    assert half_gram_quotient(gl2).gram == IntMatrix.from_rows([[-2, 1], [1, 0]])


def test_ample_certificates_match_recorded_pairings():
    """The packaged ample classes certify with the recorded intersection data."""
    for n in RANK_RANGE:
        model = catalog.sextic_model(n)
        cert = nakai_certificate(
            model.pic, model.ample, _standard_gens(n)
        )
        assert cert.passed
        assert cert.self_int == 2
        assert [c[1] for c in cert.pair_checks] == [1] * n

    quadric = catalog.quadric_model()
    cert = nakai_certificate(
        quadric.pic, quadric.ample, _standard_gens(4)
    )
    assert cert.passed
    assert cert.self_int == 4
    assert [c[1] for c in cert.pair_checks] == [2, 1, 1, 1]

    f2 = catalog.hirzebruch2_model()
    cert = nakai_certificate(f2.pic, f2.ample, _standard_gens(5))
    assert cert.passed
    assert cert.self_int == 8
    assert [c[1] for c in cert.pair_checks] == [1] * 5


def test_order_classification_reference_descriptors():
    """The stock degree-2 orders classify as recorded, with exact K_A."""
    branched = [
        OrderDescriptor(surface_p2(), (RamifiedDivisor((6,), 2),), 2),
        OrderDescriptor(
            surface_quadric(), (RamifiedDivisor((4, 4), 2),), 2
        ),
        OrderDescriptor(
            surface_hirzebruch(2), (RamifiedDivisor((4, 8), 2),), 2
        ),
    ]
    for order in branched:
        verdict = classify_order(order)
        assert isinstance(verdict, Classification)
        assert verdict.kind is OrderKind.NCY
        assert not any(verdict.k_order)

    unramified = classify_order(OrderDescriptor(surface_p2()))
    assert unramified.kind is OrderKind.DEL_PEZZO

    ruled = surface_ruled_elliptic(0)
    c0 = (1, 0)
    for indices in ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)):
        ram = tuple(RamifiedDivisor(c0, e) for e in indices)
        order = OrderDescriptor(ruled, ram, math.lcm(*indices))
        verdict = classify_order(order)
        assert verdict.kind is OrderKind.NCY
        assert not any(verdict.k_order)


def test_fibration_cohomology_and_restriction_classes():
    """Section-group twist counts and the branch restriction torsion classes."""
    for n in range(2, 7):
        model = AbGroupModel(elliptic_count=1)
        res = h1_structured(trivial_endo(model, n))
        assert res.invariant_factors == (n, n)

    model = AbGroupModel(elliptic_count=1)
    assert h1_structured(negation_endo(model)).invariant_factors == ()

    graph_model = AbGroupModel(free_rank=1, elliptic_count=1)
    graph_endo = BlockEndo(graph_model, IntMatrix.from_rows([[-1]]), (), ((-1, 0),), 2)
    res = h1_structured(graph_endo)
    assert res.invariant_factors == (2,)
    assert res.free_part.generators == ((1,),)

    gl = GLattice(Lattice(IntMatrix.from_rows([[0]])), IntMatrix.identity(1), 6)
    assert untot_restriction(gl, (1,), 3) == ((3,), 2)
    assert untot_restriction(gl, (1,), 2) == ((2,), 3)
    assert untot_restriction(gl, (1,), 1) == ((1,), 6)


def _assert_snf_contract(a):
    res = snf(a)
    assert res.U @ a @ res.V == res.D
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    diag = res.diagonal
    for i in range(res.D.rows):
        for j in range(res.D.cols):
            if i != j:
                assert res.D.entry(i, j) == 0
    for d in diag:
        assert d >= 0
    nonzero = [d for d in diag if d != 0]
    for prev, nxt in zip(nonzero, nonzero[1:]):
        assert nxt % prev == 0
    assert all(d == 0 for d in diag[len(nonzero):])


def _enumerate_rank3_actions():
    """All 3x3 integer matrices with entries in [-2, 2] and det = +-1, as int64."""
    grid = np.arange(-2, 3, dtype=np.int64)
    axes = np.meshgrid(*([grid] * 9), indexing="ij")
    flat = np.stack([a.ravel() for a in axes], axis=1).reshape(-1, 3, 3)
    d = (
        flat[:, 0, 0] * (flat[:, 1, 1] * flat[:, 2, 2] - flat[:, 1, 2] * flat[:, 2, 1])
        - flat[:, 0, 1] * (flat[:, 1, 0] * flat[:, 2, 2] - flat[:, 1, 2] * flat[:, 2, 0])
        + flat[:, 0, 2] * (flat[:, 1, 0] * flat[:, 2, 1] - flat[:, 1, 1] * flat[:, 2, 0])
    )
    return flat[np.abs(d) == 1]


def _box_agrees(sigma, order):
    """Compare h1 on a zero form against the box-counting oracle.

    The oracle undercounts when a coset has no representative in the box,
    never the reverse, so a shortfall triggers one retry on a wider box.
    """
    gl = GLattice(Lattice(IntMatrix.zeros(sigma.rows, sigma.cols)), sigma, order)
    expected = math.prod(h1(gl).invariant_factors)
    got = h1_box_class_count(sigma, order, box=3)
    if got < expected:
        got = h1_box_class_count(sigma, order, box=5)
    return got == expected, expected, got


def test_property_suites_agree_between_routes():
    """Randomized and exhaustive cross-checks of every dual-route computation."""
    rng = random.Random(20260814)

    # Smith normal form on 500 random matrices.
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        _assert_snf_contract(a)

    # Signature is a congruence invariant: 200 unimodular changes of basis.
    for _ in range(200):
        n = rng.randint(1, 5)
        g = random_symmetric(rng, n, -9, 9)
        u, _ = random_unimodular(rng, n)
        assert signature(u.transpose() @ g @ u) == signature(g)

    # First cohomology is unchanged by 100 unimodular conjugations.
    pool = [catalog.sextic_model(n) for n in RANK_RANGE]
    pool += [catalog.quadric_model(), catalog.hirzebruch2_model()]
    for i in range(100):
        model = pool[i % len(pool)]
        base = GLattice(model.pic, model.action, 2)
        reference = h1(base)
        p, p_inv = random_unimodular(rng, model.pic.rank)
        conj = GLattice(
            Lattice(p.transpose() @ model.pic.gram @ p),
            p_inv @ model.action @ p,
            2,
        )
        moved = h1(conj)
        assert moved.invariant_factors == reference.invariant_factors
        assert moved.free_rank == reference.free_rank

    # The extension is the frame oracle's map on the computed complement
    # and on 50 re-bases of it.
    frames = []
    for model in REFERENCE_MODELS.values():
        res = extend_by_minus_one(model.embedding, model.action)
        expected = [[Fraction(x, res.den) for x in r] for r in res.num.to_rows()]
        t = orthogonal_complement(model.embedding).complement.matrix
        assert frame_extension(model.embedding.matrix, t, model.action) == expected
        frames.append((model, t, expected))
    for i in range(50):
        model, t, expected = frames[i % len(frames)]
        w, _ = random_unimodular(rng, t.cols)
        assert frame_extension(model.embedding.matrix, t @ w, model.action) == expected

    # Exhaustive rank <= 3 sweep against the box-counting oracle.
    checked = 0
    for rank in (1, 2):
        values = range(-2, 3)
        if rank == 1:
            mats = [IntMatrix.from_rows([[a]]) for a in values if abs(a) == 1]
        else:
            mats = []
            for a in values:
                for b in values:
                    for c in values:
                        for d in values:
                            if abs(a * d - b * c) == 1:
                                mats.append(IntMatrix.from_rows([[a, b], [c, d]]))
        for sigma in mats:
            power = IntMatrix.identity(rank)
            for n in range(1, 5):
                power = power @ sigma
                if power == IntMatrix.identity(rank):
                    ok, expected, got = _box_agrees(sigma, n)
                    assert ok, (sigma.entries, n, expected, got)
                    checked += 1
    units = _enumerate_rank3_actions()
    eye = np.eye(3, dtype=np.int64)
    power = units.copy()
    for n in range(1, 5):
        if n > 1:
            power = power @ units
        hits = np.nonzero((power == eye).all(axis=(1, 2)))[0]
        for idx in hits:
            sigma = IntMatrix.from_rows(units[idx].tolist())
            ok, expected, got = _box_agrees(sigma, n)
            assert ok, (sigma.entries, n, expected, got)
            checked += 1
    assert checked > 8000


def test_non_integral_witness_is_detected():
    """The half-integral extension is flagged both directly and via the corpus."""
    emb, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(emb, action)
    assert not res.integral
    assert res.den == 2

    report = run_scenario(CORPUS / "witness-nonintegral")
    assert report.verdict == PASS
    by_name = {c.name: c for c in report.checks}
    extension = by_name["extension"]
    assert extension.computed["integral"] is False
