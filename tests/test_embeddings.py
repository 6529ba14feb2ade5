"""Tests for embedding verification and orthogonal complements."""

import random
from pathlib import Path

import pytest

from k3ord import catalog, jsonio
from k3ord.embeddings import (
    Embedding,
    check_isometric,
    is_primitive,
    orthogonal_complement,
)
from k3ord.errors import DimensionMismatch
from k3ord.lattices import Lattice, build_K3
from k3ord.matrices import IntMatrix, det, signature, snf, solve_integer

from oracles import (
    mat_mul,
    maximal_minor_gcd,
    primitive_box_oracle,
    random_int_matrix,
    random_symmetric,
    rational_kernel_basis,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def all_models():
    models = [catalog.sextic_model(n) for n in catalog.RANK_RANGE]
    models += [catalog.quadric_model(), catalog.hirzebruch2_model()]
    return models


def test_shape_validation():
    k3 = build_K3()
    with pytest.raises(DimensionMismatch):
        Embedding(Lattice(IntMatrix.identity(2)), k3, IntMatrix.identity(3))


def test_rank3_model_isometric_and_primitive():
    m = catalog.sextic_model(3)
    assert check_isometric(m.embedding)
    assert is_primitive(m.embedding)


def test_perturbed_embedding_not_isometric():
    m = catalog.sextic_model(3)
    rows = [list(r) for r in m.embedding.matrix.to_rows()]
    rows[0][0] += 1
    bad = Embedding(m.pic, m.embedding.target, IntMatrix.from_rows(rows))
    assert not check_isometric(bad)


def test_identity_embedding():
    k3 = build_K3()
    e = Embedding(k3, k3, IntMatrix.identity(22))
    assert check_isometric(e)
    assert is_primitive(e)
    res = orthogonal_complement(e)
    assert res.complement.source.rank == 0
    assert abs(res.pic_plus_t_det) == 1


def test_multiplication_by_two_not_primitive():
    z = Lattice(IntMatrix.from_rows([[1]]))
    z4 = Lattice(IntMatrix.from_rows([[4]]))
    e = Embedding(z4, z, IntMatrix.from_rows([[2]]))
    assert check_isometric(e)
    assert not is_primitive(e)


def test_first_hyperbolic_block_complement():
    k3 = build_K3()
    cols = []
    for idx in (16, 17):
        v = [0] * 22
        v[idx] = 1
        cols.append(v)
    h = Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]))
    e = Embedding(h, k3, IntMatrix.from_cols(cols))
    assert check_isometric(e)
    res = orthogonal_complement(e)
    assert res.complement.source.rank == 20
    assert res.pic_plus_t_det != 0


def test_all_models_isometric_primitive_hyperbolic_signature():
    for m in all_models():
        assert check_isometric(m.embedding), m.name
        assert is_primitive(m.embedding), m.name
        assert signature(m.pic.gram) == (1, m.pic.rank - 1, 0), m.name


def test_complement_pairs_to_zero():
    for m in all_models():
        res = orthogonal_complement(m.embedding)
        t = res.complement.matrix
        prod = m.embedding.matrix.transpose() @ m.embedding.target.gram @ t
        assert prod == IntMatrix.zeros(m.pic.rank, t.cols), m.name
        assert res.pic_plus_t_det != 0, m.name


def test_complement_is_saturated():
    for m in (catalog.sextic_model(3), catalog.quadric_model()):
        res = orthogonal_complement(m.embedding)
        assert is_primitive(res.complement)


def test_rank3_complement_rank():
    res = orthogonal_complement(catalog.sextic_model(3).embedding)
    assert res.complement.source.rank == 19
    assert res.pic_plus_t_det != 0


def test_double_complement_contains_image():
    # The complement of the complement is saturated and orthogonal to T, so
    # it must contain every original image column.
    for m in (catalog.sextic_model(4), catalog.hirzebruch2_model()):
        once = orthogonal_complement(m.embedding)
        twice = orthogonal_complement(once.complement)
        back = twice.complement.matrix
        for j in range(m.pic.rank):
            assert solve_integer(back, m.embedding.matrix.col(j)) is not None, m.name


def test_stated_basis_extensions():
    # For each model the image columns extend to a basis of the ambient
    # lattice by standard basis vectors; this cross-validates is_primitive.
    k3 = build_K3()
    extensions = {
        "p2-sextic-n18": [16, 17, 18, 20],
        "quadric": list(range(16)) + [16, 19],
        "hirzebruch2": [2, 5, 6, 7] + list(range(8, 16)) + [16, 18, 19, 20, 21],
    }
    for m in [catalog.sextic_model(18), catalog.quadric_model(),
              catalog.hirzebruch2_model()]:
        cols = [list(m.embedding.matrix.col(j)) for j in range(m.pic.rank)]
        for idx in extensions[m.name]:
            v = [0] * 22
            v[idx] = 1
            cols.append(v)
        full = IntMatrix.from_cols(cols)
        assert full.is_square
        assert det(full) in (1, -1), m.name


def test_primitivity_agrees_with_minor_gcd_oracle():
    rng = random.Random(20260814)
    checked_primitive = checked_not = 0
    while checked_primitive < 25 or checked_not < 25:
        nrows = rng.randint(2, 5)
        ncols = rng.randint(1, nrows)
        p = random_int_matrix(rng, nrows, ncols, -3, 3)
        g = maximal_minor_gcd(p)
        if g == 0:
            continue  # oracle needs full column rank
        source = Lattice(IntMatrix.zeros(ncols, ncols))
        target = Lattice(IntMatrix.zeros(nrows, nrows))
        verdict = is_primitive(Embedding(source, target, p))
        assert (g == 1) == verdict
        if verdict:
            checked_primitive += 1
        else:
            checked_not += 1


def test_primitivity_is_the_smith_verdict_on_every_shape():
    # one echelon form decides: n pivots, each 1; the Smith form says the
    # same with its n invariant factors all 1.  Empty shapes, m < n and
    # rank-deficient matrices come up among the draws
    rng = random.Random(2626)
    seen = set()
    for _ in range(1500):
        m, n = rng.randint(0, 5), rng.randint(0, 4)
        p = IntMatrix(m, n, tuple([rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(m * n)]))
        source, target = Lattice(IntMatrix.zeros(n, n)), Lattice(IntMatrix.zeros(m, m))
        verdict = is_primitive(Embedding(source, target, p))
        assert verdict == (snf(p).invariant_factors == (1,) * n), (m, n, p.entries)
        seen.add((verdict, m < n, 0 in (m, n)))
    assert seen == {(True, False, False), (False, False, False), (False, True, False),
                    (True, False, True), (False, True, True)}


def test_primitivity_matches_definition_by_exhaustion():
    # Tiny cases only: the box oracle tests the torsion-free-quotient
    # definition directly by enumerating the saturation.
    rng = random.Random(31)
    checked_primitive = checked_not = 0
    while checked_primitive < 10 or checked_not < 10:
        nrows = rng.randint(2, 3)
        ncols = rng.randint(1, 2)
        p = random_int_matrix(rng, nrows, ncols, -2, 2)
        if maximal_minor_gcd(p) == 0:
            continue
        verdict = snf(p).invariant_factors == tuple([1] * ncols)
        assert primitive_box_oracle(p) == verdict
        if verdict:
            checked_primitive += 1
        else:
            checked_not += 1


def test_primitive_embeddings_admit_unimodular_completion():
    # Constructive basis extension: rows of U^-1 beyond the source rank
    # complete the image to a basis exactly when the embedding is primitive.
    rng = random.Random(99)
    found = 0
    while found < 20:
        nrows = rng.randint(2, 5)
        ncols = rng.randint(1, nrows - 1)
        p = random_int_matrix(rng, nrows, ncols, -3, 3)
        res = snf(p)
        if res.invariant_factors != tuple([1] * ncols):
            continue
        u_inv_cols = _inverse_columns(res.U)
        completion = IntMatrix.from_cols(
            [list(p.col(j)) for j in range(ncols)]
            + [u_inv_cols[i] for i in range(ncols, nrows)]
        )
        assert det(completion) in (1, -1)
        found += 1


def _inverse_columns(u: IntMatrix) -> list[list[int]]:
    """Columns of u^-1 for a unimodular u: the integer solutions of u.x = e_j."""
    cols = []
    for j in range(u.cols):
        e = tuple([int(i == j) for i in range(u.rows)])
        x = solve_integer(u, e)
        assert x is not None and u.mul_vec(x) == e
        cols.append(list(x))
    return cols


def test_complement_rank_matches_rational_kernel():
    # The saturated complement spans the full rational kernel, computed here
    # by an SNF-free route.
    m = catalog.quadric_model()
    a = m.embedding.matrix.transpose() @ m.embedding.target.gram
    t = orthogonal_complement(m.embedding).complement.matrix
    assert t.cols == len(rational_kernel_basis(a))


def _oracle_frame(e):
    """(P^T G, P^T G P) as flat lists, by the oracle's schoolbook products."""
    p, n, m = list(e.matrix.entries), e.target.rank, e.source.rank
    pt = [p[j * m + i] for i in range(m) for j in range(n)]
    pt_g = mat_mul(pt, list(e.target.gram.entries), m, n, n)
    return pt_g, mat_mul(pt_g, p, m, n, m)


def _oracle_isometric(e):
    """P^T G P == S by the oracle's schoolbook products."""
    return _oracle_frame(e)[1] == list(e.source.gram.entries)


def test_check_isometric_agrees_with_the_oracle_on_corpus_embeddings():
    def ints(rows):
        return IntMatrix.from_rows([[int(x) for x in row] for row in rows])

    seen = {}
    for case in sorted(CORPUS.iterdir()):
        for node in jsonio.load_file(case / "scenario.json")["checks"]:
            payload = node["payload"]
            if node["kind"] not in ("embedding-check", "isometry-extend"):
                continue
            target = payload["target"]
            target = build_K3() if target == "K3" else Lattice(ints(target))
            e = Embedding(Lattice(ints(payload["source_gram"])), target, ints(payload["columns"]))
            verdict = check_isometric(e)
            assert verdict == _oracle_isometric(e), case.name
            seen[verdict] = seen.get(verdict, 0) + 1
    assert seen[True] > 30, seen


def test_check_isometric_agrees_with_the_oracle_on_seeded_embeddings():
    """Rectangular P with entries up to 10^15 in some cases; the source form
    is P^T G P, or it with one diagonal entry or one symmetric pair moved
    by 1, the smallest change that the probe must see."""
    rng = random.Random(2121)
    m = catalog.sextic_model(3)
    rows = [list(r) for r in m.embedding.matrix.to_rows()]
    rows[0][0] += 1
    cases = [Embedding(m.pic, m.embedding.target, IntMatrix.from_rows(rows)), m.embedding]
    for case in range(600):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        big = 10**15 if case % 3 == 0 else 3
        g = random_symmetric(rng, n, -big, big)
        p = IntMatrix(n, k, tuple([rng.randint(-big, big) for _ in range(n * k)]))
        s = [list(r) for r in (p.transpose() @ g @ p).to_rows()] if k else []
        if k and case % 2:
            i, j = rng.randrange(k), rng.randrange(k)
            delta = rng.choice((-1, 1))
            s[i][j] += delta
            if i != j:
                s[j][i] += delta
        source = Lattice(IntMatrix.from_rows(s) if k else IntMatrix(0, 0, ()))
        cases.append(Embedding(source, Lattice(g), p))
    seen = {True: 0, False: 0}
    for e in cases:
        verdict = check_isometric(e)
        assert verdict == _oracle_isometric(e), e
        seen[verdict] += 1
    assert min(seen.values()) > 200, seen


def test_embedding_carries_its_frame_products():
    """Embedding.m is P^T G and Embedding.q is P^T G P, against the oracle's
    schoolbook products on seeded frames of 0 to 22 rows with entries up to
    10^15, and each is formed once: a second read returns the same object."""
    rng = random.Random(3636)
    frames = [m.embedding for m in all_models()]
    for case in range(300):
        n = rng.randint(0, 22)
        k = rng.randint(0, n)
        big = 10**15 if case % 3 == 0 else 3
        g = random_symmetric(rng, n, -big, big) if n else IntMatrix(0, 0, ())
        p = IntMatrix(n, k, tuple([rng.choice((0, 0, rng.randint(-big, big))) for _ in range(n * k)]))
        source = Lattice(random_symmetric(rng, k, -3, 3) if k else IntMatrix(0, 0, ()))
        frames.append(Embedding(source, Lattice(g), p))
    for e in frames:
        pt_g, q = _oracle_frame(e)
        k, n = e.source.rank, e.target.rank
        assert (e.m.rows, e.m.cols, e.q.rows, e.q.cols) == (k, n, k, k)
        assert (list(e.m.entries), list(e.q.entries)) == (pt_g, q), e
        assert e.m is e.m and e.q is e.q
