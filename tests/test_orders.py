"""Tests for surface models, canonical classes, and order classification."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3ord.catalog import q_gram, sextic_action
from k3ord.cohomology import GLattice
from k3ord.errors import (
    DNotDividing,
    DimensionMismatch,
    UnsupportedParameter,
)
from k3ord.lattices import Lattice, pair
from k3ord.matrices import IntMatrix
from k3ord.orders import (
    Classification,
    MaximalityVerdict,
    OrderDescriptor,
    OrderKind,
    RamifiedDivisor,
    SurfaceModel,
    YesNoUnknown,
    canonical_order_class,
    classify_order,
    maximality_check,
    overlap_applicable,
    ramification_transfer,
    surface_hirzebruch,
    surface_p2,
    surface_quadric,
    surface_rational_elliptic,
    surface_ruled_elliptic,
    untot_restriction,
)
from k3ord.runner import run_check

RULED_VECTORS = [(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)]


def ruled_order(indices):
    """Split ruled-elliptic order ramified on one C0-section per index."""
    surface = surface_ruled_elliptic(0)
    ram = tuple(RamifiedDivisor((1, 0), e) for e in indices)
    return OrderDescriptor(surface, ram, math.lcm(*indices))


# --- surface models -------------------------------------------------------------


def test_surface_p2():
    model = surface_p2()
    assert model.rank == 1
    assert model.pic.gram.to_rows() == ((1,),)
    assert model.k_class == (-3,)


def test_surface_quadric():
    model = surface_quadric()
    assert model.pic.gram.to_rows() == ((0, 1), (1, 0))
    assert model.k_class == (-2, -2)
    assert pair(model.pic, (1, 0), (0, 1)) == 1


def test_surface_hirzebruch_family():
    f2 = surface_hirzebruch(2)
    assert f2.pic.gram.to_rows() == ((-2, 1), (1, 0))
    assert f2.k_class == (-2, -4)
    # n = 0 degenerates to the quadric pairing
    f0 = surface_hirzebruch(0)
    assert f0.pic.gram.to_rows() == surface_quadric().pic.gram.to_rows()
    for n in range(5):
        model = surface_hirzebruch(n)
        k = model.k_class
        # K^2 = 8 on every Hirzebruch surface
        assert pair(model.pic, k, k) == 8
    with pytest.raises(UnsupportedParameter):
        surface_hirzebruch(-1)


def test_surface_ruled_elliptic_cases():
    split = surface_ruled_elliptic(0)
    assert split.pic.gram.to_rows() == ((0, 1), (1, 0))
    assert split.k_class == (-2, 0)
    one = surface_ruled_elliptic(1)
    assert one.pic.gram.to_rows() == ((1, 1), (1, 0))
    assert one.k_class == (-2, 1)
    # K^2 = 0 over an elliptic base, for both models
    for model in (split, one):
        assert pair(model.pic, model.k_class, model.k_class) == 0
    with pytest.raises(UnsupportedParameter):
        surface_ruled_elliptic(2)
    with pytest.raises(UnsupportedParameter):
        surface_ruled_elliptic(-1)


def test_surface_rational_elliptic():
    model = surface_rational_elliptic()
    assert model.rank == 10
    k = model.k_class
    fibre = tuple([-c for c in k])
    assert pair(model.pic, k, k) == 0
    assert pair(model.pic, fibre, fibre) == 0
    # every blow-up class is a numerical section of the fibration
    for i in range(1, 10):
        e_i = tuple([1 if j == i else 0 for j in range(10)])
        assert pair(model.pic, e_i, e_i) == -1
        assert pair(model.pic, e_i, fibre) == 1


def test_model_validation():
    with pytest.raises(DimensionMismatch):
        SurfaceModel(
            pic=Lattice(IntMatrix.identity(2)),
            k_class=(1,),
        )
    with pytest.raises(UnsupportedParameter):
        RamifiedDivisor((1,), 1)
    with pytest.raises(DimensionMismatch):
        OrderDescriptor(surface_p2(), (RamifiedDivisor((1, 1), 2),), 2)


# --- canonical class ------------------------------------------------------------


def test_canonical_class_reference_cases():
    sextic = OrderDescriptor(
        surface_p2(), (RamifiedDivisor((6,), 2),), 2
    )
    assert not any(canonical_order_class(sextic))

    f2 = OrderDescriptor(
        surface_hirzebruch(2), (RamifiedDivisor((4, 8), 2),), 2
    )
    assert not any(canonical_order_class(f2))

    quadric = OrderDescriptor(
        surface_quadric(), (RamifiedDivisor((4, 4), 2),), 2
    )
    assert not any(canonical_order_class(quadric))

    unramified = OrderDescriptor(surface_quadric())
    assert canonical_order_class(unramified) == surface_quadric().k_class

    cubic = OrderDescriptor(
        surface_p2(), (RamifiedDivisor((3,), 2),), 2
    )
    assert canonical_order_class(cubic) == (Fraction(-3, 2),)


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4), st.integers(-4, 4), st.integers(2, 6)
        ),
        max_size=6,
    )
)
def test_canonical_class_additive_over_ramification(rows):
    surface = surface_quadric()
    divisors = tuple(
        RamifiedDivisor((a, b), e) for a, b, e in rows
    )
    whole = canonical_order_class(OrderDescriptor(surface, divisors, 12))
    pieces = surface.k_class
    for div in divisors:
        part = canonical_order_class(OrderDescriptor(surface, (div,), div.e))
        pieces = tuple([p + q - k for p, q, k in zip(pieces, part, surface.k_class)])
    assert whole == pieces


def test_canonical_class_entries_are_fractions_for_int_classes():
    """Int-valued K_Z and ramified classes come back as Fraction entries,
    with and without ramification, so order-classify encodes each entry of
    the canonical class, the anti-square and the pairings as num/den."""
    quadric = SurfaceModel(Lattice(IntMatrix.from_rows([[0, 1], [1, 0]])), (-2, -2))
    for surface in (surface_p2(), quadric):
        ones = (1,) * surface.rank
        for ram in ((), (RamifiedDivisor(ones, 2),), (RamifiedDivisor(ones, 3),)):
            order = OrderDescriptor(surface, ram, 6)
            verdict = classify_order(order)
            values = canonical_order_class(order) + verdict.k_order + verdict.pairings
            assert all(type(v) is Fraction for v in values + (verdict.anti_square,))
    for ram in ([], [{"class": ["6"], "e": "2"}]):
        payload = {"surface": "p2", "ramification": ram}
        computed = run_check("k", "order-classify", payload).computed
        entries = computed["canonical_class"] + computed["pairings"]
        assert all(set(e) == {"num", "den"} for e in entries + [computed["anti_square"]])


# --- triviality and classification ----------------------------------------------


def test_classify_reference_ncy_orders():
    cases = [
        OrderDescriptor(surface_p2(), (RamifiedDivisor((6,), 2),), 2),
        OrderDescriptor(
            surface_quadric(), (RamifiedDivisor((4, 4), 2),), 2
        ),
        OrderDescriptor(
            surface_hirzebruch(2), (RamifiedDivisor((4, 8), 2),), 2
        ),
    ]
    for order in cases:
        verdict = classify_order(order)
        assert verdict.kind is OrderKind.NCY
        assert not any(verdict.k_order)


def test_classify_del_pezzo_orders():
    unramified = classify_order(OrderDescriptor(surface_p2()))
    assert unramified.kind is OrderKind.DEL_PEZZO
    assert unramified.anti_square == 9
    assert unramified.pairings == (Fraction(3),)
    assert unramified.assumptions

    cubic = classify_order(
        OrderDescriptor(surface_p2(), (RamifiedDivisor((3,), 2),), 2)
    )
    assert cubic.kind is OrderKind.DEL_PEZZO
    assert cubic.k_order == (Fraction(-3, 2),)
    assert cubic.anti_square == Fraction(9, 4)
    assert cubic.pairings == (Fraction(3, 2),)


def test_classify_other():
    # past the Calabi-Yau threshold: K_A = H is positive, so -K_A is not
    octic = classify_order(
        OrderDescriptor(surface_p2(), (RamifiedDivisor((8,), 2),), 2)
    )
    assert octic.kind is OrderKind.OTHER
    # -K nef but with square zero on the rational elliptic surface
    fibred = classify_order(OrderDescriptor(surface_rational_elliptic()))
    assert fibred.kind is OrderKind.OTHER
    assert fibred.anti_square == 0


def test_classify_ruled_elliptic_vectors():
    for indices in RULED_VECTORS:
        order = ruled_order(indices)
        load = sum(Fraction(e - 1, e) for e in indices)
        assert load == 2
        verdict = classify_order(order)
        assert verdict.kind is OrderKind.NCY, indices


@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3), st.integers(-3, 3), st.integers(2, 6)
        ),
        max_size=4,
    )
)
def test_ncy_and_del_pezzo_exclusive(rows):
    surface = surface_quadric()
    ram = tuple(RamifiedDivisor((a, b), e) for a, b, e in rows)
    verdict = classify_order(OrderDescriptor(surface, ram, 12))
    if verdict.kind is OrderKind.NCY:
        # on a nonzero lattice a trivial class cannot carry a positive square
        assert not (
            verdict.anti_square > 0 and all(p > 0 for p in verdict.pairings)
        )


# --- ramification transfer and overlap ------------------------------------------


def _on_p2(indices, degree):
    """An order on P^2 ramified on one line per index."""
    return OrderDescriptor(surface_p2(), tuple(RamifiedDivisor((1,), e) for e in indices), degree)


def test_ramification_transfer():
    assert ramification_transfer(_on_p2([2], 2)) == (2,)
    assert ramification_transfer(_on_p2([2, 2, 2, 2], 2)) == (2, 2, 2, 2)
    assert ramification_transfer(_on_p2([], 1)) == ()
    assert ramification_transfer(_on_p2([4, 2, 4], 4)) == (2, 4, 4)
    # an unramified branch divisor is refused when the descriptor is built
    with pytest.raises(UnsupportedParameter):
        _on_p2([1], 1)


def test_overlap_applicable():
    assert overlap_applicable(_on_p2([2], 2))
    assert overlap_applicable(_on_p2([2, 3, 6], 6))
    assert not overlap_applicable(_on_p2([], 2))
    assert overlap_applicable(_on_p2([], 1))
    assert overlap_applicable(_on_p2([2, 4], 4))
    assert not overlap_applicable(_on_p2([2, 2], 4))
    for indices in RULED_VECTORS:
        assert overlap_applicable(ruled_order(indices))
    with pytest.raises(UnsupportedParameter):
        _on_p2([2], 0)


# --- restriction classes for non-total ramification ------------------------------


def rank_one_trivial(order):
    return GLattice(
        Lattice(IntMatrix.from_rows([[0]])), IntMatrix.identity(1), order
    )


def test_untot_restriction_totally_ramified():
    gl = rank_one_trivial(4)
    assert untot_restriction(gl, (1,), 1) == ((1,), 4)


def test_untot_restriction_236_fibration():
    # degree-six cover with fibres of index 2, 3, 6: the branch divisor
    # with index e splits into d = 6/e components, and the restriction
    # classes are the third, second, and first multiples of the line
    # bundle, with claimed torsion 2, 3, 6 respectively
    gl = rank_one_trivial(6)
    assert untot_restriction(gl, (1,), 3) == ((3,), 2)
    assert untot_restriction(gl, (1,), 2) == ((2,), 3)
    assert untot_restriction(gl, (1,), 1) == ((1,), 6)


def test_untot_restriction_full_split():
    gl = rank_one_trivial(5)
    assert untot_restriction(gl, (7,), 5) == ((35,), 1)


def test_untot_restriction_nontrivial_action():
    gram = q_gram(3)
    gl = GLattice(Lattice(gram), sextic_action(3), 2)
    # sigma(s3) = s1 + s2 - s3, so L = s3 sums to s1 + s2 over the orbit
    assert untot_restriction(gl, (0, 0, 1), 2) == ((1, 1, 0), 1)
    assert untot_restriction(gl, (0, 0, 1), 1) == ((0, 0, 1), 2)


def test_untot_restriction_errors():
    gl = rank_one_trivial(6)
    with pytest.raises(DNotDividing):
        untot_restriction(gl, (1,), 4)
    with pytest.raises(DNotDividing):
        untot_restriction(gl, (1,), 0)
    with pytest.raises(DimensionMismatch):
        untot_restriction(gl, (1, 2), 2)


def test_untot_restriction_norm_at_full_d():
    # with d = n the restriction is the norm of the class, invariant
    # under the action
    rng = random.Random(20260814)
    gram = q_gram(4)
    gl = GLattice(Lattice(gram), sextic_action(4), 2)
    for _ in range(20):
        vec = tuple(rng.randint(-5, 5) for _ in range(4))
        summed, torsion = untot_restriction(gl, vec, 2)
        assert torsion == 1
        assert gl.sigma.mul_vec(summed) == summed


# --- maximality -----------------------------------------------------------------


def test_maximality_check():
    p2 = surface_p2()
    assert maximality_check(OrderDescriptor(p2)) is MaximalityVerdict.AZUMAYA

    def ram(*answers):
        return tuple(
            RamifiedDivisor((6,), 2, a) for a in answers
        )

    yes = YesNoUnknown.YES
    no = YesNoUnknown.NO
    unknown = YesNoUnknown.UNKNOWN
    assert (
        maximality_check(OrderDescriptor(p2, ram(yes, yes), 2))
        is MaximalityVerdict.MAXIMAL
    )
    assert (
        maximality_check(OrderDescriptor(p2, ram(yes, unknown), 2))
        is MaximalityVerdict.UNKNOWN
    )
    # the criterion is sufficiency only, so NO still yields UNKNOWN
    assert (
        maximality_check(OrderDescriptor(p2, ram(no,), 2))
        is MaximalityVerdict.UNKNOWN
    )


# --- classification certificate payload ------------------------------------------


def test_classification_carries_exact_certificate():
    verdict = classify_order(
        OrderDescriptor(surface_p2(), (RamifiedDivisor((3,), 2),), 2)
    )
    assert isinstance(verdict, Classification)
    assert all(isinstance(p, Fraction) for p in verdict.pairings)
    assert isinstance(verdict.anti_square, Fraction)
