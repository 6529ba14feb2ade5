"""Tests for section-group models, their twists, and the group law."""

import json
import math
import random
import time

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from k3ord.cli import main
from k3ord.cohomology import GLattice, h1
from k3ord.errors import (
    DimensionMismatch,
    NotANumericalSection,
    UnsupportedAction,
    UnsupportedParameter,
)
from k3ord.fibrations import (
    AbGroupModel,
    BlockEndo,
    GroupElement,
    TorsionPoint,
    cocycle_check,
    coboundary_check,
    geometric_sum,
    h1_structured,
    invariant_chain,
    mw_sum_rational_elliptic,
    negation_endo,
    trivial_endo,
)
from k3ord.lattices import Lattice, pair
from k3ord.matrices import IntMatrix, snf
from k3ord.orders import surface_rational_elliptic
from k3ord.runner import ERROR, PASS, run_check

from oracles import is_zero_element, minus_image, orbit_sum


# --- model and endomorphism validation ---------------------------------------------


def test_model_validation():
    AbGroupModel(free_rank=0, finite_cyclic=(), elliptic_count=0)
    with pytest.raises(UnsupportedParameter):
        AbGroupModel(free_rank=-1)
    with pytest.raises(UnsupportedParameter):
        AbGroupModel(finite_cyclic=(1,))


def test_endo_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        BlockEndo(IntMatrix.zeros(1, 2), (), (), 1)
    with pytest.raises(UnsupportedParameter):
        BlockEndo(IntMatrix.identity(1), (), (), 0)
    with pytest.raises(UnsupportedAction):
        BlockEndo(IntMatrix.identity(0), (), ((2, 0),), 2)
    with pytest.raises(UnsupportedAction):
        BlockEndo(IntMatrix.identity(0), (), ((1, 0), (1, 0)), 2)
    # free action must have the declared period
    with pytest.raises(UnsupportedAction):
        BlockEndo(IntMatrix.from_rows([[2]]), (), (), 2)
    # a 3-cycle cannot sit inside an order-2 action
    three_cycle = ((1, 1), (1, 2), (1, 0))
    with pytest.raises(UnsupportedAction):
        BlockEndo(IntMatrix.identity(0), (), three_cycle, 2)
    # a sign-reversing fixed summand needs even order
    with pytest.raises(UnsupportedAction):
        BlockEndo(IntMatrix.identity(0), (), ((-1, 0),), 3)
    # a free action of period 3 inside an order-4 action
    with pytest.raises(UnsupportedAction):
        BlockEndo(IntMatrix.from_rows([[0, -1], [1, -1]]), (), (), 4)


def test_endo_model_compatibility():
    model = AbGroupModel(free_rank=1, finite_cyclic=(5,), elliptic_count=1)
    zero = GroupElement(model, (0,), (0,), (None,))
    good = BlockEndo(IntMatrix.identity(1), (4,), ((1, 0),), 2)
    wrong_shape = BlockEndo(IntMatrix.identity(2), (4,), ((1, 0),), 2)
    # 2 has order 4 mod 5, not 2
    bad_multiplier = BlockEndo(IntMatrix.identity(1), (2,), ((1, 0),), 2)
    for check in (cocycle_check, coboundary_check):
        check(good, zero)
        with pytest.raises(DimensionMismatch):
            check(wrong_shape, zero)
        with pytest.raises(UnsupportedAction):
            check(bad_multiplier, zero)
    # the norm checks the multiplier even where order 1 leaves nothing to sum
    with pytest.raises(UnsupportedAction):
        cocycle_check(BlockEndo(IntMatrix.identity(1), (2,), ((1, 0),), 1), zero)


def test_element_validation_and_reduction():
    model = AbGroupModel(free_rank=1, finite_cyclic=(4,), elliptic_count=1)
    with pytest.raises(DimensionMismatch):
        GroupElement(model, free=(1, 2), finite=(0,), elliptic=(None,))
    e = GroupElement(
        model, free=(3,), finite=(7,), elliptic=(TorsionPoint("p", 3, 6),)
    )
    assert e.finite == (3,)
    assert e.elliptic == (None,)
    assert GroupElement(model, [3], [7], [None]) == e
    with pytest.raises(UnsupportedParameter):
        TorsionPoint("p", 0)


def test_unrelated_symbols_do_not_add():
    # the cocycle check adds the points carried around the 2-cycle
    model = AbGroupModel(elliptic_count=2)
    swap = BlockEndo(IntMatrix.identity(0), (), ((1, 1), (1, 0)), 2)
    p, q = TorsionPoint("p", 2), TorsionPoint("q", 2)
    with pytest.raises(UnsupportedAction):
        cocycle_check(swap, GroupElement(model, elliptic=(p, q)))
    # multiples of the same point are fine: p + p is zero
    assert cocycle_check(swap, GroupElement(model, elliptic=(p, p)))


# --- structured H^1 -----------------------------------------------------------------


def test_h1_trivial_elliptic_action():
    for n in range(2, 7):
        model = AbGroupModel(elliptic_count=1)
        res = h1_structured(model, trivial_endo(model, n))
        assert res.invariant_factors == (n, n)
        assert res.elliptic_factors == (n, n)
        assert res.free_rank == 0
        assert math.prod(res.invariant_factors) == n * n


def test_h1_negation_elliptic_action():
    model = AbGroupModel(elliptic_count=1)
    res = h1_structured(model, negation_endo(model))
    assert res.invariant_factors == ()
    assert math.prod(res.invariant_factors) == 1


def test_h1_graph_of_negation():
    """Free summand and elliptic summand both negated by an involution."""
    model = AbGroupModel(free_rank=1, elliptic_count=1)
    endo = BlockEndo(IntMatrix.from_rows([[-1]]), (), ((-1, 0),), 2)
    res = h1_structured(model, endo)
    assert res.invariant_factors == (2,)
    assert res.free_part.invariant_factors == (2,)
    assert res.free_part.generators == ((1,),)
    assert res.elliptic_factors == ()


def test_h1_swapped_elliptic_pair():
    model = AbGroupModel(elliptic_count=2)
    swap = BlockEndo(IntMatrix.identity(0), (), ((1, 1), (1, 0)), 2)
    assert h1_structured(model, swap).invariant_factors == ()
    swap_in_4 = BlockEndo(IntMatrix.identity(0), (), ((1, 1), (1, 0)), 4)
    assert h1_structured(model, swap_in_4).invariant_factors == (2, 2)
    signed_swap = BlockEndo(IntMatrix.identity(0), (), ((-1, 1), (-1, 0)), 2)
    assert h1_structured(model, signed_swap).invariant_factors == ()


def test_h1_finite_blocks():
    model = AbGroupModel(finite_cyclic=(4,))
    endo = BlockEndo(IntMatrix.identity(0), (3,), (), 2)
    assert h1_structured(model, endo).invariant_factors == (2,)
    for m in (2, 3, 4, 6, 9):
        for n in (1, 2, 3, 4, 6):
            mm = AbGroupModel(finite_cyclic=(m,))
            res = h1_structured(mm, trivial_endo(mm, n))
            g = math.gcd(n, m)
            assert res.invariant_factors == ((g,) if g > 1 else ())


def test_h1_free_block_matches_lattice_cohomology():
    """With only a free summand the answer is plain group cohomology."""
    cases = [
        (IntMatrix.from_rows([[0, 1], [1, 0]]), 2),
        (IntMatrix.from_rows([[0, -1], [1, 0]]), 4),
        (IntMatrix.from_rows([[-1, 0], [0, -1]]), 2),
        (IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), 3),
    ]
    for action, n in cases:
        rank = action.rows
        model = AbGroupModel(free_rank=rank)
        endo = BlockEndo(action, (), (), n)
        res = h1_structured(model, endo)
        plain = h1(GLattice(Lattice(IntMatrix.zeros(rank, rank)), action, n))
        assert res.invariant_factors == plain.invariant_factors
        assert res.free_part.generators == plain.generators


def test_h1_mixed_blocks_get_merged_factors():
    """Z/2 from the free part and (Z/2)^2 from torsion merge to (2, 2, 2)."""
    model = AbGroupModel(free_rank=1, elliptic_count=1)
    endo = BlockEndo(IntMatrix.from_rows([[-1]]), (), ((1, 0),), 2)
    res = h1_structured(model, endo)
    assert res.invariant_factors == (2, 2, 2)
    assert res.free_part.invariant_factors == (2,)
    assert res.elliptic_factors == (2, 2)


def test_invariant_chain_matches_the_smith_form_of_the_diagonal():
    """Seeded multisets drawn from a few small values, so that 1s, repeats
    and shared prime powers all come up, against the Smith form route."""
    rng = random.Random(20261019)
    for trial in range(2000):
        pool = [rng.choice((1, 2, 3, 4, 6, 8, 9, 12, 25, 30, 36)) for _ in range(rng.randint(1, 4))]
        orders = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
        rng.shuffle(orders)
        expected = tuple([d for d in snf(IntMatrix.diagonal(orders)).invariant_factors if d > 1])
        assert invariant_chain(orders) == expected, orders
    assert invariant_chain([]) == invariant_chain([1, 1]) == ()
    assert invariant_chain([2] * 6000) == (2,) * 6000


def test_many_elliptic_pairs_cost_no_dense_diagonal():
    """1,000 elliptic summands give 2,000 factors of 2; the Smith form of
    their diagonal took seconds."""
    payload = {"model": {"elliptic_count": "1000"}, "endo": {"order": "2"}}
    start = time.perf_counter()
    outcome = run_check("many", "fibration-h1", payload, {"invariant_factors": ["2"] * 2000})
    assert time.perf_counter() - start < 0.5
    assert outcome.verdict == PASS, outcome


def test_invariant_factor_normalization():
    """Factors of coprime order combine, matching invariant factor form."""
    model = AbGroupModel(finite_cyclic=(4,), elliptic_count=1)
    endo = BlockEndo(IntMatrix.identity(0), (3,), ((1, 0),), 6)
    res = h1_structured(model, endo)
    # elliptic part gives (6, 6); finite part Z/4 with u=3, n=6:
    # norm = 3(1+3)=12=0 mod 4, kernel Z/4, image 2Z/4, quotient Z/2
    assert res.finite_factors == (2,)
    assert res.elliptic_factors == (6, 6)
    assert res.invariant_factors == (2, 6, 6)
    # a trivial action at order n leaves Z/m with H^1 = Z/gcd(m, n)
    coprime = AbGroupModel(finite_cyclic=(8, 9))
    res = h1_structured(coprime, trivial_endo(coprime, 12))
    assert res.finite_factors == (4, 3)
    assert res.invariant_factors == (12,)
    shared = AbGroupModel(finite_cyclic=(8, 12))
    res = h1_structured(shared, trivial_endo(shared, 24))
    assert res.finite_factors == (8, 12)
    assert res.invariant_factors == (4, 24)
    assert math.prod(res.invariant_factors) == 96


# --- cocycle and coboundary checks --------------------------------------------------


# (free action, its period) at ranks 0, 1 and 2
FREE_ACTIONS = [
    (IntMatrix.identity(0), 1),
    (IntMatrix.identity(1), 1),
    (IntMatrix.from_rows([[-1]]), 2),
    (IntMatrix.identity(2), 1),
    (IntMatrix.from_rows([[0, 1], [1, 0]]), 2),
    (IntMatrix.from_rows([[1, 1], [0, -1]]), 2),
    (IntMatrix.from_rows([[0, -1], [1, -1]]), 3),
    (IntMatrix.from_rows([[0, -1], [1, 0]]), 4),
    (IntMatrix.from_rows([[1, -1], [1, 0]]), 6),
]


@st.composite
def _twisted_elements(draw):
    """(endo, x): a block action at an order every block admits, and an
    element whose points are multiples of one symbol."""
    free_action, period = draw(st.sampled_from(FREE_ACTIONS))
    moduli = draw(st.lists(st.integers(2, 9), max_size=2))
    units = [
        draw(st.sampled_from([u for u in range(1, m) if math.gcd(u, m) == 1]))
        for m in moduli
    ]
    count = draw(st.integers(0, 4))
    images = draw(st.permutations(range(count)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=count, max_size=count))
    periods = [period]
    periods += [next(k for k in range(1, m) if pow(u, k, m) == 1) for u, m in zip(units, moduli)]
    seen = set()
    for start in range(count):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start)
            start = images[start]
        if cycle:
            # a sign-reversing cycle of length k needs an even multiple of k
            net = math.prod(signs[i] for i in cycle)
            periods.append(len(cycle) * (1 if net == 1 else 2))
    order = math.lcm(*periods) * draw(st.integers(1, 3))
    endo = BlockEndo(free_action, tuple(units), tuple(zip(signs, images)), order)
    point_order = draw(st.integers(1, 8))
    points = st.none() | st.integers(-8, 8).map(lambda k: TorsionPoint("p", point_order, k))
    model = AbGroupModel(free_action.rows, tuple(moduli), count)
    x = GroupElement(
        model,
        tuple(draw(st.integers(-3, 3)) for _ in range(model.free_rank)),
        tuple(draw(st.integers(0, m - 1)) for m in moduli),
        tuple(draw(points) for _ in range(count)),
    )
    return endo, x


@given(_twisted_elements())
@example((
    # a net +1 cycle of two sign changes: the cycle sum is p - p = 0
    BlockEndo(IntMatrix.identity(0), (), ((-1, 1), (-1, 0)), 2),
    GroupElement(AbGroupModel(elliptic_count=2), elliptic=(TorsionPoint("p", 4),) * 2),
))
@example((
    BlockEndo(IntMatrix.from_rows([[0, -1], [1, 0]]), (5,), ((1, 1), (-1, 0)), 8),
    GroupElement(
        AbGroupModel(2, (6,), 2),
        (2, -3), (4,), (TorsionPoint("p", 8, 3), TorsionPoint("p", 8, 5)),
    ),
))
@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
def test_cocycle_check_matches_the_summed_orbit(case):
    endo, x = case
    action, moduli, plain = _plain(endo, x)
    total = orbit_sum(action, moduli, plain, endo.order)
    assert cocycle_check(endo, x) == is_zero_element(total)
    difference = _element(x.model, minus_image(action, moduli, plain))
    assert cocycle_check(endo, difference)
    assert coboundary_check(endo, difference)


def test_work_follows_the_period_not_the_declared_order(monkeypatch):
    calls = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b)
    )
    model = AbGroupModel(free_rank=1, finite_cyclic=(6,), elliptic_count=2)
    endo = BlockEndo(IntMatrix.from_rows([[-1]]), (5,), ((1, 1), (-1, 0)), 200_000)
    s = GroupElement(model, (1,), (3,), (TorsionPoint("p", 4), None))
    assert cocycle_check(endo, s)
    assert not coboundary_check(endo, s)
    res = h1_structured(model, endo)
    assert res.invariant_factors == (2, 2)
    assert res.finite_factors == (2,)
    assert len(calls) <= 10


def test_non_periodic_free_action_is_rejected_by_its_minimal_polynomial():
    start = time.perf_counter()
    with pytest.raises(UnsupportedAction, match="not periodic of order 1000000$"):
        BlockEndo(IntMatrix.from_rows([[2, 1], [1, 1]]), (), (), 10**6)
    assert time.perf_counter() - start < 1


def test_non_periodic_rank22_action_is_rejected_by_its_minimal_polynomial():
    # the minimal polynomial (x - 1)(x^2 - 3x + 1) of this action has a
    # factor that is not cyclotomic, so no power of it is the identity
    rows = [[0] * 22 for _ in range(22)]
    rows[0][:2], rows[1][:2] = [2, 1], [1, 1]
    for i in range(2, 22):
        rows[i][i] = 1
    action = IntMatrix.from_rows(rows)
    start = time.perf_counter()
    with pytest.raises(UnsupportedAction, match="^free action is not periodic of order 1000000$"):
        BlockEndo(action, (), (), 10**6)
    with pytest.raises(UnsupportedParameter, match=r"^sigma\^1000000 is not the identity$"):
        GLattice(Lattice(IntMatrix.zeros(22, 22)), action, 10**6)
    assert time.perf_counter() - start < 0.1


def _rank22_with_block(block):
    """The rank-22 identity with its last rows and columns replaced by block."""
    k = len(block)
    rows = [[int(i == j) for j in range(22)] for i in range(22)]
    for i, row in enumerate(block):
        rows[22 - k + i][22 - k:] = row
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize("action", [
    _rank22_with_block([[1, 1], [0, 1]]),  # unipotent: every power has trace 22
    _rank22_with_block([[-1, 1], [0, -1]]),  # its square is unipotent
])
def test_non_semisimple_action_is_rejected_at_once(monkeypatch, tmp_path, capsys, action):
    calls = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b)
    )
    with pytest.raises(UnsupportedParameter, match=r"^sigma\^1000000 is not the identity$"):
        GLattice(Lattice(IntMatrix.zeros(22, 22)), action, 10**6)
    assert len(calls) <= 10
    calls.clear()
    with pytest.raises(UnsupportedAction, match="^free action is not periodic of order 1000000$"):
        BlockEndo(action, (), (), 10**6)
    assert len(calls) <= 10
    calls.clear()
    doc = {"schema": "k3ord/1", "payload": {
        "gram": [["0"] * 22] * 22,
        "action": [[str(x) for x in row] for row in action.to_rows()],
        "order": str(10**6),
    }}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["h1", str(path), "--format", "json"]) == 2
    assert len(calls) <= 10
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert "sigma^1000000 is not the identity" in check["error"]


def test_geometric_sum_matches_plain_sum():
    for m in range(2, 41):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        for u in units:
            for n in range(1, 2 * len(units) + 1):
                if pow(u, n, m) == 1 % m:
                    assert geometric_sum(u, n, m) == sum(u**i for i in range(n)) % m


@pytest.mark.parametrize("command, payload, computed", [
    (["fibration", "h1"], {}, {"invariant_factors": []}),
    (["twist", "check"], {"element": {"finite": ["1"]}}, {"cocycle": True, "coboundary": True}),
])
def test_finite_norms_do_not_walk_the_orbit(tmp_path, capsys, command, payload, computed):
    # an eight-digit modulus in a three-line document: the orbit of 5 has
    # 5,000,009 points, its norm takes O(log order) products
    m = 10_000_019
    doc = {"schema": "k3ord/1", "payload": {
        "model": {"finite_cyclic": [str(m)]},
        "endo": {"order": str(m - 1), "finite_action": ["5"]},
        **payload,
    }}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main([*command, str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert computed.items() <= check["computed"].items()


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@pytest.mark.parametrize("command", [["twist", "check"], ["fibration", "h1"]])
def test_elliptic_cycles_do_not_walk_whole_elements(tmp_path, capsys, command):
    # 100 summands in cycles of the first nine primes: a whole element's
    # orbit has 223,092,870 points, each cycle is walked once
    order = math.prod(PRIMES)
    pairs, points = [], []
    for p in PRIMES:
        offset = len(pairs)
        for k in range(p):
            pairs.append(["1", str(offset + (k + 1) % p)])
            points.append({"symbol": "p", "order": "1000", "mult": str(k + 1)})
    doc = {"schema": "k3ord/1", "payload": {
        "model": {"elliptic_count": str(len(pairs))},
        "endo": {"order": str(order), "elliptic_action": pairs},
        "element": {"elliptic": points},
    }}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main([*command, str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    # a cycle of length p carries 1 + 2 + ... + p once around, order/p times
    sums = [p * (p + 1) // 2 for p in PRIMES]
    expected = {
        "twist-check": {
            "cocycle": all(order // p * t % 1000 == 0 for p, t in zip(PRIMES, sums)),
            "coboundary": all(t % 1000 == 0 for t in sums),
        },
        "fibration-h1": {
            "elliptic_factors": [str(order // p) for p in PRIMES for _ in "xy"],
        },
    }[check["kind"]]
    assert expected.items() <= check["computed"].items()


def test_cocycle_golden_cases():
    model = AbGroupModel(elliptic_count=1)
    zero = GroupElement(model, elliptic=(None,))
    assert cocycle_check(trivial_endo(model, 2), zero)
    for n in (2, 3, 4, 6):
        s = GroupElement(model, elliptic=(TorsionPoint("eps", n),))
        assert cocycle_check(trivial_endo(model, n), s)
    # a point of order 4 does not survive the order-2 norm
    s4 = GroupElement(model, elliptic=(TorsionPoint("eps", 4),))
    assert not cocycle_check(trivial_endo(model, 2), s4)
    # a free generator under the trivial action has nonzero norm
    free_model = AbGroupModel(free_rank=1)
    one = GroupElement(free_model, free=(1,))
    assert not cocycle_check(trivial_endo(free_model, 2), one)


def test_twist_classes_on_trivial_actions():
    """An exact order-n point twists the trivial order-n action nontrivially."""
    for n in (2, 4, 3, 6):
        model = AbGroupModel(elliptic_count=1)
        endo = trivial_endo(model, n)
        s = GroupElement(model, elliptic=(TorsionPoint("eps", n),))
        assert cocycle_check(endo, s)
        assert not coboundary_check(endo, s)


def test_graph_of_negation_twist():
    """The graph section is a nontrivial class; twice it is a coboundary."""
    model = AbGroupModel(free_rank=1, elliptic_count=1)
    endo = BlockEndo(IntMatrix.from_rows([[-1]]), (), ((-1, 0),), 2)
    graph = GroupElement(model, free=(1,), elliptic=(None,))
    assert cocycle_check(endo, graph)
    assert not coboundary_check(endo, graph)
    assert coboundary_check(endo, GroupElement(model, free=(2,), elliptic=(None,)))


def test_negated_elliptic_summand_is_2_divisible():
    """Under negation every 2-torsion twist is a coboundary."""
    model = AbGroupModel(elliptic_count=1)
    endo = negation_endo(model)
    s = GroupElement(model, elliptic=(TorsionPoint("eps", 2),))
    assert cocycle_check(endo, s)
    assert coboundary_check(endo, s)


def test_coboundary_on_swapped_pair():
    model = AbGroupModel(elliptic_count=2)
    p = TorsionPoint("p", 2)
    # order 2: the swapped pair is an induced module, every cocycle bounds
    swap = BlockEndo(IntMatrix.identity(0), (), ((1, 1), (1, 0)), 2)
    both = GroupElement(model, elliptic=(p, p))
    assert cocycle_check(swap, both)
    assert coboundary_check(swap, both)
    single = GroupElement(model, elliptic=(p, None))
    assert not cocycle_check(swap, single)
    # the same swap inside an order-4 action has H^1 = (Z/2)^2, and a
    # single 2-torsion coordinate is a nontrivial class
    swap_in_4 = BlockEndo(IntMatrix.identity(0), (), ((1, 1), (1, 0)), 4)
    assert cocycle_check(swap_in_4, single)
    assert not coboundary_check(swap_in_4, single)
    assert coboundary_check(swap_in_4, both)


def _random_element(model, rng):
    return GroupElement(
        model,
        tuple(rng.randint(-5, 5) for _ in range(model.free_rank)),
        tuple(rng.randint(0, m - 1) for m in model.finite_cyclic),
        tuple(
            TorsionPoint("p", 8, rng.randint(0, 7))
            for _ in range(model.elliptic_count)
        ),
    )


def _plain(endo, x):
    """(action, moduli, element) as the plain tuples of `oracles`."""
    action = (endo.free_action.to_rows(), endo.finite_action, endo.elliptic_action)
    points = tuple(p and (p.symbol, p.order, p.mult) for p in x.elliptic)
    return action, x.model.finite_cyclic, (x.free, x.finite, points)


def _element(model, plain):
    free, finite, points = plain
    return GroupElement(model, free, finite, tuple(p and TorsionPoint(*p) for p in points))


def test_differences_are_always_trivial_twists():
    """s = t - sigma(t) passes the cocycle check and the coboundary check."""
    rng = random.Random(20260814)
    model = AbGroupModel(free_rank=2, finite_cyclic=(6,), elliptic_count=2)
    endo = BlockEndo(
        IntMatrix.from_rows([[0, -1], [1, 0]]), (5,), ((1, 1), (-1, 0)), 4
    )
    for _ in range(50):
        s = _element(model, minus_image(*_plain(endo, _random_element(model, rng))))
        assert cocycle_check(endo, s)
        assert coboundary_check(endo, s)


def test_twist_check_names_both_orders_of_unrelated_points():
    """A swap carries p of order 3 onto p of order 2; the error says which."""
    payload = {
        "model": {"elliptic_count": "2"},
        "endo": {"order": "2", "elliptic_action": [["1", "1"], ["1", "0"]]},
        "element": {"elliptic": [{"symbol": "p", "order": "2"}, {"symbol": "p", "order": "3"}]},
    }
    outcome = run_check("mixed", "twist-check", payload)
    assert outcome.verdict == ERROR
    assert outcome.error == (
        "UnsupportedAction: cannot add unrelated symbolic points p of order 3 "
        "and p of order 2"
    )


def test_twist_check_reads_free_action_as_written():
    """`free_action` rows are sigma's rows: sigma(x) = A.x, not A^T.x.

    A = [[0, -1], [1, -1]] is the companion matrix of Phi_3, so
    1 + sigma + sigma^2 = 0 and every free element is a cocycle.
    D = 1 - A = [[1, 1], [-1, 2]] has det 3 and columns (1, -1) = (1, 2)
    mod 3, so im D is the index-3 sublattice over the line through (1, 2)
    mod 3: (1, 2) = D.(0, 1) is a coboundary and (1, 1) is not.  Read
    transposed, im D would lie over the line through (1, 1) instead.
    """
    action = (((0, -1), (1, -1)), (), ())
    # the oracle's action on plain tuples agrees with the derivation
    assert minus_image(action, (), ((0, 1), (), ())) == ((1, 2), (), ())
    payload = {
        "model": {"free_rank": "2"},
        "endo": {"order": "3", "free_action": [["0", "-1"], ["1", "-1"]]},
    }
    for free, coboundary in ((["1", "2"], True), (["1", "1"], False)):
        assert is_zero_element(orbit_sum(action, (), (tuple(map(int, free)), (), ()), 3))
        outcome = run_check("phi3", "twist-check", dict(payload, element={"free": free}))
        assert outcome.computed == {"cocycle": True, "coboundary": coboundary}, free


# --- the group law on numerical sections --------------------------------------------


def _exceptional(i):
    return tuple(1 if j == i else 0 for j in range(10))


MODEL = surface_rational_elliptic()
FIBRE = tuple(int(-c) for c in MODEL.k_class)
ZERO_SECTION = _exceptional(9)

SECTION_POOL = (
    [_exceptional(i) for i in range(1, 10)]
    + [
        (1, -1, -1, 0, 0, 0, 0, 0, 0, 0),
        (1, 0, 0, -1, 0, -1, 0, 0, 0, 0),
        (2, -1, -1, -1, -1, -1, 0, 0, 0, 0),
        (2, 0, -1, -1, 0, -1, -1, -1, 0, 0),
    ]
)


def _is_section(c):
    return (
        pair(MODEL.pic, c, c) == -1
        and pair(MODEL.pic, c, FIBRE) == 1
    )


def test_section_pool_is_valid():
    assert all(_is_section(c) for c in SECTION_POOL)


def test_mw_sum_identity():
    for c in SECTION_POOL[:5]:
        assert mw_sum_rational_elliptic(ZERO_SECTION, c, ZERO_SECTION) == c
        assert mw_sum_rational_elliptic(c, ZERO_SECTION, ZERO_SECTION) == c


def test_mw_sum_of_disjoint_exceptionals():
    result = mw_sum_rational_elliptic(
        _exceptional(1), _exceptional(2), ZERO_SECTION
    )
    # alpha = 0 + 0 - 0 + 1 = 1, so the class is E1 + E2 - E9 + F
    expected = tuple(
        a + b - c + f
        for a, b, c, f in zip(
            _exceptional(1),
            _exceptional(2),
            ZERO_SECTION,
            FIBRE,
        )
    )
    assert result == expected
    assert _is_section(result)


def test_mw_sum_rejects_non_sections():
    with pytest.raises(NotANumericalSection):
        mw_sum_rational_elliptic(
            (0,) * 10, _exceptional(1), ZERO_SECTION
        )
    with pytest.raises(NotANumericalSection):
        mw_sum_rational_elliptic(
            _exceptional(1), _exceptional(2), (1,) * 10
        )
    with pytest.raises(DimensionMismatch):
        mw_sum_rational_elliptic(
            (1, 2), _exceptional(1), ZERO_SECTION
        )


@given(
    a=st.sampled_from(SECTION_POOL),
    b=st.sampled_from(SECTION_POOL),
    c=st.sampled_from(SECTION_POOL),
)
@settings(max_examples=200, deadline=None)
def test_mw_sum_is_a_commutative_group_law(a, b, c):
    ab = mw_sum_rational_elliptic(a, b, ZERO_SECTION)
    assert _is_section(ab)
    assert ab == mw_sum_rational_elliptic(b, a, ZERO_SECTION)
    left = mw_sum_rational_elliptic(ab, c, ZERO_SECTION)
    right = mw_sum_rational_elliptic(
        a, mw_sum_rational_elliptic(b, c, ZERO_SECTION), ZERO_SECTION
    )
    assert left == right
