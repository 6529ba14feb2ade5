"""Classify the stock orders, then tour the section-group cohomology.

The first half builds the reference order descriptors, classifies each, and
prints the canonical class with the maximality verdict.  The second half
computes twist groups for the basic fibration actions, checks one explicit
twist class, and adds two sections on the rational elliptic surface.
"""

import math

from k3ord.cohomology import GLattice
from k3ord.fibrations import (
    AbGroupModel,
    BlockEndo,
    GroupElement,
    coboundary_check,
    cocycle_check,
    h1_structured,
    mw_sum_rational_elliptic,
    negation_endo,
    trivial_endo,
)
from k3ord.lattices import Lattice
from k3ord.matrices import IntMatrix
from k3ord.orders import (
    OrderDescriptor,
    RamifiedDivisor,
    YesNoUnknown,
    classify_order,
    maximality_check,
    surface_hirzebruch,
    surface_p2,
    surface_quadric,
    surface_ruled_elliptic,
    untot_restriction,
)


def show(label, order):
    verdict = classify_order(order)
    coords = tuple(str(c) for c in verdict.k_order)
    print(
        f"{label:22} {verdict.kind.value:22} K_A={coords}"
        f"  maximality={maximality_check(order).value}"
    )


def main():
    yes = YesNoUnknown.YES
    show(
        "p2 + sextic branch",
        OrderDescriptor(surface_p2(), (RamifiedDivisor((6,), 2, yes),), 2),
    )
    show(
        "quadric + (4,4)",
        OrderDescriptor(
            surface_quadric(), (RamifiedDivisor((4, 4), 2, yes),), 2
        ),
    )
    show(
        "hirzebruch2 + 4C0+8F",
        OrderDescriptor(
            surface_hirzebruch(2), (RamifiedDivisor((4, 8), 2, yes),), 2
        ),
    )
    show("p2 unramified", OrderDescriptor(surface_p2()))
    ruled = surface_ruled_elliptic(0)
    c0 = (1, 0)
    for indices in ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)):
        ram = tuple(RamifiedDivisor(c0, e) for e in indices)
        show(f"ruled {indices}", OrderDescriptor(ruled, ram, math.lcm(*indices)))

    print()
    gl = GLattice(Lattice(IntMatrix.from_rows([[0]])), IntMatrix.identity(1), 6)
    for d in (3, 2, 1):
        cls, torsion = untot_restriction(gl, (1,), d)
        print(f"degree-6 branch, {d} components: class {cls}, torsion {torsion}")

    print()
    model = AbGroupModel(elliptic_count=1)
    for n in range(2, 7):
        res = h1_structured(trivial_endo(model, n))
        print(f"trivial action, order {n}: h1 invariant factors {res.invariant_factors}")
    res = h1_structured(negation_endo(model))
    print(f"negation action:          h1 invariant factors {res.invariant_factors}")

    graph_model = AbGroupModel(free_rank=1, elliptic_count=1)
    graph_endo = BlockEndo(graph_model, IntMatrix.from_rows([[-1]]), (), ((-1, 0),), 2)
    res = h1_structured(graph_endo)
    print(f"graph of negation:        h1 invariant factors {res.invariant_factors}")
    twist = GroupElement(graph_model, free=(1,), elliptic=(None,))
    print(
        f"graph section twist: cocycle {cocycle_check(graph_endo, twist)},"
        f" coboundary {coboundary_check(graph_endo, twist)}"
    )

    print()
    e1 = (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    e2 = (0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
    zero = (0,) * 9 + (1,)
    total = mw_sum_rational_elliptic(e1, e2, zero)
    print(f"E1 + E2 in the section group: {total}")


if __name__ == "__main__":
    main()
