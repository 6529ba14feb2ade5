"""Extend each packaged Picard action to the full rank-22 lattice.

Walks the three stored models, extends their involutions by -1 on the
orthogonal complement, and checks the result against the packaged matrix.
Ends with the deliberately non-integral witness, which shows what failure
of integrality looks like.
"""

from k3ord import catalog
from k3ord.extension import extend_by_minus_one
from k3ord.lattices import build_K3
from k3ord.matrices import IntMatrix


def main():
    target = build_K3()
    models = {
        "p2-sextic": catalog.sextic_model(18),
        "quadric": catalog.quadric_model(),
        "hirzebruch2": catalog.hirzebruch2_model(),
    }
    for name, model in models.items():
        res = extend_by_minus_one(model.embedding, model.action)
        phi = res.num
        stored = catalog.reference_involution(name)
        g = target.gram
        print(f"{name}:")
        print(f"  integral      {res.integral}")
        print(f"  matches stored {phi == stored}")
        print(f"  phi^T G phi = G {phi.transpose() @ g @ phi == g}")
        print(f"  phi^2 = I      {phi @ phi == IntMatrix.identity(22)}")

    emb, action = catalog.nonintegral_witness()
    res = extend_by_minus_one(emb, action)
    print("non-integral witness:")
    print(f"  integral      {res.integral}")
    print(f"  common denominator of phi: {res.den}")


if __name__ == "__main__":
    main()
