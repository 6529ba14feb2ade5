"""Tour of the double-cover models: signatures, twists, ample certificates.

For each family member this prints the signature of the Picard form, whether
the packaged embedding into the rank-22 lattice is primitive, the first
cohomology of the cover involution, and the ample certificate for the stored
polarization.  The two fixed-rank models also show their half-Gram quotients.
"""

from k3ord import catalog
from k3ord.cohomology import GLattice, h1, half_gram_quotient
from k3ord.divisors import nakai_certificate
from k3ord.embeddings import is_primitive
from k3ord.matrices import IntMatrix, signature


def gens_for(rank):
    basis = IntMatrix.identity(rank)
    return [basis.col(i) for i in range(rank)]


def describe(label, model, order=2):
    gl = GLattice(model.pic, model.action, order)
    res = h1(gl)
    cert = nakai_certificate(
        model.pic, model.ample, gens_for(model.pic.rank)
    )
    sig = signature(model.pic.gram)
    factors = "x".join(f"Z/{d}" for d in res.invariant_factors) or "0"
    print(
        f"{label:12} signature {sig[:2]}  primitive {is_primitive(model.embedding)}"
        f"  h1 {factors:18} ample s.s={cert.self_int} passed={cert.passed}"
    )
    return gl


def main():
    for n in catalog.RANK_RANGE:
        describe(f"cover n={n}", catalog.sextic_model(n))

    quadric = catalog.quadric_model()
    gl = describe("quadric", quadric)
    print(f"             half-Gram quotient {half_gram_quotient(gl).gram.entries}")

    f2 = catalog.hirzebruch2_model()
    gl = describe("hirzebruch2", f2)
    print(f"             half-Gram quotient {half_gram_quotient(gl).gram.entries}")


if __name__ == "__main__":
    main()
