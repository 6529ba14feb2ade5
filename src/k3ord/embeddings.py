"""Isometric embeddings of lattices and their orthogonal complements.

An embedding is stored as an integer matrix whose columns are the images of
the source basis vectors in the target basis.  Three questions about an
embedding are answered here exactly:

  * is it isometric (does it carry the source form to the target form),
  * is it primitive (is the quotient target/image torsion free),
  * what is its orthogonal complement inside the target.

Primitivity is decided by one row echelon form of the embedding matrix P,
m x n: with W.P = [T; 0] for a unimodular W, the quotient Z^m / im P is
Z^n / T.Z^n + Z^(m-n), so the image is a direct summand exactly when there
are n pivots and each is 1.  The complement is the saturated integer
kernel of P^T G, so it comes out in a canonical basis and is itself
primitive by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch
from .lattices import Lattice
from .matrices import IntMatrix, _echelon, det, integer_kernel, is_congruence


@dataclass(frozen=True)
class Embedding:
    """A linear map of lattices, columns = images of source basis vectors.

    The constructor checks shapes only; isometry is a separate question so
    that candidate maps can be represented and then tested.  For the matrix
    P and the target form G it carries M = P^T G and the pulled-back form
    Q = M P, each formed once, when first read.
    """

    source: Lattice
    target: Lattice
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise DimensionMismatch(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.target.rank}x{self.source.rank}"
            )

    @cached_property
    def m(self) -> IntMatrix:
        return self.matrix.transpose() @ self.target.gram

    @cached_property
    def q(self) -> IntMatrix:
        return self.m @ self.matrix


@dataclass(frozen=True)
class ComplementResult:
    """Orthogonal complement of an embedded lattice.

    complement.matrix columns span everything in the target pairing to zero
    with the image.  pic_plus_t_det is det[P | T] when that concatenation is
    square, and 0 otherwise; a nonzero value certifies that image + complement
    has finite index in the target.
    """

    complement: Embedding
    pic_plus_t_det: int


def check_isometric(e: Embedding) -> bool:
    """True iff P^T G_target P equals G_source exactly, by `is_congruence`.

    >>> from .lattices import build_H, Lattice
    >>> amb = build_H()
    >>> sub = Lattice(IntMatrix.from_rows([[0, 2], [2, 0]]))
    >>> check_isometric(Embedding(sub, amb, IntMatrix.from_rows([[1, 0], [0, 2]])))
    True
    """
    return is_congruence(e.matrix, e.target.gram, e.source.gram)


def is_primitive(e: Embedding) -> bool:
    """True iff target/image is torsion free: the echelon form of the
    matrix has a pivot in every column and each pivot is 1, as det T is
    their product (see the module docstring).  The first pivot that is
    not 1 decides.

    >>> from .lattices import build_H
    >>> p = IntMatrix.from_rows([[2], [4]])
    >>> is_primitive(Embedding(Lattice(IntMatrix.zeros(1, 1)), build_H(), p))
    False
    """
    rows, pivots = [list(r) for r in e.matrix.to_rows()], 0
    for k, j in enumerate(_echelon(rows, e.matrix.cols, [])):
        if rows[k][j] != 1:
            return False
        pivots = k + 1
    return pivots == e.matrix.cols


def orthogonal_complement(e: Embedding) -> ComplementResult:
    """The saturated sublattice pairing to zero with the image of e."""
    t = integer_kernel(e.m)
    gram_t = t.transpose() @ e.target.gram @ t
    complement = Embedding(Lattice(gram_t), e.target, t)
    frame = e.matrix.hstack(t)
    d = det(frame) if frame.is_square else 0
    return ComplementResult(complement=complement, pic_plus_t_det=d)
