"""Prebuilt double-cover models shipped with the package.

Three families of K3 double covers are packaged here, each as a Picard
lattice embedded in the rank 22 lattice, together with the involution it
carries and the ingredients of the orders built from it:

  * ``sextic_model(n)``, ranks n = 3..18: covers of the plane branched on a
    degree six curve, with the involution rule sigma(s_i) = s1 + s2 - s_i;
  * ``quadric_model()``: a rank 4 cover of the smooth quadric surface;
  * ``hirzebruch2_model()``: a rank 5 cover of the degree 2 even Hirzebruch
    surface.

Gram matrices, embedding matrices, the fixed actions of the last two models,
and the reference rank 22 involutions are frozen JSON data files under
``k3ord/data``; everything n-dependent is generated from the closed rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .embeddings import Embedding
from .errors import UnsupportedParameter
from .lattices import Lattice, build_H, build_K3, direct_sum
from .matrices import IntMatrix, IntVector

RANK_RANGE = range(3, 19)

_MODEL_FILES = {
    "p2-sextic": "p2_sextic.json",
    "quadric": "quadric.json",
    "hirzebruch2": "hirzebruch2.json",
}


@dataclass(frozen=True)
class CoverModel:
    """A Picard lattice in the rank 22 lattice with its involution.

    ``ample`` is a class fixed by the action whose ampleness the divisor
    machinery can certify; ``h1_generators`` are sublattice classes whose
    cosets generate the first group cohomology of the action, one order per
    nonzero combination.
    """

    name: str
    pic: Lattice
    embedding: Embedding
    action: IntMatrix
    ample: IntVector
    h1_generators: tuple[IntVector, ...]


@lru_cache(maxsize=None)
def _data(filename: str) -> dict:
    path = resources.files("k3ord").joinpath("data", filename)
    return json.loads(path.read_text())


def q_gram(n: int) -> IntMatrix:
    """Leading n x n block of the rank 18 pairing matrix, 3 <= n <= 18."""
    if n not in RANK_RANGE:
        raise UnsupportedParameter(f"rank {n} outside 3..18")
    full = _data("p2_sextic.json")["gram"]
    return IntMatrix.from_rows([row[:n] for row in full[:n]])


def sextic_action(n: int) -> IntMatrix:
    """The involution s_i -> s1 + s2 - s_i as a matrix (column convention)."""
    if n not in RANK_RANGE:
        raise UnsupportedParameter(f"rank {n} outside 3..18")
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[0][j] += 1
        rows[1][j] += 1
        rows[j][j] -= 1
    return IntMatrix.from_rows(rows)


def sextic_model(n: int) -> CoverModel:
    """The rank n model over the plane, 3 <= n <= 18."""
    gram = q_gram(n)
    emb_cols = _data("p2_sextic.json")["embedding"]
    matrix = IntMatrix.from_rows([row[:n] for row in emb_cols])
    pic = Lattice(gram)
    ample = tuple([1, 1] + [0] * (n - 2))
    gens = []
    for i in range(2, n):
        g = [0] * n
        g[0], g[i] = 1, -1
        gens.append(tuple(g))
    return CoverModel(
        name=f"p2-sextic-n{n:02d}",
        pic=pic,
        embedding=Embedding(pic, build_K3(), matrix),
        action=sextic_action(n),
        ample=ample,
        h1_generators=tuple(gens),
    )


def _fixed_model(name: str, ample: IntVector, gens: tuple[IntVector, ...]) -> CoverModel:
    data = _data(_MODEL_FILES[name])
    pic = Lattice(IntMatrix.from_rows(data["gram"]))
    return CoverModel(
        name=name,
        pic=pic,
        embedding=Embedding(pic, build_K3(), IntMatrix.from_rows(data["embedding"])),
        action=IntMatrix.from_rows(data["action"]),
        ample=ample,
        h1_generators=gens,
    )


def quadric_model() -> CoverModel:
    """The rank 4 model over the quadric surface."""
    return _fixed_model("quadric", (1, 1, 1, 0), ((0, 1, 0, -1),))


def hirzebruch2_model() -> CoverModel:
    """The rank 5 model over the degree 2 even Hirzebruch surface."""
    return _fixed_model("hirzebruch2", (1, 1, 3, 3, 0), ((0, 0, 1, 0, -1),))


def reference_involution(name: str) -> IntMatrix:
    """The packaged rank 22 involution for one of the three model names."""
    if name not in _MODEL_FILES:
        raise UnsupportedParameter(
            f"no reference involution for {name!r}; "
            f"known: {', '.join(sorted(_MODEL_FILES))}"
        )
    return IntMatrix.from_rows(_data(_MODEL_FILES[name])["involution"])


def nonintegral_witness() -> tuple[Embedding, IntMatrix]:
    """An embedding and action whose extension is provably non-integral.

    The sublattice of H + H spanned by u1, 2*v1, u2, v2 has index 2; swapping
    the first two of those generators is an isometry of it, but the rational
    extension sends v1 to u1/2, so the integrality check must fail.
    """
    target = direct_sum(build_H(), build_H())
    matrix = IntMatrix.diagonal([1, 2, 1, 1])
    source = Lattice(matrix.transpose() @ target.gram @ matrix)
    action = IntMatrix.from_rows([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])
    return Embedding(source, target, matrix), action
