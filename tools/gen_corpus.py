"""Regenerate the corpus of worked examples.

Payload matrices come from the packaged reference data in k3ord.catalog;
expected values are the recorded results of the worked examples the
corpus pins down.  Rerun after changing either; output is canonical
JSON, so reviewing a regeneration is just reading the diff.

Usage: python3 tools/gen_corpus.py [corpus-dir]
"""

import math
import sys
from pathlib import Path

from k3ord import catalog, jsonio
from k3ord.lattices import build_H, direct_sum

SEXTIC_SOURCE = "plane sextic double cover family, rank {n} member"
QUADRIC_SOURCE = "quadric double cover worked example"
F2_SOURCE = "Hirzebruch surface double cover worked example"
WITNESS_SOURCE = "constructed witness: index-2 sublattice whose swap extends non-integrally"
ORDER_SOURCE = "order canonical class worked family"
FIBRATION_SOURCE = "section group twist worked family"
BIELLIPTIC_SOURCE = "bielliptic twist family, cyclic type {t}"


def case(case_id, checks, expected):
    scenario = {
        "schema": jsonio.SCHEMA,
        "id": case_id,
        "checks": checks,
    }
    expected_doc = {"schema": jsonio.SCHEMA, "expected": expected}
    return case_id, scenario, expected_doc


def check(name, kind, payload):
    return {"name": name, "kind": kind, "payload": payload}


def cover_case(case_id, model, order_two, source, quotient_expected, ample_expected, golden=None):
    """The five standard checks for one double-cover Picard model."""
    gram = model.pic.gram
    n = model.pic.rank
    embed_payload = {
        "target": "K3",
        "source_gram": gram,
        "columns": model.embedding.matrix,
    }
    isometry_payload = dict(embed_payload, action=model.action)
    class_names = [
        (f"gen{i + 1}", list(v)) for i, v in enumerate(model.h1_generators)
    ]
    h1_payload = {
        "gram": gram,
        "action": model.action,
        "order": 2,
        "classes": [{"name": nm, "vector": v} for nm, v in class_names],
    }
    quotient_payload = {"gram": gram, "action": model.action, "order": 2}
    ample_payload = {"gram": gram, "candidate": list(model.ample)}
    checks = [
        check("embedding", "embedding-check", embed_payload),
        check("isometry", "isometry-extend", isometry_payload),
        check("h1", "h1", h1_payload),
        check("quotient", "quotient-pic", quotient_payload),
        check("ample", "ample-cert", ample_payload),
    ]
    pos, neg = order_two
    isometry_expected = {
        "integral": True,
        "orthogonal": True,
        "involutive": True,
        "source": source,
    }
    if golden is not None:
        isometry_expected["matrix"] = golden
    expected = {
        "embedding": {
            "isometric": True,
            "primitive": True,
            "source_signature": {
                "positive": pos,
                "negative": neg,
                "zero": 0,
            },
            "source": source,
        },
        "isometry": isometry_expected,
        "h1": {
            "invariant_factors": [2] * len(class_names),
            "free_rank": 0,
            "classes": {
                nm: {"cocycle": True, "coboundary": False}
                for nm, _ in class_names
            },
            "source": source,
        },
        "quotient": dict(quotient_expected, source=source),
        "ample": dict(ample_expected, source=source),
    }
    return case(case_id, checks, expected)


def sextic_cases():
    for n in catalog.RANK_RANGE:
        model = catalog.sextic_model(n)
        source = SEXTIC_SOURCE.format(n=n)
        golden = catalog.reference_involution("p2-sextic") if n == 18 else None
        yield cover_case(
            f"sextic-n{n:02d}",
            model,
            (1, n - 1),
            source,
            {"fixed_gram": [[2]], "half_gram": [[1]]},
            {
                "passed": True,
                "self_intersection": 2,
                "pairings": [1] * n,
            },
            golden=golden,
        )


def quadric_case():
    return cover_case(
        "quadric",
        catalog.quadric_model(),
        (1, 3),
        QUADRIC_SOURCE,
        {"fixed_gram": [[0, 2], [2, 0]], "half_gram": [[0, 1], [1, 0]]},
        {
            "passed": True,
            "self_intersection": 4,
            "pairings": [2, 1, 1, 1],
        },
        golden=catalog.reference_involution("quadric"),
    )


def f2_case():
    return cover_case(
        "f2",
        catalog.hirzebruch2_model(),
        (1, 4),
        F2_SOURCE,
        {"fixed_gram": [[-4, 2], [2, 0]], "half_gram": [[-2, 1], [1, 0]]},
        {
            "passed": True,
            "self_intersection": 8,
            "pairings": [1] * 5,
        },
        golden=catalog.reference_involution("hirzebruch2"),
    )


def witness_case():
    embedding, action = catalog.nonintegral_witness()
    ambient = direct_sum(build_H(), build_H())
    payload = {
        "target": ambient.gram,
        "source_gram": embedding.source.gram,
        "columns": embedding.matrix,
        "action": action,
    }
    return case(
        "witness-nonintegral",
        [check("extension", "isometry-extend", payload)],
        {
            "extension": {
                "integral": False,
                "orthogonal": True,
                "involutive": True,
                "source": WITNESS_SOURCE,
            }
        },
    )


ZERO = {"num": "0", "den": "1"}


def frac(num, den=1):
    return {"num": str(num), "den": str(den)}


def order_case(case_id, surface, ramification, degree, expected):
    payload = {
        "surface": surface,
        "ramification": ramification,
        "cover_degree": degree,
    }
    return case(
        case_id,
        [check("classify", "order-classify", payload)],
        {"classify": dict(expected, source=ORDER_SOURCE)},
    )


def ramified(coords, e, irreducible=None):
    entry = {"class": list(coords), "e": e}
    if irreducible is not None:
        entry["cover_irreducible"] = irreducible
    return entry


def order_cases():
    ncy = "numerically-calabi-yau"
    yield order_case(
        "orders-p2-sextic",
        "p2",
        [ramified([6], 2, "yes")],
        2,
        {
            "kind": ncy,
            "canonical_class": [ZERO],
            "anti_square": ZERO,
            "pairings": [ZERO],
            "ramification_transfer": [2],
            "overlap_matches_degree": True,
            "maximality": "maximal",
        },
    )
    yield order_case(
        "orders-p2-unramified",
        "p2",
        [],
        1,
        {
            "kind": "del-pezzo",
            "canonical_class": [frac(-3)],
            "anti_square": frac(9),
            "pairings": [frac(3)],
            "ramification_transfer": [],
            "overlap_matches_degree": True,
            "maximality": "azumaya",
        },
    )
    yield order_case(
        "orders-p2-cubic",
        "p2",
        [ramified([3], 2)],
        2,
        {
            "kind": "del-pezzo",
            "canonical_class": [frac(-3, 2)],
            "anti_square": frac(9, 4),
            "pairings": [frac(3, 2)],
            "maximality": "unknown",
        },
    )
    yield order_case(
        "orders-quadric-44",
        "quadric",
        [ramified([4, 4], 2, "yes")],
        2,
        {
            "kind": ncy,
            "canonical_class": [ZERO, ZERO],
            "anti_square": ZERO,
            "pairings": [ZERO, ZERO],
            "overlap_matches_degree": True,
            "maximality": "maximal",
        },
    )
    yield order_case(
        "orders-f2-4c08f",
        "hirzebruch-2",
        [ramified([4, 8], 2, "yes")],
        2,
        {
            "kind": ncy,
            "canonical_class": [ZERO, ZERO],
            "anti_square": ZERO,
            "pairings": [ZERO, ZERO],
            "overlap_matches_degree": True,
            "maximality": "maximal",
        },
    )
    vectors = {
        "orders-ruled-2222": (2, 2, 2, 2),
        "orders-ruled-333": (3, 3, 3),
        "orders-ruled-244": (2, 4, 4),
        "orders-ruled-236": (2, 3, 6),
    }
    for case_id, indices in vectors.items():
        degree = math.lcm(*indices)
        yield order_case(
            case_id,
            "ruled-elliptic-0",
            [ramified([1, 0], e) for e in indices],
            degree,
            {
                "kind": ncy,
                "canonical_class": [ZERO, ZERO],
                "anti_square": ZERO,
                "pairings": [ZERO, ZERO],
                "ramification_transfer": sorted(indices),
                "overlap_matches_degree": True,
            },
        )


def fibration_cases():
    for n in range(2, 7):
        payload = {
            "model": {"elliptic_count": 1},
            "endo": {"order": n},
        }
        yield case(
            f"fibration-trivial-n{n}",
            [check("h1", "fibration-h1", payload)],
            {
                "h1": {
                    "invariant_factors": [n, n],
                    "free_rank": 0,
                    "elliptic_factors": [n, n],
                    "source": FIBRATION_SOURCE,
                }
            },
        )
    negation = {
        "model": {"elliptic_count": 1},
        "endo": {"order": 2, "elliptic_action": [[-1, 0]]},
    }
    yield case(
        "fibration-negation",
        [check("h1", "fibration-h1", negation)],
        {
            "h1": {
                "invariant_factors": [],
                "free_rank": 0,
                "elliptic_factors": [],
                "source": FIBRATION_SOURCE,
            }
        },
    )
    graph = {
        "model": {"free_rank": 1, "elliptic_count": 1},
        "endo": {
            "order": 2,
            "free_action": [[-1]],
            "elliptic_action": [[-1, 0]],
        },
    }
    yield case(
        "fibration-graph-negation",
        [check("h1", "fibration-h1", graph)],
        {
            "h1": {
                "invariant_factors": [2],
                "free_rank": 0,
                "free_generators": [[1]],
                "elliptic_factors": [],
                "source": FIBRATION_SOURCE,
            }
        },
    )


def bielliptic_cases():
    for cyclic_type, n in ((1, 2), (3, 4), (5, 3), (7, 6)):
        payload = {
            "model": {"elliptic_count": 1},
            "endo": {"order": n},
            "element": {
                "elliptic": [{"symbol": "eps", "order": n, "mult": 1}]
            },
        }
        yield case(
            f"bielliptic-type{cyclic_type}",
            [check("twist", "twist-check", payload)],
            {
                "twist": {
                    "cocycle": True,
                    "coboundary": False,
                    "source": BIELLIPTIC_SOURCE.format(t=cyclic_type),
                }
            },
        )


def all_cases():
    yield from sextic_cases()
    yield quadric_case()
    yield f2_case()
    yield witness_case()
    yield from order_cases()
    yield from fibration_cases()
    yield from bielliptic_cases()


def main(argv):
    corpus_dir = Path(argv[1]) if len(argv) > 1 else Path("corpus")
    count = 0
    for case_id, scenario, expected in all_cases():
        directory = corpus_dir / case_id
        directory.mkdir(parents=True, exist_ok=True)
        for name, doc in (("scenario.json", scenario), ("expected.json", expected)):
            text = jsonio.dumps_canonical(jsonio.encode(doc))
            (directory / name).write_text(text, encoding="utf-8")
        count += 1
    print(f"wrote {count} cases under {corpus_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
