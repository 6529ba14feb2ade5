"""Scenario checks, case reports, and corpus execution.

A corpus case is a directory holding scenario.json (a named list of
checks, each of one kind) and optionally expected.json (expected values
keyed by check name).  Each check runs one library computation and the
runner compares only the fields the expected block mentions, so a case
can pin down exactly the values a worked example prints.

Verdicts are Pass, Fail (with a structured field diff), or Error (the
computation or the file itself was rejected).  Reports are plain JSON
trees through jsonio, deterministic byte for byte; timing is opt-in
because timestamps would break that.
"""

import time
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from . import jsonio
from .cohomology import GLattice, _half_gram, fixed_sublattice, h1, norm_and_diff
from .divisors import nakai_certificate
from .embeddings import Embedding, check_isometric, is_primitive
from .errors import K3OrdError, MissingCorpus, SchemaError
from .extension import extend_by_minus_one
from .fibrations import (
    AbGroupModel,
    BlockEndo,
    GroupElement,
    TorsionPoint,
    cocycle_check,
    coboundary_check,
    h1_structured,
)
from .jsonio import (
    as_dict,
    as_int,
    as_int_matrix,
    as_int_vector,
    as_fraction_vector,
    as_list,
    as_str,
    encode,
    require,
)
from .lattices import Lattice, build_K3
from .matrices import IntMatrix, signature, solve_columns
from .orders import (
    OrderDescriptor,
    RamifiedDivisor,
    YesNoUnknown,
    classify_order,
    maximality_check,
    overlap_applicable,
    ramification_transfer,
    surface_hirzebruch,
    surface_p2,
    surface_quadric,
    surface_rational_elliptic,
    surface_ruled_elliptic,
)

PASS = "Pass"
FAIL = "Fail"
ERROR = "Error"

# expected-block fields that annotate rather than constrain
ANNOTATION_KEYS = frozenset({"source", "note"})


def _ambient(node) -> Lattice:
    if node == "K3":
        return build_K3()
    return Lattice(as_int_matrix(node, "target gram"))


def _square_action(node, rank: int, what: str = "action") -> IntMatrix:
    action = as_int_matrix(node, what)
    if action.rows != rank or action.cols != rank:
        raise SchemaError(
            f"{what} is {action.rows}x{action.cols} on a rank {rank} lattice"
        )
    return action


def _embedding_from(payload: dict) -> Embedding:
    target = _ambient(require(payload, "target", "payload"))
    source = Lattice(as_int_matrix(require(payload, "source_gram", "payload")))
    columns = as_int_matrix(require(payload, "columns", "payload"))
    if columns.rows != target.rank or columns.cols != source.rank:
        raise SchemaError(
            f"columns are {columns.rows}x{columns.cols}, expected "
            f"{target.rank}x{source.rank}"
        )
    return Embedding(source, target, columns)


def _run_signature(payload: dict):
    gram = as_int_matrix(require(payload, "gram", "payload"))
    if not gram.is_square:
        raise SchemaError("gram matrix must be square")
    pos, neg, zero = signature(gram)
    return {"positive": pos, "negative": neg, "zero": zero}, ()


def _run_embedding_check(payload: dict):
    emb = _embedding_from(payload)
    pos, neg, zero = signature(emb.source.gram)
    computed = {
        "isometric": check_isometric(emb),
        "primitive": is_primitive(emb),
        "source_signature": {"positive": pos, "negative": neg, "zero": zero},
    }
    return computed, ()


def _run_isometry_extend(payload: dict):
    emb = _embedding_from(payload)
    action = _square_action(
        require(payload, "action", "payload"), emb.source.rank
    )
    result = extend_by_minus_one(emb, action)
    computed = {
        "integral": result.integral,
        "orthogonal": result.orthogonal,
        "involutive": result.involutive,
        "matrix": result.phi_integer,
    }
    return computed, result.assumptions


def _glattice_from(payload: dict) -> GLattice:
    gram = as_int_matrix(require(payload, "gram", "payload"))
    action = _square_action(require(payload, "action", "payload"), gram.rows)
    order = as_int(require(payload, "order", "payload"), "order")
    return GLattice(Lattice(gram), action, order)


def _run_h1(payload: dict):
    gl = _glattice_from(payload)
    result = h1(gl)
    computed = {
        "invariant_factors": list(result.invariant_factors),
        "free_rank": result.free_rank,
    }
    named = payload.get("classes")
    if named is not None:
        entries = {}
        for entry in as_list(named, "classes"):
            name = as_str(require(entry, "name", "class"), "class name")
            if name in entries:
                raise SchemaError(f"duplicate class name {name!r}")
            vector = as_int_vector(require(entry, "vector", "class"), "class vector")
            if len(vector) != gl.lattice.rank:
                raise SchemaError(
                    f"class {name!r} has length {len(vector)} on rank "
                    f"{gl.lattice.rank}"
                )
            entries[name] = vector
        norm, diff = norm_and_diff(gl)
        solutions = solve_columns(diff, list(entries.values()))
        computed["classes"] = {
            name: {
                "cocycle": not any(norm.mul_vec(vector)),
                "coboundary": solution is not None,
            }
            for (name, vector), solution in zip(entries.items(), solutions)
        }
    return computed, ()


def _run_quotient_pic(payload: dict):
    gl = _glattice_from(payload)
    fixed = fixed_sublattice(gl)
    half = _half_gram(gl, fixed)
    basis = [list(fixed.matrix.col(j)) for j in range(fixed.matrix.cols)]
    computed = {
        "fixed_basis": basis,
        "fixed_gram": fixed.source.gram,
        "half_gram": half.gram,
    }
    return computed, ()


def _run_ample_cert(payload: dict):
    lattice = Lattice(as_int_matrix(require(payload, "gram", "payload")))
    candidate = as_int_vector(require(payload, "candidate", "payload"), "candidate")
    if len(candidate) != lattice.rank:
        raise SchemaError(
            f"candidate has length {len(candidate)} on rank {lattice.rank}"
        )
    gens_node = payload.get("generators")
    if gens_node is None:
        gens = IntMatrix.identity(lattice.rank).to_rows()
    else:
        gens = [as_int_vector(v, "generator") for v in as_list(gens_node, "generators")]
        for i, g in enumerate(gens):
            if len(g) != lattice.rank:
                raise SchemaError(
                    f"generator {i} has length {len(g)} on rank {lattice.rank}"
                )
    cert = nakai_certificate(lattice, candidate, gens)
    computed = {
        "passed": cert.verdict.passed,
        "reason": cert.verdict.reason,
        "self_intersection": cert.self_int,
        "pairings": [c[1] for c in cert.pair_checks],
        "residual_pairings": [c[2] for c in cert.pair_checks],
    }
    return computed, cert.assumptions


_SURFACES = {
    "p2": surface_p2,
    "quadric": surface_quadric,
    "rational-elliptic": surface_rational_elliptic,
}


def _surface_by_name(name: str):
    if name in _SURFACES:
        return _SURFACES[name]()
    for prefix, builder in (
        ("hirzebruch-", surface_hirzebruch),
        ("ruled-elliptic-", surface_ruled_elliptic),
    ):
        if name.startswith(prefix):
            return builder(as_int(name[len(prefix):], "surface parameter"))
    raise SchemaError(f"unknown surface model {name!r}")


_IRREDUCIBLE = {
    "yes": YesNoUnknown.YES,
    "no": YesNoUnknown.NO,
    "unknown": YesNoUnknown.UNKNOWN,
}


def _run_order_classify(payload: dict):
    surface = _surface_by_name(
        as_str(require(payload, "surface", "payload"), "surface")
    )
    ramification = []
    for entry in as_list(payload.get("ramification", []), "ramification"):
        coords = as_fraction_vector(require(entry, "class", "divisor"), "class")
        if len(coords) != surface.rank:
            raise SchemaError(
                f"divisor class has length {len(coords)} on rank {surface.rank}"
            )
        e = as_int(require(entry, "e", "divisor"), "ramification index")
        word = as_str(entry.get("cover_irreducible", "unknown"), "cover_irreducible")
        if word not in _IRREDUCIBLE:
            raise SchemaError(f"cover_irreducible must be yes/no/unknown, got {word!r}")
        ramification.append(
            RamifiedDivisor(coords, e, _IRREDUCIBLE[word])
        )
    degree = as_int(payload.get("cover_degree", "1"), "cover_degree")
    order = OrderDescriptor(surface, tuple(ramification), degree)
    result = classify_order(order)
    indices = ramification_transfer(
        [(f"D{i}", r.e) for i, r in enumerate(ramification, start=1)]
    )
    computed = {
        "kind": result.kind,
        "canonical_class": list(result.k_order),
        "anti_square": result.anti_square,
        "pairings": list(result.pairings),
        "ramification_transfer": list(indices),
        "overlap_matches_degree": overlap_applicable(indices, degree),
        "maximality": maximality_check(order),
    }
    return computed, result.assumptions


def _model_from(node) -> AbGroupModel:
    node = as_dict(node, "model")
    return AbGroupModel(
        free_rank=as_int(node.get("free_rank", "0"), "free_rank"),
        finite_cyclic=as_int_vector(node.get("finite_cyclic", []), "finite_cyclic"),
        elliptic_count=as_int(node.get("elliptic_count", "0"), "elliptic_count"),
    )


def _endo_from(node, model: AbGroupModel) -> BlockEndo:
    node = as_dict(node, "endo")
    order = as_int(require(node, "order", "endo"), "order")
    free_node = node.get("free_action")
    if free_node is None:
        free_action = IntMatrix.identity(model.free_rank)
    else:
        free_action = _square_action(free_node, model.free_rank, "free_action")
    finite_node = node.get("finite_action")
    if finite_node is None:
        finite_action = (1,) * len(model.finite_cyclic)
    else:
        finite_action = as_int_vector(finite_node, "finite_action")
        if len(finite_action) != len(model.finite_cyclic):
            raise SchemaError(
                f"finite_action lists {len(finite_action)} multipliers for "
                f"{len(model.finite_cyclic)} summands"
            )
    elliptic_node = node.get("elliptic_action")
    if elliptic_node is None:
        elliptic_action = tuple([(1, i) for i in range(model.elliptic_count)])
    else:
        pairs = []
        for pair_node in as_list(elliptic_node, "elliptic_action"):
            pair_values = as_int_vector(pair_node, "elliptic_action entry")
            if len(pair_values) != 2:
                raise SchemaError("elliptic_action entries are [sign, image] pairs")
            pairs.append((pair_values[0], pair_values[1]))
        if len(pairs) != model.elliptic_count:
            raise SchemaError(
                f"elliptic_action lists {len(pairs)} summands for "
                f"{model.elliptic_count}"
            )
        elliptic_action = tuple(pairs)
    return BlockEndo(free_action, finite_action, elliptic_action, order)


def _run_fibration_h1(payload: dict):
    model = _model_from(require(payload, "model", "payload"))
    endo = _endo_from(require(payload, "endo", "payload"), model)
    result = h1_structured(model, endo)
    computed = {
        "invariant_factors": list(result.invariant_factors),
        "free_rank": result.free_rank,
        "finite_factors": list(result.finite_factors),
        "elliptic_factors": list(result.elliptic_factors),
        "free_generators": [list(g) for g in result.free_part.generators],
    }
    return computed, ()


def _element_from(node, model: AbGroupModel) -> GroupElement:
    node = as_dict(node, "element")
    free = node.get("free")
    finite = node.get("finite")
    points = []
    for entry in as_list(node.get("elliptic", [None] * model.elliptic_count), "elliptic"):
        if entry is None:
            points.append(None)
            continue
        entry = as_dict(entry, "elliptic point")
        points.append(
            TorsionPoint(
                symbol=as_str(require(entry, "symbol", "point"), "symbol"),
                order=as_int(require(entry, "order", "point"), "point order"),
                mult=as_int(entry.get("mult", "1"), "point multiple"),
            )
        )
    return GroupElement(
        model,
        as_int_vector(free, "free") if free is not None else (0,) * model.free_rank,
        as_int_vector(finite, "finite")
        if finite is not None
        else (0,) * len(model.finite_cyclic),
        tuple(points),
    )


def _run_twist_check(payload: dict):
    model = _model_from(require(payload, "model", "payload"))
    endo = _endo_from(require(payload, "endo", "payload"), model)
    element = _element_from(require(payload, "element", "payload"), model)
    computed = {
        "cocycle": cocycle_check(endo, element),
        "coboundary": coboundary_check(endo, element),
    }
    return computed, ()


class CheckKind(NamedTuple):
    """A check kind: its handler, its command-line words and its help line."""

    handler: Callable[[dict], tuple]
    words: tuple[str, ...]
    help: str


# The one list of check kinds.  The runner dispatches on it and the CLI
# builds one subcommand per row, in this order.
KINDS = {
    "signature": CheckKind(
        _run_signature, ("signature",), "signature of an integer Gram matrix"
    ),
    "embedding-check": CheckKind(
        _run_embedding_check,
        ("embed-check",),
        "isometry, primitivity, and signature of a lattice embedding",
    ),
    "isometry-extend": CheckKind(
        _run_isometry_extend,
        ("isometry",),
        "extend a sublattice action by -1 on its complement",
    ),
    "h1": CheckKind(_run_h1, ("h1",), "first cohomology of a cyclic lattice action"),
    "quotient-pic": CheckKind(
        _run_quotient_pic,
        ("quotient-pic",),
        "fixed sublattice and half-pairing quotient of an involution",
    ),
    "ample-cert": CheckKind(
        _run_ample_cert, ("ample",), "positivity certificate for a class"
    ),
    "order-classify": CheckKind(
        _run_order_classify,
        ("order", "classify"),
        "canonical class and type of a numerically described order",
    ),
    "fibration-h1": CheckKind(
        _run_fibration_h1,
        ("fibration", "h1"),
        "structured H^1 of a block action on a section group",
    ),
    "twist-check": CheckKind(
        _run_twist_check,
        ("twist", "check"),
        "cocycle and coboundary conditions for a twist",
    ),
}


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one named check inside a case."""

    name: str
    kind: str
    verdict: str
    computed: Optional[dict] = None
    assumptions: tuple[str, ...] = ()
    diff: Optional[tuple[dict, ...]] = None
    error: Optional[str] = None
    timing_ms: Optional[int] = None

    def to_tree(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "computed": self.computed,
            "assumptions": list(self.assumptions),
            "diff": list(self.diff) if self.diff is not None else None,
            "error": self.error,
            "timing_ms": encode(self.timing_ms),
        }


@dataclass(frozen=True)
class Report:
    """Verdict for one case: the worst of its checks."""

    case_id: str
    verdict: str
    checks: tuple[CheckOutcome, ...] = ()
    error: Optional[str] = None

    def to_tree(self):
        return {
            "schema": jsonio.SCHEMA,
            "id": self.case_id,
            "verdict": self.verdict,
            "checks": [c.to_tree() for c in self.checks],
            "error": self.error,
        }


def run_check(
    name: str,
    kind: str,
    payload: dict,
    expected: Optional[dict] = None,
    with_timing: bool = False,
) -> CheckOutcome:
    """Run one check and compare the fields its expected block mentions."""
    started = time.perf_counter()
    try:
        if kind not in KINDS:
            raise SchemaError(f"unknown scenario kind {kind!r}")
        computed, assumptions = KINDS[kind].handler(as_dict(payload, "payload"))
        computed = encode(computed)
    except K3OrdError as exc:
        return CheckOutcome(
            name=name,
            kind=kind,
            verdict=ERROR,
            error=f"{type(exc).__name__}: {exc}",
        )
    elapsed = int(round((time.perf_counter() - started) * 1000)) if with_timing else None
    diff = []
    if expected is not None:
        for key in sorted(as_dict(expected, "expected block")):
            if key in ANNOTATION_KEYS:
                continue
            want = expected[key]
            got = computed.get(key) if key in computed else None
            if got != want:
                diff.append({"field": key, "expected": want, "computed": got})
    verdict = PASS if not diff else FAIL
    return CheckOutcome(
        name=name,
        kind=kind,
        verdict=verdict,
        computed=computed,
        assumptions=tuple(assumptions),
        diff=tuple(diff) if diff else None,
        timing_ms=elapsed,
    )


_RANK = {PASS: 0, FAIL: 1, ERROR: 2}


def _worst(verdicts) -> str:
    return max(verdicts, key=_RANK.__getitem__, default=PASS)


def load_expected(path: Union[str, Path]) -> dict:
    """The expected map of an expected-values document."""
    doc = jsonio.load_file(path)
    jsonio.check_schema(doc, "expected document")
    return as_dict(require(doc, "expected", "expected document"), "expected map")


def run_scenario(path: Union[str, Path], with_timing: bool = False) -> Report:
    """Run one case directory (or scenario.json path) to a Report.

    File problems become an Error report rather than an exception, so a
    corpus run can keep going past a broken case.
    """
    path = Path(path)
    scenario_path = path / "scenario.json" if path.is_dir() else path
    case_id = scenario_path.parent.name
    try:
        doc = jsonio.load_file(scenario_path)
        jsonio.check_schema(doc, "scenario")
        case_id = as_str(require(doc, "id", "scenario"), "scenario id")
        expected_path = scenario_path.parent / "expected.json"
        expected_map = load_expected(expected_path) if expected_path.exists() else {}
        checks_node = as_list(require(doc, "checks", "scenario"), "checks")
        names = []
        parsed = []
        for node in checks_node:
            node = as_dict(node, "check")
            name = as_str(require(node, "name", "check"), "check name")
            if name in names:
                raise SchemaError(f"duplicate check name {name!r}")
            names.append(name)
            parsed.append(
                (
                    name,
                    as_str(require(node, "kind", "check"), "check kind"),
                    as_dict(require(node, "payload", "check"), "payload"),
                )
            )
        stray = set(expected_map) - set(names)
        if stray:
            raise SchemaError(
                f"expected.json names unknown checks: {', '.join(sorted(stray))}"
            )
    except K3OrdError as exc:
        return Report(
            case_id=case_id,
            verdict=ERROR,
            error=f"{type(exc).__name__}: {exc}",
        )
    outcomes = tuple([
        run_check(name, kind, payload, expected_map.get(name), with_timing)
        for name, kind, payload in parsed
    ])
    return Report(
        case_id=case_id,
        verdict=_worst(o.verdict for o in outcomes),
        checks=outcomes,
    )


def find_cases(corpus_dir: Union[str, Path]) -> list[Path]:
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise MissingCorpus(f"corpus directory {corpus_dir} does not exist")
    cases = sorted(
        p for p in corpus_dir.iterdir() if (p / "scenario.json").is_file()
    )
    if not cases:
        raise MissingCorpus(f"{corpus_dir} contains no cases")
    return cases


def run_corpus(
    corpus_dir: Union[str, Path],
    case_glob: Optional[str] = None,
    with_timing: bool = False,
) -> list[Report]:
    """Run every corpus case whose directory name matches the glob."""
    cases = find_cases(corpus_dir)
    if case_glob is not None:
        cases = [c for c in cases if fnmatch(c.name, case_glob)]
    return [run_scenario(c, with_timing) for c in cases]


def exit_code(reports) -> int:
    """0 all pass, 1 at least one Fail, 2 at least one Error."""
    return _RANK[_worst(r.verdict for r in reports)]


def summary_tree(reports) -> dict:
    counts = {PASS: 0, FAIL: 0, ERROR: 0}
    for r in reports:
        counts[r.verdict] += 1
    return {
        "schema": jsonio.SCHEMA,
        "totals": {
            "pass": encode(counts[PASS]),
            "fail": encode(counts[FAIL]),
            "error": encode(counts[ERROR]),
        },
        "reports": [r.to_tree() for r in reports],
    }
