"""Scenario checks, case reports, and corpus execution.

A corpus case is a directory holding scenario.json (a named list of
checks, each of one kind) and optionally expected.json (expected values
keyed by check name).  Each check runs one library computation and the
runner compares only the fields the expected block mentions, so a case
can pin down exactly the values a worked example prints.

Verdicts are Pass, Fail (with a structured field diff), or Error (the
computation or the file itself was rejected).  Reports are plain JSON
trees through jsonio, deterministic byte for byte; timing is opt-in
because timestamps would break that, and reads in milliseconds to the
microsecond, as a decimal string such as "0.274".
"""

import time
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from . import jsonio
from .cohomology import GLattice, fixed_sublattice, h1, half_gram_quotient
from .divisors import nakai_certificate
from .embeddings import Embedding, check_isometric, is_primitive
from .errors import K3OrdError, MissingCorpus, ParseError, SchemaError
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
    as_fraction_vector,
    as_int,
    as_int_matrix,
    as_int_rows,
    as_int_vector,
    as_items,
    as_list,
    as_str,
    encode,
    field,
)
from .lattices import Lattice, build_K3
from .matrices import IntMatrix, signature
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


def _gram(node, path: str) -> IntMatrix:
    """A symmetric integer matrix: as many entries in each row as there are rows."""
    rows = as_list(node, path)
    gram = as_int_matrix(rows, path, cols=len(rows))
    if not gram.is_symmetric:
        i, j = next((i, j) for i in range(gram.rows) for j in range(i)
                    if gram.entry(i, j) != gram.entry(j, i))
        raise SchemaError(f"{path}[{i}][{j}]: must equal {path}[{j}][{i}] in a symmetric matrix")
    return gram


def _ambient(node, path: str) -> Lattice:
    return build_K3() if node == "K3" else Lattice(_gram(node, path))


def _embedding_from(payload: dict) -> Embedding:
    target = field(payload, "payload", "target", _ambient)
    source = Lattice(field(payload, "payload", "source_gram", _gram))
    columns = field(
        payload, "payload", "columns", as_int_matrix, target.rank, source.rank
    )
    return Embedding(source, target, columns)


def _run_signature(payload: dict):
    pos, neg, zero = signature(field(payload, "payload", "gram", _gram))
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
    if emb.q != emb.source.gram:
        raise SchemaError("payload.source_gram: must equal P^T G P for the columns P")
    rank = emb.source.rank
    action = field(payload, "payload", "action", as_int_matrix, rank, rank)
    result = extend_by_minus_one(emb, action)
    computed = {
        "integral": result.integral,
        "orthogonal": result.orthogonal,
        "involutive": result.involutive,
        "matrix": result.num if result.integral else None,
    }
    return computed, result.assumptions


def _glattice_from(payload: dict) -> GLattice:
    gram = field(payload, "payload", "gram", _gram)
    action = field(payload, "payload", "action", as_int_matrix, gram.rows, gram.rows)
    order = field(payload, "payload", "order", _int_at_least, 1, "positive")
    return GLattice(Lattice(gram), action, order)


def _classes_from(node, path: str, rank: int) -> dict:
    def read(entry, at):
        name = field(entry, at, "name", as_str)
        return name, field(entry, at, "vector", as_int_vector, rank)

    classes = {}
    for i, (name, vector) in enumerate(as_items(node, path, read)):
        if name in classes:
            raise SchemaError(f"{path}[{i}].name: duplicate class name {name!r}")
        classes[name] = vector
    return classes


def _run_h1(payload: dict):
    gl = _glattice_from(payload)
    rank = gl.lattice.rank
    classes = field(payload, "payload", "classes", _classes_from, rank, default=None)
    result = h1(gl)
    computed = {
        "invariant_factors": list(result.invariant_factors),
        "free_rank": result.free_rank,
    }
    if classes is not None:
        computed["classes"] = {
            name: dict(zip(("cocycle", "coboundary"), result.verdict(vector)))
            for name, vector in classes.items()
        }
    return computed, ()


def _run_quotient_pic(payload: dict):
    gl = _glattice_from(payload)
    half = half_gram_quotient(gl)
    fixed = fixed_sublattice(gl)
    basis = [list(fixed.matrix.col(j)) for j in range(fixed.matrix.cols)]
    computed = {
        "fixed_basis": basis,
        "fixed_gram": fixed.source.gram,
        "half_gram": half.gram,
    }
    return computed, ()


def _run_ample_cert(payload: dict):
    lattice = Lattice(field(payload, "payload", "gram", _gram))
    rank = lattice.rank
    candidate = field(payload, "payload", "candidate", as_int_vector, rank)
    gens = field(payload, "payload", "generators", as_int_rows, None, rank,
                 default=IntMatrix.identity(rank).to_rows())
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
            n = _int_at_least(name[len(prefix):], "payload.surface", 0, "nonnegative")
            if builder is surface_ruled_elliptic and n > 1:
                raise SchemaError(f"payload.surface: ruled-elliptic degree must be 0 or 1, got {n}")
            return builder(n)
    raise SchemaError(f"payload.surface: unknown surface model {name!r}")


def _yes_no_unknown(node, path: str) -> YesNoUnknown:
    word = as_str(node, path)
    try:
        return YesNoUnknown(word)
    except ValueError:
        raise SchemaError(f"{path}: must be yes/no/unknown, got {word!r}") from None


def _run_order_classify(payload: dict):
    surface = _surface_by_name(field(payload, "payload", "surface", as_str))

    def read(node, path):
        coords = field(node, path, "class", as_fraction_vector, surface.rank)
        e = field(node, path, "e", _int_at_least, 2, "at least 2")
        irreducible = field(node, path, "cover_irreducible", _yes_no_unknown,
                            default=YesNoUnknown.UNKNOWN)
        return RamifiedDivisor(coords, e, irreducible)

    ramified = field(payload, "payload", "ramification", as_items, read, default=())
    degree = field(payload, "payload", "cover_degree", _int_at_least, 1, "positive", default=1)
    order = OrderDescriptor(surface, tuple(ramified), degree)
    result = classify_order(order)
    computed = {
        "kind": result.kind,
        "canonical_class": list(result.k_order),
        "anti_square": result.anti_square,
        "pairings": list(result.pairings),
        "ramification_transfer": list(ramification_transfer(order)),
        "overlap_matches_degree": overlap_applicable(order),
        "maximality": maximality_check(order),
    }
    return computed, result.assumptions


def _int_at_least(node, path: str, low: int, words: str) -> int:
    """An integer refused by path below low: the library refuses it too, but
    without naming the field, and an order only after building blocks as
    long as the model."""
    value = as_int(node, path)
    if value < low:
        raise SchemaError(f"{path}: must be {words}, got {value}")
    return value


def _model_from(node, path: str) -> AbGroupModel:
    rank = field(node, path, "free_rank", _int_at_least, 0, "nonnegative", default=0)
    moduli = field(node, path, "finite_cyclic", as_items,
                   lambda m, at: _int_at_least(m, at, 2, "at least 2"), default=())
    count = field(node, path, "elliptic_count", _int_at_least, 0, "nonnegative", default=0)
    return AbGroupModel(rank, tuple(moduli), count)


def _endo_from(node, path: str, model: AbGroupModel) -> BlockEndo:
    order = field(node, path, "order", _int_at_least, 1, "positive")
    rank, n, count = model.free_rank, len(model.finite_cyclic), model.elliptic_count
    # the defaults sized by a declared count are built only when absent
    free = field(node, path, "free_action", as_int_matrix, rank, rank, default=None)
    scalars = field(node, path, "finite_action", as_int_vector, n, default=(1,) * n)
    pairs = field(node, path, "elliptic_action", as_int_rows, count, 2, default=None)
    return BlockEndo(
        model,
        IntMatrix.identity(rank) if free is None else free,
        scalars,
        tuple([(1, i) for i in range(count)] if pairs is None else pairs),
        order,
    )


def _run_fibration_h1(payload: dict):
    model = field(payload, "payload", "model", _model_from)
    endo = field(payload, "payload", "endo", _endo_from, model)
    result = h1_structured(endo)
    computed = {
        "invariant_factors": list(result.invariant_factors),
        "free_rank": result.free_rank,
        "finite_factors": list(result.finite_factors),
        "elliptic_factors": list(result.elliptic_factors),
        "free_generators": [list(g) for g in result.free_part.generators],
    }
    return computed, ()


def _point_from(node, path: str) -> Optional[TorsionPoint]:
    if node is None:
        return None
    return TorsionPoint(
        field(node, path, "symbol", as_str),
        field(node, path, "order", _int_at_least, 1, "positive"),
        field(node, path, "mult", as_int, default=1),
    )


def _element_from(node, path: str, model: AbGroupModel) -> GroupElement:
    rank, n, count = model.free_rank, len(model.finite_cyclic), model.elliptic_count
    # as in _endo_from, the defaults sized by a declared count are built only when absent
    free = field(node, path, "free", as_int_vector, rank, default=None)
    finite = field(node, path, "finite", as_int_vector, n, default=(0,) * n)
    points = field(node, path, "elliptic", as_items, _point_from, count, default=None)
    return GroupElement(
        model,
        (0,) * rank if free is None else free,
        finite,
        (None,) * count if points is None else tuple(points),
    )


def _run_twist_check(payload: dict):
    model = field(payload, "payload", "model", _model_from)
    endo = field(payload, "payload", "endo", _endo_from, model)
    element = field(payload, "payload", "element", _element_from, model)
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
    timing_ms: Optional[str] = None  # milliseconds as a decimal with three places

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
    elapsed = f"{(time.perf_counter() - started) * 1000:.3f}" if with_timing else None
    diff = []
    if expected is not None:
        for key in sorted(expected):
            if key in ANNOTATION_KEYS:
                continue
            want = expected[key]
            got = computed.get(key)
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


def load_expected(path: Union[str, Path], names: Optional[set] = None) -> dict:
    """The expected map of an expected-values document.  Given the names of
    a case's checks, its keys must be among them and its values objects.
    Its errors start with the file's name, so they read apart from those of
    the document it is held against."""
    try:
        doc = jsonio.load_file(path)
        jsonio.check_schema(doc)
        expected = field(doc, "", "expected", as_dict)
        if names is not None:
            for name, block in expected.items():
                if name not in names:
                    raise SchemaError(f"expected.{name}: no check has this name")
                as_dict(block, f"expected.{name}")
        return expected
    except (ParseError, SchemaError) as exc:
        raise type(exc)(f"{Path(path).name}: {exc}") from exc


def _check_from(node, path: str) -> tuple[str, str, dict]:
    return (
        field(node, path, "name", as_str),
        field(node, path, "kind", as_str),
        field(node, path, "payload", as_dict),
    )


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
        jsonio.check_schema(doc)
        case_id = field(doc, "", "id", as_str)
        parsed = field(doc, "", "checks", as_items, _check_from)
        names = set()
        for i, (name, _, _) in enumerate(parsed):
            if name in names:
                raise SchemaError(f"checks[{i}].name: duplicate check name {name!r}")
            names.add(name)
        recorded = scenario_path.parent / "expected.json"
        expected_map = load_expected(recorded, names) if recorded.exists() else {}
    except K3OrdError as exc:
        return Report(
            case_id=case_id,
            verdict=ERROR,
            error=f"{type(exc).__name__}: {exc}",
        )
    outcomes = tuple([
        run_check(name, kind, payload,
                  field(expected_map, "expected", name, as_dict, default=None), with_timing)
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
