"""Tests for the JSON conventions, the scenario runner, and the CLI."""

import argparse
import ast
import hashlib
import importlib.util
import itertools
import json
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from k3ord import cli, jsonio
from k3ord.cli import main
from k3ord.errors import MissingCorpus, ParseError, SchemaError
from k3ord.matrices import IntMatrix
from k3ord.runner import (
    ERROR,
    FAIL,
    KINDS,
    PASS,
    exit_code,
    find_cases,
    run_check,
    run_corpus,
    run_scenario,
    summary_tree,
)

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


# --- jsonio --------------------------------------------------------------------------


def test_encode_integers_as_strings():
    assert jsonio.encode(5) == "5"
    assert jsonio.encode(-12) == "-12"
    assert jsonio.encode(True) is True
    assert jsonio.encode(None) is None
    assert jsonio.encode(Fraction(-3, 4)) == {"num": "-3", "den": "4"}
    assert jsonio.encode(IntMatrix.from_rows([[1, -2]])) == [["1", "-2"]]
    assert jsonio.encode({"a": [1, 2]}) == {"a": ["1", "2"]}


def test_parse_rejects_raw_numbers():
    with pytest.raises(ParseError):
        jsonio.loads_strict('{"a": 5}')
    with pytest.raises(ParseError):
        jsonio.loads_strict("[1.5]")
    with pytest.raises(ParseError):
        jsonio.loads_strict("{not json")
    assert jsonio.loads_strict('{"a": "5"}') == {"a": "5"}


def test_parse_rejects_constants_and_keeps_the_bom_message():
    # NaN and Infinity are raw numbers too; the one decoder must still word
    # a leading BOM as json.loads does
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ParseError) as refused:
            jsonio.loads_strict(f'{{"schema": "k3ord/1", "gram": [[{token}]]}}')
        assert str(refused.value) == (
            f"raw JSON number {token!r}; integers must be decimal strings"
        )
    with pytest.raises(ParseError) as bom:
        jsonio.loads_strict('\ufeff{"schema": "k3ord/1"}')
    assert str(bom.value) == (
        "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


def test_decoders_reject_wrong_shapes():
    assert jsonio.as_int("-7", "n") == -7
    with pytest.raises(SchemaError, match=r"^n: "):
        jsonio.as_int("7.5", "n")
    with pytest.raises(SchemaError, match=r"^n: "):
        jsonio.as_int("", "n")
    # non-ASCII digits: "3²" passes str.isdigit but not int(), "٣" passes both
    for text in ("3²", "٣", "-٣", "７"):
        with pytest.raises(SchemaError, match=r"^n: "):
            jsonio.as_int(text, "n")
    with pytest.raises(SchemaError, match=r"^n: "):
        jsonio.as_int(7, "n")
    assert jsonio.as_fraction({"num": "1", "den": "2"}, "q") == Fraction(1, 2)
    assert jsonio.as_fraction("3", "q") == Fraction(3)
    with pytest.raises(SchemaError, match=r"^q\.den: "):
        jsonio.as_fraction({"num": "1", "den": "0"}, "q")
    with pytest.raises(SchemaError, match=r"^m\[1\]: length 1, expected 2"):
        jsonio.as_int_matrix([["1", "2"], ["3"]], "m")
    with pytest.raises(SchemaError, match=r"^schema: "):
        jsonio.check_schema({"schema": "other/9"})


def test_int_vector_fast_path_keeps_the_per_entry_messages():
    """as_int_vector scans a vector at once and falls back to as_int per
    entry on any offender; the error must be the one that loop raises."""
    for bad in ("3\u00b2", " 1", "1_0", "x", 1, True, "7" * 5000, "1,2", "", "+1", "\u0663"):
        for vector in ([bad], ["4", bad], ["-4", "0", bad, "9"]):
            at = f"row[{vector.index(bad)}]"
            with pytest.raises(SchemaError) as per_entry:
                jsonio.as_int(bad, at)
            with pytest.raises(SchemaError) as fast:
                jsonio.as_int_vector(vector, "row")
            assert str(fast.value) == str(per_entry.value)
            assert str(fast.value).startswith(f"{at}: ")
    assert jsonio.as_int_vector(["0", "-12", "7" * 60], "row") == (0, -12, int("7" * 60))
    assert jsonio.as_int_vector([], "row") == ()


def _per_row(node, rows=None, cols=None):
    """The rows of a matrix read one as_int_vector at a time."""
    items = jsonio.as_list(node, "m", rows)
    if cols is None and items and isinstance(items[0], list):
        cols = len(items[0])
    return [jsonio.as_int_vector(row, f"m[{i}]", cols) for i, row in enumerate(items)]


def _matrix_cases():
    good = [[str(3 * i + j - 4) for j in range(3)] for i in range(3)]
    for bad in ("3\u00b2", " 1", "1_0", "x", 1, True, "7" * 5000, "1,2", "", "+1", "\u0663"):
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                m = [list(r) for r in good]
                m[i][j] = bad
                yield m, None, None
                yield m, 3, 3
    for i in (0, 1, 2):
        for row in (good[i][:2], good[i] + ["1"], [], "1 2 3", None, {"0": "1"}):
            m = [list(r) for r in good]
            m[i] = row
            yield m, None, None
            yield m, 3, 3
    yield good, None, None
    yield good, 3, 3
    yield good, 2, None
    yield good, 4, 3
    yield good, None, 2
    yield [["7" * 60, "-0"]], 1, 2
    yield [], None, 3
    yield [], 0, None
    yield [[]], None, None
    yield [[], []], 2, 0
    yield [[], ["1"]], None, None
    yield "x", None, None
    yield None, 2, 2


def test_int_matrix_fast_path_keeps_the_per_row_messages():
    """as_int_matrix and as_int_rows read a matrix whole and fall back to
    one as_int_vector per row on any offender; the error must be the one
    that loop raises, and a matrix read whole must be the one it reads."""
    for node, rows, cols in _matrix_cases():
        try:
            reference = _per_row(node, rows, cols)
        except SchemaError as exc:
            assert str(exc)[:2] in ("m:", "m[")
            for read in (jsonio.as_int_matrix, jsonio.as_int_rows):
                with pytest.raises(SchemaError) as fast:
                    read(node, "m", rows, cols)
                assert str(fast.value) == str(exc)
            continue
        read_rows = jsonio.as_int_rows(node, "m", rows, cols)
        assert list(read_rows) == reference
        matrix = jsonio.as_int_matrix(node, "m", rows, cols)
        assert matrix.to_rows() == read_rows
        assert cols is None or matrix.cols == cols
    assert jsonio.as_int_matrix([], "m") == IntMatrix(0, 0, ())
    assert jsonio.as_int_matrix([[]], "m") == IntMatrix(1, 0, ())


def test_an_empty_matrix_keeps_its_declared_column_count():
    """No rows with cols given is 0 x cols, so the columns of an embedding
    into a rank-0 target fit the source rank and the check gets a verdict."""
    m = jsonio.as_int_matrix([], "m", 0, 3)
    assert (m.rows, m.cols) == (0, 3)
    assert jsonio.as_int_matrix([], "m", cols=3) == IntMatrix(0, 3, ())
    payload = {"target": [], "source_gram": [["1"]], "columns": []}
    outcome = run_check("e", "embedding-check", payload, None)
    assert outcome.error is None, outcome
    assert outcome.computed["isometric"] is False


def test_encode_reads_a_matrix_by_rows():
    assert jsonio.encode(IntMatrix.from_rows([[1, -2, 0], [3, 4, -5]])) == [
        ["1", "-2", "0"], ["3", "4", "-5"]
    ]
    assert jsonio.encode(IntMatrix(2, 0, ())) == [[], []]
    assert jsonio.encode(IntMatrix(0, 3, ())) == []
    with pytest.raises(SchemaError, match="digit limit"):
        jsonio.encode(IntMatrix(1, 2, (0, 10**5000)))


def test_canonical_dump_is_sorted_and_stable():
    a = jsonio.dumps_canonical({"b": "1", "a": "2"})
    b = jsonio.dumps_canonical({"a": "2", "b": "1"})
    assert a == b
    assert a.endswith("\n")


def test_encode_decode_round_trip_matrix():
    m = IntMatrix.from_rows([[0, 1], [1, 0]])
    tree = jsonio.encode(m)
    text = jsonio.dumps_canonical(tree)
    assert jsonio.as_int_matrix(jsonio.loads_strict(text), "m") == m


# --- run_check dispatch --------------------------------------------------------------


def _h1_payload():
    return {
        "gram": [["-2"]],
        "action": [["-1"]],
        "order": "2",
        "classes": [{"name": "d", "vector": ["1"]}],
    }


def test_run_check_h1_pass_and_fail():
    expected = {
        "invariant_factors": ["2"],
        "classes": {"d": {"cocycle": True, "coboundary": False}},
    }
    outcome = run_check("h1", "h1", _h1_payload(), expected)
    assert outcome.verdict == PASS
    assert outcome.diff is None
    wrong = {"invariant_factors": ["4"]}
    outcome = run_check("h1", "h1", _h1_payload(), wrong)
    assert outcome.verdict == FAIL
    assert outcome.diff == (
        {"field": "invariant_factors", "expected": ["4"], "computed": ["2"]},
    )


def test_run_check_h1_decides_every_class_from_the_one_smith_form(monkeypatch):
    import k3ord.cohomology as cohomology
    import k3ord.matrices as matrices
    import k3ord.runner as runner

    def refuse(*args):
        raise AssertionError("unexpected call")

    assert not hasattr(runner, "solve_integer") and not hasattr(runner, "norm_and_diff")
    smiths = []
    snf = cohomology.snf
    monkeypatch.setattr(cohomology, "snf", lambda a: smiths.append(a) or snf(a))
    monkeypatch.setattr(matrices, "solve_integer", refuse)
    monkeypatch.setattr(cohomology.GLattice, "norm", property(refuse))
    # sigma = -1 + 1: D = diag(2, 0) and N = diag(0, 2), so (1, 1) is no
    # cocycle, (1, 0) a cocycle and no coboundary, and (2, 0) a coboundary
    payload = {
        "gram": [["-2", "0"], ["0", "2"]],
        "action": [["-1", "0"], ["0", "1"]],
        "order": "2",
        "classes": [
            {"name": "d", "vector": ["1", "0"]},
            {"name": "twice", "vector": ["2", "0"]},
            {"name": "zero", "vector": ["0", "0"]},
            {"name": "fixed", "vector": ["1", "1"]},
        ],
    }
    outcome = run_check("h1", "h1", payload, None)
    assert len(smiths) == 1
    assert outcome.computed["invariant_factors"] == ["2"]
    assert outcome.computed["classes"] == {
        "d": {"cocycle": True, "coboundary": False},
        "twice": {"cocycle": True, "coboundary": True},
        "zero": {"cocycle": True, "coboundary": True},
        "fixed": {"cocycle": False, "coboundary": False},
    }
    # every entry is read before any is decided, and the first bad one is named
    payload["classes"] = [
        {"name": "d", "vector": ["1", "0"]},
        {"name": "long", "vector": ["1", "0", "0"]},
        {"name": "bad", "vector": ["x"]},
    ]
    outcome = run_check("h1", "h1", payload, None)
    assert outcome.verdict == ERROR
    assert "payload.classes[1].vector: length 3, expected 2" in outcome.error
    assert len(smiths) == 1


def test_run_check_unknown_kind_is_error():
    outcome = run_check("x", "no-such-kind", {}, None)
    assert outcome.verdict == ERROR
    assert "SchemaError" in outcome.error


def test_run_check_domain_error_is_reported():
    payload = _h1_payload()
    payload["action"] = [["2"]]
    outcome = run_check("h1", "h1", payload, None)
    assert outcome.verdict == ERROR
    assert "ActionNotIsometric" in outcome.error


def test_duplicate_class_names_rejected(tmp_path, capsys):
    # (1) is a nontrivial class and (2) a coboundary: a dict keyed by name
    # would keep only the second verdict
    payload = _h1_payload()
    payload["classes"] = [
        {"name": "a", "vector": ["1"]},
        {"name": "a", "vector": ["2"]},
    ]
    outcome = run_check("h1", "h1", payload, None)
    assert outcome.verdict == ERROR
    assert "SchemaError" in outcome.error
    assert "duplicate class name 'a'" in outcome.error
    path = tmp_path / "dup.json"
    _write(path, {"schema": "k3ord/1", "payload": payload})
    assert main(["h1", str(path), "--format", "json"]) == 2
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == ERROR
    assert "duplicate class name 'a'" in tree["checks"][0]["error"]


@pytest.mark.parametrize("generators, length", [
    ([["1", "0"], ["0"]], 1),
    ([["1", "0"], ["0", "1", "0"]], 3),
])
def test_ample_cert_generator_length_is_schema_error(tmp_path, capsys, generators, length):
    # a short generator used to read as "generators do not span", a long one
    # as a DimensionMismatch from the pairing
    payload = {"gram": [["2", "0"], ["0", "2"]], "candidate": ["1", "1"], "generators": generators}
    message = f"payload.generators[1]: length {length}, expected 2"
    outcome = run_check("ample", "ample-cert", payload, None)
    assert outcome.verdict == ERROR
    assert outcome.error == f"SchemaError: {message}"
    path = tmp_path / "ample.json"
    _write(path, {"schema": "k3ord/1", "payload": payload})
    assert main(["ample", str(path), "--format", "json"]) == 2
    tree = json.loads(capsys.readouterr().out)
    assert tree["checks"][0]["error"] == f"SchemaError: {message}"


def test_run_check_without_expected_passes_on_success():
    outcome = run_check("h1", "h1", _h1_payload(), None)
    assert outcome.verdict == PASS
    assert outcome.computed["invariant_factors"] == ["2"]
    assert outcome.timing_ms is None


def test_order_classify_check():
    payload = {
        "surface": "p2",
        "ramification": [{"class": ["6"], "e": "2"}],
        "cover_degree": "2",
    }
    outcome = run_check("classify", "order-classify", payload, None)
    assert outcome.verdict == PASS
    assert outcome.computed["kind"] == "numerically-calabi-yau"
    assert outcome.computed["canonical_class"] == [{"num": "0", "den": "1"}]


def test_twist_check_payload():
    payload = {
        "model": {"elliptic_count": "1"},
        "endo": {"order": "3"},
        "element": {"elliptic": [{"symbol": "eps", "order": "3"}]},
    }
    outcome = run_check("twist", "twist-check", payload, None)
    assert outcome.computed == {"cocycle": True, "coboundary": False}


_ASYMMETRIC = [["2", "1"], ["0", "2"]]
_TWIST = {"model": {"free_rank": "1", "finite_cyclic": ["2"], "elliptic_count": "1"},
          "endo": {"order": "2"}}
_P2 = {"surface": "p2", "ramification": [{"class": ["6"], "e": "2"}]}

# Each optional payload field set to null.  Null is never read as absent:
# it goes through the field's reader and is refused by path.
_NULL_FIELDS = [
    ("h1", dict(_h1_payload(), classes=None), "payload.classes"),
    ("ample-cert", {"gram": [["2"]], "candidate": ["1"], "generators": None},
     "payload.generators"),
    ("order-classify", dict(_P2, ramification=None), "payload.ramification"),
    ("order-classify", dict(_P2, ramification=[dict(_P2["ramification"][0],
                                                    cover_irreducible=None)]),
     "payload.ramification[0].cover_irreducible"),
    ("order-classify", dict(_P2, cover_degree=None), "payload.cover_degree"),
    ("fibration-h1", {"model": {"free_rank": None}, "endo": {"order": "2"}},
     "payload.model.free_rank"),
    ("fibration-h1", {"model": {"finite_cyclic": None}, "endo": {"order": "2"}},
     "payload.model.finite_cyclic"),
    ("fibration-h1", {"model": {"elliptic_count": None}, "endo": {"order": "2"}},
     "payload.model.elliptic_count"),
    ("fibration-h1", {"model": {"free_rank": "2"}, "endo": {"order": "2", "free_action": None}},
     "payload.endo.free_action"),
    ("fibration-h1", dict(_TWIST, endo={"order": "2", "finite_action": None}),
     "payload.endo.finite_action"),
    ("fibration-h1", dict(_TWIST, endo={"order": "2", "elliptic_action": None}),
     "payload.endo.elliptic_action"),
    ("twist-check", dict(_TWIST, element={"free": None}), "payload.element.free"),
    ("twist-check", dict(_TWIST, element={"finite": None}), "payload.element.finite"),
    ("twist-check", dict(_TWIST, element={"elliptic": None}), "payload.element.elliptic"),
    ("twist-check", dict(_TWIST, element={"elliptic": [{"symbol": "e", "order": "2",
                                                        "mult": None}]}),
     "payload.element.elliptic[0].mult"),
]


@pytest.mark.parametrize("kind, payload, path", [
    ("h1", dict(_h1_payload(), gram=[["x"]]), "payload.gram[0][0]"),
    ("h1", {"gram": [["2", "x"], ["x", "2"]], "action": [["1", "0"], ["0", "1"]],
            "order": "2"}, "payload.gram[0][1]"),
    ("h1", dict(_h1_payload(), classes=[{"name": "d", "vector": ["1", "0"]}]),
     "payload.classes[0].vector"),
    ("h1", dict(_h1_payload(), classes=[{"name": "d"}]), "payload.classes[0]"),
    ("isometry-extend", {"target": [["2", "0"], ["0", "2"]], "source_gram": [["2"]],
                         "columns": [["1"]], "action": [["1"]]}, "payload.columns"),
    ("twist-check", dict(_TWIST, element={"free": ["0", "0"]}), "payload.element.free"),
    ("twist-check", dict(_TWIST, element={"finite": []}), "payload.element.finite"),
    ("twist-check", dict(_TWIST, element={"elliptic": [None, None]}),
     "payload.element.elliptic"),
    ("twist-check", dict(_TWIST, element={"elliptic": [{"symbol": "e"}]}),
     "payload.element.elliptic[0]"),
    ("fibration-h1", {"model": {"free_rank": "-1"}, "endo": {"order": "2"}},
     "payload.model.free_rank"),
    ("fibration-h1", {"model": {"finite_cyclic": ["2", "1"]}, "endo": {"order": "2"}},
     "payload.model.finite_cyclic[1]"),
    ("twist-check", {"model": {"elliptic_count": "-1"}, "endo": {"order": "2"},
                     "element": {}}, "payload.model.elliptic_count"),
    ("twist-check", dict(_TWIST, element={"elliptic": [{"symbol": "e", "order": "0"}]}),
     "payload.element.elliptic[0].order"),
    ("order-classify", {"surface": "p2", "ramification": [{"class": ["1"], "e": "1"}]},
     "payload.ramification[0].e"),
    ("h1", dict(_h1_payload(), gram=_ASYMMETRIC), "payload.gram[1][0]"),
    ("quotient-pic", dict(_h1_payload(), gram=_ASYMMETRIC), "payload.gram[1][0]"),
    ("ample-cert", {"gram": _ASYMMETRIC, "candidate": ["1", "1"]}, "payload.gram[1][0]"),
    ("embedding-check", {"target": _ASYMMETRIC, "source_gram": [["2"]],
                         "columns": [["1"], ["0"]]}, "payload.target[1][0]"),
    ("embedding-check", {"target": [["2", "0"], ["0", "2"]], "source_gram": _ASYMMETRIC,
                         "columns": [["1", "0"], ["0", "1"]]}, "payload.source_gram[1][0]"),
    ("order-classify", dict(_P2, cover_degree="0"), "payload.cover_degree"),
    ("h1", dict(_h1_payload(), order="0"), "payload.order"),
    ("order-classify", {"surface": "hirzebruch--1"}, "payload.surface"),
    ("order-classify", {"surface": "ruled-elliptic-5"}, "payload.surface"),
    *_NULL_FIELDS,
    # an isotropic frame of U declared with Gram (0): P^T G P is (2)
    ("isometry-extend", {"target": [["0", "1"], ["1", "0"]], "source_gram": [["0"]],
                         "columns": [["1"], ["1"]], "action": [["3"]]},
     "payload.source_gram"),
], ids=["gram-entry", "gram-entry-off-diagonal", "long-class", "missing-vector",
        "short-columns", "long-free", "short-finite", "long-elliptic", "missing-order",
        "negative-free-rank", "modulus-one", "negative-elliptic-count", "point-order-zero",
        "ramification-index-one", "h1-asymmetric", "quotient-pic-asymmetric",
        "ample-cert-asymmetric", "embedding-target-asymmetric",
        "embedding-source-asymmetric", "cover-degree-zero", "h1-order-zero",
        "negative-section-parameter",
        "ruled-elliptic-degree-five",
        *[f"null-{path.removeprefix('payload.')}" for _, _, path in _NULL_FIELDS],
        "isometry-source-gram-mismatch"])
def test_error_names_the_field_at_fault(tmp_path, capsys, kind, payload, path):
    outcome = run_check(kind, kind, payload, None)
    assert outcome.verdict == ERROR
    assert outcome.error.startswith(f"SchemaError: {path}: ")
    document = tmp_path / "document.json"
    _write(document, {"schema": "k3ord/1", "payload": payload})
    assert main([*KINDS[kind].words, str(document), "--format", "json"]) == 2
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["error"] == outcome.error


def test_readme_lists_every_optional_field():
    """README's "File formats" names every optional payload field that the
    null cases set, by its path from the payload with [i] for an index."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## File formats\n", 1)[1].split("\n## ", 1)[0]
    listed = section.split("An optional field that is left out takes its default:", 1)[1]
    for _, _, path in _NULL_FIELDS:
        name = path.removeprefix("payload.").replace("[0]", "[i]")
        assert f"* `{name}`" in listed or f"`{name}`:" in listed, name


@pytest.mark.parametrize("kind", ["fibration-h1", "twist-check"])
def test_nonpositive_order_is_rejected_before_the_default_blocks(kind):
    # the default elliptic block has one pair per summand; an order of -1
    # must be refused before it is built, not by BlockEndo after
    payload = {"model": {"elliptic_count": "1000000"}, "endo": {"order": "-1"},
               "element": {}}
    tracemalloc.start()
    try:
        outcome = run_check(kind, kind, payload, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.error == "SchemaError: payload.endo.order: must be positive, got -1"
    assert peak < 2**20


def _leaves_and_vectors(node, path, leaves, vectors):
    """Collect (path, container, key) for every string leaf under node and
    (path, list) for every non-empty list of strings: vectors and matrix rows."""
    keyed = isinstance(node, dict)
    for key, value in node.items() if keyed else enumerate(node):
        at = f"{path}.{key}" if keyed else f"{path}[{key}]"
        if isinstance(value, str):
            leaves.append((at, node, key))
        elif value is not None:
            _leaves_and_vectors(value, at, leaves, vectors)
    if not keyed and node and all(isinstance(v, str) for v in node):
        vectors.append((path, node))


def test_every_corpus_leaf_error_names_its_path():
    """Walk every corpus payload: put an invalid value in one leaf at a time,
    then drop the last entry of one vector or matrix row at a time.  Each
    check must end in a SchemaError whose message starts with the path of
    that leaf, or of that vector or row.  A leaf or vector already tried at
    the same path in a check of the same kind is skipped, since the message
    depends on the kind and the path, not on the values around them; that
    keeps the walk to about 4,000 checks.  model.finite_cyclic is left
    whole: it declares the shape that other fields are held to."""

    def names(error, path):
        head = f"SchemaError: {path}"
        return error.startswith(head) and error[len(head)] in ":.["

    tried = set()
    wrong = []
    for case in find_cases(CORPUS):
        for check in jsonio.load_file(case / "scenario.json")["checks"]:
            kind, payload = check["kind"], check["payload"]
            leaves, vectors = [], []
            _leaves_and_vectors(payload, "payload", leaves, vectors)
            for path, parent, key in leaves:
                if (kind, path) in tried:
                    continue
                tried.add((kind, path))
                value = parent[key]
                parent[key] = "x" if value.lstrip("-").isdigit() else {}
                error = run_check("walk", kind, payload).error
                parent[key] = value
                if error is None or not names(error, path):
                    wrong.append((case.name, path, error))
            for path, vector in vectors:
                if (kind, path) in tried or path.endswith(".finite_cyclic"):
                    continue
                tried.add((kind, path))
                value = vector.pop()
                error = run_check("walk", kind, payload).error
                vector.append(value)
                if error is None or not names(error, path):
                    wrong.append((case.name, f"{path} shortened", error))
    assert len(tried) > 3000
    assert wrong == []


# --- scenarios and the corpus --------------------------------------------------------


def test_run_scenario_on_corpus_case():
    report = run_scenario(CORPUS / "quadric")
    assert report.verdict == PASS
    assert report.case_id == "quadric"
    assert [c.name for c in report.checks] == [
        "embedding",
        "isometry",
        "h1",
        "quotient",
        "ample",
    ]


def test_report_round_trips_through_json():
    report = run_scenario(CORPUS / "f2")
    text = jsonio.dumps_canonical(report.to_tree())
    assert jsonio.loads_strict(text) == report.to_tree()


def test_full_corpus_passes():
    reports = run_corpus(CORPUS)
    assert all(r.verdict == PASS for r in reports)
    assert exit_code(reports) == 0


def test_corpus_runs_are_byte_identical():
    first = jsonio.dumps_canonical(summary_tree(run_corpus(CORPUS)))
    second = jsonio.dumps_canonical(summary_tree(run_corpus(CORPUS)))
    assert first == second
    # The bytes of `k3ord corpus run --format json`, pinned across commits.
    # A change that alters the corpus bytes on purpose re-records this digest
    # and says so in CHANGES.md.
    assert hashlib.sha256(first.encode()).hexdigest() == (
        "b7ef6e655635ec47abf0bb434eb8fa5e200014bbe7091ba5ba31f0eee233b260"
    )


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no answer may depend on one
    for path in sorted((REPO / "src" / "k3ord").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def test_package_has_no_unused_imports():
    # the package, its tests, demos and tools
    paths = [*(REPO / "src" / "k3ord").glob("*.py")]
    for directory in ("tests", "demos", "tools"):
        paths += (REPO / directory).glob("*.py")
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not imported - used, f"{path.name}: unused imports {sorted(imported - used)}"


def _loaded_names(tree: ast.AST) -> set[str]:
    """The names a tree reads: bare names in load context and attributes."""
    nodes = list(ast.walk(tree))
    names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def _public_names(node: ast.stmt) -> list[str]:
    """The public names that one top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_public_surface_is_reached_outside_the_tests():
    """Every public top-level name of the package is read somewhere that is
    not its own definition and not a test: elsewhere in the package, by a
    demo, by tools/gen_corpus.py or by perfbench, whose tracer names the
    functions it wraps in strings.  README lists any other name under
    "Library surface without a check kind", and every backticked
    `module.name` in README resolves."""
    reached = set()
    for path in [*(REPO / "demos").glob("*.py"), REPO / "tools" / "gen_corpus.py",
                 *(REPO / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(), str(path))
        reached |= _loaded_names(tree)
        if path.name == "tracing.py":
            strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
            reached |= {part for v in strings if isinstance(v, str) for part in v.split(".")}
    statements = [
        (path.stem, node, _loaded_names(node))
        for path in sorted((REPO / "src" / "k3ord").glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
    ]
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library surface without a check kind\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\* `(\w+\.\w+)`", section, re.M))
    unreached = {
        f"{module}.{name}"
        for module, node, _ in statements
        for name in _public_names(node)
        if name not in reached
        and not any(name in loaded for _, other, loaded in statements if other is not node)
    }
    assert unreached <= listed, sorted(unreached - listed)

    modules = {module for module, _, _ in statements}
    for module, name in re.findall(r"`(\w+)\.(\w+)`", readme):
        if module == "k3ord":
            assert name in modules, f"k3ord.{name}"
        elif module in modules:
            assert hasattr(importlib.import_module(f"k3ord.{module}"), name), f"{module}.{name}"


def test_only_matrices_builds_a_probe():
    """Every certified matrix identity goes through matrices.is_congruence or
    matrices.annihilates, so no other module names the probe behind them."""
    for path in sorted((REPO / "src" / "k3ord").glob("*.py")):
        if path.name == "matrices.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "_probe" not in names, path.name


def test_package_builds_no_tuple_from_an_iterator():
    """tuple(<genexpr>) and tuple(map(...)) start from a size-10 tuple and
    resize it in place, so the result is not taken from CPython's free list
    for its final size, yet is pushed onto that list when freed. Only a full
    collection empties those lists (up to 2,000 tuples for each size below
    20), and exact integer arithmetic triggers none, so the lists fill and
    the process grows. tuple([...]) takes its tuple from the free list.
    """
    for path in sorted((REPO / "src" / "k3ord").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "tuple" and n.args
            and (isinstance(n.args[0], ast.GeneratorExp) or (
                isinstance(n.args[0], ast.Call) and isinstance(n.args[0].func, ast.Name)
                and n.args[0].func.id == "map"
            ))
        ]
        assert not lines, f"{path.name}: tuple of an iterator on lines {lines}"


def test_sextic_filter_matches_sixteen_cases():
    reports = run_corpus(CORPUS, case_glob="sextic-*")
    assert len(reports) == 16
    assert sorted(r.case_id for r in reports) == [
        f"sextic-n{n:02d}" for n in range(3, 19)
    ]


def test_empty_filter_is_fine():
    reports = run_corpus(CORPUS, case_glob="no-such-case-*")
    assert reports == []
    assert exit_code(reports) == 0


def test_missing_corpus_raises():
    with pytest.raises(MissingCorpus):
        run_corpus("/no/such/directory")


def test_witness_case_reports_non_integral():
    report = run_scenario(CORPUS / "witness-nonintegral")
    assert report.verdict == PASS
    assert report.checks[0].computed["integral"] is False


def _write(path, tree):
    path.write_text(jsonio.dumps_canonical(tree), encoding="utf-8")


def test_bad_expected_value_fails_with_diff(tmp_path):
    case = tmp_path / "case-a"
    case.mkdir()
    _write(
        case / "scenario.json",
        {
            "schema": "k3ord/1",
            "id": "case-a",
            "checks": [
                {
                    "name": "h1",
                    "kind": "h1",
                    "payload": _h1_payload(),
                },
                {
                    "name": "sig",
                    "kind": "signature",
                    "payload": {"gram": [["0", "1"], ["1", "0"]]},
                },
            ],
        },
    )
    _write(
        case / "expected.json",
        {
            "schema": "k3ord/1",
            "expected": {"h1": {"free_rank": "9"}, "sig": {"negative": "1"}},
        },
    )
    report = run_scenario(case)
    assert report.verdict == FAIL
    assert report.checks[0].diff == (
        {"field": "free_rank", "expected": "9", "computed": "0"},
    )
    assert report.checks[1].verdict == PASS
    assert report.checks[1].computed == {
        "positive": "1",
        "negative": "1",
        "zero": "0",
    }


def test_duplicate_check_names_rejected(tmp_path):
    case = tmp_path / "case-b"
    case.mkdir()
    check = {"name": "same", "kind": "h1", "payload": _h1_payload()}
    _write(
        case / "scenario.json",
        {"schema": "k3ord/1", "id": "case-b", "checks": [check, check]},
    )
    report = run_scenario(case)
    assert report.verdict == ERROR
    assert "duplicate" in report.error


def test_stray_expected_name_rejected(tmp_path):
    case = tmp_path / "case-c"
    case.mkdir()
    _write(
        case / "scenario.json",
        {
            "schema": "k3ord/1",
            "id": "case-c",
            "checks": [{"name": "h1", "kind": "h1", "payload": _h1_payload()}],
        },
    )
    _write(
        case / "expected.json",
        {"schema": "k3ord/1", "expected": {"typo": {}}},
    )
    report = run_scenario(case)
    assert report.verdict == ERROR
    assert "typo" in report.error


@pytest.mark.parametrize("expected, error", [
    ({"typo": {}}, "expected.json: expected.typo: no check has this name"),
    ({"h1": "x"}, "expected.json: expected.h1: expected an object, got 'x'"),
])
def test_bad_expected_block_is_error_report(tmp_path, expected, error):
    """A fault in expected.json becomes the case's Error report, by path."""
    case = tmp_path / "case-c"
    case.mkdir()
    _write(
        case / "scenario.json",
        {
            "schema": "k3ord/1",
            "id": "case-c",
            "checks": [{"name": "h1", "kind": "h1", "payload": _h1_payload()}],
        },
    )
    _write(
        case / "expected.json",
        {"schema": "k3ord/1", "expected": expected},
    )
    report = run_scenario(case)
    assert report.verdict == ERROR
    assert report.error == f"SchemaError: {error}"
    (other,) = run_corpus(tmp_path)
    assert other.verdict == ERROR


def test_root_errors_name_the_expected_file(tmp_path, capsys):
    """A root field at fault in expected.json reads apart from the same
    fault in scenario.json, in a corpus case and under --expect."""
    case = tmp_path / "case-e"
    case.mkdir()
    scenario = {
        "schema": "k3ord/2",
        "id": "case-e",
        "checks": [{"name": "sig", "kind": "signature", "payload": {"gram": [["2"]]}}],
    }
    expected = {"schema": "k3ord/2", "expected": {}}
    _write(case / "scenario.json", scenario)
    _write(case / "expected.json", expected)
    from_scenario = run_scenario(case).error
    _write(case / "scenario.json", {**scenario, "schema": "k3ord/1"})
    from_expected = run_scenario(case).error
    assert from_scenario == "SchemaError: schema: declares 'k3ord/2', this tool reads 'k3ord/1'"
    assert from_expected == "SchemaError: expected.json: " + from_scenario[len("SchemaError: "):]

    gram = tmp_path / "gram.json"
    _write(gram, {"schema": "k3ord/1", "gram": [["2"]]})
    _write(case / "expected.json", {"expected": {}})
    assert main(["signature", str(gram), "--expect", str(case / "expected.json")]) == 2
    assert capsys.readouterr().err == (
        "error: SchemaError: expected.json: missing the 'schema' field\n"
    )


def test_gen_corpus_regenerates_committed_corpus(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "gen_corpus", REPO / "tools" / "gen_corpus.py"
    )
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    assert gen_corpus.main(["gen_corpus.py", str(tmp_path)]) == 0

    def files(root):
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    assert files(tmp_path) == files(CORPUS)


def test_malformed_scenario_is_error_report(tmp_path):
    case = tmp_path / "case-d"
    case.mkdir()
    (case / "scenario.json").write_text("{broken", encoding="utf-8")
    report = run_scenario(case)
    assert report.verdict == ERROR
    assert "ParseError" in report.error


# --- CLI -----------------------------------------------------------------------------


def test_cli_corpus_run_json(capsys):
    code = main(["corpus", "run", "--corpus", str(CORPUS), "--format", "json"])
    assert code == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["totals"]["pass"] == "39"
    assert tree["totals"]["fail"] == "0"
    assert tree["totals"]["error"] == "0"


def test_cli_corpus_json_report_is_pinned(capsys):
    """The bytes `k3ord corpus run --format json` prints with the packaged
    corpus, pinned across commits.  A change that alters the report on
    purpose re-records this digest and says so in CHANGES.md."""
    assert main(["corpus", "run", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b7ef6e655635ec47abf0bb434eb8fa5e200014bbe7091ba5ba31f0eee233b260"
    )


def test_cli_corpus_filter(capsys):
    code = main(
        [
            "corpus",
            "run",
            "--corpus",
            str(CORPUS),
            "--case",
            "sextic-*",
            "--format",
            "json",
        ]
    )
    assert code == 0
    tree = json.loads(capsys.readouterr().out)
    assert len(tree["reports"]) == 16


def test_cli_missing_corpus_exit_2(capsys):
    code = main(["corpus", "run", "--corpus", "/no/such/dir"])
    assert code == 2
    assert "MissingCorpus" in capsys.readouterr().err


def test_cli_signature(tmp_path, capsys):
    doc = {"schema": "k3ord/1", "gram": [["0", "1"], ["1", "0"]]}
    path = tmp_path / "gram.json"
    _write(path, doc)
    code = main(["signature", str(path), "--format", "json"])
    assert code == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["checks"][0]["computed"] == {
        "positive": "1",
        "negative": "1",
        "zero": "0",
    }
    expect_bad = tmp_path / "expect-bad.json"
    _write(expect_bad, {"schema": "k3ord/1", "expected": {"positive": "2"}})
    assert main(["signature", str(path), "--expect", str(expect_bad)]) == 1
    assert "mismatch positive" in capsys.readouterr().out


@pytest.mark.parametrize(
    "gram, error",
    [
        ([["1", "2"], ["3", "1"]], "SchemaError: payload.gram[1][0]: "),
        ([["1", "2", "0"], ["2", "1", "0"], ["0", "5", "1"]], "SchemaError: payload.gram[2][1]: "),
        ([["1", "2", "7"], ["3", "1", "0"], ["0", "5", "1"]], "SchemaError: payload.gram[1][0]: "),
        ([["1", "2"]], "SchemaError: payload.gram[0]: length 2, expected 1"),
        ([["3²"]], "SchemaError: payload.gram[0][0]: "),
        ([["٣"]], "SchemaError: payload.gram[0][0]: "),
    ],
    ids=["not-symmetric", "not-symmetric-below", "not-symmetric-twice", "not-square",
         "superscript-digit", "arabic-indic-digit"],
)
def test_cli_signature_bad_gram_is_error_report(tmp_path, capsys, gram, error):
    path = tmp_path / "gram.json"
    _write(path, {"schema": "k3ord/1", "gram": gram})
    assert main(["signature", str(path), "--format", "json"]) == 2
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == ERROR
    assert tree["checks"][0]["error"].startswith(error)


def test_cli_digit_limit_is_error_report(tmp_path, capsys):
    """Integers past the int/str digit limit are refused on input and output."""
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter has no int/str digit limit")
    documents = {
        # input side: one gram entry too long to parse
        "signature": {"schema": "k3ord/1", "gram": [["1" * (limit + 1)]]},
        # output side: the coordinate parses, its square is too long to print
        "order-classify": {
            "schema": "k3ord/1",
            "payload": {
                "surface": "p2",
                "ramification": [{"class": ["1" * (limit * 3 // 4)], "e": "2"}],
                "cover_degree": "2",
            },
        },
    }
    for kind, doc in documents.items():
        path = tmp_path / f"{kind}.json"
        _write(path, doc)
        assert main([*KINDS[kind].words, str(path), "--format", "json"]) == 2
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["verdict"] == ERROR
        assert check["error"].startswith("SchemaError")
        assert f"{limit}-digit limit" in check["error"]


def test_cli_commands_come_from_the_kind_table(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert (
        "{signature,embed-check,isometry,h1,quotient-pic,ample,order,fibration,"
        "twist,corpus}" in capsys.readouterr().out
    )
    # an empty payload reaches each kind's handler and fails there, so the
    # report names the kind the command words dispatched to
    path = tmp_path / "empty.json"
    _write(path, {"schema": "k3ord/1", "payload": {}})
    for kind, row in KINDS.items():
        assert main([*row.words, str(path), "--format", "json"]) == 2
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert (check["kind"], check["verdict"]) == (kind, ERROR)


def test_cli_single_check_with_expectation(tmp_path, capsys):
    payload = {"schema": "k3ord/1", "kind": "h1", "payload": _h1_payload()}
    payload_path = tmp_path / "h1.json"
    _write(payload_path, payload)
    expect_good = tmp_path / "expect-good.json"
    _write(
        expect_good,
        {"schema": "k3ord/1", "expected": {"invariant_factors": ["2"]}},
    )
    assert main(["h1", str(payload_path), "--expect", str(expect_good)]) == 0
    capsys.readouterr()
    expect_bad = tmp_path / "expect-bad.json"
    _write(
        expect_bad,
        {"schema": "k3ord/1", "expected": {"invariant_factors": ["3"]}},
    )
    assert main(["h1", str(payload_path), "--expect", str(expect_bad)]) == 1
    out = capsys.readouterr().out
    assert "mismatch invariant_factors" in out


@pytest.mark.parametrize("declared", [None, ["h1"]], ids=["null", "array"])
def test_cli_kind_must_be_a_string(tmp_path, capsys, declared):
    path = tmp_path / "h1.json"
    _write(path, {"schema": "k3ord/1", "kind": declared, "payload": _h1_payload()})
    assert main(["h1", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: SchemaError: kind: expected a string, got {declared!r}\n"


def test_cli_kind_mismatch_rejected(tmp_path, capsys):
    payload = {"schema": "k3ord/1", "kind": "h1", "payload": _h1_payload()}
    path = tmp_path / "h1.json"
    _write(path, payload)
    assert main(["ample", str(path)]) == 2
    assert "SchemaError" in capsys.readouterr().err


def test_cli_rank_mismatched_action_is_schema_error(tmp_path, capsys):
    doc = {
        "schema": "k3ord/1",
        "payload": {
            "target": [["2"]],
            "source_gram": [["2"]],
            "columns": [["1"]],
            "action": [["1", "0"], ["0", "1"]],
        },
    }
    path = tmp_path / "bad.json"
    _write(path, doc)
    code = main(["isometry", str(path), "--format", "json"])
    assert code == 2
    tree = json.loads(capsys.readouterr().out)
    assert tree["verdict"] == ERROR
    assert "SchemaError" in tree["checks"][0]["error"]


def test_cli_timing_opt_in(tmp_path, capsys):
    documents = {
        "h1": {"schema": "k3ord/1", "payload": _h1_payload()},
        "signature": {"schema": "k3ord/1", "gram": [["2"]]},
    }
    for command, doc in documents.items():
        path = tmp_path / f"{command}.json"
        _write(path, doc)
        assert main([command, str(path), "--format", "json"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["checks"][0]["timing_ms"] is None
        assert main([command, str(path), "--format", "json", "--timing"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["checks"][0]["timing_ms"] is not None


def test_timing_reads_a_sub_millisecond_check_above_zero():
    """Under --timing a check's time is milliseconds as a decimal string
    with three places, so a check of a few microseconds is not read as 0;
    without it the field stays null."""
    doc = {"gram": [["2"]]}
    assert run_check("signature", "signature", doc, None).timing_ms is None
    readings = [run_check("signature", "signature", doc, None, True).timing_ms for _ in range(20)]
    assert all(re.fullmatch(r"\d+\.\d{3}", t) for t in readings), readings
    assert all(Decimal(t) > 0 for t in readings), readings
    assert min(map(Decimal, readings)) < 1, readings


def test_cli_builds_its_parser_tree_once(monkeypatch, tmp_path, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    gram = tmp_path / "gram.json"
    _write(gram, {"schema": "k3ord/1", "gram": [["2"]]})
    h1 = tmp_path / "h1.json"
    _write(h1, {"schema": "k3ord/1", "payload": _h1_payload()})
    assert main(["signature", str(gram)]) == 0
    tree_size = len(built)
    assert tree_size > 0
    assert main(["h1", str(h1), "--format", "json"]) == 0
    assert main(["order", "classify", str(h1)]) == 2
    assert main(["corpus", "run", "--corpus", str(tmp_path / "none")]) == 2
    with pytest.raises(SystemExit):
        main(["twist", "check", "--help"])
    capsys.readouterr()
    assert len(built) == tree_size
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_shared_parser_leaks_no_state_between_calls(monkeypatch, tmp_path, capsys):
    gram = tmp_path / "gram.json"
    _write(gram, {"schema": "k3ord/1", "gram": [["0", "1"], ["1", "0"]]})
    h1 = tmp_path / "h1.json"
    _write(h1, {"schema": "k3ord/1", "payload": _h1_payload()})
    expect_bad = tmp_path / "expect-bad.json"
    _write(expect_bad, {"schema": "k3ord/1", "expected": {"invariant_factors": ["3"]}})
    good = [
        ["h1", str(h1), "--expect", str(expect_bad), "--format", "json"],
        ["h1", str(h1)],
        ["signature", str(gram), "--format", "json"],
        ["corpus", "run", "--corpus", str(CORPUS), "--case", "f2"],
        ["signature", str(gram)],
    ]
    # a missing file argument, a bad choice, help, and --timing between them
    exits = [["h1"], ["h1", str(h1), "--format", "yaml"], ["--help"], ["corpus", "run", "--help"]]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    shared = []
    for argv, bad in zip(good, exits + [None]):
        shared.append(run(argv))
        if bad is not None:
            with pytest.raises(SystemExit):
                main(bad)
            run(["signature", str(gram), "--timing"])
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(argv) for argv in good]
    assert [code for code, _ in fresh] == [1, 0, 0, 0, 0]
    assert shared == fresh


_PARSED = ("file", "expect", "format", "timing", "corpus", "case", "handler")


def _argv_shapes(nodes):
    """Argument lists around every node of the parser tree: valid ones in
    every option order, help, and each way of getting them wrong."""
    shapes = [[], ["bogus"], ["bogus", "doc.json"], ["--bogus"], ["--", "h1", "doc.json"]]
    for words, node in nodes.items():
        words = list(words)
        shapes += [words + tail for tail in (["-h"], ["--help"], ["--he"], ["bogus"], ["--bogus"])]
        if node.get_default("handler") is None:
            continue
        if words == ["corpus", "run"]:
            groups = [["--corpus", "corpus"], ["--case", "f2"], ["--format", "json"], ["--timing"]]
        else:
            groups = [["doc.json"], ["--expect", "exp.json"], ["--format", "json"], ["--timing"]]
        first, lone = groups[0], groups[1][0]
        shapes += [words + sum(order, []) for order in itertools.permutations(groups)]
        shapes += [words + tail for tail in (
            [],
            first,
            first + ["extra"],
            first + ["--format", "yaml"],
            first + ["--format=json", "--tim"],
            first + ["--bogus"],
            first + ["--bogus", "extra"],
            first + [lone],
            ["--"] + first,
            ["--format", "json", "--"] + first,
        )]
        shapes += [["--format", "json", *words, *first], ["--timing", *words, *first]]
    return shapes


def _recording_tree(monkeypatch):
    """A fresh parser tree whose handlers record their arguments and return 0,
    used by every `main` call while the test runs."""
    tree, seen = cli.build_parser.__wrapped__(), []
    for node in tree.nodes.values():
        if node.get_default("handler") is not None:
            node.set_defaults(handler=lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli, "build_parser", lambda: tree)
    return tree, seen


def test_main_parses_as_the_whole_tree_does(monkeypatch, capsys):
    """`main` starts argparse at the deepest parser that its leading words
    name; for every argument list it must end exactly as the descent from
    the root does: the same exit, output, error text and parsed fields."""
    tree, seen = _recording_tree(monkeypatch)

    def reference(argv):
        args = tree.parse_args(argv)
        return args.handler(args)

    def outcome(call, argv):
        seen.clear()
        try:
            code = call(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        out, err = capsys.readouterr()
        fields = [{key: getattr(args, key, None) for key in _PARSED} for args in seen]
        return code, out, err, fields

    shapes = _argv_shapes(tree.nodes)
    assert len(tree.nodes) == 1 + 3 + 1 + len(KINDS) + 1
    outcomes = {}
    for argv in shapes:
        outcomes[tuple(argv)] = outcome(main, argv)
        assert outcomes[tuple(argv)] == outcome(reference, argv), argv
    codes = [code for code, *_ in outcomes.values()]
    assert codes.count(0) > 10 * 24 and codes.count("SystemExit(0)") > 40
    assert codes.count("SystemExit(2)") > 100
    _, _, err, _ = outcomes[("h1", "doc.json", "--bogus", "extra")]
    assert err.endswith("k3ord: error: unrecognized arguments: --bogus extra\n")


def test_a_check_kind_command_runs_only_its_own_parser(monkeypatch, capsys):
    tree, _ = _recording_tree(monkeypatch)
    ran = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        ran.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for row in KINDS.values():
        ran.clear()
        assert main([*row.words, "doc.json", "--format", "json"]) == 0
        assert ran == [tree.nodes[row.words]], row.words
    ran.clear()
    assert main(["corpus", "run", "--case", "f2"]) == 0
    assert ran == [tree.nodes["corpus", "run"]]
    # a shape that names no parser below the root starts at the root
    ran.clear()
    with pytest.raises(SystemExit):
        main(["--timing", "h1", "doc.json"])
    assert ran[0] is tree
    capsys.readouterr()


_UNREADABLE = {
    "not-utf8": (b"\xff\xfe{}", "is not UTF-8"),
    "nested": (b"[" * 100_000, "nested too deeply"),
    "nested-closed": (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
}


@pytest.mark.parametrize("name", _UNREADABLE)
def test_cli_unreadable_document_exits_2(tmp_path, capsys, name):
    content, message = _UNREADABLE[name]
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    good = tmp_path / "gram.json"
    _write(good, {"schema": "k3ord/1", "gram": [["2"]]})
    for argv in (["signature", str(bad)], ["signature", str(good), "--expect", str(bad)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ")
        assert message in captured.err


@pytest.mark.parametrize("file", ["scenario.json", "expected.json"])
@pytest.mark.parametrize("name", _UNREADABLE)
def test_corpus_run_reports_an_unreadable_case_and_goes_on(tmp_path, capsys, name, file):
    content, message = _UNREADABLE[name]
    for case in ("a-bad", "b-good"):
        (tmp_path / case).mkdir()
        _write(
            tmp_path / case / "scenario.json",
            {
                "schema": "k3ord/1",
                "id": case,
                "checks": [
                    {"name": "sig", "kind": "signature", "payload": {"gram": [["2"]]}}
                ],
            },
        )
    (tmp_path / "a-bad" / file).write_bytes(content)
    bad, good = run_corpus(tmp_path)
    assert (bad.case_id, bad.verdict) == ("a-bad", ERROR)
    assert bad.error.startswith("ParseError: ") and message in bad.error
    assert (good.case_id, good.verdict) == ("b-good", PASS)
    assert main(["corpus", "run", "--corpus", str(tmp_path), "--format", "json"]) == 2
    totals = json.loads(capsys.readouterr().out)["totals"]
    assert totals == {"pass": "1", "fail": "0", "error": "1"}
