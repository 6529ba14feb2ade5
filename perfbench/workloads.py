"""The three benchmark workloads: inputs made from a seed, and their checks.

Every workload is a closed loop: one caller, one item at a time, the next
item only after the previous one returns.  An item is

* ``corpus``: one check of the packaged corpus, run through
  ``runner.run_corpus`` exactly as ``k3ord corpus run`` does;
* ``cohomology``: one family call group on a conjugated cover model;
* ``cli-documents``: one single-check document through ``cli.main``.

Answers are checked against values the code under test did not produce:
the values recorded in ``corpus/*/expected.json``, invariants of a
unimodular change of basis computed here with plain integer lists, and
closed forms (a trivial action on Z/m at order n has H^1 = Z/gcd(n, m)).
Inputs are generated with the standard library only; nothing here calls
k3ord to make an input or an expected value.

A workload offers ``warm_up()`` and ``run_pass(meter, tracer)``.
``run_pass`` times each item through the meter. It returns the number of
wrong items and a digest of its outputs. It calls k3ord through module
attributes (``cohomology.h1``), so a traced pass sees every call.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

# Corpus cases that carry the 18 cover models, keyed by catalog model.
MODEL_CASES = [(f"sextic-n{n:02d}", ("sextic", n)) for n in range(3, 19)] + [
    ("quadric", ("quadric", None)),
    ("f2", ("hirzebruch2", None)),
]

# Involutions are also declared at orders 2k.  Every seed uses the same
# spread of k, so seeds differ in conjugations, not in order-driven work.
ORDER_MULTIPLES = (2, 3, 4, 6, 8, 12, 16, 24, 32)

# Declared orders of the generated fibration and twist documents.
CYCLIC_ORDERS = (2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2000)


# -- plain integer matrices (lists of rows), independent of k3ord ---------------


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rank_and_det(a):
    """Rank, and the determinant when square and of full rank, over Q."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][c]
        for r in range(rank + 1, rows):
            f = m[r][c] / m[rank][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, (det if rows == cols == rank else Fraction(0))


def unimodular(n, rng, ops, largest):
    """A seeded unimodular U and its inverse, from elementary column moves."""
    u, u_inv = identity(n), identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([s * k for k in range(1, largest + 1) for s in (1, -1)])
        for row in u:  # column j += c * column i
            row[j] += c * row[i]
        u_inv[i] = [x - c * y for x, y in zip(u_inv[i], u_inv[j])]
    if mat_mul(u, u_inv) != identity(n):
        raise AssertionError("generated change of basis is not unimodular")
    return u, u_inv


def strs(node):
    """Plain integers to the decimal-string form of k3ord documents."""
    if isinstance(node, list):
        return [strs(x) for x in node]
    return str(node)


def ints(node):
    if isinstance(node, list):
        return [ints(x) for x in node]
    return int(node)


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_case(corpus: Path, case: str):
    """Checks of one corpus case by name: {name: (kind, payload, expected)}."""
    scenario = read_json(corpus / case / "scenario.json")
    expected_path = corpus / case / "expected.json"
    expected = read_json(expected_path)["expected"] if expected_path.exists() else {}
    return {
        c["name"]: (c["kind"], c["payload"], expected.get(c["name"]))
        for c in scenario["checks"]
    }


def check_kind(case_checks, kind):
    return next(v for v in case_checks.values() if v[0] == kind)


# -- corpus ---------------------------------------------------------------------


class CorpusWorkload:
    """The 39 packaged cases, copied in a seeded order, through run_corpus."""

    name = "corpus"
    warm_cases = ("quadric", "orders-p2-cubic", "fibration-trivial-n3", "bielliptic-type3")

    def __init__(self, root: Path, seed: int, workdir: Path):
        from k3ord import runner

        self.runner = runner
        source = root / "corpus"
        cases = sorted(p.name for p in source.iterdir() if (p / "scenario.json").is_file())
        random.Random(seed).shuffle(cases)
        self.corpus = workdir / "corpus"
        self.checks = 0
        for i, case in enumerate(cases):
            dest = self.corpus / f"{i:02d}-{case}"
            dest.mkdir(parents=True)
            for f in ("scenario.json", "expected.json"):
                if (source / case / f).is_file():
                    shutil.copyfile(source / case / f, dest / f)
            self.checks += len(read_json(source / case / "scenario.json")["checks"])
        self.pass_size = self.checks
        self.unit = "check"

    def warm_up(self):
        for case in self.warm_cases:
            self.runner.run_corpus(self.corpus, f"*-{case}")

    def run_pass(self, meter, tracer=None):
        runner = self.runner
        inner = runner.run_check
        outcomes = []

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.item = len(outcomes)
            outcome = meter.item(inner, *args, **kwargs)
            outcomes.append(outcome)
            return outcome

        runner.run_check = timed
        try:
            reports = runner.run_corpus(self.corpus)
        finally:
            runner.run_check = inner
        wrong = sum(o.verdict != runner.PASS for o in outcomes)
        wrong += sum(r.verdict != runner.PASS and not r.checks for r in reports)
        wrong += abs(self.checks - len(outcomes))
        trees = [r.to_tree() for r in reports]
        return wrong, digest(json.dumps(trees, sort_keys=True))


# -- cohomology -----------------------------------------------------------------


class CohomologyWorkload:
    """Conjugated cover models: h1 at orders 2 and 2k, class tests, quotients."""

    name = "cohomology"

    def __init__(self, root: Path, seed: int, workdir: Path):
        from k3ord import catalog, cohomology, lattices, matrices

        self.cohomology, self.matrices = cohomology, matrices
        IntMatrix, Lattice = matrices.IntMatrix, lattices.Lattice
        rng = random.Random(seed)
        corpus = root / "corpus"
        self.items = []
        for case, (family, n) in MODEL_CASES:
            if family == "sextic":
                model = catalog.sextic_model(n)
            elif family == "quadric":
                model = catalog.quadric_model()
            else:
                model = catalog.hirzebruch2_model()
            checks = load_case(corpus, case)
            _, h1_payload, h1_expected = check_kind(checks, "h1")
            _, _, quotient_expected = check_kind(checks, "quotient-pic")
            gram, action = ints(h1_payload["gram"]), ints(h1_payload["action"])
            if gram != [list(r) for r in model.pic.gram.to_rows()] or action != [
                list(r) for r in model.action.to_rows()
            ]:
                raise AssertionError(f"catalog model differs from corpus case {case}")
            rank = len(gram)
            fixed = quotient_expected["fixed_gram"]
            answer = {
                "factors": tuple(ints(h1_expected["invariant_factors"])),
                "classes": [
                    (h1_expected["classes"][c["name"]]["cocycle"],
                     h1_expected["classes"][c["name"]]["coboundary"])
                    for c in h1_payload["classes"]
                ],
                "fixed": rank_and_det(ints(fixed)),
                "half": rank_and_det(ints(quotient_expected["half_gram"])),
            }
            for k in ORDER_MULTIPLES:
                u, u_inv = unimodular(rank, rng, ops=2 * rank, largest=2)
                g = mat_mul(mat_mul(transpose(u), gram), u)
                sigma = mat_mul(mat_mul(u_inv, action), u)
                vectors = [tuple(mat_vec(u_inv, ints(c["vector"]))) for c in h1_payload["classes"]]
                lattice = Lattice(IntMatrix.from_rows(g))
                self.items.append({
                    "lattice": lattice,
                    "sigma": IntMatrix.from_rows(sigma),
                    "sigma_rows": sigma,
                    "order": 2 * k,
                    "vectors": vectors,
                    "answer": answer,
                })
        rng.shuffle(self.items)
        self.pass_size = len(self.items)
        self.unit = "h1 family call group"

    def run_item(self, item):
        coh, mat = self.cohomology, self.matrices
        at_two = coh.GLattice(item["lattice"], item["sigma"], 2)
        at_order = coh.GLattice(item["lattice"], item["sigma"], item["order"])
        h_two = coh.h1(at_two)
        h_order = coh.h1(at_order)
        norm, diff = coh.norm_and_diff(at_order)
        classes = [
            (not any(norm.mul_vec(v)), mat.solve_integer(diff, v) is not None)
            for v in item["vectors"]
        ]
        fixed = coh.fixed_sublattice(at_two)
        half = coh.half_gram_quotient(at_two)
        return h_two, h_order, classes, fixed, half

    def check(self, item, output) -> bool:
        h_two, h_order, classes, fixed, half = output
        answer = item["answer"]
        basis = [list(fixed.matrix.col(j)) for j in range(fixed.matrix.cols)]
        return (
            h_two.invariant_factors == answer["factors"]
            and h_order.invariant_factors == answer["factors"]
            and h_two.free_rank == 0 == h_order.free_rank
            and classes == answer["classes"]
            and all(mat_vec(item["sigma_rows"], b) == b for b in basis)
            and rank_and_det([list(r) for r in fixed.source.gram.to_rows()]) == answer["fixed"]
            and rank_and_det([list(r) for r in half.gram.to_rows()]) == answer["half"]
        )

    @staticmethod
    def summary(output):
        h_two, h_order, classes, fixed, half = output
        return (h_two, h_order, classes, fixed.matrix.entries, half.gram.entries)

    def warm_up(self):
        for item in sorted(self.items, key=lambda it: it["lattice"].rank)[:2]:
            self.run_item(item)

    def run_pass(self, meter, tracer=None):
        outputs = []
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = i
            outputs.append(meter.item(self.run_item, item))
        wrong = sum(not self.check(it, out) for it, out in zip(self.items, outputs))
        return wrong, digest([self.summary(o) for o in outputs])


# -- cli-documents --------------------------------------------------------------

SMALL_CASES = [f"sextic-n{n:02d}" for n in range(3, 9)] + ["quadric", "f2"]
SCHEMA = "k3ord/1"


def invariant_chain(orders):
    """Invariant factors (all > 1) of a sum of at most two cyclic groups."""
    orders = [d for d in orders if d > 1]
    if len(orders) == 2:
        a, b = orders
        orders = [math.gcd(a, b), a * b // math.gcd(a, b)]
    return [d for d in sorted(orders) if d > 1]


def spread(values, count, rng):
    """``count`` picks that use each of ``values`` equally often (to within
    one), in a seeded order."""
    pool = list(values)
    rng.shuffle(pool)
    picks = [pool[i % len(pool)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def recorded(check):
    """A corpus payload as it stands, expecting its recorded values."""
    _, payload, expected = check
    return {"payload": payload}, {k: v for k, v in expected.items()
                                  if k not in ("source", "note")}


def trivial_fibration(order, rng):
    """Trivial action on Z/m1 (+ Z/m2) at the order: H^1 = sum of Z/gcd(n, m)."""
    moduli = [rng.randint(2, 10**6) * rng.choice((1, order))
              for _ in range(rng.choice((1, 2)))]
    factors = [math.gcd(order, m) for m in moduli]
    payload = {"model": {"finite_cyclic": strs(moduli)}, "endo": {"order": str(order)}}
    want = {
        "invariant_factors": strs(invariant_chain(factors)),
        "finite_factors": strs([d for d in factors if d > 1]),
        "elliptic_factors": [],
        "free_rank": "0",
    }
    return {"payload": payload}, want


def trivial_twist(order, rng):
    """Trivial action on Z/m at the order: s is a cocycle iff n*s = 0 mod m,
    and a coboundary iff s = 0 mod m."""
    modulus = rng.randint(2, 10**6)
    step = modulus // math.gcd(order, modulus)
    element = rng.choice((step * rng.randint(0, 5), rng.randint(0, 10**6)))
    payload = {
        "model": {"finite_cyclic": [str(modulus)]},
        "endo": {"order": str(order)},
        "element": {"finite": [str(element)]},
    }
    want = {
        "cocycle": (order * element) % modulus == 0,
        "coboundary": element % modulus == 0,
    }
    return {"payload": payload}, want


class CliDocumentsWorkload:
    """Small single-check documents through cli.main with --expect.

    Every subcommand gets the same number of documents, and every seed
    draws its variants from the same fixed lists, so seeds differ in the
    conjugations, moduli, elements and order of the documents, not in the
    amount of each kind of work.
    """

    name = "cli-documents"
    per_command = 20

    def __init__(self, root: Path, seed: int, workdir: Path):
        from k3ord import cli

        self.cli = cli
        rng = random.Random(seed)
        corpus = root / "corpus"
        self.cases = {c: load_case(corpus, c) for c in SMALL_CASES}
        verbatim = {
            kind: [check_kind(load_case(corpus, p.name), kind)
                   for p in sorted(corpus.glob(pattern))]
            for kind, pattern in (("order-classify", "orders-*"),
                                  ("fibration-h1", "fibration-*"),
                                  ("twist-check", "bielliptic-*"))
        }
        n = self.per_command
        docs = []
        for case in spread(SMALL_CASES, n, rng):
            docs.append((("signature",), *self._signature(case, rng)))
            docs.append((("embed-check",), *self._embed_check(case, rng)))
            docs.append((("ample",), *self._ample(case, rng)))
            quotient = check_kind(self.cases[case], "quotient-pic")
            docs.append((("quotient-pic",), *recorded(quotient)))
        for case, k in zip(spread(SMALL_CASES, n, rng), spread(ORDER_MULTIPLES, n, rng)):
            docs.append((("h1",), *self._h1(case, 2 * k, rng)))
        for check in spread(verbatim["order-classify"], n, rng):
            docs.append((("order", "classify"), *recorded(check)))
        few = n - len(CYCLIC_ORDERS)
        for check in spread(verbatim["fibration-h1"], few, rng):
            docs.append((("fibration", "h1"), *recorded(check)))
        for check in spread(verbatim["twist-check"], few, rng):
            docs.append((("twist", "check"), *recorded(check)))
        for order in CYCLIC_ORDERS:
            docs.append((("fibration", "h1"), *trivial_fibration(order, rng)))
            docs.append((("twist", "check"), *trivial_twist(order, rng)))
        rng.shuffle(docs)

        self.dir = workdir / "documents"
        self.dir.mkdir(parents=True)
        self.items = []
        for i, (command, doc, expected) in enumerate(docs):
            path = self.dir / f"{i:04d}.json"
            expect_path = self.dir / f"{i:04d}.expected.json"
            path.write_text(json.dumps({"schema": SCHEMA, **doc}), encoding="utf-8")
            expect_path.write_text(
                json.dumps({"schema": SCHEMA, "expected": expected}), encoding="utf-8"
            )
            argv = [*command, str(path), "--expect", str(expect_path), "--format", "json"]
            self.items.append((argv, expected))
        self.pass_size = len(self.items)
        self.unit = "document"

    def _conjugate(self, case, kind, rng):
        _, payload, expected = check_kind(self.cases[case], kind)
        rank = len(payload.get("source_gram") or payload["gram"])
        u, u_inv = unimodular(rank, rng, ops=rank, largest=2)
        gram = ints(payload.get("source_gram") or payload["gram"])
        return payload, expected, u, u_inv, mat_mul(mat_mul(transpose(u), gram), u)

    def _signature(self, case, rng):
        _, expected, _, _, gram = self._conjugate(case, "embedding-check", rng)
        return {"gram": strs(gram)}, dict(expected["source_signature"])

    def _embed_check(self, case, rng):
        payload, expected, u, _, gram = self._conjugate(case, "embedding-check", rng)
        new = dict(payload, columns=strs(mat_mul(ints(payload["columns"]), u)),
                   source_gram=strs(gram))
        want = {k: expected[k] for k in ("isometric", "primitive", "source_signature")}
        return {"payload": new}, want

    def _ample(self, case, rng):
        # pairings are invariant when the gram, the candidate and the
        # generators all change basis together
        payload, expected, _, u_inv, gram = self._conjugate(case, "ample-cert", rng)
        gens = payload.get("generators") or strs(identity(len(gram)))
        new = {
            "gram": strs(gram),
            "candidate": strs(mat_vec(u_inv, ints(payload["candidate"]))),
            "generators": [strs(mat_vec(u_inv, ints(g))) for g in gens],
        }
        want = {k: expected[k] for k in ("pairings", "passed", "self_intersection")}
        return {"payload": new}, want

    def _h1(self, case, order, rng):
        # H^1 of an involution declared at order 2k equals that at order 2,
        # since ker k(1 + sigma) = ker(1 + sigma)
        payload, expected, u, u_inv, gram = self._conjugate(case, "h1", rng)
        new = {
            "gram": strs(gram),
            "action": strs(mat_mul(mat_mul(u_inv, ints(payload["action"])), u)),
            "order": str(order),
            "classes": [
                {"name": c["name"], "vector": strs(mat_vec(u_inv, ints(c["vector"])))}
                for c in payload["classes"]
            ],
        }
        want = {k: expected[k] for k in ("invariant_factors", "free_rank", "classes")}
        return {"payload": new}, want


    def run_item(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    @staticmethod
    def check(expected, output) -> bool:
        code, text = output
        if code != 0:
            return False
        try:
            report = json.loads(text)
        except ValueError:
            return False
        (check,) = report["checks"]
        computed = check["computed"] or {}
        return (
            report["verdict"] == "Pass"
            and check["diff"] is None
            and all(computed.get(k) == v for k, v in expected.items())
        )

    def warm_up(self):
        seen = set()
        for argv, _ in self.items:
            if argv[0] not in seen:
                seen.add(argv[0])
                self.run_item(argv)

    def run_pass(self, meter, tracer=None):
        outputs = []
        for i, (argv, _) in enumerate(self.items):
            if tracer is not None:
                tracer.item = i
            outputs.append(meter.item(self.run_item, argv))
        wrong = sum(not self.check(exp, out) for (_, exp), out in zip(self.items, outputs))
        return wrong, digest(outputs)


WORKLOADS = {
    w.name: w for w in (CorpusWorkload, CohomologyWorkload, CliDocumentsWorkload)
}
