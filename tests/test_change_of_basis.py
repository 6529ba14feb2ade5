"""Change-of-basis relations through the runner.

Every lattice-kind check of the corpus runs through `runner.run_check`
twice: as recorded, and with its lattices re-based by seeded unimodular
matrices.  A check computes properties of lattices and maps, not of the
bases they are written in, so the two runs must agree: equal where the
answer is basis-free, related by the change of basis where it is not.
That exercises the payload readers, the defaults and the assembly of
`computed` on documents that the fixed corpus does not hold.

Notation: a basis change of a lattice with Gram G is a unimodular U, with
new coordinates x' = U^-1 x and Gram U^T G U.  A map P from a source
re-based by U to a target re-based by V becomes V^-1 P U, and an action
sigma on a lattice re-based by U becomes U^-1 sigma U.
"""

import random
from pathlib import Path

from k3ord import jsonio
from k3ord.lattices import build_K3
from k3ord.matrices import IntMatrix
from k3ord.runner import PASS, find_cases, run_check

from oracles import fraction_signature, hermite_rows, random_unimodular, snf_with_transforms

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEED = 20261020
REBASES = 3  # re-bases of each corpus check: about 1 s in all
STEPS = 40  # elementary operations in each unimodular matrix


def _ints(rows):
    return [[int(x) for x in row] for row in rows]


def _strs(rows):
    return [[str(x) for x in row] for row in rows]


def _t(a):
    return [list(col) for col in zip(*a)]


def _mul(a, b):
    cols = _t(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _vec(m, v):
    return [sum(int(x) * y for x, y in zip(v, row)) for row in m]


def _unimodular(rng, n):
    u, u_inv = random_unimodular(rng, n, STEPS)
    return u.to_rows(), u_inv.to_rows()


def _congruent(gram, u):
    return _mul(_mul(_t(u), gram), u)


def _conjugate(u_inv, action, u):
    return _mul(_mul(u_inv, action), u)


def _invariants(gram):
    """Signature and Smith invariant factors: a Gram matrix up to congruence."""
    rows = _ints(gram)
    n = len(rows)
    if not n:
        return (0, 0, 0), []
    _, d, _ = snf_with_transforms(rows, n)
    return fraction_signature(IntMatrix.from_rows(rows)), [abs(d[i][i]) for i in range(n)]


def _run(check, payload):
    outcome = run_check(check["name"], check["kind"], payload)
    assert outcome.verdict == PASS, (check["name"], outcome.error)
    return outcome


def _rebase_action(payload, rng):
    gram = _ints(payload["gram"])
    u, u_inv = _unimodular(rng, len(gram))
    new = {
        "gram": _strs(_congruent(gram, u)),
        "action": _strs(_conjugate(u_inv, _ints(payload["action"]), u)),
        "order": payload["order"],
    }
    return new, (u, u_inv)


def _rebase_h1(payload, rng):
    """Each class vector is re-based and moved by a coboundary (1 - sigma) w,
    which leaves its class alone; one more class is a coboundary itself."""
    new, (u, u_inv) = _rebase_action(payload, rng)
    action = _ints(new["action"])
    n = len(action)

    def boundary():
        w = [rng.randint(-3, 3) for _ in range(n)]
        return [x - y for x, y in zip(w, _vec(action, w))]

    classes = payload.get("classes", [])
    assert all(c["name"] != "boundary" for c in classes)
    new["classes"] = [
        {"name": c["name"], "vector": [str(x + y) for x, y in zip(_vec(u_inv, c["vector"]), boundary())]}
        for c in classes
    ] + [{"name": "boundary", "vector": [str(x) for x in boundary()]}]
    return new, (u, u_inv)


def _relate_h1(before, after, basis):
    classes = dict(before.computed.get("classes", {}), boundary={"cocycle": True, "coboundary": True})
    assert after.computed == dict(before.computed, classes=classes)


def _relate_quotient_pic(before, after, basis):
    """The fixed sublattice is the same lattice, written in the new basis;
    its Gram and the half Gram change only by congruence."""
    old_basis = _ints(before.computed["fixed_basis"])
    new_basis = _ints(after.computed["fixed_basis"])
    u, _ = basis
    n = len(u)
    moved = [_vec(u, b) for b in new_basis]
    assert hermite_rows(moved, n) == hermite_rows(old_basis, n)
    for key in ("fixed_gram", "half_gram"):
        assert _invariants(after.computed[key]) == _invariants(before.computed[key]), key


def _rebase_ample(payload, rng):
    gram = _ints(payload["gram"])
    n = len(gram)
    u, u_inv = _unimodular(rng, n)
    gens = payload.get("generators") or [[int(i == j) for j in range(n)] for i in range(n)]
    new = {
        "gram": _strs(_congruent(gram, u)),
        "candidate": [str(x) for x in _vec(u_inv, payload["candidate"])],
        "generators": [[str(x) for x in _vec(u_inv, g)] for g in gens],
    }
    return new, (u, u_inv)


def _relate_whole(before, after, basis):
    assert after.computed == before.computed
    assert after.assumptions == before.assumptions


_K3 = build_K3().gram.to_rows()


def _rebase_embedding(payload, rng):
    source = _ints(payload["source_gram"])
    target = _K3 if payload["target"] == "K3" else _ints(payload["target"])
    u, u_inv = _unimodular(rng, len(source))
    v, v_inv = _unimodular(rng, len(target))
    new = {
        "source_gram": _strs(_congruent(source, u)),
        "target": _strs(_congruent(target, v)),
        "columns": _strs(_mul(_mul(v_inv, _ints(payload["columns"])), u)),
    }
    if "action" in payload:
        new["action"] = _strs(_conjugate(u_inv, _ints(payload["action"]), u))
    return new, (v, v_inv)


def _relate_extension(before, after, basis):
    """The extension is the same isometry of the target, in the new basis."""
    v, v_inv = basis
    for key in ("integral", "orthogonal", "involutive"):
        assert after.computed[key] == before.computed[key], key
    assert after.assumptions == before.assumptions
    phi = before.computed["matrix"]
    want = None if phi is None else _strs(_conjugate(v_inv, _ints(phi), v))
    assert after.computed["matrix"] == want


_REBASE = {
    "h1": (_rebase_h1, _relate_h1),
    "quotient-pic": (_rebase_action, _relate_quotient_pic),
    "ample-cert": (_rebase_ample, _relate_whole),
    "embedding-check": (_rebase_embedding, _relate_whole),
    "isometry-extend": (_rebase_embedding, _relate_extension),
}


def _corpus_checks(kinds):
    for case in find_cases(CORPUS):
        for check in jsonio.load_file(case / "scenario.json")["checks"]:
            if check["kind"] in kinds:
                yield check


def test_lattice_checks_agree_after_a_change_of_basis():
    rng = random.Random(SEED)
    seen = {kind: 0 for kind in _REBASE}
    for check in _corpus_checks(_REBASE):
        rebase, relate = _REBASE[check["kind"]]
        before = _run(check, check["payload"])
        for _ in range(REBASES):
            payload, basis = rebase(check["payload"], rng)
            relate(before, _run(check, payload), basis)
        seen[check["kind"]] += 1
    assert min(seen.values()) >= 18, seen


def _cyclic_shift(n):
    return [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]


def _block_diag(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


def test_fibration_h1_agrees_after_a_change_of_basis_of_its_free_part():
    """Each corpus fibration-h1 check gains a free part: its own free action,
    if any, beside a cyclic shift of size the order.  Conjugating that free
    action by a unimodular U leaves every invariant factor where it was."""
    rng = random.Random(SEED)
    for check in _corpus_checks({"fibration-h1"}):
        payload = check["payload"]
        endo, model = payload["endo"], payload["model"]
        order = int(endo["order"])
        free = _block_diag(_ints(endo.get("free_action", [])), _cyclic_shift(order))
        plain = {
            "model": {**model, "free_rank": str(len(free))},
            "endo": {**endo, "free_action": _strs(free)},
        }
        before = _run(check, plain)
        for _ in range(REBASES):
            u, u_inv = _unimodular(rng, len(free))
            rebased = {**plain, "endo": {**endo, "free_action": _strs(_conjugate(u_inv, free, u))}}
            after = _run(check, rebased)
            for key in ("invariant_factors", "free_rank", "finite_factors", "elliptic_factors"):
                assert after.computed[key] == before.computed[key], (check["name"], key)
