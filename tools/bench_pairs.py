"""A/B pairs of the benchmark: a parent commit against the working tree.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py --parent HEAD --workload cohomology \\
        --seeds 31-42 --seconds 25 [--claim items_per_s] \\
        [--out BENCH_N.json --key claim_check]

The parent is extracted with ``git archive <rev>`` into a temporary
directory.  For each seed, ``perfbench/run.py --trace 0`` runs once on the
parent and once on the working tree, each a fresh process in its own
checkout; the side that runs first alternates from pair to pair, the parent
first on the first seed.  The block written is the ``claim_check`` form of
the ``BENCH_*.json`` files: pairs, seeds, which side ran first, failed and
attempted items, and for each end-to-end metric of ``BENCHMARK.json`` both
sides' runs, medians, the parent's quartiles and the pairs the change won.
It is printed, and with ``--out`` merged into that JSON file at ``--key``
(dots name nested objects).  Nothing under ``perfbench/`` is changed.
Standard library only.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """'31-34,40' -> [31, 32, 33, 34, 40]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def last_json_line(stdout: str) -> dict:
    """The one JSON object that run.py prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(workload: str, seconds: float, pairs: list, better: dict, claim=None) -> dict:
    """The claim_check block from `pairs`, each {"seed", "first", "parent",
    "change"} with a side's parsed run.py output; `better` maps each
    end-to-end metric to "lower" or "higher"."""
    block = {"workload": workload}
    if claim:
        block["metric"] = claim
    block.update({
        "seconds": seconds,
        "pairs": len(pairs),
        "seeds": [p["seed"] for p in pairs],
        "first_in_pair": {str(p["seed"]): p["first"] for p in pairs},
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "correct": all(p[s]["correct"] for p in pairs for s in SIDES),
    })
    for name, direction in better.items():
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        quartiles = statistics.quantiles(runs["parent"], n=4, method="inclusive")
        median = {s: statistics.median(runs[s]) for s in SIDES}
        sign = 1 if direction == "higher" else -1
        block[name] = {
            "parent_median": round(median["parent"], 4),
            "change_median": round(median["change"], 4),
            "change_over_parent": round(median["change"] / median["parent"], 4),
            "parent_quartiles": [round(q, 4) for q in quartiles],
            "parent_iqr": round(quartiles[2] - quartiles[0], 4),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"])),
            "parent_runs": [round(x, 4) for x in runs["parent"]],
            "change_runs": [round(x, 4) for x in runs["change"]],
        }
    return block


def extract(rev: str, into: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    return last_json_line(out.stdout)


def merge(path: Path, key: str, block: dict) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    *outer, last = key.split(".")
    node = data
    for k in outer:
        node = node.setdefault(k, {})
    node[last] = block
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 31-42")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", help="the metric a gain is claimed on, recorded as given")
    parser.add_argument("--out", type=Path, help="a JSON file to merge the block into")
    parser.add_argument("--key", default="claim_check", help="where in --out, dotted")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs: give two seeds or more")
    tree = Path.cwd()
    better = {m["name"]: m["better"] for m in
              json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp), "change": tree}
        extract(args.parent, roots["parent"])
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(roots[side], args.workload, seed, args.seconds)
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{n} {pair[side]['metrics'][n]['value']:.4g}" for n in better),
                    file=sys.stderr, flush=True)
            pairs.append(pair)
    block = summarize(args.workload, args.seconds, pairs, better, args.claim)
    print(json.dumps(block, indent=1))
    if args.out:
        merge(args.out, args.key, block)
    return 0 if block["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
