"""tools/bench_pairs.py: its summary of A/B pairs, on canned run outputs."""

import importlib.util
import json

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(items_per_s, p90, failed=0, attempted=100):
    """The last line of a perfbench/run.py output, reduced to two metrics."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
        },
    }


BETTER = {"items_per_s": "higher", "latency_p90_ms": "lower"}


def test_seeds_and_the_last_output_line_are_read():
    assert bench_pairs.parse_seeds("31-34,40") == [31, 32, 33, 34, 40]
    assert bench_pairs.parse_seeds("7") == [7]
    stdout = "host note\nitems_per_s = 900 1/s\n" + json.dumps(_run(900.0, 1.9)) + "\n"
    assert bench_pairs.last_json_line(stdout) == _run(900.0, 1.9)


def test_summary_of_canned_pairs():
    pairs = [
        {"seed": 31, "first": "parent", "parent": _run(780.0, 2.38), "change": _run(903.0, 1.91)},
        {"seed": 32, "first": "change", "parent": _run(798.0, 2.37), "change": _run(901.0, 1.98)},
        {"seed": 33, "first": "parent", "parent": _run(790.0, 2.00), "change": _run(780.0, 2.10)},
        {"seed": 34, "first": "change", "parent": _run(800.0, 2.40), "change": _run(905.0, 1.90)},
    ]
    block = bench_pairs.summarize("cohomology", 8, pairs, BETTER, claim="items_per_s")
    assert block["workload"] == "cohomology" and block["metric"] == "items_per_s"
    assert (block["seconds"], block["pairs"], block["seeds"]) == (8, 4, [31, 32, 33, 34])
    assert block["first_in_pair"] == {"31": "parent", "32": "change", "33": "parent", "34": "change"}
    assert block["failed"] == {"parent": 0, "change": 0}
    assert block["attempted"] == {"parent": 400, "change": 400}
    assert block["correct"] is True
    items = block["items_per_s"]
    assert items["parent_runs"] == [780.0, 798.0, 790.0, 800.0]
    assert items["change_runs"] == [903.0, 901.0, 780.0, 905.0]
    assert (items["parent_median"], items["change_median"]) == (794.0, 902.0)
    assert items["change_over_parent"] == round(902 / 794, 4)
    # inclusive quartiles of 780, 790, 798, 800
    assert items["parent_quartiles"] == [787.5, 794.0, 798.5]
    assert items["parent_iqr"] == 11.0
    # higher is better here, lower for the latency: the third pair is lost on both
    assert items["change_wins"] == 3
    assert block["latency_p90_ms"]["change_wins"] == 3
    assert block["latency_p90_ms"]["parent_median"] == 2.375


def test_a_failed_item_marks_the_block_incorrect_and_ties_are_no_win(tmp_path):
    pairs = [{"seed": s, "first": first, "parent": _run(800.0, 2.0),
              "change": _run(800.0, 2.0, failed=2, attempted=50)}
             for s, first in ((1, "parent"), (2, "change"))]
    block = bench_pairs.summarize("corpus", 25, pairs, BETTER)
    assert "metric" not in block
    assert block["failed"] == {"parent": 0, "change": 4}
    assert block["attempted"] == {"parent": 200, "change": 100}
    assert block["correct"] is False
    assert block["items_per_s"]["change_wins"] == block["latency_p90_ms"]["change_wins"] == 0
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"what": "kept"}), encoding="utf-8")
    bench_pairs.merge(out, "workloads.corpus", block)
    bench_pairs.merge(out, "claim_check", {"pairs": 0})
    assert json.loads(out.read_text(encoding="utf-8")) == {
        "what": "kept", "workloads": {"corpus": block}, "claim_check": {"pairs": 0}}
