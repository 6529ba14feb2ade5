"""Tests of the benchmark itself: traced counts and outputs repeat exactly.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced(workload, seed):
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    details = json.loads(
        (ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return last["metrics"], details["output_digest"]


@pytest.mark.parametrize("workload", ["corpus", "cohomology", "cli-documents"])
def test_traced_counts_and_outputs_repeat(workload):
    first, first_digest = traced(workload, 7)
    second, second_digest = traced(workload, 7)
    counts = {k for k in first if k.endswith(".calls")} | {"matrices.snf.max_bits"}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert isinstance(first_digest, str) and first_digest == second_digest


def test_extension_runs_only_on_corpus():
    metrics, _ = traced("cohomology", 3)
    assert metrics["extension.extend_by_minus_one.calls"]["value"] == 0
    assert metrics["cohomology.h1.calls"]["value"] > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = bench(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
