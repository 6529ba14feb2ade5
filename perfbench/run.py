"""Benchmark of k3ord: one workload, one seed, one fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Without ``--workload`` it runs every workload, each in a fresh process.

The package is imported from ``src/`` as it stands; nothing is installed and
no bytecode is written.  With ``--trace 0`` the run measures the end-to-end
metrics with tracing off; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  Times are scaled to a
reference host speed by the calibration slices (see ``calibration.py``); the
raw times are printed beside them.  Human-readable lines (a host note, the
calibration slices, every metric with its unit and sample count) come first;
the last line of standard output is one JSON object.  Full results and the
traced spans go to ``.perfbench-out/``.

The exit code is 0 when every answer was right, 1 when one was wrong, and 2
when the directory is not a k3ord checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
clock = time.perf_counter


def host_note() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
    }


def is_checkout(root: Path) -> bool:
    return (root / "src" / "k3ord" / "__init__.py").is_file() and (
        root / "corpus"
    ).is_dir()


def make_workload(root: Path, name: str, seed: int, workdir: Path):
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[name](root, seed, workdir)
    workload.warm_up()
    return workload


def time_setups(name: str, seed: int) -> list:
    """(raw, scaled) wall seconds of fresh processes that import, generate
    inputs and warm up.  Each child times calibration slices around its
    set-up, on whichever CPU it runs, and its time is scaled by them."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        child = subprocess.run(
            [sys.executable, "-B", __file__, "--workload", name, "--seed",
             str(seed), "--setup-only"],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        raw = clock() - start
        slices = json.loads(child.stdout.splitlines()[-1])["slices"]
        work = raw - sum(slices)
        times.append((work, work * calibration.REFERENCE_S / statistics.median(slices)))
    return times


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def run(args, root: Path, out_dir: Path) -> int:
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            slices = [calibration.slice_seconds() for _ in range(3)]
            make_workload(root, args.workload, args.seed, workdir)
            slices += [calibration.slice_seconds() for _ in range(3)]
            print(json.dumps({"slices": slices}))
            return 0
        setups = [] if args.trace else time_setups(args.workload, args.seed)
        workload = make_workload(root, args.workload, args.seed, workdir)
        return measure(args, workload, setups, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_pass(workload, tracer=None) -> dict:
    meter = calibration.Meter()
    start = clock()
    wrong, out_digest = workload.run_pass(meter, tracer)
    wall = clock() - start
    return {"meter": meter, "wall": wall, "seconds": meter.pass_seconds(wall),
            "wrong": wrong, "digest": out_digest}


def end_to_end(plain, setups) -> dict:
    """Each end-to-end metric as (scaled value, raw value, unit)."""
    scaled = [x for p in plain for x in p["meter"].latencies()]
    raw = [x for p in plain for x in p["meter"].raw]
    size = len(plain[0]["meter"].raw)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(s for _, s in setups),
                    statistics.median(r for r, _ in setups), "s"),
        "items_per_s": (statistics.median(size / p["seconds"] for p in plain),
                        statistics.median(size / (p["wall"] - sum(p["meter"].slices))
                                          for p in plain), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3,
                           statistics.median(raw) * 1e3, "ms"),
        "latency_p90_ms": (percentile_90(scaled) * 1e3, percentile_90(raw) * 1e3, "ms"),
        "peak_rss_mb": (rss, rss, "MB"),
    }


def measure(args, workload, setups, out_dir: Path) -> int:
    plain, traced = [], []
    first_tracer = None
    started = clock()
    while True:
        plain.append(timed_pass(workload))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                result = timed_pass(workload, tracer)
            finally:
                tracer.uninstall()
            result["summary"] = tracer.summary()
            result["snf_max_bits"] = tracer.snf_max_bits
            traced.append(result)
            if first_tracer is None:
                first_tracer = tracer  # its spans are written out at the end
        if clock() - started >= args.seconds:
            break

    passes = plain + traced
    attempted = sum(len(p["meter"].raw) for p in passes)
    failed = sum(p["wrong"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    consistent = len(digests) == 1
    slices = [s for p in passes for s in p["meter"].slices]
    samples = sum(len(p["meter"].raw) for p in plain)
    note = host_note()
    note["slice_ms"] = {
        "median": statistics.median(slices) * 1e3,
        "min": min(slices) * 1e3,
        "max": max(slices) * 1e3,
        "samples": len(slices),
        "reference": calibration.REFERENCE_S * 1e3,
    }
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host": note,
        "pass_size": workload.pass_size,
        "item": workload.unit,
        "passes": len(plain),
        "pass_wall_s": [p["wall"] for p in plain],
        "pass_scaled_s": [p["seconds"] for p in plain],
        "pass_latencies_s": [p["meter"].raw for p in plain],
        "pass_scales": [p["meter"].scale for p in plain],
        "latency_samples": samples,
        "setup_s": setups,
        "output_digest": digests[0] if consistent else digests,
        "failed_ratio": failed / attempted,
    }
    lines = [
        f"host: python {note['python']}, nproc {note['nproc']}, {note['cpu_model']}",
        "calibration slice: median {median:.3f} ms, min {min:.3f} ms, "
        "max {max:.3f} ms over {samples} slices; times below are scaled to a "
        "{reference:.3f} ms slice".format(**note["slice_ms"]),
        f"workload {workload.name}, seed {args.seed}: {len(plain)} untraced passes of "
        f"{workload.pass_size} items (an item is one {workload.unit}), "
        f"{samples} latency samples, output digest {result['output_digest']}",
        f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} items wrong)",
    ]
    if not args.trace:
        measured = end_to_end(plain, setups)
        metrics = {k: (v, u) for k, (v, _, u) in measured.items()}
        result["raw_metrics"] = {k: r for k, (_, r, _) in measured.items()}
        for name, (value, raw, unit) in measured.items():
            lines.append(f"{name} = {value:.6g} {unit} (raw {raw:.6g} {unit})")
    else:
        metrics, calls_repeat = per_layer(traced, plain)
        consistent = consistent and calls_repeat
        result["traced_passes"] = len(traced)
        result["traced_pass_wall_s"] = [p["wall"] for p in traced]
        first_tracer.write_spans(
            out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} = {value:.6g} {unit}")
    if not consistent:
        lines.append("error: passes over the same inputs disagreed")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    correct = failed == 0 and consistent
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }), flush=True)
    return 0 if correct else 1


def per_layer(traced, plain):
    """Per-layer metrics from the traced passes, and whether counts repeat.

    Layer times are raw seconds per pass; the overhead ratio compares scaled
    pass times, so host drift between the two kinds of pass cancels.
    """
    summaries = [p["summary"] for p in traced]
    calls = [{n: s["calls"] for n, s in summary.items()} for summary in summaries]
    bits = [p["snf_max_bits"] for p in traced]
    repeat = all(c == calls[0] for c in calls) and len(set(bits)) == 1

    def median_of(name, field):
        return statistics.median(s.get(name, {}).get(field, 0.0) for s in summaries)

    metrics = {}
    for _, _, name in tracing.FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[0].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (median_of(name, "self_s"), "s")
        if name in tracing.TOTAL_NAMES:
            metrics[f"{name}.total_s"] = (median_of(name, "total_s"), "s")
        if name == "matrices.snf":
            metrics["matrices.snf.max_bits"] = (bits[0], "bits")
    for kind in tracing.KINDS:
        name = f"runner.run_check.{kind}"
        metrics[f"{name}.total_s"] = (median_of(name, "total_s"), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["seconds"] for p in traced)
        / statistics.median(p["seconds"] for p in plain),
        "ratio",
    )
    assert list(metrics) == tracing.metric_names()
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *sorted(WORKLOADS)],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs and warm up, then exit")
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one --workload")
    root = Path.cwd()
    if not is_checkout(root):
        print(f"error: {root} holds no src/k3ord package and corpus/ directory",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run(args, root, root / ".perfbench-out")


def run_all(args) -> int:
    """Each workload in a fresh process, in turn; the worst exit code."""
    codes = []
    for name in WORKLOADS:
        codes.append(subprocess.run(
            [sys.executable, "-B", __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
        ).returncode)
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
