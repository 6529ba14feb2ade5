"""Command line front end.

One subcommand per check kind, reading a payload document from a JSON
file, plus `corpus run` to execute the packaged worked examples.  The
subcommands are built in a loop over `runner.KINDS`, the one table of
check kinds: each row gives the command words (`h1`, or a group and a
word such as `order classify`) and the help line, and every subcommand
runs its document through `runner.run_check`.  The tree depends on
nothing but `runner.KINDS`, so `build_parser` builds it once per process.
`main` parses with the deepest parser that its leading words name (a
check kind's own, a group's for a group word alone, else the root's), so
one parser reads a command's arguments where argparse would descend to it
through every level; help, usage and error text are those of the descent.
All output is deterministic; `--timing` adds wall-clock fields and is off
by default so that repeated runs emit identical bytes.

Exit codes: 0 every check passed, 1 at least one comparison failed,
2 a file or computation was rejected.  Errors inside a check go to the
report on stdout; a file that cannot be read or has the wrong schema or
kind is reported on stderr.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import jsonio
from .errors import K3OrdError, SchemaError
from .runner import (
    KINDS,
    CheckOutcome,
    Report,
    exit_code,
    load_expected,
    run_check,
    run_corpus,
    summary_tree,
)

_GROUP_HELP = {
    "order": "order computations",
    "fibration": "section-group computations",
    "twist": "twist class checks",
}

# Kinds whose documents are flat, with the payload fields at the top level
# rather than under "payload", and the help for their file argument.
_FLAT_DOCUMENTS = {"signature": "JSON document with a gram field"}

_VALUE_LIMIT = 100


def _compact(tree) -> str:
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    if len(text) > _VALUE_LIMIT:
        return text[: _VALUE_LIMIT - 3] + "..."
    return text


def _render_check(check: CheckOutcome) -> list[str]:
    lines = [f"  {check.name} [{check.kind}]: {check.verdict}"]
    if check.error is not None:
        lines.append(f"    error: {check.error}")
        return lines
    for key in sorted(check.computed or {}):
        lines.append(f"    {key} = {_compact(check.computed[key])}")
    for assumption in check.assumptions:
        lines.append(f"    assuming: {assumption}")
    if check.diff:
        for entry in check.diff:
            lines.append(
                f"    mismatch {entry['field']}: expected "
                f"{_compact(entry['expected'])}, computed {_compact(entry['computed'])}"
            )
    if check.timing_ms is not None:
        lines.append(f"    time: {check.timing_ms} ms")
    return lines


def _render_report(report: Report) -> str:
    lines = [f"{report.case_id}: {report.verdict}"]
    if report.error is not None:
        lines.append(f"  error: {report.error}")
    for check in report.checks:
        lines.extend(_render_check(check))
    return "\n".join(lines)


def _print_report(report: Report, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(jsonio.dumps_canonical(report.to_tree()))
    else:
        print(_render_report(report))


def _run_single(kind: str, args) -> int:
    doc = jsonio.load_file(args.file)
    jsonio.check_schema(doc)
    declared = jsonio.field(doc, "", "kind", jsonio.as_str, default=kind)
    if declared != kind:
        raise SchemaError(f"kind: declares {declared!r}, the subcommand runs {kind!r}")
    if kind in _FLAT_DOCUMENTS:
        payload = doc
    else:
        payload = jsonio.field(doc, "", "payload", jsonio.as_dict)
    expected = load_expected(args.expect) if args.expect else None
    outcome = run_check(kind, kind, payload, expected, args.timing)
    report = Report(
        case_id=Path(args.file).stem,
        verdict=outcome.verdict,
        checks=(outcome,),
    )
    _print_report(report, args.format)
    return exit_code([report])


def _run_corpus_cmd(args) -> int:
    reports = run_corpus(args.corpus, args.case, args.timing)
    summary = summary_tree(reports)
    if args.format == "json":
        sys.stdout.write(jsonio.dumps_canonical(summary))
    else:
        for report in reports:
            print(_render_report(report))
        totals = summary["totals"]
        print(
            f"total: {len(reports)} cases, {totals['pass']} pass, "
            f"{totals['fail']} fail, {totals['error']} error"
        )
    return exit_code(reports)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default text)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timing fields (breaks byte-for-byte determinism)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3ord",
        description="exact lattice, cohomology, and order computations",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # every parser of the tree under its command words, () for the root
    parser.nodes = nodes = {(): parser}
    groups = {}
    for kind, row in KINDS.items():
        *group, word = row.words
        target = subparsers
        if group:
            (name,) = group
            if name not in groups:
                nodes[(name,)] = subparsers.add_parser(name, help=_GROUP_HELP[name])
                groups[name] = nodes[(name,)].add_subparsers(
                    dest="subcommand", required=True
                )
            target = groups[name]
        single = nodes[row.words] = target.add_parser(
            word, help=row.help, description=row.help
        )
        single.add_argument(
            "file", help=_FLAT_DOCUMENTS.get(kind, "payload JSON document")
        )
        single.add_argument("--expect", help="expected-values JSON document")
        _add_common(single)
        single.set_defaults(handler=functools.partial(_run_single, kind))

    corpus = nodes[("corpus",)] = subparsers.add_parser(
        "corpus", help="packaged worked examples"
    )
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    run = nodes[("corpus", "run")] = corpus_sub.add_parser("run", help="run corpus cases")
    run.add_argument(
        "--corpus", default="corpus", help="corpus directory (default ./corpus)"
    )
    run.add_argument("--case", help="only cases whose name matches this glob")
    _add_common(run)
    run.set_defaults(handler=_run_corpus_cmd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    depth = 0
    while depth < len(argv) and tuple(argv[: depth + 1]) in parser.nodes:
        depth += 1
    # what `parser.parse_args(argv)` does, minus the descent to this node
    args, extras = parser.nodes[tuple(argv[:depth])].parse_known_args(argv[depth:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.handler(args)
    except K3OrdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
