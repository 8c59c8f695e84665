"""Command-line interface.

Subcommands:
    validate <file>             parse and consistency-check a .pcp file
    series <file>               print central series and basic structure
    conditions <file>           print the route decision and diagnostics
    certify <file> [--json]     run the full certification pipeline
    audit <dir> [--json]        certify a corpus directory against its
                                manifest route expectations

Exit codes: 0 success; 1 a usage error (`usage error:`), a manifest
that is missing, not valid JSON or without a "groups" object
(`error:`), or an audited group whose route or manifest entry is wrong.
Any other failure ends in the code and stderr label of the first row of
`FAILURES` that its exception matches:

    3  THEOREM_VIOLATION          TheoremViolationError
    2  parse error                PcpSyntaxError
    2  inconsistent presentation  InconsistentPresentationError
    1  selection failed           SelectionError
    1  certification failed       CertificationError
    1  error                      OrderBoundError (a group above the
                                  element bound, or a central-automorphism
                                  solve past it), or any other RuntimeError
                                  (StructureError: a stalled central series)
    1  i/o error                  OSError

`audit` reports such a failure of a group as its status, THEOREM_VIOLATION
(3), PARSE_ERROR (2) or ERROR (1), goes on with the next group, and exits
with the highest code it met (3 over 2 over 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certify import certify_group
from .eligibility import decide_route, diagnostics, select_generators
from .errors import (
    CertificationError,
    InconsistentPresentationError,
    OrderBoundError,
    PcpSyntaxError,
    SelectionError,
    TheoremViolationError,
)
from .pcpfile import parse_pcp_file
from .report import report_to_json, report_to_text
from .structure import (
    coclass,
    derived_subgroup,
    frattini,
    lower_central_series,
    nilpotency_class,
    upper_central_series,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_THEOREM = 3

# How a failure ends a command: the first row whose classes match gives
# the exit code and the stderr label of `main`; `audit` keeps the group's
# status for the code and goes on.  RuntimeError catches the invariant
# errors without a row of their own, StructureError among them.
FAILURES = (
    ((TheoremViolationError,), EXIT_THEOREM, "THEOREM_VIOLATION"),
    ((PcpSyntaxError,), EXIT_PARSE, "parse error"),
    ((InconsistentPresentationError,), EXIT_PARSE, "inconsistent presentation"),
    ((SelectionError,), EXIT_USAGE, "selection failed"),
    ((CertificationError,), EXIT_USAGE, "certification failed"),
    ((OrderBoundError, RuntimeError), EXIT_USAGE, "error"),
    ((OSError,), EXIT_USAGE, "i/o error"),
)
_FAILURE_CLASSES = tuple(cls for classes, _, _ in FAILURES for cls in classes)
AUDIT_STATUS = {EXIT_THEOREM: "THEOREM_VIOLATION", EXIT_PARSE: "PARSE_ERROR", EXIT_USAGE: "ERROR"}


def _failure(exc: BaseException) -> tuple[int, str]:
    """Exit code and stderr label of the first `FAILURES` row that
    matches `exc`."""
    return next((code, label) for classes, code, label in FAILURES if isinstance(exc, classes))


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="noninner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and consistency-check")
    p_validate.add_argument("file")

    p_series = sub.add_parser("series", help="print central series sizes")
    p_series.add_argument("file")

    p_cond = sub.add_parser("conditions", help="print route decision")
    p_cond.add_argument("file")

    p_cert = sub.add_parser("certify", help="run the certification pipeline")
    p_cert.add_argument("file")
    p_cert.add_argument("--json", action="store_true", dest="as_json")
    p_cert.add_argument("--out", help="write the report to this path")

    p_audit = sub.add_parser("audit", help="certify a corpus directory")
    p_audit.add_argument("directory")
    p_audit.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_validate(args) -> int:
    doc = parse_pcp_file(Path(args.file))
    pres = doc.presentation
    print(
        f"{doc.group_id}: consistent, p = {pres.p}, {pres.ngens} generators, "
        f"order {pres.p ** pres.ngens}"
    )
    return EXIT_OK


def _cmd_series(args) -> int:
    doc = parse_pcp_file(Path(args.file))
    group = doc.group
    ucs = upper_central_series(group)
    lcs = lower_central_series(group)
    print(f"group   {doc.group_id}")
    print(f"order   {group.p}^{group.ngens} = {group.element_count}")
    print(f"class   {nilpotency_class(group)} (coclass {coclass(group)})")
    print("upper central series orders:", [s.order for s in ucs])
    print("lower central series orders:", [s.order for s in lcs])
    print("derived subgroup order:", derived_subgroup(group).order)
    print("Frattini subgroup order:", frattini(group).order)
    return EXIT_OK


def _cmd_conditions(args) -> int:
    doc = parse_pcp_file(Path(args.file))
    group = doc.group
    decision = decide_route(group)
    print(f"group   {doc.group_id}")
    print(decision.describe())
    diag = diagnostics(group)
    print("diagnostics:")
    for key, value in diag.items():
        print(f"    {key} = {value}")
    if decision.route.value == "ELIGIBLE":
        ctx = select_generators(group)
        print("selection:")
        for key, value in ctx.summary().items():
            print(f"    {key} = {value}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    doc = parse_pcp_file(Path(args.file))
    report = certify_group(doc.group, group_id=doc.group_id)
    text = report_to_json(report) if args.as_json else report_to_text(report)
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def _cmd_audit(args) -> int:
    root = Path(args.directory)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        print(f"error: no manifest.json in {root}", file=sys.stderr)
        return EXIT_USAGE
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        print(f"error: {manifest_path} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    groups = manifest.get("groups", {}) if isinstance(manifest, dict) else None
    if not isinstance(groups, dict):
        print(f'error: {manifest_path} needs a "groups" object', file=sys.stderr)
        return EXIT_USAGE
    worst = EXIT_OK
    results = []
    for group_id in sorted(groups):
        entry = groups[group_id]
        valid = isinstance(entry, dict)
        row = {"group_id": group_id, "expected_route": entry.get("route") if valid else None}
        if not valid:
            problem = "manifest entry is not an object"
        elif "file" not in entry:
            problem = 'manifest entry has no "file"'
        elif not isinstance(entry["file"], str):
            problem = 'manifest entry "file" is not a string'
        else:
            problem = None
        if problem is not None:
            row["status"] = "MANIFEST_ERROR"
            row["detail"] = problem
            worst = max(worst, EXIT_USAGE)
            results.append(row)
            continue
        try:
            doc = parse_pcp_file(root / entry["file"])
            report = certify_group(doc.group, group_id=group_id)
        except _FAILURE_CLASSES as exc:
            code = _failure(exc)[0]
            row["status"] = AUDIT_STATUS[code]
            row["detail"] = str(exc)
            worst = max(worst, code)
            results.append(row)
            continue
        row["route"] = report.route
        if report.route != entry.get("route"):
            row["status"] = "ROUTE_MISMATCH"
            worst = max(worst, EXIT_USAGE)
        else:
            row["status"] = "OK"
            if report.route == "ELIGIBLE":
                row["certified"] = bool(report.certificates.get("noninner"))
                row["chosen"] = report.chosen
        results.append(row)
    if args.as_json:
        print(json.dumps({"results": results, "exit": worst}, indent=2))
    else:
        for row in results:
            line = f"{row['group_id']:16s} {row['status']:18s}"
            line += f" route={row.get('route', '-')}"
            if "chosen" in row:
                line += f" chosen={row['chosen']}"
            print(line)
        summary = "all OK" if worst == EXIT_OK else f"failures (exit {worst})"
        print(f"audit: {len(results)} groups, {summary}")
    return worst


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "validate": _cmd_validate,
        "series": _cmd_series,
        "conditions": _cmd_conditions,
        "certify": _cmd_certify,
        "audit": _cmd_audit,
    }
    handler = handlers[args.command]
    try:
        return handler(args)
    except _FAILURE_CLASSES as exc:
        code, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
