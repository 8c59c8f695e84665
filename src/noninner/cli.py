"""Command-line interface.

Subcommands:
    validate <file>             parse and consistency-check a .pcp file
    series <file>               print central series and basic structure
    conditions <file>           print the route decision and diagnostics
    certify <file> [--json]     run the full certification pipeline
    audit <dir> [--json]        certify a corpus directory against its
                                manifest route expectations

Exit codes: 0 success; 1 usage, I/O, manifest mismatch, a malformed
manifest or manifest entry, a group above the element bound (or, for
`conditions`, a central-automorphism solve that would hold more tail
tuples than that bound), a central series that stalls (`error:`, a
broken invariant), a failed selection step (`selection failed:`)
or a failed certification check (`certification failed:`); 2 parse
error or inconsistent presentation; 3 certified theorem violation.
When several failures occur the highest-priority code wins (3 over 2
over 1).  `audit` reports each failure of a group as a per-group status
and goes on with the next group; a manifest that is not valid JSON or
has no "groups" object ends it at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certify import certify_group
from .eligibility import decide_route, diagnostics, select_generators, select_n
from .errors import (
    CertificationError,
    InconsistentPresentationError,
    OrderBoundError,
    PcpSyntaxError,
    SelectionError,
    StructureError,
    TheoremViolationError,
)
from .pcpfile import parse_pcp_file
from .report import report_to_dict, report_to_json, report_to_text
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
        n_sub = select_n(group)
        ctx = select_generators(group, n_sub)
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
        except TheoremViolationError as exc:
            row["status"] = "THEOREM_VIOLATION"
            row["detail"] = str(exc)
            worst = max(worst, EXIT_THEOREM)
            results.append(row)
            continue
        except (PcpSyntaxError, InconsistentPresentationError) as exc:
            row["status"] = "PARSE_ERROR"
            row["detail"] = str(exc)
            worst = max(worst, EXIT_PARSE)
            results.append(row)
            continue
        except (OrderBoundError, SelectionError, RuntimeError, OSError) as exc:
            row["status"] = "ERROR"
            row["detail"] = str(exc)
            worst = max(worst, EXIT_USAGE)
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
    except TheoremViolationError as exc:
        print(f"THEOREM_VIOLATION: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except PcpSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InconsistentPresentationError as exc:
        print(f"inconsistent presentation: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SelectionError as exc:
        print(f"selection failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OrderBoundError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
