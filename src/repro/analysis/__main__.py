"""Command-line driver: ``python -m repro.analysis <command>``.

Commands
--------
``lint <paths...>``
    Run every rule over the given files/directories.  Exits 0 when
    clean, 1 when violations remain — this is the CI gate.
``rules``
    Print the rule catalog (id, name, rationale).
``contracts``
    Run the runtime-contract self-test against the production
    implementations; exits non-zero on any contract violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.contracts import ContractViolation, self_test
from repro.analysis.engine import PARSE_ERROR_RULE, lint_paths
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import REGISTRY, rule_catalog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis and runtime contracts for the TreePi repo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the lint rules over paths")
    lint.add_argument("paths", nargs="+", help="files or directories to lint")
    lint.add_argument(
        "--select",
        help="comma-separated rule ids or family prefixes (REPRO2 = "
        "every REPRO2xx rule) to run exclusively",
    )
    lint.add_argument(
        "--ignore",
        help="comma-separated rule ids or family prefixes to skip",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    lint.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule violation count summary",
    )

    sub.add_parser("rules", help="print the rule catalog")
    sub.add_parser("contracts", help="run the runtime-contract self-test")
    return parser


def _split(csv: Optional[str]) -> Optional[List[str]]:
    if not csv:
        return None
    return [item.strip().upper() for item in csv.split(",") if item.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "lint":
        select, ignore = _split(args.select), _split(args.ignore)
        known = sorted(set(REGISTRY) | {PARSE_ERROR_RULE})
        unknown = [
            r
            for r in (select or []) + (ignore or [])
            if not any(rule_id == r or rule_id.startswith(r) for rule_id in known)
        ]
        if unknown:
            print(
                f"error: unknown rule id(s) {', '.join(unknown)} "
                f"(see `python -m repro.analysis rules`)",
                file=sys.stderr,
            )
            return 2
        try:
            report = lint_paths(args.paths, select=select, ignore=ignore)
        except OSError as exc:
            print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        if args.fmt == "json":
            print(render_json(report))
        else:
            print(render_text(report, statistics=args.statistics))
        return 0 if report.ok else 1

    if args.command == "rules":
        print(rule_catalog())
        return 0

    if args.command == "contracts":
        try:
            for line in self_test():
                print(line)
        except ContractViolation as exc:
            print(f"CONTRACT VIOLATION: {exc}", file=sys.stderr)
            return 2
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
