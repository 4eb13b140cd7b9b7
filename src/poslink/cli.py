"""Command-line interface: compute invariants, run positivity tests,
ingest invariant tables, and survey positive braid closures.

Exit codes: 0 all records processed, 1 any hard error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .batch import (
    BatchResult,
    LinkRecord,
    cmd_compute,
    cmd_survey,
    cmd_test,
    ingest_csv,
    open_text,
    parsed_record,
    records_from_lines,
)
from .diagram import parse_braid, parse_pd
from .errors import ColumnMissing, FileUnreadable, PoslinkError


# built once per process: parsing leaves the parser unchanged, and argparse
# copies an ``append`` option's list default before it adds to it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poslink",
        description="Link invariants and positivity obstruction tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "record"), default="text",
                        help="text report or machine-readable JSON records")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    # records run one after another; --jobs 1 is still accepted because the
    # benchmark's worker passes it, and ROADMAP J removes both together
    common.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    common.add_argument("--mirror", choices=("auto", "never", "always"), default="auto",
                        help="normalize ingested data written in the mirror convention")

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--pd", action="append", default=[], metavar="TEXT",
                        help="PD expression, e.g. 'PD[X[1,4,2,5],...]'")
    inputs.add_argument("--braid", action="append", default=[], metavar="TEXT",
                        help="braid word, e.g. 'strands=2; 1 1 1'")
    inputs.add_argument("--file", metavar="PATH",
                        help="batch file: one diagram per line, or a CSV with --columns")
    inputs.add_argument("--columns", metavar="SPEC",
                        help="CSV role mapping, e.g. name=Name,jones=Jones,kh=Kh")

    p_compute = sub.add_parser("compute", parents=[common, inputs],
                               help="compute invariants of diagrams")
    p_compute.add_argument("--all", action="store_true", help="compute everything (default)")
    p_compute.add_argument("--jones", action="store_true")
    p_compute.add_argument("--conway", action="store_true")
    p_compute.add_argument("--kh", action="store_true")

    sub.add_parser("test", parents=[common, inputs],
                   help="run the positivity obstruction tests")

    p_ingest = sub.add_parser("ingest", parents=[common, inputs],
                              help="parse an invariant table and cross-validate")
    p_ingest.set_defaults(require_columns=True)

    p_survey = sub.add_parser("survey", parents=[common],
                              help="enumerate positive braid closures and test them all")
    p_survey.add_argument("--strands", type=int, default=3, metavar="N")
    p_survey.add_argument("--max-length", type=int, default=8, metavar="N")

    return parser


def _parse_columns(spec: str, parser: argparse.ArgumentParser) -> dict[str, str]:
    mapping = {}
    for part in spec.split(","):
        if "=" not in part:
            parser.error(f"--columns entries must look like role=Header: {part!r}")
        role, column = part.split("=", 1)
        mapping[role.strip()] = column.strip()
    return mapping


def _gather_records(args, parser) -> list[LinkRecord]:
    # the parsers are this module's bindings, which the benchmark's tracer wraps
    records = [parsed_record(text, "pd", parse_pd, text) for text in args.pd]
    records += [parsed_record(text, "braid", parse_braid, text) for text in args.braid]
    if args.file:
        if args.columns or args.file.endswith(".csv"):
            if not args.columns:
                parser.error("CSV input needs --columns to map roles to headers")
            records.extend(ingest_csv(args.file, _parse_columns(args.columns, parser)))
        else:
            records.extend(records_from_lines(open_text(args.file)))
    if not records:
        parser.error("no input: give --pd, --braid, or --file")
    return records


def _emit(batch: BatchResult, args) -> int:
    if args.format == "record":
        out = "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in batch) + "\n"
    else:
        out = render_text(batch)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"poslink: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(out)
    return 0 if batch.all_ok else 1


def _text(value) -> str:
    if value is None:
        return "-"
    return str(value).lower() if isinstance(value, bool) else str(value)


def render_text(batch: BatchResult) -> str:
    """Each record's JSON fields (:meth:`RecordResult.to_dict`) in their
    order, one per line, less the schema, the timing and empty fields: a
    field added to the record shows up here as ``key: value``."""
    lines: list[str] = []
    for r in batch:
        for key, value in r.to_dict().items():
            if key in ("schema", "timing_ms") or value is None:
                continue
            if key == "name":
                lines.append(f"== {value} ==")
            elif key == "invariants":
                lines.extend(f"{k}: {v}" for k, v in value.items())
            elif key == "gradings":
                shown = " ".join(f"{k}={v}" for k, v in value.items() if v is not None)
                lines.append(f"gradings: {shown}")
            elif key == "reports":
                for report in value:
                    lines.append("report:")
                    lines.extend(
                        f"  {k}: {_text(v)}" for k, v in report.items() if k != "equality" and v != ""
                    )
            elif key == "flags":
                lines.extend(f"flag: {flag}" for flag in value)
            else:
                lines.append(f"{key}: {_text(value)}")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs != 1:
        parser.error("--jobs must be 1: records run one after another")
    try:
        if args.command == "survey":
            # a braid needs two strands and one letter to cross anything
            if args.strands < 2:
                parser.error("survey needs --strands of at least 2")
            if args.max_length < 1:
                parser.error("survey needs --max-length of at least 1")
            batch = cmd_survey(args.strands, args.max_length)
            return _emit(batch, args)
        if getattr(args, "require_columns", False) and not (args.file and args.columns):
            parser.error("ingest needs --file and --columns")
        records = _gather_records(args, parser)
        if args.command == "test":
            batch = cmd_test(records, mirror=args.mirror)
        else:  # compute or ingest
            want = {"jones", "conway", "kh"}
            if args.command == "compute" and not args.all:
                chosen = {k for k in ("jones", "conway", "kh") if getattr(args, k)}
                if chosen:
                    want = chosen
            batch = cmd_compute(records, want=frozenset(want), mirror=args.mirror)
        return _emit(batch, args)
    except (FileUnreadable, ColumnMissing) as exc:
        print(f"poslink: {exc}", file=sys.stderr)
        return 1
    except PoslinkError as exc:
        print(f"poslink: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
