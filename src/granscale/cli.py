"""Command-line interface.

Subcommands:
  granscale run --plan plan.json --out results.jsonl [--resume]
                [--records records.jsonl]
  granscale report --in results.jsonl --format csv|table|json [--out path]
                   [--verdict]
  granscale validate-fixture

`run` exits 0 on full completion, 1 when the plan is not valid (before
anything is written), and 2 when the sweep stopped partway with a failure
(the results file keeps every completed cell).
`report` exits 0, or 1 when the results file cannot be rendered as asked (a
corrupt line, a verdict on no cells, weak tables without a p=1 cell); it
names the file and the fault and writes nothing. Both exit 1 with
`error: <path>: <reason>` when a file they name cannot be read or written.
`--records` writes one JSON line per kept run (its spans, see
`RunRecord.from_json`) to a file: a fresh run rewrites it, and `--resume`
keeps the runs of the cells already in `--out`. The plan file and these
paths are a sweep's only inputs.
`validate-fixture` prints the deviation table and exits 0/1 on pass/fail.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import fixture, harness, report


def _cmd_run(args) -> int:
    try:
        plan = harness.ExperimentPlan.from_dict(json.loads(Path(args.plan).read_text()))
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {args.plan}: invalid plan: {exc}", file=sys.stderr)
        return 1
    try:
        results = harness.run_plan(
            plan, out_path=args.out, resume=args.resume, records_path=args.records,
        )
    except harness.CellExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"completed {len(results.cells)} cells -> {args.out}")
    return 0


def _cmd_report(args) -> int:
    try:
        results = harness.load_results(args.infile)
        if args.format == "json":
            text = report.json_report(results)
        elif results.mode == "strong":
            if args.format == "table":
                print("aligned tables are produced for weak-mode results; "
                      "emitting CSV for this strong-mode sweep", file=sys.stderr)
            text = report.strong_scaling_csv(results)
        else:
            time_table, speedup_table = report.weak_scaling_tables(results, fmt=args.format)
            text = time_table + "\n" + speedup_table
        text += "\n" + report.scalability_verdict(results) + "\n" if args.verdict else ""
    except ValueError as exc:
        # load_results's own messages already begin with the path.
        message = str(exc).removeprefix(f"{Path(args.infile)}: ")
        print(f"error: {args.infile}: {message}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate_fixture(_args) -> int:
    validation = fixture.validate_fixture()
    print(validation.report_text())
    return 0 if validation.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granscale",
        description="Estimate parallel speedup and scalability from instrumented runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment plan")
    p_run.add_argument("--plan", required=True, help="plan JSON file")
    p_run.add_argument("--out", required=True, help="results JSONL output path")
    p_run.add_argument("--resume", action="store_true", help="skip cells already in --out")
    p_run.add_argument("--records", help="write one JSON line per kept run to this file")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="render results")
    p_rep.add_argument("--in", dest="infile", required=True, help="results JSONL file")
    p_rep.add_argument("--format", choices=["csv", "table", "json"], default="csv")
    p_rep.add_argument("--out", help="output path (default: stdout)")
    p_rep.add_argument("--verdict", action="store_true", help="append the scalability verdict")
    p_rep.set_defaults(func=_cmd_report)

    p_val = sub.add_parser("validate-fixture", help="check the embedded published tables")
    p_val.set_defaults(func=_cmd_validate_fixture)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a file could not be read or written: name it, no traceback
        where = f"{exc.filename}: {exc.strerror}" if exc.filename is not None else exc
        print(f"error: {where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
