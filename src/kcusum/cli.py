"""Command-line front end.

Subcommands: ``trace``, ``mtbfa``, ``md``, ``bounds``, ``calibrate``.
Exit codes: 0 on success, 1 on any configuration error, 2 when a
campaign's results are unreliable (a threshold row exceeded 50%
truncation, or every replication false-alarmed).  Outputs are still
written in the exit-2 case; the code is a reliability signal.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .harness import build_context, make_output_directory, run_experiment, write_bounds_txt

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kcusum",
        description="Streaming kernel change detection: traces, campaigns, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("trace", "monitor one trajectory and write trace.csv (+ SVG panels)"),
        ("mtbfa", "Monte Carlo mean time between false alarms vs threshold"),
        ("md", "Monte Carlo mean detection delay vs threshold"),
        ("bounds", "evaluate closed-form guarantees and write bounds.txt"),
        ("calibrate", "run holdout calibration and print the correction"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="campaign seed override")
        cmd.add_argument(
            "--replications", type=int, default=None, help="replication count override"
        )
    return parser


def _overrides(args) -> dict:
    """Command-line values as ``section.key`` entries for the config parser."""
    values = {"campaign.seed": args.seed, "campaign.replications": args.replications}
    if args.command in ("trace", "mtbfa", "md"):
        values["campaign.mode"] = args.command
    return {name: value for name, value in values.items() if value is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))

        if args.command == "calibrate":
            if cfg.detector.correction != "calibrate":
                raise ConfigError(
                    "detector.correction: the calibrate subcommand needs "
                    "correction = calibrate"
                )
            context = build_context(cfg, cfg.campaign.seed)
            for note in context.notes:
                print(note)
            return 0

        if args.command == "bounds":
            import os

            context = build_context(cfg, cfg.campaign.seed)
            directory = make_output_directory(args.out if args.out is not None else cfg.output.directory)
            path = os.path.join(directory, "bounds.txt")
            write_bounds_txt(path, cfg, context)
            with open(path, "r", encoding="utf-8") as fh:
                print(fh.read(), end="")
            print(f"wrote {path}")
            return 0

        result = run_experiment(cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    for note in result.notes:
        print(note)
    directory = args.out if args.out is not None else cfg.output.directory
    written = "trace.csv" if result.mode == "trace" else "campaign.csv"
    print(f"wrote {directory}/{written}, bounds.txt, notes.txt")
    if result.aborted:
        print(
            "campaign unreliable: every replication false-alarmed before the change",
            file=sys.stderr,
        )
        return 2
    if any(row.unreliable for row in result.rows):
        print(
            "campaign unreliable: a threshold row exceeded 50% truncation",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
