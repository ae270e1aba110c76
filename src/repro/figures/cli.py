"""The one-command reproduction entry point: ``python -m repro.figures``.

Subcommands::

    run    — execute registered figure specs, write JSON artifacts and
             regenerate REPRODUCTION.md
    list   — show the registered figures and what each one declares
    report — (re)render REPRODUCTION.md from existing artifacts, or verify
             it is up to date with --check

Typical usage::

    PYTHONPATH=src python -m repro.figures run --all             # full suite
    PYTHONPATH=src python -m repro.figures run --all --smoke --workers 2
    PYTHONPATH=src python -m repro.figures run --only fig04 table1
    PYTHONPATH=src python -m repro.figures report --check
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Union

import repro.figures.catalog  # noqa: F401  (registers the built-in specs)
from repro.figures.report import check_report, render_report, write_report
from repro.figures.spec import figure_names, figure_spec
from repro.figures.suite import (
    STATUS_ERROR,
    STATUS_OK,
    FigureArtifact,
    FigureSuite,
    load_artifacts,
    unregistered_artifact_paths,
)

#: Default locations, relative to the invoking directory (the repo root in
#: the documented workflow).
DEFAULT_OUT_DIR = "artifacts/figures"
DEFAULT_REPORT_PATH = "REPRODUCTION.md"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.figures",
        description=__doc__.splitlines()[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run figure specs, write artifacts, regenerate the report"
    )
    selection = run.add_mutually_exclusive_group(required=True)
    selection.add_argument(
        "--all", action="store_true", help="run every registered figure"
    )
    selection.add_argument(
        "--only",
        nargs="+",
        choices=figure_names(),
        metavar="FIGURE",
        help="run only these figure ids",
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized windows and sweep axes instead of benchmark scale",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-parallel fan-out across specs (default: sequential)",
    )
    run.add_argument(
        "--out", default=DEFAULT_OUT_DIR, help="artifact directory (one JSON per figure)"
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="offline-phase cache shared across figures and runs "
        "(default: <out>/.cache)",
    )
    run.add_argument(
        "--report",
        default=DEFAULT_REPORT_PATH,
        help=f"status report path (default: {DEFAULT_REPORT_PATH})",
    )
    run.add_argument(
        "--no-report", action="store_true", help="skip regenerating the report"
    )

    commands.add_parser("list", help="list the registered figures")

    report = commands.add_parser(
        "report", help="(re)render the report from existing artifacts"
    )
    report.add_argument(
        "--artifacts", default=DEFAULT_OUT_DIR, help="artifact directory to read"
    )
    report.add_argument(
        "--output",
        default=DEFAULT_REPORT_PATH,
        help=f"report path to write (default: {DEFAULT_REPORT_PATH})",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="verify the report matches the artifacts instead of writing it",
    )
    return parser


def _command_list() -> int:
    for figure_id in figure_names():
        spec = figure_spec(figure_id)
        extras = []
        if spec.workloads:
            extras.append(f"workloads: {', '.join(spec.workloads)}")
        if spec.systems:
            extras.append(f"systems: {', '.join(spec.systems)}")
        if spec.sweep:
            extras.append(f"sweeps: {', '.join(spec.sweep)}")
        suffix = f" ({'; '.join(extras)})" if extras else ""
        print(f"{figure_id:16s} {spec.paper_reference:28s} {spec.title}{suffix}")
    print(f"\n{len(figure_names())} registered figures/tables")
    return 0


def _load_registered(artifacts_dir: Union[str, Path]) -> List[FigureArtifact]:
    """The registered figures' artifacts; names each unregistered file it skips."""
    for path in unregistered_artifact_paths(artifacts_dir):
        print(f"skipped {path}: {path.stem!r} is not a registered figure")
    return load_artifacts(artifacts_dir)


def _command_run(args: argparse.Namespace) -> int:
    ids = figure_names() if args.all else list(args.only)
    suite = FigureSuite(out_dir=args.out, cache_dir=args.cache_dir, smoke=args.smoke)
    print(
        f"Running {len(ids)} figure spec(s) in {suite.mode} mode "
        f"(workers={args.workers}, artifacts -> {suite.out_dir}, "
        f"cache -> {suite.cache_dir}) ..."
    )
    artifacts = suite.run(ids, workers=args.workers)
    for artifact in artifacts:
        cache = artifact.meta.get("cache", {})
        print(
            f"  {artifact.figure_id:16s} {artifact.status:12s} "
            f"{artifact.meta.get('wall_seconds', 0.0):8.2f} s  "
            f"(fits {cache.get('fits', 0)}, stage hits {cache.get('stage_hits', 0)}, "
            f"memo {cache.get('memo_hits', 0)})  "
            f"{artifact.payload.get('headline', '')}"
        )
    if not args.no_report:
        # Regenerate from every registered figure's artifact on disk, so
        # partial runs (--only) keep the other figures' rows.
        on_disk = _load_registered(suite.out_dir)
        path = write_report(on_disk, args.report)
        print(f"Wrote {path} ({len(on_disk)} figures)")
    errors = [a for a in artifacts if a.status == STATUS_ERROR]
    not_ok = [a for a in artifacts if a.status != STATUS_OK]
    print(
        f"{len(artifacts) - len(not_ok)}/{len(artifacts)} ok, "
        f"{len(not_ok) - len(errors)} with failed checks, {len(errors)} errored"
    )
    # Failed declarative checks gate the exit code exactly like errors do —
    # they are the suite's replacement for the legacy benchmark asserts.
    return 1 if not_ok else 0


def _command_report(args: argparse.Namespace) -> int:
    artifacts = _load_registered(args.artifacts)
    if not artifacts:
        print(f"no artifacts found under {args.artifacts}; run the suite first")
        return 1
    if args.check:
        if check_report(artifacts, args.output):
            print(f"{args.output} is up to date with {args.artifacts}")
            return 0
        expected = render_report(artifacts)
        current = (
            Path(args.output).read_text()
            if Path(args.output).exists()
            else "(missing)"
        )
        print(
            f"{args.output} is stale: regenerate with "
            f"`python -m repro.figures report --artifacts {args.artifacts} "
            f"--output {args.output}` "
            f"({len(current.splitlines())} lines on disk vs "
            f"{len(expected.splitlines())} rendered)"
        )
        return 1
    path = write_report(artifacts, args.output)
    print(f"Wrote {path} ({len(artifacts)} figures)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    return _command_report(args)


if __name__ == "__main__":
    sys.exit(main())
