"""Shared helpers for the benchmark scripts.

The paper's figures and tables are registered specs run by one entry point,
``python -m repro.figures run --only ID`` (see
``src/repro/figures/catalog.py``); nothing here runs a figure.  The scripts
under this directory run outside the figure specs and share three
conventions through this module: the banner above their tables, the
machine-readable ``BENCH {...}`` json line CI greps out of their output, and
the cross-PR trajectory files ``benchmarks/BENCH_*.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

#: Prefix of the machine-readable result line every benchmark emits.
BENCH_PREFIX = "BENCH "


def emit_bench(payload: Dict[str, Any]) -> str:
    """Print (and return) the machine-readable ``BENCH {...}`` json line.

    The single place the line format lives: one json object per line,
    ``sort_keys`` for stable diffs, prefixed by :data:`BENCH_PREFIX` so CI
    can grep it out of arbitrary human-readable output.
    """
    line = BENCH_PREFIX + json.dumps(payload, sort_keys=True)
    print(line)
    return line


def parse_bench_lines(text: str) -> List[Dict[str, Any]]:
    """Parse every ``BENCH`` payload out of captured benchmark output.

    The inverse of :func:`emit_bench`; CI smoke steps use it instead of
    re-implementing the prefix-and-json convention per workflow step.
    """
    return [
        json.loads(line[len(BENCH_PREFIX):])
        for line in text.splitlines()
        if line.startswith(BENCH_PREFIX)
    ]


def print_header(title: str, paper_reference: str) -> None:
    """The banner every benchmark prints above its tables."""
    print()
    print("#" * 78)
    print(f"# {title}")
    print(f"# paper reference: {paper_reference}")
    print("#" * 78)


def append_trajectory(path: Path, benchmark: str, point: Dict[str, Any]) -> None:
    """Append one measured point to a cross-PR trajectory file.

    A missing file starts as ``{"benchmark": benchmark, "points": []}``;
    the file is rewritten as indented json with a trailing newline.
    """
    if path.exists():
        trajectory = json.loads(path.read_text())
    else:
        trajectory = {"benchmark": benchmark, "points": []}
    trajectory["points"].append(point)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended point {point['label']!r} to {path}")
