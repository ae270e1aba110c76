"""Online-adaptation trajectory: record the ``online_adaptation`` figure's run.

The registered figure spec ``online_adaptation`` (see
``src/repro/figures/catalog.py``) runs a regime-switching EV workload where
the statically fitted policy degrades after the shift while the adaptive
policy detects the drift (CUSUM over the online-observable signals), runs a
staged incremental re-fit through the content-addressed stage cache, and
re-plans.  This script does not run the spec: it reads the JSON artifact the
figures CLI wrote and exits 1 unless its status is ``ok``.

``--append-trajectory`` records the run as one point in the cross-PR
trajectory file ``benchmarks/BENCH_adaptation.json``: per-system quality,
the drift/re-fit counters, and the regime geometry, so later PRs can see
whether the adaptive margin and the staged-re-fit cache reuse held up.

Run the figure, then record it::

    PYTHONPATH=src python -m repro.figures run --only online_adaptation
    PYTHONPATH=src:. python -m benchmarks.bench_adaptation \
        --append-trajectory --label pr9 --date 2026-08-08
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from benchmarks.common import append_trajectory

#: Cross-PR trajectory: one point appended per measured milestone.
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_adaptation.json"

#: Where ``python -m repro.figures run --only online_adaptation`` writes.
DEFAULT_ARTIFACT = "artifacts/figures/online_adaptation.json"


def trajectory_point(payload: Dict[str, Any], label: str, date: str) -> Dict[str, Any]:
    """Distill one figure payload into a trajectory point."""
    qualities = {
        row["system"]: row["mean_true_quality"] for row in payload["rows"]
    }
    return {
        "label": label,
        "date": date,
        "rows": payload["rows"],
        "adaptation": payload["adaptation"],
        "regime": payload["regime"],
        "adaptive_margin": round(
            qualities["skyscraper_adaptive"] - qualities["static"], 6
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact",
        default=DEFAULT_ARTIFACT,
        help=f"figure artifact to read (default: {DEFAULT_ARTIFACT})",
    )
    parser.add_argument(
        "--append-trajectory",
        action="store_true",
        help="record the run in benchmarks/BENCH_adaptation.json",
    )
    parser.add_argument("--label", default="local", help="trajectory point label")
    parser.add_argument("--date", default="", help="trajectory point date")
    args = parser.parse_args(argv)
    path = Path(args.artifact)
    if not path.exists():
        raise SystemExit(
            f"{path} not found; run "
            "`python -m repro.figures run --only online_adaptation` first"
        )
    document = json.loads(path.read_text())
    print(f"{path}: {document['status']} ({document['mode']} mode)")
    if document["status"] != "ok":
        raise SystemExit(1)
    if args.append_trajectory:
        point = trajectory_point(document["payload"], label=args.label, date=args.date)
        append_trajectory(TRAJECTORY_PATH, "online_adaptation", point)


if __name__ == "__main__":
    main()
