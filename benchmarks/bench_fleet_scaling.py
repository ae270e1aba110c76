"""Ingestion-service scaling at an arbitrary fleet size.

``--streams N --shards a,b,c`` runs one fleet through the sharded
ingestion service at each shard count, far above figure scale — this is how
the acceptance run (``--streams 1024 --shards 1,4,8``) is produced — and
``--append-trajectory`` records the result as one point in the cross-PR
trajectory file ``benchmarks/BENCH_fleet_scaling.json``.

Run standalone::

    PYTHONPATH=src:. python -m benchmarks.bench_fleet_scaling \
        --streams 1024 --shards 1,4,8 [--append-trajectory --label pr6]

The figure-scale sweeps are the registered specs ``fleet_scaling`` and
``fleet_service_scaling``::

    PYTHONPATH=src python -m repro.figures run --only fleet_scaling fleet_service_scaling
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.common import append_trajectory, emit_bench, print_header

from repro.experiments.results import ExperimentTable
from repro.figures.context import BundleProvider
from repro.service.bench import run_service_scaling

#: Cross-PR scaling trajectory: one point appended per measured milestone.
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_fleet_scaling.json"


def run_service_bench(
    n_streams: int,
    shard_counts: Sequence[int],
    smoke: bool = False,
    online_days: float = 0.01,
) -> List[Dict[str, Any]]:
    """The direct (non-figure) service scaling run at an arbitrary scale."""
    provider = BundleProvider(smoke=smoke)
    bundle = provider.bundle("ev", online_days=online_days)
    rows = run_service_scaling(bundle, n_streams, shard_counts)
    print_header(
        f"Ingestion-service scaling: {n_streams} streams",
        "fleet service (beyond the paper)",
    )
    table = ExperimentTable("service scaling")
    for row in rows:
        table.add_row(**row)
    walls = {row["shards"]: row["wall_s"] for row in rows}
    widest, serial = max(walls), min(walls)
    if widest != serial:
        table.add_note(
            f"{widest}-shard wall {walls[widest]:.2f}s vs "
            f"{serial}-shard {walls[serial]:.2f}s "
            f"({walls[serial] / walls[widest]:.2f}x)"
        )
    print(table.render())
    all_terminal = all(
        row["success"] + row["dead_letter"] == row["streams"] for row in rows
    )
    scaled = widest == serial or walls[widest] < walls[serial]
    emit_bench(
        {
            "benchmark": "fleet_service_scaling",
            "mode": "smoke" if smoke else "full",
            "status": "ok" if (all_terminal and scaled) else "error",
            "streams": n_streams,
            "rows": rows,
        }
    )
    if not (all_terminal and scaled):
        raise SystemExit(1)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--streams", type=int, required=True, help="fleet size of the service run"
    )
    parser.add_argument("--shards", default="1,4,8", help="comma list of counts")
    parser.add_argument("--online-days", type=float, default=0.01)
    parser.add_argument(
        "--append-trajectory",
        action="store_true",
        help="record the run in benchmarks/BENCH_fleet_scaling.json",
    )
    parser.add_argument("--label", default="local", help="trajectory point label")
    parser.add_argument("--date", default="", help="trajectory point date")
    args = parser.parse_args(argv)
    shard_counts = [int(part) for part in args.shards.split(",")]
    rows = run_service_bench(
        args.streams, shard_counts, smoke=args.smoke, online_days=args.online_days
    )
    if args.append_trajectory:
        point = {
            "label": args.label,
            "date": args.date,
            "streams": rows[0]["streams"],
            "rows": rows,
        }
        append_trajectory(TRAJECTORY_PATH, "fleet_service_scaling", point)


if __name__ == "__main__":
    main()
