"""The service scaling harness: one fleet, swept across shard counts.

:func:`run_service_scaling` ingests the *same* fleet scenario through the
ingestion service at every requested shard count and reports, per cell:
wall-clock, drop rate, p99 ingestion lag, and Jain's fairness index over
the per-stream served fractions (fleet-wide and the worst shard).  Both
``benchmarks/bench_fleet_scaling.py --streams N --shards ...`` and the
registered ``fleet_service_scaling`` figure spec run through this one
function, so the CLI benchmark and the reproduction suite cannot drift.

Why more shards are faster: each shard brings its own cluster of
``cores_per_shard`` simulated cores, so ``n_shards`` shards simulate
``n_shards * cores_per_shard`` cores rather than splitting a fixed total.
More shards therefore add simulated capacity as well as processes: that
capacity drives drop rate and lag down with the shard count, and it
confounds the wall-clock speedup a row reports.  Splitting also shortens
each engine's per-serve scan of its ready streams under ``"fifo"`` (the
default here) and ``"round-robin"``; ``"lag-aware"`` serves from a heap
and gains nothing there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import SystemBundle
from repro.service.service import FleetIngestionService, ServiceConfig
from repro.workloads.fleet import make_fleet_scenario


def run_service_scaling(
    bundle: SystemBundle,
    n_streams: int,
    shard_counts: Sequence[int],
    system: str = "static",
    scheduler: str = "fifo",
    cores_per_shard: int = 8,
    buffer_bytes: Optional[int] = 256_000_000,
    phase_shift_seconds: float = 60.0,
) -> List[Dict[str, Any]]:
    """One scaling row per shard count over a fixed ``n_streams`` fleet.

    Every cell ingests an identical scenario (same sources, same ids), so
    differences between rows are attributable to sharding alone.  Rows are
    flat dicts ready for tables, BENCH payloads, and the figure schema.
    """
    if n_streams < 1:
        raise ConfigurationError("n_streams must be positive")
    if not shard_counts:
        raise ConfigurationError("pass at least one shard count")
    scenario = make_fleet_scenario(
        bundle.setup, n_streams, phase_shift_seconds=phase_shift_seconds
    )
    rows: List[Dict[str, Any]] = []
    for n_shards in shard_counts:
        config = ServiceConfig(
            n_shards=n_shards,
            system=system,
            scheduler=scheduler,
            cores_per_shard=cores_per_shard,
            buffer_bytes=buffer_bytes,
            collect_lags=True,
        )
        service = FleetIngestionService(bundle, config)
        service.submit_fleet(scenario=scenario)
        report = service.run()
        shard_fairness = [stats.jain_fairness for stats in report.shard_stats]
        rows.append(
            {
                "shards": int(n_shards),
                "streams": int(n_streams),
                "wall_s": round(report.wall_seconds, 3),
                "drop_rate": round(report.drop_rate, 4),
                "p99_lag_s": round(report.p99_lag_seconds, 3),
                "jain_fairness": round(report.jain_fairness, 4),
                "min_shard_fairness": round(min(shard_fairness), 4),
                "success": report.counts["success"],
                "dead_letter": report.counts["dead_letter"],
                "segments": report.segments_total,
            }
        )
    return rows
