"""Fleet ingestion: many cameras, one cluster, pluggable schedulers.

The quickstart ingests a single traffic camera.  This walkthrough scales the
same EV-counting job to a *fleet*: six phase-shifted cameras (their rush
hours are offset by two hours each, as across a city) share one 8-core box
and one daily cloud budget, and a scheduler decides which camera's pending
segment gets the cores next.  The staged offline pipeline is fitted once on
the base camera (through ``prepare_bundle``, which caches each offline
stage's artifacts when given a ``cache_dir=``) and shared across the fleet.

Run with::

    PYTHONPATH=src python examples/fleet_ingest.py

The streams x schedulers scaling matrix of this setup is the registered
``fleet_scaling`` figure spec::

    PYTHONPATH=src python -m repro.figures run --only fleet_scaling
"""

from __future__ import annotations

from repro.experiments.results import ExperimentTable, fleet_point
from repro.experiments.runner import ExperimentConfig, ExperimentRunner, prepare_bundle
from repro.workloads.ev import make_ev_setup
from repro.workloads.fleet import make_fleet_scenario

N_STREAMS = 6
PHASE_SHIFT_SECONDS = 2 * 3_600.0
BUFFER_BYTES = 192_000_000  # small enough that contention has consequences


def main() -> None:
    # Fit the offline phase once on the base camera (quickstart-sized window).
    print("Fitting the offline phase on the base camera ...")
    config = ExperimentConfig(
        history_days=0.5,
        online_days=0.05,
        cloud_budget_per_day=2.0,
        max_configurations=6,
        train_forecaster=False,
    )
    setup = make_ev_setup(history_days=config.history_days, online_days=config.online_days)
    runner = ExperimentRunner(prepare_bundle(setup, config))

    # Replicate the camera across the city: camera i sees the same content
    # process shifted by 2 h * i (offset rush hours).
    scenario = make_fleet_scenario(
        setup, N_STREAMS, phase_shift_seconds=PHASE_SHIFT_SECONDS
    )
    print(f"Fleet: {', '.join(scenario.stream_ids())}")

    # Ingest the fleet under each scheduler and compare.
    table = ExperimentTable(
        f"{N_STREAMS} cameras on one 8-core cluster, by scheduler"
    )
    results = {}
    for scheduler in ("fifo", "round-robin", "lag-aware"):
        print(f"Ingesting the fleet under the {scheduler!r} scheduler ...")
        result = runner.run_fleet(
            "skyscraper",
            scenario=scenario,
            scheduler=scheduler,
            cores=8,
            buffer_bytes=BUFFER_BYTES,
        )
        results[scheduler] = result
        table.add_row(**fleet_point(result, system="skyscraper").as_row())
    table.add_note("schedulers only differ once the shared cluster is contended")
    print()
    print(table.render())

    # Drill into one run: per-camera telemetry from the fleet result.
    fifo = results["fifo"]
    print()
    per_camera = ExperimentTable("per-camera breakdown (fifo)")
    for stream_id, stream_result in fifo.stream_results.items():
        per_camera.add_row(
            camera=stream_id,
            segments=stream_result.segments_total,
            dropped=stream_result.segments_dropped,
            quality=round(stream_result.weighted_quality, 3),
            mean_lag_s=round(stream_result.mean_lag_seconds, 2),
            peak_buffer_mb=round(stream_result.peak_buffer_bytes / 1e6, 1),
        )
    print(per_camera.render())
    print(
        f"\nShared daily cloud spend: "
        f"{ {day: round(spend, 3) for day, spend in fifo.cloud_spend_by_day.items()} }"
    )


if __name__ == "__main__":
    main()
