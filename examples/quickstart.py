"""Quickstart: fit the staged offline pipeline, then ingest live video.

This example follows the paper's Appendix-F walk-through with the EV-counting
job from the introduction: a traffic camera feeds a YOLO detector and a KCF
tracker, and Skyscraper tunes how often the detector runs and which model size
it uses.  The knobs live on the workload object; ``fit`` runs the staged
offline pipeline (sample -> filter -> profile -> categorize -> label ->
forecast, see ARCHITECTURE.md) with resumable per-stage caching, and
``ingest`` runs the online planner/switcher loop.

Run with::

    PYTHONPATH=src python examples/quickstart.py

For the paper's full evaluation, use the reproduction suite instead::

    PYTHONPATH=src python -m repro.figures run --all
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import asdict

from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.workloads.ev import EVCountingWorkload


def main() -> None:
    # The V-ETL job: UDFs, knobs, and the quality metric all live in the
    # workload object (the "user code" of the paper).
    workload = EVCountingWorkload(seed=3)
    source = workload.make_source()
    history_days = 0.5  # 12 h of recorded history (the paper uses two weeks)

    # Provision hardware: an 8-core on-premise box, a 2 GB video buffer, and
    # up to $2 of cloud credits per day.
    resources = SkyscraperResources(
        cores=8,
        buffer_bytes=2_000_000_000,
        cloud_budget_per_day=2.0,
    )
    sky = Skyscraper(workload, resources, n_categories=4, seed=0)

    # Offline phase (Section 3): a staged pipeline that filters knob
    # configurations and placements, builds content categories and (when
    # enabled) trains the forecaster.  A persistent stage_cache_dir= makes
    # re-runs resume from the cached per-stage artifacts.
    print("Running the staged offline pipeline on 12 hours of recorded video ...")
    stage_cache_dir = tempfile.mkdtemp(prefix="skyscraper-stages-")
    report = sky.fit(
        source,
        unlabeled_days=history_days,
        n_presample_segments=120,
        n_category_samples=150,
        forecast_label_period_seconds=60.0,
        max_configurations=6,
        train_forecaster=False,
        stage_cache_dir=stage_cache_dir,
    )
    print(f"  kept {len(report.kept_configurations)} knob configurations:")
    for profile in sky.profiles:
        print(
            f"    {profile.configuration.short_label():45s} "
            f"work={profile.work_core_seconds:6.2f} core-s/segment  "
            f"quality={profile.mean_quality:.2f}"
        )
    print(f"  content categories: {report.n_categories}")
    for line in sky.categorizer.describe():
        print(f"    {line}")
    for stage, seconds in report.stage_runtimes_seconds.items():
        print(f"  offline stage {stage:28s} {seconds:6.2f} s")
    print(
        f"  evaluation cache: {report.evaluation_cache_misses} evaluations, "
        f"{report.evaluation_cache_hits} deduplicated hits"
    )

    # The offline phase is expensive, so real deployments fit once: a second
    # fit with the same inputs resumes every cacheable stage from the
    # per-stage artifacts on disk instead of re-evaluating the history.
    resumed_sky = Skyscraper(workload, resources, n_categories=4, seed=0)
    refit_report = resumed_sky.fit(
        source,
        unlabeled_days=history_days,
        n_presample_segments=120,
        n_category_samples=150,
        forecast_label_period_seconds=60.0,
        max_configurations=6,
        train_forecaster=False,
        stage_cache_dir=stage_cache_dir,
    )
    resumed = [stage for stage, hit in refit_report.stage_cache_hits.items() if hit]
    print(f"  re-fit resumed from cache: {', '.join(resumed)}")
    shutil.rmtree(stage_cache_dir, ignore_errors=True)

    # Online phase (Section 4): ingest two hours of live video starting right
    # after the recorded history.
    print("\nIngesting 2 hours of live video ...")
    online_start = history_days * 86_400.0
    result = sky.ingest(source, start_time=online_start, duration=2 * 3600.0)
    print(f"  segments processed:    {result.segments_total}")
    print(f"  mean quality:          {result.weighted_quality:.3f} (entity weighted)")
    print(f"  knob switches:         {result.switch_count}")
    print(f"  on-premise work:       {result.on_prem_core_seconds:,.0f} core-seconds")
    print(f"  cloud spend:           ${result.cloud_dollars:.3f}")
    print(f"  peak buffer use:       {result.peak_buffer_bytes / 1e6:.1f} MB")
    print(f"  buffer overflowed:     {result.overflowed}")
    print("\nConfiguration usage:")
    for label, count in sorted(result.configuration_usage.items(), key=lambda item: -item[1]):
        print(f"    {label:45s} {count:5d} segments")

    # The instance resumed from the stage cache reproduces the direct fit's
    # ingestion exactly, traces included.
    print("\nIngesting the same 2 hours with the fit resumed from the stage cache ...")
    resumed_result = resumed_sky.ingest(
        source, start_time=online_start, duration=2 * 3600.0
    )
    match = asdict(resumed_result) == asdict(result)
    print(f"  resumed quality:       {resumed_result.weighted_quality:.3f} "
          f"({'identical to' if match else 'differs from'} the direct fit)")


if __name__ == "__main__":
    main()
