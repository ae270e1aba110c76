"""Extract-Transform-Load end to end: from a camera stream to SQL-style queries.

The introduction's motivating example: count how many electric vehicles pass
each traffic camera.  This example runs the full V-ETL path —

* **Extract**: segments are pulled from two synthetic traffic cameras;
* **Transform**: Skyscraper processes them with the EV-counting job;
* **Load**: the extracted detections are loaded into the warehouse, and the
  EV counts per camera are obtained with a simple grouped aggregate instead of
  re-running any CV model.

Run with::

    python examples/ev_warehouse.py
"""

from __future__ import annotations

from repro.baselines.static import StaticPolicy
from repro.cluster.resources import ClusterSpec
from repro.core.engine import IngestionEngine
from repro.core.profiles import build_profiles
from repro.video.content import ContentModel
from repro.video.stream import StreamConfig
from repro.warehouse.loader import EntityLoader
from repro.warehouse.query import AggregateSpec
from repro.workloads.ev import EVCountingWorkload


def ingest_camera(camera_id: str, seed: int, loader: EntityLoader, hours: float = 1.0) -> None:
    """Transform one camera's stream and load the detections into the warehouse."""
    workload = EVCountingWorkload(
        content_model=ContentModel(seed=seed),
        stream_config=StreamConfig(stream_id=camera_id, segment_seconds=2.0),
        seed=seed,
    )
    source = workload.make_source()

    # Keep the example small: a fixed mid-range configuration on 8 cores.
    configurations = [
        workload.knob_space.configuration(det_interval=10, yolo_size="medium"),
    ]
    profiles = build_profiles(workload, configurations, cores=8)
    engine = IngestionEngine(
        workload=workload,
        source=source,
        cluster=ClusterSpec(cores=8),
        buffer_capacity_bytes=1_000_000_000,
        keep_traces=True,
    )
    start = 8.0 * 3600.0  # morning rush hour
    result = engine.run(StaticPolicy(profiles, profiles[0]), start, start + hours * 3600.0)

    # Load step: ask the workload for the warehouse rows of every processed
    # segment (the Transform step only reported qualities).
    detections = []
    for trace in result.traces:
        segment = source.segment_at(trace.segment_index)
        rows = workload.warehouse_rows(profiles[0].configuration, segment)
        detections.extend(rows["detections"])
    loaded = loader.load_detections(detections)
    print(f"  {camera_id}: processed {result.segments_total} segments, loaded {loaded} rows")


def main() -> None:
    loader = EntityLoader()
    print("Ingesting two traffic cameras (1 hour each, morning rush) ...")
    ingest_camera("camera-downtown", seed=3, loader=loader)
    ingest_camera("camera-harbour", seed=17, loader=loader)

    print("\nQuery: EV detections per camera (no CV model at query time)")
    for camera, count in sorted(loader.ev_counts_by_camera().items()):
        print(f"  {camera:20s} {count:6d} EVs")

    print("\nQuery: total detections and mean confidence per camera and category")
    rows = (
        loader.warehouse.query("detections")
        .group_by("camera_id", "category")
        .aggregate(
            AggregateSpec("sum", "count", "total"),
            AggregateSpec("avg", "mean_confidence", "avg_confidence"),
        )
        .order_by("total", descending=True)
        .run()
    )
    for row in rows:
        print(
            f"  {row['camera_id']:20s} {row['category']:6s} "
            f"total={row['total']:6d}  avg_confidence={row['avg_confidence']:.2f}"
        )

    print("\nQuery: busiest 5 segments on the downtown camera")
    busiest = (
        loader.warehouse.query("detections")
        .where_equals("camera_id", "camera-downtown")
        .order_by("count", descending=True)
        .limit(5)
        .run()
    )
    for row in busiest:
        print(f"  t={row['timestamp']:9.1f}s  {row['category']:5s} count={row['count']}")


if __name__ == "__main__":
    main()
