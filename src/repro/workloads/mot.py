"""Multi-object tracking workload (Section 5.2, Appendix J).

The MOT workload runs a TransMOT-style graph-transformer tracker over a busy
traffic intersection.  Its four knobs are the processed frame rate, the number
of tiles, the length of the frame history fed to the tracker, and the model
size.  Quality is the number of correctly tracked pedestrians, weighted by the
model's reported certainty (the paper uses certainty as an accuracy proxy).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.interfaces import SegmentOutcome
from repro.core.knobs import KnobConfiguration, KnobSpace
from repro.video.codec import DecodeCostModel
from repro.video.content import ContentModel, DiurnalProfile
from repro.video.frame import VideoSegment
from repro.video.stream import StreamConfig
from repro.vision.dag import Task, TaskGraph
from repro.vision.embedding import SimulatedEmbedder
from repro.vision.tracker import SimulatedTransMOT
from repro.vision.udf import OperatorCost
from repro.warehouse.loader import TrackRecord
from repro.workloads.base import BaseWorkload, WorkloadSetup

_NATIVE_FPS = 30.0


def _mot_knob_space() -> KnobSpace:
    space = KnobSpace()
    # "frame rate (every {60, 30, 5, 1} frames)": value = process every N-th frame.
    space.register_knob("frame_skip", (60, 30, 5, 1))
    space.register_knob("tiles", (1, 2))
    space.register_knob("history", (1, 2, 3, 5))
    space.register_knob("model_size", ("small", "medium", "large"))
    return space


def _mot_content_model(seed: int = 11) -> ContentModel:
    """The Shibuya crossing: dense pedestrian traffic with heavy rush hours."""
    return ContentModel(
        seed=seed,
        diurnal=DiurnalProfile(
            night_level=0.12,
            day_level=0.6,
            morning_peak_hour=8.5,
            evening_peak_hour=18.5,
            peak_level=1.0,
            peak_width_hours=2.0,
        ),
        burst_rate_per_hour=50.0,
        burst_duration_seconds=45.0,
        burst_magnitude=0.3,
    )


class MotWorkload(BaseWorkload):
    """The multi-object tracking V-ETL job."""

    def __init__(
        self,
        content_model: Optional[ContentModel] = None,
        stream_config: Optional[StreamConfig] = None,
        seed: int = 11,
    ):
        super().__init__(
            name="mot",
            knob_space=_mot_knob_space(),
            content_model=content_model or _mot_content_model(seed),
            stream_config=stream_config
            or StreamConfig(stream_id="mot-shibuya", segment_seconds=2.0),
        )
        self.seed = seed
        self.tracker = SimulatedTransMOT()
        self.embedder = SimulatedEmbedder(name="vgg-embedder", seconds_per_item=0.008)
        self.decode = DecodeCostModel()

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def build_task_graph(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> TaskGraph:
        frame_skip = int(configuration["frame_skip"])
        tiles_per_side = int(configuration["tiles"])
        history = int(configuration["history"])
        model_size = str(configuration["model_size"])
        tiles = tiles_per_side * tiles_per_side

        arriving_frames = segment.frame_count
        processed_frames = max(arriving_frames / frame_skip, 1.0)
        expected_objects = max(segment.ground_truth_objects, 1)

        graph = TaskGraph()
        decode_cost = OperatorCost(
            on_prem_seconds=self.decode.segment_decode_seconds(
                arriving_frames, segment.width, segment.height
            ),
            cloud_seconds=0.0,
            cloud_dollars=0.0,
            upload_bytes=0,
            download_bytes=0,
        )
        graph.add_task(Task("decode", "decoder", decode_cost, invocations=arriving_frames))

        embed_cost = self.embedder.invocation_cost(items=expected_objects).scaled(processed_frames)
        graph.add_task(Task("embed", "vgg-embedder", embed_cost), depends_on=["decode"])

        per_inference = self.tracker.invocation_cost(
            model_size=model_size,
            history=history,
            tiles=tiles,
            width=segment.width,
            height=segment.height,
        )
        # Throughput-oriented tracking can pipeline across frame windows (and
        # across tiles within a frame), so model up to ten parallel tracker
        # tasks; latency per frame is irrelevant for the V-ETL constraint.
        track_tasks = min(10, max(int(math.ceil(processed_frames / 6.0)), 1))
        track_names = []
        for index in range(track_tasks):
            name = f"transmot_{index}"
            graph.add_task(
                Task(
                    name,
                    "transmot",
                    per_inference.scaled(processed_frames / track_tasks),
                    invocations=max(int(round(processed_frames / track_tasks)), 1),
                ),
                depends_on=["embed"],
            )
            track_names.append(name)

        aggregate_cost = OperatorCost(
            on_prem_seconds=0.002,
            cloud_seconds=0.12,
            cloud_dollars=1e-7,
            upload_bytes=4_096,
            download_bytes=1_024,
        )
        graph.add_task(Task("aggregate", "track-aggregator", aggregate_cost), depends_on=track_names)
        return graph

    # ------------------------------------------------------------------ #
    # Quality model
    # ------------------------------------------------------------------ #
    def _robustness(self, configuration: KnobConfiguration) -> float:
        frame_skip = int(configuration["frame_skip"])
        tiles = int(configuration["tiles"])
        history = int(configuration["history"])
        model_size = str(configuration["model_size"])
        rate_term = (math.log(60.0) - math.log(frame_skip)) / math.log(60.0)
        tile_term = 1.0 if tiles > 1 else 0.0
        history_term = (history - 1) / 4.0
        size_term = {"small": 0.0, "medium": 0.6, "large": 1.0}[model_size]
        return self._clip01(
            0.35 * rate_term + 0.15 * tile_term + 0.20 * history_term + 0.30 * size_term
        )

    def _difficulty(self, segment: VideoSegment) -> float:
        content = segment.content
        return self._clip01(
            0.75 * content.occlusion
            + 0.20 * content.motion * content.object_density
            + 0.15 * (1.0 - content.lighting) * content.object_density
        )

    def _measure(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Tuple[SegmentOutcome, float]:
        """The outcome of ``segment`` and the model certainty behind it."""
        robustness = self._config_term("robustness", configuration, self._robustness)
        difficulty = self._difficulty(segment)
        size_term = {"small": 0.06, "medium": 0.03, "large": 0.0}[str(configuration["model_size"])]
        captured = self._clip01((1.0 - difficulty * (1.0 - robustness)) * (1.0 - size_term))

        true_quality = self._clip01(captured + self._noise(configuration, segment, "quality", 0.02))
        # Reported quality: tracked pedestrians weighted by model certainty;
        # certainty correlates with the true success rate.
        certainty = self._clip01(0.25 + 0.72 * captured + self._noise(configuration, segment, "certainty", 0.03))
        reported_quality = self._clip01(captured * 0.5 + certainty * 0.5)
        outcome = SegmentOutcome(
            reported_quality=reported_quality,
            true_quality=true_quality,
            entities=float(int(round(segment.ground_truth_objects * true_quality))),
        )
        return outcome, certainty

    def evaluate(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> SegmentOutcome:
        return self._measure(configuration, segment)[0]

    def warehouse_rows(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Dict[str, List[TrackRecord]]:
        """Load step: one track row per segment with the tracked pedestrians."""
        outcome, certainty = self._measure(configuration, segment)
        pedestrians = segment.ground_truth_objects
        tracked = int(outcome.entities)
        return {
            "tracks": [
                TrackRecord(
                    camera_id=segment.stream_id,
                    segment_index=segment.segment_index,
                    timestamp=segment.start_time,
                    tracked_objects=tracked,
                    lost_tracks=max(pedestrians - tracked, 0),
                    mean_certainty=certainty,
                )
            ]
        }


def make_mot_setup(
    history_days: float = 2.0,
    online_days: float = 1.0,
    segment_seconds: float = 2.0,
    seed: int = 11,
) -> WorkloadSetup:
    """A ready-to-run MOT workload setup."""
    workload = MotWorkload(
        stream_config=StreamConfig(stream_id="mot-shibuya", segment_seconds=segment_seconds),
        seed=seed,
    )
    return WorkloadSetup(
        workload=workload,
        source=workload.make_source(),
        history_days=history_days,
        online_days=online_days,
    )
