"""The EV-counting example workload from the introduction (Figures 1 and 3).

A traffic camera feeds a YOLO object detector that finds cars (EVs are
distinguishable by their green license plates) and a KCF tracker that follows
them across the frame to avoid double counting.  The user registers two knobs:
how often the detector runs and which YOLO variant to use.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.interfaces import SegmentOutcome
from repro.core.knobs import KnobConfiguration, KnobSpace
from repro.video.codec import DecodeCostModel
from repro.video.content import ContentModel, DiurnalProfile
from repro.video.frame import VideoSegment
from repro.video.stream import SegmentColumns, StreamConfig
from repro.vision.dag import Task, TaskGraph
from repro.vision.detector import SimulatedObjectDetector
from repro.vision.model_zoo import get_model_variant
from repro.vision.tracker import SimulatedTracker
from repro.vision.udf import OperatorCost
from repro.warehouse.loader import DetectionRecord
from repro.workloads.base import BaseWorkload, WorkloadSetup

_NATIVE_FPS = 30.0
#: Fraction of detected cars that are EVs in the synthetic stream.
_EV_FRACTION = 0.12


def _clip01(values: np.ndarray) -> np.ndarray:
    """``BaseWorkload._clip01`` elementwise."""
    return np.minimum(np.maximum(values, 0.0), 1.0)


def _ev_knob_space() -> KnobSpace:
    space = KnobSpace()
    space.register_knob("det_interval", (60, 30, 10, 5, 1))
    space.register_knob("yolo_size", ("small", "medium", "large"))
    return space


def _ev_content_model(seed: int = 3) -> ContentModel:
    """A traffic intersection: pronounced morning/evening rush hours."""
    return ContentModel(
        seed=seed,
        diurnal=DiurnalProfile(
            night_level=0.10,
            day_level=0.55,
            morning_peak_hour=8.0,
            evening_peak_hour=17.5,
            peak_level=1.0,
            peak_width_hours=1.5,
        ),
        burst_rate_per_hour=35.0,
        burst_duration_seconds=50.0,
        burst_magnitude=0.3,
    )


class EVCountingWorkload(BaseWorkload):
    """The introduction's EV-counting V-ETL job."""

    def __init__(
        self,
        content_model: Optional[ContentModel] = None,
        stream_config: Optional[StreamConfig] = None,
        seed: int = 3,
    ):
        super().__init__(
            name="ev",
            knob_space=_ev_knob_space(),
            content_model=content_model or _ev_content_model(seed),
            stream_config=stream_config
            or StreamConfig(stream_id="ev-traffic-cam", segment_seconds=2.0),
        )
        self.seed = seed
        self.detector = SimulatedObjectDetector(family="yolo")
        self.tracker = SimulatedTracker()
        self.decode = DecodeCostModel()

    # ------------------------------------------------------------------ #
    # Named configurations used by the Figure 3 walk-through
    # ------------------------------------------------------------------ #
    def named_configurations(self) -> Dict[str, KnobConfiguration]:
        """The cheap / medium / expensive configurations plotted in Figure 3."""
        return {
            "cheap": self.knob_space.configuration(det_interval=60, yolo_size="small"),
            "medium": self.knob_space.configuration(det_interval=10, yolo_size="medium"),
            "expensive": self.knob_space.configuration(det_interval=1, yolo_size="large"),
        }

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def build_task_graph(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> TaskGraph:
        det_interval = int(configuration["det_interval"])
        yolo_size = str(configuration["yolo_size"])
        arriving_frames = segment.frame_count
        detector_invocations = arriving_frames / det_interval
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

        per_detection = self.detector.invocation_cost(
            model_size=yolo_size, width=segment.width, height=segment.height
        )
        detect_tasks = min(8, max(int(math.ceil(detector_invocations)), 1))
        detect_names = []
        for index in range(detect_tasks):
            name = f"detect_{index}"
            graph.add_task(
                Task(
                    name,
                    "yolo-detector",
                    per_detection.scaled(detector_invocations / detect_tasks),
                    invocations=max(int(round(detector_invocations / detect_tasks)), 1),
                ),
                depends_on=["decode"],
            )
            detect_names.append(name)

        track_cost = self.tracker.invocation_cost(objects=expected_objects, frames=arriving_frames)
        graph.add_task(Task("track", "kcf-tracker", track_cost), depends_on=detect_names)
        return graph

    # ------------------------------------------------------------------ #
    # Quality model
    # ------------------------------------------------------------------ #
    def _robustness(self, configuration: KnobConfiguration) -> float:
        det_interval = int(configuration["det_interval"])
        yolo_size = str(configuration["yolo_size"])
        det_term = (math.log(60.0) - math.log(det_interval)) / math.log(60.0)
        size_term = {"small": 0.0, "medium": 0.6, "large": 1.0}[yolo_size]
        return self._clip01(0.55 * det_term + 0.45 * size_term)

    def _difficulty(self, segment: VideoSegment) -> float:
        content = segment.content
        return self._clip01(
            0.85 * content.occlusion + 0.2 * (1.0 - content.lighting) * content.object_density
        )

    def _easy_factor(self, configuration: KnobConfiguration) -> float:
        variant = get_model_variant("yolo", str(configuration["yolo_size"]))
        easy_loss = 1.0 - variant.base_accuracy * 0.5 - 0.5
        return 1.0 - max(easy_loss, 0.0)

    def evaluate(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> SegmentOutcome:
        robustness = self._config_term("robustness", configuration, self._robustness)
        difficulty = self._difficulty(segment)
        easy_factor = self._config_term("easy_factor", configuration, self._easy_factor)
        captured = self._clip01((1.0 - difficulty * (1.0 - robustness)) * easy_factor)

        noise = self._noise(configuration, segment, "quality", 0.02)
        true_quality = self._clip01(captured + noise)
        reported_quality = self._clip01(
            captured + self._noise(configuration, segment, "report", 0.03)
        )
        return self._outcome(segment, true_quality, reported_quality)

    def evaluate_config_batch(
        self, configuration: KnobConfiguration, segments: Sequence[VideoSegment]
    ) -> List[SegmentOutcome]:
        """Vectorized quality model over a run of segments (one configuration)."""
        return self._score(
            configuration,
            [segment.segment_index for segment in segments],
            np.array([segment.content.occlusion for segment in segments], dtype=float),
            np.array([segment.content.lighting for segment in segments], dtype=float),
            np.array([segment.content.object_density for segment in segments], dtype=float),
            np.array([segment.ground_truth_objects for segment in segments], dtype=np.int64),
        )

    def evaluate_columns(
        self, configuration: KnobConfiguration, columns: SegmentColumns
    ) -> List[SegmentOutcome]:
        """The quality model straight from the columns: no segment per row."""
        content = columns.content
        return self._score(
            configuration,
            columns.segment_index.tolist(),
            content.occlusion,
            content.lighting,
            content.object_density,
            columns.ground_truth_objects,
        )

    def _score(
        self,
        configuration: KnobConfiguration,
        segment_indices: List[int],
        occlusion: np.ndarray,
        lighting: np.ndarray,
        density: np.ndarray,
        ground_truth_objects: np.ndarray,
    ) -> List[SegmentOutcome]:
        """:meth:`evaluate` of one configuration over a batch, bit for bit.

        Every step is the scalar expression applied elementwise: IEEE
        ``+``/``-``/``*`` give the scalar results, ``np.minimum``/
        ``np.maximum`` equal ``min``/``max`` on values that are not NaN,
        ``np.round`` rounds half to even like ``round``, and the noise is
        :meth:`_noise_columns`.
        """
        robustness = self._config_term("robustness", configuration, self._robustness)
        easy_factor = self._config_term("easy_factor", configuration, self._easy_factor)
        difficulty = _clip01(0.85 * occlusion + 0.2 * (1.0 - lighting) * density)
        captured = _clip01((1.0 - difficulty * (1.0 - robustness)) * easy_factor)
        true_quality = _clip01(
            captured + self._noise_columns(configuration, segment_indices, "quality", 0.02)
        )
        reported_quality = _clip01(
            captured + self._noise_columns(configuration, segment_indices, "report", 0.03)
        )
        entities = np.round(ground_truth_objects * true_quality)
        return [
            SegmentOutcome(reported, true, counted)
            for reported, true, counted in zip(
                reported_quality.tolist(), true_quality.tolist(), entities.tolist()
            )
        ]

    @staticmethod
    def _outcome(
        segment: VideoSegment, true_quality: float, reported_quality: float
    ) -> SegmentOutcome:
        """The outcome of one segment: its counted cars are the entities."""
        return SegmentOutcome(
            reported_quality=reported_quality,
            true_quality=true_quality,
            entities=float(int(round(segment.ground_truth_objects * true_quality))),
        )

    def warehouse_rows(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Dict[str, List[DetectionRecord]]:
        """Load step: one ``car`` and one ``ev`` detection row per segment.

        The counts split the outcome's counted cars, and the rows carry its
        reported quality as their confidence.
        """
        outcome = self.evaluate(configuration, segment)
        counted = int(outcome.entities)
        ev_count = int(round(counted * _EV_FRACTION))
        return {
            "detections": [
                DetectionRecord(
                    camera_id=segment.stream_id,
                    segment_index=segment.segment_index,
                    timestamp=segment.start_time,
                    category=category,
                    count=count,
                    mean_confidence=outcome.reported_quality,
                )
                for category, count in (("car", counted - ev_count), ("ev", ev_count))
            ]
        }


def make_ev_setup(
    history_days: float = 2.0,
    online_days: float = 1.0,
    segment_seconds: float = 2.0,
    seed: int = 3,
) -> WorkloadSetup:
    """A ready-to-run EV-counting setup (the Figure 3 walk-through)."""
    workload = EVCountingWorkload(
        stream_config=StreamConfig(stream_id="ev-traffic-cam", segment_seconds=segment_seconds),
        seed=seed,
    )
    return WorkloadSetup(
        workload=workload,
        source=workload.make_source(),
        history_days=history_days,
        online_days=online_days,
    )
