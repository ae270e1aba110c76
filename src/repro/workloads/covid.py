"""COVID-19 safety-measure monitoring workload (Section 5.2, Appendix J).

Pipeline: YOLOv5 pedestrian detection (detect-to-track), KCF tracking on the
intermediary frames, homography-based social-distance measurement and a
ResNet-based mask classifier for every tracked pedestrian.  The stream is a
busy shopping street with pronounced rush hours.

Knobs (cheap value first):

* ``frame_rate`` — frames per second actually processed
  ({1, 5, 10, 15, 30} FPS);
* ``det_interval`` — run the object detector every N processed frames
  ({60, 30, 5, 1});
* ``tiles`` — tiles per frame side for detection ({1, 2}, i.e. 1x1 or 2x2).

Quality is the fraction of ground-truth person-seconds that end up recorded
(detected and tracked), which is what the paper's ``person * seconds`` metric
measures.  Cheap configurations capture almost everything at night but miss
heavily occluded rush-hour pedestrians; expensive configurations are robust
everywhere.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.core.interfaces import SegmentOutcome
from repro.core.knobs import KnobConfiguration, KnobSpace
from repro.video.codec import DecodeCostModel
from repro.video.content import ContentModel, DiurnalProfile
from repro.video.frame import VideoSegment
from repro.video.stream import StreamConfig
from repro.vision.classifier import SimulatedClassifier
from repro.vision.dag import Task, TaskGraph
from repro.vision.detector import SimulatedObjectDetector
from repro.vision.homography import HomographyDistance
from repro.vision.tracker import SimulatedTracker
from repro.vision.udf import OperatorCost
from repro.warehouse.loader import DetectionRecord, TrackRecord
from repro.workloads.base import BaseWorkload, WorkloadSetup

_NATIVE_FPS = 30.0
#: Mean time a pedestrian stays in the camera's view, in seconds.
_PEDESTRIAN_DWELL_SECONDS = 15.0


def _covid_knob_space() -> KnobSpace:
    space = KnobSpace()
    space.register_knob("frame_rate", (1, 5, 10, 15, 30))
    space.register_knob("det_interval", (60, 30, 5, 1))
    space.register_knob("tiles", (1, 2))
    return space


def _covid_content_model(seed: int = 7) -> ContentModel:
    """A busy shopping street: strong rush hours, frequent pedestrian groups."""
    return ContentModel(
        seed=seed,
        diurnal=DiurnalProfile(
            night_level=0.08,
            day_level=0.5,
            morning_peak_hour=8.5,
            evening_peak_hour=18.0,
            peak_level=0.95,
            peak_width_hours=1.8,
        ),
        burst_rate_per_hour=45.0,
        burst_duration_seconds=40.0,
        burst_magnitude=0.35,
    )


class CovidWorkload(BaseWorkload):
    """The COVID safety-measure V-ETL job."""

    def __init__(
        self,
        content_model: Optional[ContentModel] = None,
        stream_config: Optional[StreamConfig] = None,
        seed: int = 7,
    ):
        super().__init__(
            name="covid",
            knob_space=_covid_knob_space(),
            content_model=content_model or _covid_content_model(seed),
            stream_config=stream_config
            or StreamConfig(stream_id="covid-shibuya", segment_seconds=2.0),
        )
        self.seed = seed
        self.detector = SimulatedObjectDetector(family="yolo")
        self.tracker = SimulatedTracker()
        self.mask_classifier = SimulatedClassifier(family="mask_classifier")
        self.homography = HomographyDistance()
        self.decode = DecodeCostModel()

    # ------------------------------------------------------------------ #
    # Cost model: task graph per (configuration, segment)
    # ------------------------------------------------------------------ #
    def build_task_graph(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> TaskGraph:
        frame_rate = float(configuration["frame_rate"])
        det_interval = int(configuration["det_interval"])
        tiles_per_side = int(configuration["tiles"])
        tiles = tiles_per_side * tiles_per_side

        arriving_frames = segment.frame_count
        processed_frames = max(segment.duration * frame_rate, 1.0)
        detector_invocations = processed_frames / det_interval
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

        # The pipeline naturally parallelizes across detector invocations:
        # each invocation detects on one frame, the per-object trackers follow
        # the detections until the next invocation, and the mask classifier
        # runs on every detected pedestrian crop.  Model one chain per
        # detector invocation (decode -> detect_i -> track_i -> classify_i) so
        # throughput scales with the provisioned cores exactly as the paper's
        # Appendix-M micro DAGs do.
        per_detection = self.detector.invocation_cost(
            model_size="medium", tiles=tiles, width=segment.width, height=segment.height
        )
        track_cost = self.tracker.invocation_cost(
            objects=expected_objects, frames=int(processed_frames)
        )
        classify_cost = self.mask_classifier.invocation_cost(
            model_size="medium", items=expected_objects
        ).scaled(max(detector_invocations, 1.0))

        chains = min(8, max(int(math.ceil(detector_invocations)), 1))
        per_chain = detector_invocations / chains
        chain_tails = []
        for index in range(chains):
            detect_name = f"detect_{index}"
            graph.add_task(
                Task(
                    detect_name,
                    "yolo-detector",
                    per_detection.scaled(per_chain),
                    invocations=max(int(round(per_chain)), 1),
                ),
                depends_on=["decode"],
            )
            track_name = f"track_{index}"
            graph.add_task(
                Task(track_name, "kcf-tracker", track_cost.scaled(1.0 / chains)),
                depends_on=[detect_name],
            )
            classify_name = f"mask_classify_{index}"
            graph.add_task(
                Task(classify_name, "mask-classifier", classify_cost.scaled(1.0 / chains)),
                depends_on=[track_name],
            )
            chain_tails.append(classify_name)

        homography_cost = self.homography.invocation_cost(objects=expected_objects).scaled(
            max(detector_invocations, 1.0)
        )
        graph.add_task(Task("distance", "homography", homography_cost), depends_on=chain_tails)
        return graph

    # ------------------------------------------------------------------ #
    # Quality model
    # ------------------------------------------------------------------ #
    def _robustness(self, configuration: KnobConfiguration) -> float:
        """How reliably the configuration handles difficult content, in [0, 1].

        Three effects matter for rush-hour robustness: how often the detector
        re-initializes tracks (detections per second of video), how densely
        the video is sampled (tracking continuity through occlusions), and
        whether tiling recovers the many small, partially occluded pedestrians
        of a packed scene.
        """
        frame_rate = float(configuration["frame_rate"])
        det_interval = int(configuration["det_interval"])
        tiles = int(configuration["tiles"])
        detections_per_second = frame_rate / det_interval
        det_term = math.log1p(detections_per_second) / math.log1p(_NATIVE_FPS)
        frame_term = math.log(frame_rate) / math.log(_NATIVE_FPS)
        tile_term = 1.0 if tiles > 1 else 0.0
        return self._clip01(0.35 * det_term + 0.25 * frame_term + 0.40 * tile_term)

    def _difficulty(self, segment: VideoSegment) -> float:
        content = segment.content
        return self._clip01(
            1.0 * content.occlusion
            + 0.25 * (1.0 - content.lighting) * content.object_density
            + 0.15 * content.motion * content.object_density
        )

    def evaluate(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> SegmentOutcome:
        frame_rate = float(configuration["frame_rate"])
        det_interval = int(configuration["det_interval"])
        content = segment.content

        robustness = self._config_term("robustness", configuration, self._robustness)
        difficulty = self._difficulty(segment)
        # Cheap configurations lose a small fraction even on easy content
        # (missed small/fast pedestrians); difficult content amplifies the gap.
        easy_loss = 0.05 * (1.0 - robustness)
        fragility = (1.0 - robustness)
        captured_fraction = self._clip01((1.0 - difficulty * fragility) * (1.0 - easy_loss))

        # Detection latency: pedestrians entering between detector runs are
        # picked up late, losing a slice of their person-seconds.
        detection_gap_seconds = det_interval / max(frame_rate, 1e-6)
        latency_loss = min(detection_gap_seconds / (2.0 * _PEDESTRIAN_DWELL_SECONDS), 0.5)
        captured_fraction *= 1.0 - latency_loss * (0.3 + 0.7 * content.activity)

        noise = self._noise(configuration, segment, "quality", 0.02)
        true_quality = self._clip01(captured_fraction + noise)

        # Reported quality: person*seconds recorded, observable through the
        # tracker's failure reports and detector confidences.  It tracks the
        # true quality closely with its own small measurement noise.
        report_noise = self._noise(configuration, segment, "report", 0.03)
        reported_quality = self._clip01(captured_fraction + report_noise)

        return SegmentOutcome(
            reported_quality=reported_quality,
            true_quality=true_quality,
            entities=float(int(round(segment.ground_truth_objects * true_quality))),
        )

    def _detection_confidence(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> float:
        """Mean detector confidence on ``segment``: its recall plus hashed noise.

        The noise is hashed rather than drawn from a stateful generator, which
        would make a row depend on how many segments were detected before it;
        hashed noise keeps the row a function of (configuration, segment).
        """
        frame_rate = float(configuration["frame_rate"])
        tiles_per_side = int(configuration["tiles"])
        recall = self.detector.detection_recall(
            segment.content,
            model_size="medium",
            tiles=tiles_per_side * tiles_per_side,
            sampling_fraction=max(frame_rate / _NATIVE_FPS, 1e-3),
        )
        noise_level = self.detector.noise_level
        noisy_recall = self._clip01(
            recall + self._noise(configuration, segment, "recall", noise_level)
        )
        return self._clip01(
            0.35
            + 0.6 * noisy_recall
            + self._noise(configuration, segment, "confidence", noise_level / 2.0)
        )

    def warehouse_rows(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Dict[str, List[Any]]:
        """Load step: one ``person`` detection row and one track row per segment.

        Both count the outcome's tracked pedestrians; the track row carries
        its reported quality as the tracker's certainty.
        """
        outcome = self.evaluate(configuration, segment)
        pedestrians = segment.ground_truth_objects
        tracked = int(outcome.entities)
        return {
            "detections": [
                DetectionRecord(
                    camera_id=segment.stream_id,
                    segment_index=segment.segment_index,
                    timestamp=segment.start_time,
                    category="person",
                    count=tracked,
                    mean_confidence=self._detection_confidence(configuration, segment),
                )
            ],
            "tracks": [
                TrackRecord(
                    camera_id=segment.stream_id,
                    segment_index=segment.segment_index,
                    timestamp=segment.start_time,
                    tracked_objects=tracked,
                    lost_tracks=max(pedestrians - tracked, 0),
                    mean_certainty=outcome.reported_quality,
                )
            ],
        }


def make_covid_setup(
    history_days: float = 2.0,
    online_days: float = 1.0,
    segment_seconds: float = 2.0,
    seed: int = 7,
) -> WorkloadSetup:
    """A ready-to-run COVID workload setup.

    The paper uses 16 days of history and 8 days of online video; the defaults
    here are smaller so examples and tests finish quickly, and the benchmarks
    pass larger values.
    """
    workload = CovidWorkload(
        stream_config=StreamConfig(stream_id="covid-shibuya", segment_seconds=segment_seconds),
        seed=seed,
    )
    return WorkloadSetup(
        workload=workload,
        source=workload.make_source(),
        history_days=history_days,
        online_days=online_days,
    )
