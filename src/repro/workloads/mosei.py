"""Multimodal opinion sentiment workload (MOSEI-HIGH and MOSEI-LONG).

The MOSEI workload simulates a Twitch-like scenario: a time-varying number of
concurrent talking-head streams must be analyzed for speaker sentiment using
audio transcription, face/audio feature extraction, and a sentiment
classifier.  Two synthetic spike patterns stress the two resource types
(Section 5.2):

* **MOSEI-HIGH** — short but very high peaks (62 concurrent streams), which
  strain the uplink bandwidth and therefore cloud bursting;
* **MOSEI-LONG** — one long sustained peak, which fills any finite buffer.

Knobs: how many sentences may be skipped between sentiment analyses, the
fraction of each analyzed sentence that is inspected, the sentiment model
size, and the number of streams to analyze.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.interfaces import SegmentOutcome
from repro.core.knobs import KnobConfiguration, KnobSpace
from repro.errors import ConfigurationError
from repro.video.content import ContentModel, DiurnalProfile, SpikeSchedule
from repro.video.frame import VideoSegment
from repro.video.stream import SegmentColumns, StreamConfig
from repro.vision.classifier import SimulatedClassifier
from repro.vision.dag import Task, TaskGraph
from repro.vision.embedding import SimulatedEmbedder
from repro.vision.udf import OperatorCost
from repro.warehouse.loader import SentimentRecord
from repro.workloads.base import BaseWorkload, WorkloadSetup

#: Maximum number of concurrent streams during the MOSEI-HIGH peaks.
MAX_STREAMS = 62
#: Average spoken-sentence length in seconds (used to convert sentence knobs).
_SENTENCE_SECONDS = 4.0
#: Number of streams assumed when profiling runtimes (mid-load reference).
_REFERENCE_STREAMS = 16


def _mosei_knob_space() -> KnobSpace:
    space = KnobSpace()
    space.register_knob("sentence_skip", (6, 5, 4, 3, 2, 1, 0))
    space.register_knob("frame_fraction", (1, 2, 3, 4, 5, 6))  # sixths of a sentence
    space.register_knob("model_size", ("small", "medium", "large"))
    space.register_knob("streams", (8, 16, 32, 62))
    return space


def _mosei_content_model(variant: str, seed: int = 23) -> ContentModel:
    """Twitch-like activity: diurnal baseline plus synthetic spikes."""
    if variant == "high":
        spikes = SpikeSchedule(
            period_seconds=4 * 3_600.0,
            duration_seconds=20 * 60.0,
            magnitude=0.9,
            start_offset_seconds=90 * 60.0,
        )
    elif variant == "long":
        spikes = SpikeSchedule(
            period_seconds=24 * 3_600.0,
            duration_seconds=7 * 3_600.0,
            magnitude=0.55,
            start_offset_seconds=10 * 3_600.0,
        )
    else:
        raise ConfigurationError("MOSEI variant must be 'high' or 'long'")
    return ContentModel(
        seed=seed,
        diurnal=DiurnalProfile(
            night_level=0.2,
            day_level=0.45,
            morning_peak_hour=11.0,
            evening_peak_hour=20.0,
            peak_level=0.7,
            peak_width_hours=2.5,
        ),
        burst_rate_per_hour=15.0,
        burst_duration_seconds=120.0,
        burst_magnitude=0.15,
        spikes=spikes,
    )


class MoseiWorkload(BaseWorkload):
    """The multimodal sentiment V-ETL job over many concurrent streams."""

    def __init__(
        self,
        variant: str = "high",
        content_model: Optional[ContentModel] = None,
        stream_config: Optional[StreamConfig] = None,
        seed: int = 23,
    ):
        if variant not in ("high", "long"):
            raise ConfigurationError("MOSEI variant must be 'high' or 'long'")
        self.variant = variant
        super().__init__(
            name=f"mosei-{variant}",
            knob_space=_mosei_knob_space(),
            content_model=content_model or _mosei_content_model(variant, seed),
            stream_config=stream_config
            or StreamConfig(
                stream_id=f"mosei-{variant}", width=640, height=480, segment_seconds=7.0
            ),
        )
        self.seed = seed
        self.sentiment = SimulatedClassifier(family="sentiment")
        self.face_embedder = SimulatedEmbedder(name="face-embedder", seconds_per_item=0.012)
        self.audio_features = SimulatedEmbedder(
            name="audio-features", seconds_per_item=0.02, dimension=32
        )

    # ------------------------------------------------------------------ #
    # Stream load
    # ------------------------------------------------------------------ #
    def active_streams(self, segment: VideoSegment) -> int:
        """Number of concurrently incoming streams during the segment."""
        return max(int(round(segment.content.stream_load * MAX_STREAMS)), 1)

    def analyzed_streams(self, configuration: KnobConfiguration, segment: VideoSegment) -> int:
        """Streams actually analyzed: the knob value capped by what is live."""
        return min(int(configuration["streams"]), self.active_streams(segment))

    def quality_weight(self, segment: VideoSegment) -> float:
        """MOSEI quality sums over live streams, so weight by the active count."""
        return float(self.active_streams(segment))

    def quality_weight_columns(self, columns: SegmentColumns) -> np.ndarray:
        """Batched active-stream weights (bit-for-bit the scalar rounding)."""
        active = np.maximum(np.round(columns.content.stream_load * MAX_STREAMS), 1)
        return active.astype(float)

    def runtime_scale(self, configuration: KnobConfiguration, segment: VideoSegment) -> float:
        """Scale the profiled runtime by the actual number of analyzed streams.

        Profiling uses the representative segment's ``_REFERENCE_STREAMS``; at
        run time the work is proportional to how many streams are analyzed.
        """
        reference = min(int(configuration["streams"]), _REFERENCE_STREAMS)
        return self.analyzed_streams(configuration, segment) / max(reference, 1)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def _per_stream_costs(self, configuration: KnobConfiguration, segment: VideoSegment):
        sentence_skip = int(configuration["sentence_skip"])
        frame_fraction = int(configuration["frame_fraction"]) / 6.0
        model_size = str(configuration["model_size"])

        sentences = max(segment.duration / _SENTENCE_SECONDS, 0.25)
        analyzed_sentences = sentences / (1.0 + sentence_skip)
        frames_inspected = analyzed_sentences * frame_fraction * 30.0 * _SENTENCE_SECONDS / 6.0

        transcription = OperatorCost(
            on_prem_seconds=0.04 * sentences,
            cloud_seconds=0.12 + 0.02 * sentences,
            cloud_dollars=0.02 * sentences * 3.0 * 0.0000166667,
            upload_bytes=int(64_000 * segment.duration),
            download_bytes=2_048,
        )
        visual = self.face_embedder.invocation_cost(items=max(int(frames_inspected), 1))
        audio = self.audio_features.invocation_cost(items=max(int(analyzed_sentences * 3), 1))
        classify = self.sentiment.invocation_cost(
            model_size=model_size, items=max(int(round(analyzed_sentences)), 1)
        )
        return transcription, visual, audio, classify

    def build_task_graph(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> TaskGraph:
        streams = min(int(configuration["streams"]), _REFERENCE_STREAMS)
        transcription, visual, audio, classify = self._per_stream_costs(configuration, segment)

        graph = TaskGraph()
        # Streams are independent; group them into up to four parallel branches.
        branches = min(4, streams)
        streams_per_branch = streams / branches
        for branch in range(branches):
            prefix = f"b{branch}"
            graph.add_task(
                Task(f"{prefix}_transcribe", "transcription", transcription.scaled(streams_per_branch))
            )
            graph.add_task(
                Task(f"{prefix}_visual", "face-embedder", visual.scaled(streams_per_branch))
            )
            graph.add_task(
                Task(f"{prefix}_audio", "audio-features", audio.scaled(streams_per_branch)),
                depends_on=[f"{prefix}_transcribe"],
            )
            graph.add_task(
                Task(f"{prefix}_classify", "sentiment", classify.scaled(streams_per_branch)),
                depends_on=[f"{prefix}_transcribe", f"{prefix}_visual", f"{prefix}_audio"],
            )
        return graph

    # ------------------------------------------------------------------ #
    # Quality model
    # ------------------------------------------------------------------ #
    def _robustness(self, configuration: KnobConfiguration) -> float:
        sentence_skip = int(configuration["sentence_skip"])
        frame_fraction = int(configuration["frame_fraction"]) / 6.0
        model_size = str(configuration["model_size"])
        size_term = {"small": 0.0, "medium": 0.6, "large": 1.0}[model_size]
        evidence = (1.0 / (1.0 + sentence_skip)) ** 0.5 * frame_fraction**0.3
        return self._clip01(0.45 * size_term + 0.55 * evidence)

    def _per_stream_accuracy(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> float:
        content = segment.content
        robustness = self._config_term("robustness", configuration, self._robustness)
        # Sentiment volatility grows with activity (fast-paced streams).
        difficulty = self._clip01(0.55 * content.activity + 0.25 * content.motion)
        base = 0.95 - 0.35 * difficulty * (1.0 - robustness) - 0.12 * (1.0 - robustness)
        return self._clip01(base)

    def _measure(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Tuple[SegmentOutcome, float]:
        """The outcome of ``segment`` and the classifier certainty behind it."""
        active = self.active_streams(segment)
        analyzed = self.analyzed_streams(configuration, segment)
        accuracy = self._per_stream_accuracy(configuration, segment)

        # Overall quality: summed per-stream accuracy over the streams that
        # were analyzed, relative to analyzing every live stream perfectly.
        captured = accuracy * analyzed / active
        true_quality = self._clip01(captured + self._noise(configuration, segment, "quality", 0.02))
        certainty = self._clip01(
            0.3 + 0.65 * accuracy + self._noise(configuration, segment, "certainty", 0.03)
        )
        reported_quality = self._clip01((analyzed / active) * certainty)
        outcome = SegmentOutcome(
            reported_quality=reported_quality,
            true_quality=true_quality,
            entities=float(analyzed),
        )
        return outcome, certainty

    def evaluate(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> SegmentOutcome:
        return self._measure(configuration, segment)[0]

    def warehouse_rows(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Dict[str, List[SentimentRecord]]:
        """Load step: sentiment rows for up to three of the analyzed streams."""
        outcome, certainty = self._measure(configuration, segment)
        sentiment_label = "positive" if segment.content.lighting > 0.5 else "neutral"
        return {
            "sentiments": [
                SentimentRecord(
                    stream_id=f"{segment.stream_id}-{stream_index}",
                    segment_index=segment.segment_index,
                    timestamp=segment.start_time,
                    sentiment=sentiment_label,
                    certainty=certainty,
                )
                for stream_index in range(min(int(outcome.entities), 3))
            ]
        }


def make_mosei_setup(
    variant: str = "high",
    history_days: float = 2.0,
    online_days: float = 1.0,
    segment_seconds: float = 7.0,
    seed: int = 23,
) -> WorkloadSetup:
    """A ready-to-run MOSEI setup (``variant`` is ``"high"`` or ``"long"``)."""
    workload = MoseiWorkload(
        variant=variant,
        stream_config=StreamConfig(
            stream_id=f"mosei-{variant}", width=640, height=480, segment_seconds=segment_seconds
        ),
        seed=seed,
    )
    return WorkloadSetup(
        workload=workload,
        source=workload.make_source(),
        history_days=history_days,
        online_days=online_days,
    )
