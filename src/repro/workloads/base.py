"""Shared workload machinery.

Every workload implements the :class:`~repro.core.interfaces.VETLWorkload`
protocol: it owns a knob space, expands a knob configuration into a task graph
for a segment, and evaluates the (reported and ground-truth) quality of
processing a segment with a configuration.  Evaluations must be deterministic
given (configuration, segment), so the noise the simulated CV operators would
naturally exhibit is generated from a hash of those two inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interfaces import SegmentOutcome
from repro.core.knobs import KnobConfiguration, KnobSpace
from repro.errors import WorkloadError
from repro.video.content import ContentModel
from repro.video.frame import VideoSegment
from repro.video.stream import SegmentColumns, StreamConfig, SyntheticVideoSource
from repro.vision.dag import TaskGraph


@dataclass
class WorkloadSetup:
    """A workload together with the stream it ingests.

    The setup bundles everything an experiment needs: the workload object,
    the video source that produces its stream, and the time window the
    offline phase may use as historical data.
    """

    workload: "BaseWorkload"
    source: SyntheticVideoSource
    history_days: float
    online_days: float

    @property
    def online_start(self) -> float:
        """First timestamp of the online phase (right after the history)."""
        return self.history_days * 86_400.0

    @property
    def online_end(self) -> float:
        return (self.history_days + self.online_days) * 86_400.0


class BaseWorkload:
    """Common functionality of the concrete workloads.

    Args:
        name: workload name.
        knob_space: the registered knobs.
        content_model: content dynamics of the workload's stream (used for the
            representative segment).
        stream_config: stream properties (resolution, fps, segment length).
    """

    def __init__(
        self,
        name: str,
        knob_space: KnobSpace,
        content_model: ContentModel,
        stream_config: Optional[StreamConfig] = None,
    ):
        if not name:
            raise WorkloadError("workload name must be non-empty")
        self.name = name
        self.knob_space = knob_space
        self.content_model = content_model
        self.stream_config = stream_config or StreamConfig(stream_id=f"{name}-camera")
        self._source = SyntheticVideoSource(content_model, self.stream_config)
        # Per-configuration quality-model terms (robustness etc.) are pure
        # functions of the configuration; memoize them across segments.
        self._config_term_cache: Dict[Tuple[str, KnobConfiguration], float] = {}

    # ------------------------------------------------------------------ #
    # VETLWorkload protocol pieces shared by all workloads
    # ------------------------------------------------------------------ #
    def make_source(self) -> SyntheticVideoSource:
        """A video source producing this workload's stream."""
        return SyntheticVideoSource(self.content_model, self.stream_config)

    def representative_segment(self) -> VideoSegment:
        """A busy mid-day segment used for runtime profiling.

        Runtime profiling should reflect typical-to-heavy content so the
        profiled runtimes are conservative, mirroring how the paper profiles
        on sampled real segments.
        """
        midday_index = int((12.5 * 3_600.0) / self.stream_config.segment_seconds)
        return self._source.segment_at(midday_index)

    def build_task_graph(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> TaskGraph:
        raise NotImplementedError

    def evaluate(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> SegmentOutcome:
        raise NotImplementedError

    def warehouse_rows(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> Dict[str, List[Any]]:
        """The Load step: warehouse rows of ``segment`` processed with ``configuration``.

        Rows are keyed by table kind (``"detections"``, ``"tracks"``,
        ``"sentiments"``) and, like :meth:`evaluate`, are a function of
        (configuration, segment) alone.  Each workload builds them from the
        same quality model its ``evaluate`` runs, so rows and qualities
        agree.  The ingestion engine never calls this; only a loader does.
        """
        raise NotImplementedError

    def evaluate_many(
        self, pairs: Sequence[Tuple[KnobConfiguration, VideoSegment]]
    ) -> List[SegmentOutcome]:
        """Batched :meth:`evaluate` used by the offline pipeline.

        Consecutive pairs sharing one configuration are grouped and routed
        through :meth:`evaluate_config_batch`, so workloads whose quality
        model vectorizes over segments (e.g. the EV counter) process whole
        runs of segments with array ops.  Results keep the input order.
        """
        outcomes: List[SegmentOutcome] = []
        position = 0
        n_pairs = len(pairs)
        while position < n_pairs:
            configuration = pairs[position][0]
            stop = position + 1
            while stop < n_pairs and pairs[stop][0] == configuration:
                stop += 1
            segments = [segment for _, segment in pairs[position:stop]]
            outcomes.extend(self.evaluate_config_batch(configuration, segments))
            position = stop
        return outcomes

    def evaluate_config_batch(
        self, configuration: KnobConfiguration, segments: Sequence[VideoSegment]
    ) -> List[SegmentOutcome]:
        """Evaluate many segments under one configuration.

        The default loops :meth:`evaluate`; workloads whose quality model
        vectorizes over segments override this.
        """
        return [self.evaluate(configuration, segment) for segment in segments]

    def evaluate_columns(
        self, configuration: KnobConfiguration, columns: SegmentColumns
    ) -> List[SegmentOutcome]:
        """Evaluate every row of a segment batch under one configuration.

        The default materializes each row and scores the run with
        :meth:`evaluate_config_batch`; workloads whose quality model reads
        the columns directly override this.
        """
        return self.evaluate_config_batch(
            configuration, [columns.segment(position) for position in range(len(columns))]
        )

    def quality_weight(self, segment: VideoSegment) -> float:
        """How much this segment contributes to the workload's quality metric.

        The paper's quality metrics are entity weighted (person-seconds,
        tracked pedestrians, ingested streams), so a busy rush-hour segment
        matters much more than an empty night-time one.  Workloads with a
        different notion of weight override this.
        """
        return float(max(segment.ground_truth_objects, 1))

    def quality_weight_columns(self, columns: SegmentColumns) -> np.ndarray:
        """Batched :meth:`quality_weight` over a whole segment batch.

        Row ``i`` equals ``quality_weight(columns.segment(i))`` bit for bit
        for the default weight.  A workload that overrides
        :meth:`quality_weight` overrides this method to match.
        """
        return np.maximum(columns.ground_truth_objects, 1).astype(float)

    def runtime_scale(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> float:
        """Factor on the profiled runtime and cost of processing ``segment``.

        Profiles are measured on :meth:`representative_segment`; a workload
        whose work grows with the content (MOSEI's live-stream count)
        overrides this.
        """
        return 1.0

    # ------------------------------------------------------------------ #
    # Per-configuration memoization
    # ------------------------------------------------------------------ #
    def _config_term(
        self, key: str, configuration: KnobConfiguration, compute: Callable[[KnobConfiguration], float]
    ) -> float:
        """Memoized per-configuration quality-model term.

        ``compute(configuration)`` must be a pure function of the
        configuration; the cached value is returned on every later call with
        the same ``key``/configuration, which removes the dominant repeated
        work (log/dict lookups) from per-segment ``evaluate`` calls.
        """
        cache_key = (key, configuration)
        value = self._config_term_cache.get(cache_key)
        if value is None:
            value = compute(configuration)
            self._config_term_cache[cache_key] = value
        return value

    # ------------------------------------------------------------------ #
    # Deterministic noise
    # ------------------------------------------------------------------ #
    def _noise(
        self, configuration: KnobConfiguration, segment: VideoSegment, channel: str, scale: float
    ) -> float:
        """Deterministic zero-mean noise in ``[-scale, scale]``.

        The value depends only on the workload, the configuration, the segment
        index and a channel label, so repeated evaluations of the same
        (configuration, segment) pair agree exactly.
        """
        key = f"{self.name}|{configuration.short_label()}|{segment.segment_index}|{channel}"
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        unit = int.from_bytes(digest, "little") / float(2**64)
        return (unit * 2.0 - 1.0) * scale

    def _noise_columns(
        self,
        configuration: KnobConfiguration,
        segment_indices: Sequence[int],
        channel: str,
        scale: float,
    ) -> np.ndarray:
        """:meth:`_noise` of every segment index of a batch, bit for bit.

        Each row hashes the same key as :meth:`_noise`: the key prefix
        shared by the batch is hashed once, and each row continues a copy of
        that state with the rest of its key.  The digests are read as
        little-endian uint64 in one pass.  numpy's uint64 -> float64 cast
        rounds to nearest even like Python's int -> float conversion,
        ``/ 2**64`` is exact, and the rest is the scalar expression applied
        elementwise.
        """
        prefix = hashlib.blake2b(
            f"{self.name}|{configuration.short_label()}|".encode(), digest_size=8
        )
        suffix = f"|{channel}"
        digests = []
        for index in segment_indices:
            state = prefix.copy()
            state.update(f"{index}{suffix}".encode())
            digests.append(state.digest())
        unit = np.frombuffer(b"".join(digests), dtype="<u8").astype(np.float64) / float(2**64)
        return (unit * 2.0 - 1.0) * scale

    @staticmethod
    def _clip01(value: float) -> float:
        return float(min(max(value, 0.0), 1.0))
