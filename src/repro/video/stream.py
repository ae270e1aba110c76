"""Synthetic video sources.

A :class:`SyntheticVideoSource` turns a :class:`~repro.video.content.ContentModel`
into a sequence of :class:`~repro.video.frame.VideoSegment` objects at a fixed
frame rate and resolution, mirroring how the paper reads pre-recorded video
from disk and paces it to 30 fps (Section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.video.codec import H264SizeModel
from repro.video.content import ContentModel, ContentState, ContentStateColumns
from repro.video.frame import VideoSegment


@dataclass(frozen=True)
class SegmentColumns:
    """A batch of consecutive segments of one source, stored as columns.

    Produced by :meth:`SyntheticVideoSource.segment_columns`; row ``i``
    materializes (via :meth:`segment`) to exactly the :class:`VideoSegment`
    that :meth:`SyntheticVideoSource.segment_at` would build for
    ``segment_index[i]``.
    """

    stream_id: str
    duration: float
    frame_rate: float
    width: int
    height: int
    segment_index: np.ndarray
    start_time: np.ndarray
    encoded_bytes: np.ndarray
    ground_truth_objects: np.ndarray
    content: ContentStateColumns

    def __len__(self) -> int:
        return int(self.segment_index.size)

    def segment(self, position: int) -> VideoSegment:
        """Materialize row ``position`` as a :class:`VideoSegment`."""
        return VideoSegment(
            segment_index=int(self.segment_index[position]),
            stream_id=self.stream_id,
            start_time=float(self.start_time[position]),
            duration=self.duration,
            frame_rate=self.frame_rate,
            width=self.width,
            height=self.height,
            content=self.content.state(position),
            encoded_bytes=int(self.encoded_bytes[position]),
            ground_truth_objects=int(self.ground_truth_objects[position]),
        )

    def take(self, rows: np.ndarray) -> "SegmentColumns":
        """The rows at positions ``rows`` of this batch, in that order, as a new batch."""
        content = self.content
        return replace(
            self,
            segment_index=self.segment_index[rows],
            start_time=self.start_time[rows],
            encoded_bytes=self.encoded_bytes[rows],
            ground_truth_objects=self.ground_truth_objects[rows],
            content=ContentStateColumns(
                **{field.name: getattr(content, field.name)[rows] for field in fields(content)}
            ),
        )


@dataclass(frozen=True)
class StreamConfig:
    """Static properties of a synthetic stream.

    Defaults reproduce the paper's setup: H.264 video at 1280x720 and 30 fps,
    sliced into 2-second segments (the default knob switching period).
    """

    stream_id: str = "camera-0"
    width: int = 1280
    height: int = 720
    frame_rate: float = 30.0
    segment_seconds: float = 2.0
    max_objects: int = 40

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("resolution must be positive")
        if self.frame_rate <= 0:
            raise ConfigurationError("frame_rate must be positive")
        if self.segment_seconds <= 0:
            raise ConfigurationError("segment_seconds must be positive")
        if self.max_objects < 1:
            raise ConfigurationError("max_objects must be at least 1")


class SyntheticVideoSource:
    """Produces video segments from a deterministic content model.

    Args:
        content_model: generator of content dynamics.
        config: stream properties (resolution, fps, segment length).
        size_model: encoded-size model; defaults to the H.264 model calibrated
            to the paper's 7.8 GB/day figure.
    """

    def __init__(
        self,
        content_model: ContentModel,
        config: Optional[StreamConfig] = None,
        size_model: Optional[H264SizeModel] = None,
    ):
        self.content_model = content_model
        self.config = config or StreamConfig()
        self.size_model = size_model or H264SizeModel()

    @property
    def stream_id(self) -> str:
        return self.config.stream_id

    @property
    def segment_seconds(self) -> float:
        return self.config.segment_seconds

    def bytes_per_second(self, content: ContentState) -> float:
        """Instantaneous encoded bitrate given the content state."""
        segment_bytes = self.size_model.segment_bytes(
            self.config.segment_seconds, self.config.width, self.config.height, content
        )
        return segment_bytes / self.config.segment_seconds

    def segment_at(self, segment_index: int) -> VideoSegment:
        """Materialize the segment with the given index."""
        if segment_index < 0:
            raise ConfigurationError("segment_index must be non-negative")
        start_time = segment_index * self.config.segment_seconds
        # Sample the content in the middle of the segment so edge effects of
        # bursts starting exactly at a boundary do not bias the state.
        content = self.content_model.state_at(start_time + self.config.segment_seconds / 2.0)
        encoded_bytes = self.size_model.segment_bytes(
            self.config.segment_seconds, self.config.width, self.config.height, content
        )
        ground_truth = max(int(round(content.object_density * self.config.max_objects)), 0)
        return VideoSegment(
            segment_index=segment_index,
            stream_id=self.config.stream_id,
            start_time=start_time,
            duration=self.config.segment_seconds,
            frame_rate=self.config.frame_rate,
            width=self.config.width,
            height=self.config.height,
            content=content,
            encoded_bytes=encoded_bytes,
            ground_truth_objects=ground_truth,
        )

    def segment_index_columns(self, indices: np.ndarray) -> SegmentColumns:
        """Batched :meth:`segment_at`: one columnar pass over many indices.

        Row ``i`` equals ``segment_at(indices[i])`` bit for bit — the content
        model, size model, and ground-truth rounding all run the same IEEE
        expressions, just over columns.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and int(indices.min()) < 0:
            raise ConfigurationError("segment_index must be non-negative")
        starts = indices * self.config.segment_seconds
        content = self.content_model.states_at(starts + self.config.segment_seconds / 2.0)
        encoded = self.size_model.segment_bytes_array(
            self.config.segment_seconds, self.config.width, self.config.height, content.activity
        )
        ground_truth = np.maximum(
            np.round(content.object_density * self.config.max_objects), 0
        ).astype(np.int64)
        return SegmentColumns(
            stream_id=self.config.stream_id,
            duration=self.config.segment_seconds,
            frame_rate=self.config.frame_rate,
            width=self.config.width,
            height=self.config.height,
            segment_index=indices,
            start_time=starts,
            encoded_bytes=encoded,
            ground_truth_objects=ground_truth,
            content=content,
        )

    def window_indices(self, start_time: float, end_time: float) -> np.ndarray:
        """Ascending index of every segment whose start lies in ``[start_time, end_time)``."""
        if end_time < start_time:
            raise ConfigurationError("end_time must not precede start_time")
        first = int(math.floor(start_time / self.config.segment_seconds))
        last = int(math.ceil(end_time / self.config.segment_seconds))
        indices = np.arange(first, last, dtype=np.int64)
        starts = indices * self.config.segment_seconds
        keep = (start_time <= starts) & (starts < end_time)
        return indices[keep]

    def segment_columns(self, start_time: float, end_time: float) -> SegmentColumns:
        """Columns for every segment whose start lies in ``[start_time, end_time)``."""
        return self.segment_index_columns(self.window_indices(start_time, end_time))

    def segments(self, start_time: float, end_time: float) -> Iterator[VideoSegment]:
        """Yield every segment whose start lies in ``[start_time, end_time)``."""
        columns = self.segment_columns(start_time, end_time)
        for position in range(len(columns)):
            yield columns.segment(position)

    def record(self, start_time: float, end_time: float) -> List[VideoSegment]:
        """Materialize a historical recording (used by the offline phase)."""
        return list(self.segments(start_time, end_time))
