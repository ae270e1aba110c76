"""Video segments, the unit Skyscraper reasons about.

A :class:`VideoSegment` is a few seconds of successive frames (Section 2.1).
It carries the segment's aggregate content state, its encoded size and its
ground-truth object count; the workloads' cost and quality models read those,
and no frame is ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.video.content import ContentState


@dataclass
class VideoSegment:
    """A contiguous run of frames treated as one knob-tuning unit.

    Attributes:
        segment_index: position of the segment in the stream.
        stream_id: identifier of the producing stream.
        start_time: absolute start time in seconds.
        duration: segment length in seconds (the knob switching period).
        frame_rate: native frame rate of the source (frames per second).
        width, height: native resolution.
        content: aggregate content state over the segment.
        encoded_bytes: total encoded size of the segment in bytes.
        ground_truth_objects: number of distinct relevant objects present.
    """

    segment_index: int
    stream_id: str
    start_time: float
    duration: float
    frame_rate: float
    width: int
    height: int
    content: ContentState
    encoded_bytes: int
    ground_truth_objects: int

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigurationError("segment duration must be positive")
        if self.frame_rate <= 0:
            raise ConfigurationError("frame rate must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError("resolution must be positive")
        if self.encoded_bytes < 0:
            raise ConfigurationError("encoded size must be non-negative")

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    @property
    def frame_count(self) -> int:
        """Number of frames produced by the source during the segment."""
        return max(int(round(self.duration * self.frame_rate)), 1)

    def describe(self) -> str:
        """One-line human readable summary used by examples and logs."""
        return (
            f"segment {self.segment_index} of {self.stream_id} "
            f"[{self.start_time:.1f}s, {self.end_time:.1f}s) "
            f"density={self.content.object_density:.2f} "
            f"occlusion={self.content.occlusion:.2f} "
            f"objects={self.ground_truth_objects}"
        )
