"""Synthetic video substrate.

The paper ingests real camera streams (Tokyo street cameras, the MOT20
benchmark, CMU-MOSEI clips).  Offline, we replace them with a synthetic
substrate that reproduces the *statistics* Skyscraper reacts to: diurnal
traffic cycles, rush-hour peaks, random pedestrian bursts that change the
content category every few tens of seconds, lighting changes, and the
synthetic spike patterns of the MOSEI workloads.

The substrate exposes segments, streams and an H.264-like size/decode cost
model.  The byte-bounded buffer of the V-ETL throughput constraint
(Equation 1) is tracked per stream by the engine
(:class:`~repro.core.events.StreamSession`).
"""

from repro.video.content import ContentState, ContentModel, DiurnalProfile, SpikeSchedule
from repro.video.frame import VideoSegment
from repro.video.stream import SyntheticVideoSource, StreamConfig
from repro.video.codec import H264SizeModel, DecodeCostModel, EncodedPayload

__all__ = [
    "ContentState",
    "ContentModel",
    "DiurnalProfile",
    "SpikeSchedule",
    "VideoSegment",
    "SyntheticVideoSource",
    "StreamConfig",
    "H264SizeModel",
    "DecodeCostModel",
    "EncodedPayload",
]
