"""The ingestion engine: discrete-time execution of a V-ETL job.

The engine drives one ingestion run: segments arrive at the rate the source
produces them, a *policy* (Skyscraper's switcher, or one of the baselines)
chooses a knob configuration and task placement for every segment, the
profiled runtime of that placement advances the processing clock, lag
accumulates in the byte-bounded buffer, and cloud spend is charged against the
daily budget.  This is the Appendix-M simulation model applied end-to-end; the
same engine runs every system in the evaluation so comparisons are apples to
apples.

Since the fleet-runtime redesign the execution itself is event driven: the
loop lives in :mod:`repro.core.events` (arrival/finish events on a heap
clock, per-stream :class:`~repro.core.events.StreamSession` state) and
:mod:`repro.core.fleet` (the multi-stream :class:`~repro.core.fleet.FleetEngine`
with pluggable schedulers and a shared daily cloud-budget ledger).
:class:`IngestionEngine` remains the single-stream API: it runs a one-stream
fleet and returns that stream's result, bit-for-bit identical to the historic
sequential implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.cluster.profiler import PlacementProfile
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.interfaces import SegmentOutcome, VETLWorkload
from repro.core.profiles import ConfigurationProfile
from repro.video.frame import VideoSegment
from repro.video.stream import SyntheticVideoSource

SECONDS_PER_DAY = 86_400.0


@dataclass
class DecisionContext:
    """Everything a policy may observe when deciding how to process a segment.

    Only observable state is exposed: the reported quality of the previous
    segment, buffer occupancy, bandwidth, remaining cloud budget — never the
    ground-truth quality of the segment about to be processed.
    """

    segment: VideoSegment
    decision_time: float
    backlog_bytes: int
    buffer_capacity_bytes: int
    bytes_per_second: float
    lag_seconds: float
    cloud_budget_remaining: float
    last_reported_quality: float
    last_configuration_index: int
    segments_processed: int


@dataclass
class PolicyDecision:
    """A policy's choice for one segment.

    Attributes:
        configuration_index: index into the engine's profile set.
        profile: the chosen configuration's profile.
        placement: the chosen task placement.
        extra_work_core_seconds: additional on-premise work charged to this
            segment (e.g. Chameleon's online profiling overhead).
        metadata: free-form diagnostics stored in the segment trace.
    """

    configuration_index: int
    profile: ConfigurationProfile
    placement: PlacementProfile
    extra_work_core_seconds: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)


class Policy(Protocol):
    """A per-segment decision procedure (Skyscraper or a baseline)."""

    name: str

    def decide(self, context: DecisionContext) -> PolicyDecision:
        """Choose configuration and placement for the segment in ``context``."""
        ...

    def observe(self, outcome: SegmentOutcome, decision: PolicyDecision) -> None:
        """Receive the outcome of the segment just processed (optional hook)."""
        ...


@dataclass
class SegmentTrace:
    """Per-segment telemetry recorded by the engine."""

    segment_index: int
    arrival_time: float
    start_time: float
    finish_time: float
    configuration_index: int
    configuration_label: str
    cloud_tasks: int
    runtime_seconds: float
    work_core_seconds: float
    cloud_dollars: float
    reported_quality: float
    true_quality: float
    buffer_bytes: int
    category: Optional[int] = None
    dropped: bool = False


@dataclass
class IngestionResult:
    """Aggregate outcome of one ingestion run (one stream)."""

    workload_name: str
    policy_name: str
    start_time: float
    end_time: float
    stream_id: str = ""
    segments_total: int = 0
    segments_dropped: int = 0
    total_true_quality: float = 0.0
    total_reported_quality: float = 0.0
    total_weighted_quality: float = 0.0
    total_quality_weight: float = 0.0
    total_entities: float = 0.0
    on_prem_core_seconds: float = 0.0
    cloud_core_seconds: float = 0.0
    cloud_dollars: float = 0.0
    total_lag_seconds: float = 0.0
    max_lag_seconds: float = 0.0
    peak_buffer_bytes: int = 0
    overflowed: bool = False
    overflow_count: int = 0
    configuration_usage: Dict[str, int] = field(default_factory=dict)
    switch_count: int = 0
    traces: List[SegmentTrace] = field(default_factory=list)

    @property
    def mean_true_quality(self) -> float:
        if self.segments_total == 0:
            return 0.0
        return self.total_true_quality / self.segments_total

    @property
    def mean_reported_quality(self) -> float:
        if self.segments_total == 0:
            return 0.0
        return self.total_reported_quality / self.segments_total

    @property
    def weighted_quality(self) -> float:
        """Entity-weighted quality: the paper's quality metrics weight segments
        by how much there is to extract (person-seconds, live streams), so a
        system that only does well on empty night-time content scores low."""
        if self.total_quality_weight <= 0:
            return self.mean_true_quality
        return self.total_weighted_quality / self.total_quality_weight

    @property
    def mean_lag_seconds(self) -> float:
        """Mean decision lag over processed (non-dropped) segments."""
        processed = self.segments_total - self.segments_dropped
        if processed <= 0:
            return 0.0
        return self.total_lag_seconds / processed

    @property
    def total_work_core_seconds(self) -> float:
        return self.on_prem_core_seconds + self.cloud_core_seconds


class IngestionEngine:
    """Runs one single-stream V-ETL ingestion with a given policy.

    This is a thin wrapper over a one-stream
    :class:`~repro.core.fleet.FleetEngine`; multi-stream ingestion with
    pluggable scheduling lives there.

    A segment that would overflow the buffer is dropped and recorded
    (``overflowed``, ``overflow_count`` and a ``<dropped>`` trace) while the
    run continues; that record is how the figures count a crash
    (``CostQualityPoint.crashed``).

    Args:
        workload: the user's V-ETL job.
        source: the video source to ingest.
        cluster: provisioned on-premise hardware.
        cloud: cloud specification, including the optional daily budget.
        buffer_capacity_bytes: size of the video buffer (Equation 1's ``B``).
        keep_traces: whether to record per-segment traces (needed for the
            Figure 3 style plots; disable for large sweeps to save memory).
    """

    def __init__(
        self,
        workload: VETLWorkload,
        source: SyntheticVideoSource,
        cluster: ClusterSpec,
        cloud: Optional[CloudSpec] = None,
        buffer_capacity_bytes: int = 4_000_000_000,
        keep_traces: bool = True,
    ):
        self.workload = workload
        self.source = source
        self.cluster = cluster
        self.cloud = cloud or CloudSpec()
        self.buffer_capacity_bytes = int(buffer_capacity_bytes)
        self.keep_traces = keep_traces

    def run(self, policy: Policy, start_time: float, end_time: float) -> IngestionResult:
        """Ingest the stream from ``start_time`` to ``end_time`` with ``policy``."""
        from repro.core.fleet import FleetEngine, FleetStream

        fleet = FleetEngine(
            cluster=self.cluster,
            cloud=self.cloud,
            scheduler="fifo",
            keep_traces=self.keep_traces,
        )
        stream = FleetStream(
            workload=self.workload,
            source=self.source,
            policy=policy,
            buffer_capacity_bytes=self.buffer_capacity_bytes,
        )
        fleet_result = fleet.run([stream], start_time, end_time)
        (result,) = fleet_result.stream_results.values()
        return result
