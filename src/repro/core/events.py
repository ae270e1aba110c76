"""Event-driven simulation primitives for the ingestion runtime.

The discrete-time model of :mod:`repro.core.engine` is factored into two
pieces here so that many streams can share one cluster:

* :class:`EventLoop` — a heap-ordered clock of *arrival* and *finish*
  events.  Finish events at a timestamp are drained before arrivals at the
  same timestamp, which reproduces the reference engine's ``finish <=
  arrival`` buffer-retirement rule exactly.
* :class:`StreamSession` — the per-stream state of one ingestion: the
  byte-bounded buffer, the FIFO queue of admitted-but-unprocessed segments,
  the policy instance, lag bookkeeping and the accumulating
  :class:`~repro.core.engine.IngestionResult`.

The :class:`~repro.core.fleet.FleetEngine` owns the shared state (the
cluster clock, the daily cloud-budget ledger, the scheduler) and drives any
number of sessions through one loop; the single-stream
:class:`~repro.core.engine.IngestionEngine` is a one-session fleet.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.cluster.resources import ClusterSpec
from repro.core.columnar import SessionColumns
from repro.core.engine import (
    DecisionContext,
    IngestionResult,
    Policy,
    SegmentTrace,
)
from repro.core.interfaces import VETLWorkload
from repro.video.stream import SyntheticVideoSource

#: Event kinds.  Lower values are processed first at equal timestamps: a
#: segment finishing exactly when another arrives must release its buffer
#: bytes before the arrival's overflow check (the reference engine retires
#: segments with ``finish <= arrival``).
FINISH = 0
ARRIVAL = 1


class EventLoop:
    """A heap-ordered clock of simulation events.

    Events are ``(time, kind, payload)`` triples; ties on ``time`` are broken
    by ``kind`` (finishes before arrivals) and then by insertion order, so
    the loop is fully deterministic.
    """

    def __init__(self):
        self._heap: List[Tuple[float, int, int, "StreamSession", object]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: int, session: "StreamSession", payload) -> None:
        """Insert an event at ``time``."""
        heapq.heappush(self._heap, (time, kind, self._sequence, session, payload))
        self._sequence += 1

    def next_time(self) -> float:
        """Timestamp of the earliest scheduled event."""
        return self._heap[0][0]

    def pop(self) -> Tuple[float, int, "StreamSession", object]:
        """Remove and return the earliest event."""
        time, kind, _, session, payload = heapq.heappop(self._heap)
        return time, kind, session, payload


@dataclass
class PendingSegment:
    """A segment admitted to a stream's buffer, waiting for cluster time.

    The admission-time snapshot matters: the reference engine estimates the
    backlog a policy will face from the occupancy *at arrival* plus the video
    that keeps arriving while the segment waits, and numbers segments by
    arrival order — both must survive the segment sitting in the queue.

    An entry carries the segment's row ``position`` in the session's
    columnar window; the :class:`VideoSegment` is only built when the
    segment is processed.  ``encoded_bytes`` is what its finish event
    releases from the buffer.
    """

    position: int
    arrival_time: float
    occupancy_at_arrival: int
    arrival_ordinal: int
    weight: float
    encoded_bytes: int


class StreamSession:
    """Per-stream ingestion state driven by an event loop.

    A session owns everything that belongs to exactly one stream: its video
    source, its policy instance, its byte-bounded buffer, the FIFO queue of
    pending segments, and the :class:`IngestionResult` being accumulated.
    Shared state (cluster clock, cloud-budget ledger, scheduling) lives in
    the fleet engine driving the session.

    Args:
        workload: the stream's V-ETL job.
        source: the video source to ingest.
        policy: the per-segment decision procedure (one instance per stream;
            policies are stateful and must not be shared between sessions).
        buffer_capacity_bytes: size of the stream's video buffer.
        stream_id: identifier used in results; defaults to the source's.
        keep_traces: whether to record per-segment traces.
    """

    def __init__(
        self,
        workload: VETLWorkload,
        source: SyntheticVideoSource,
        policy: Policy,
        buffer_capacity_bytes: int,
        stream_id: Optional[str] = None,
        keep_traces: bool = True,
    ):
        self.workload = workload
        self.source = source
        self.policy = policy
        self.buffer_capacity_bytes = int(buffer_capacity_bytes)
        self.stream_id = stream_id or source.stream_id
        self.keep_traces = keep_traces

        self.index = 0  # position within the fleet, assigned by the engine
        self.result: Optional[IngestionResult] = None
        self.pending: Deque[PendingSegment] = deque()
        self.buffer_bytes = 0
        self.last_reported_quality = 1.0
        self.last_configuration_index = 0
        self._last_decision_index: Optional[int] = None
        self._columns: Optional[SessionColumns] = None
        self._cursor = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, start_time: float, end_time: float) -> None:
        """Reset the session and open the source for ``[start_time, end_time)``.

        The whole window's segments are generated in one columnar pass
        (content states, encoded sizes, quality weights as arrays); the
        event loop then walks plain Python lists and only materializes a
        :class:`VideoSegment` when a segment actually reaches the cluster.
        """
        self.result = IngestionResult(
            workload_name=self.workload.name,
            policy_name=self.policy.name,
            start_time=start_time,
            end_time=end_time,
            stream_id=self.stream_id,
        )
        self.pending.clear()
        self.buffer_bytes = 0
        self.last_reported_quality = 1.0
        self.last_configuration_index = 0
        self._last_decision_index = None
        self._columns = SessionColumns(self.source, self.workload, start_time, end_time)
        self._cursor = 0

    def next_arrival(self) -> Optional[Tuple[float, int]]:
        """``(arrival_time, position)`` of the next segment, or ``None``."""
        columns = self._columns
        assert columns is not None, "StreamSession.start must run first"
        if self._cursor >= len(columns):
            return None
        position = self._cursor
        self._cursor = position + 1
        return columns.arrival_times[position], position

    def finalize(self) -> IngestionResult:
        """Close the session and return its result (traces in segment order)."""
        assert self.result is not None, "StreamSession.start must run first"
        self.result.traces.sort(key=lambda trace: trace.segment_index)
        return self.result

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def on_arrival(self, position: int) -> bool:
        """Admit the segment at columnar row ``position``; ``False`` = dropped.

        Mirrors the reference engine's arrival block: the segment counts
        toward the totals and the quality weight before the overflow check,
        and the peak buffer occupancy records the *attempted* occupancy even
        on the dropped path so overflow severity stays visible.  Everything
        the admission needs comes from the precomputed columns; the
        ``VideoSegment`` object is only built if the segment later runs.
        """
        result = self.result
        columns = self._columns
        assert result is not None and columns is not None, "StreamSession.start must run first"
        arrival = columns.arrival_times[position]
        encoded_bytes = columns.encoded_bytes[position]
        backlog_before = self.buffer_bytes

        result.segments_total += 1
        arrival_ordinal = result.segments_total - 1
        weight = columns.weights[position]
        result.total_quality_weight += weight

        occupancy = backlog_before + encoded_bytes
        result.peak_buffer_bytes = max(result.peak_buffer_bytes, occupancy)
        if occupancy > self.buffer_capacity_bytes:
            result.overflowed = True
            result.overflow_count += 1
            result.segments_dropped += 1
            if self.keep_traces:
                result.traces.append(
                    SegmentTrace(
                        segment_index=columns.segment_indices[position],
                        arrival_time=arrival,
                        start_time=arrival,
                        finish_time=arrival,
                        configuration_index=-1,
                        configuration_label="<dropped>",
                        cloud_tasks=0,
                        runtime_seconds=0.0,
                        work_core_seconds=0.0,
                        cloud_dollars=0.0,
                        reported_quality=0.0,
                        true_quality=0.0,
                        buffer_bytes=backlog_before,
                        dropped=True,
                    )
                )
            return False

        self.buffer_bytes = occupancy
        self.pending.append(
            PendingSegment(
                position=position,
                arrival_time=arrival,
                occupancy_at_arrival=occupancy,
                arrival_ordinal=arrival_ordinal,
                weight=weight,
                encoded_bytes=encoded_bytes,
            )
        )
        return True

    def on_finish(self, released_bytes: int) -> None:
        """Release a processed segment's bytes from the buffer."""
        self.buffer_bytes -= released_bytes

    # ------------------------------------------------------------------ #
    # Decision execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        entry: PendingSegment,
        decision_time: float,
        cluster: ClusterSpec,
        cloud_remaining: float,
    ) -> Tuple[float, float]:
        """Decide and account one pending segment starting at ``decision_time``.

        Returns ``(finish_time, cloud_dollars)`` so the caller can advance
        the shared cluster clock, charge the shared budget ledger, and
        schedule the buffer-release event.  The arithmetic follows the
        reference engine operation for operation so single-stream fleet runs
        are bit-for-bit identical to the pre-refactor engine.
        """
        result = self.result
        columns = self._columns
        assert result is not None and columns is not None, "StreamSession.start must run first"
        segment = columns.segment(entry.position)
        arrival = entry.arrival_time

        bytes_per_second = columns.bytes_per_second[entry.position]
        lag_seconds = max(decision_time - arrival, 0.0)
        # The cluster frees up possibly well after this segment arrived; by
        # then more video has arrived, so estimate the occupancy the policy
        # actually faces from the admission-time snapshot.
        estimated_backlog = int(entry.occupancy_at_arrival + lag_seconds * bytes_per_second)
        context = DecisionContext(
            segment=segment,
            decision_time=decision_time,
            backlog_bytes=min(estimated_backlog, self.buffer_capacity_bytes),
            buffer_capacity_bytes=self.buffer_capacity_bytes,
            bytes_per_second=bytes_per_second,
            lag_seconds=lag_seconds,
            cloud_budget_remaining=cloud_remaining,
            last_reported_quality=self.last_reported_quality,
            last_configuration_index=self.last_configuration_index,
            segments_processed=entry.arrival_ordinal,
        )
        decision = self.policy.decide(context)
        placement = decision.placement

        # Enforce the cloud budget even for policies that ignore it.
        if placement.cloud_dollars > cloud_remaining:
            placement = decision.profile.on_prem_placement

        scale = float(self.workload.runtime_scale(decision.profile.configuration, segment))
        runtime = placement.runtime_seconds * scale
        extra = decision.extra_work_core_seconds
        runtime += extra / cluster.cores

        start = decision_time
        finish = start + runtime

        outcome = self.workload.evaluate(decision.profile.configuration, segment)
        self.policy.observe(outcome, decision)

        cloud_dollars = placement.cloud_dollars * scale
        on_prem_work = placement.on_prem_core_seconds * scale + extra
        cloud_work = placement.cloud_core_seconds * scale

        result.total_true_quality += outcome.true_quality
        result.total_reported_quality += outcome.reported_quality
        result.total_weighted_quality += outcome.true_quality * entry.weight
        result.total_entities += outcome.entities
        result.on_prem_core_seconds += on_prem_work
        result.cloud_core_seconds += cloud_work
        result.cloud_dollars += cloud_dollars
        result.total_lag_seconds += lag_seconds
        result.max_lag_seconds = max(result.max_lag_seconds, lag_seconds)
        label = decision.profile.configuration.short_label()
        result.configuration_usage[label] = result.configuration_usage.get(label, 0) + 1
        if (
            self._last_decision_index is not None
            and decision.configuration_index != self._last_decision_index
        ):
            result.switch_count += 1
        self._last_decision_index = decision.configuration_index

        self.last_reported_quality = outcome.reported_quality
        self.last_configuration_index = decision.configuration_index

        if self.keep_traces:
            result.traces.append(
                SegmentTrace(
                    segment_index=segment.segment_index,
                    arrival_time=arrival,
                    start_time=start,
                    finish_time=finish,
                    configuration_index=decision.configuration_index,
                    configuration_label=label,
                    cloud_tasks=placement.cloud_task_count,
                    runtime_seconds=runtime,
                    work_core_seconds=on_prem_work + cloud_work,
                    cloud_dollars=cloud_dollars,
                    reported_quality=outcome.reported_quality,
                    true_quality=outcome.true_quality,
                    buffer_bytes=entry.occupancy_at_arrival,
                    category=int(decision.metadata.get("category", -1))
                    if "category" in decision.metadata
                    else None,
                )
            )
        return finish, cloud_dollars
