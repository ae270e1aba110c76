"""Frozen reference implementations (parity oracles).

The columnar hot path (:mod:`repro.core.columnar`, the vectorized
:meth:`~repro.video.content.ContentModel.states_at`, and the index-based
fleet loop in :mod:`repro.core.events`) replaced per-object Python loops
that had accumulated three PRs of carefully pinned semantics.  This module
keeps those loops alive, verbatim, for two purposes:

* **parity oracle** — ``tests/core/test_hotpath_parity.py`` replays the
  same scenarios through :func:`reference_fleet_run` and asserts the
  vectorized engine is bit-for-bit identical (and that the vectorized
  content math stays within the documented tolerance of
  :func:`scalar_state_at`);
* **benchmark baseline** — ``benchmarks/bench_hotpath.py`` measures the
  vectorized path against these loops, so the committed speedups in
  ``benchmarks/BENCH_hotpath.json`` are relative to the true seed
  behaviour, not to a strawman.

``reference_fleet_run`` takes a ``segments_fn`` hook: the parity tests pass
the *live* ``source.segments`` (both sides then consume identical segment
values, pinning the loop/switcher/accumulation changes exactly), while the
benchmark passes :func:`scalar_segments` (the loop then also pays the
pre-vectorization per-segment content cost, reproducing the seed).

The built-in schedulers' scanning ``select`` rules are frozen here as well
(:func:`frozen_scheduler_rule`).  ``reference_fleet_run`` picks every serve
with them rather than with the live schedulers, so a change to a live rule
(lag-aware's incremental fill heap, say) is checked against the scan.

So is the knob switcher (:class:`FrozenKnobSwitcher`): Equations 5 and 6 in
numpy and the nested scan over every placement, dominated ones included.
The live switcher scans only the non-dominated placements, as lists.
:func:`frozen_twin` builds it over a live switcher's inputs, and
:func:`use_frozen_switcher` gives a built policy that twin, so the reference
side of a fleet comparison decides with it.

So is a camera-day's burst schedule (:func:`frozen_bursts_for_day`):
numpy's ``uniform``/``exponential`` calls and one sorted record per burst,
which the live ``ContentModel._bursts_for_day`` must match bit for bit.
And so is the batched burst kernel (:func:`frozen_burst_intensity_at`):
every row of day ``d`` reads the schedules of days ``d - 1`` and ``d``,
drawn by :func:`frozen_bursts_for_day`.  The live
``ContentModel._burst_intensity_at`` skips day ``d - 1`` where none of its
bursts can still be running, and must match it bit for bit.

So is the forecaster's trainer (:func:`frozen_mlp_fit`): per-layer weight
and bias arrays, fresh gradient lists per mini-batch and an Adam step that
loops over the layers.  The live ``MLP.fit`` trains a flat parameter buffer
with one fused Adam step and must match it bit for bit.

So is the history labeler (:func:`frozen_label_quality_series`): one
``VideoSegment`` per label, each scored with the scalar ``evaluate``.  The
live ``label_quality_series`` scores the label grid as columns and must
match it bit for bit.

Nothing here is called by the runtime; edits to this file invalidate the
parity guarantee and should only ever accompany an intentional semantic
change of the engine.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.profiler import PlacementProfile
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.categorizer import ContentCategorizer
from repro.core.engine import DecisionContext, IngestionResult, SegmentTrace
from repro.core.interfaces import VETLWorkload
from repro.core.knobs import KnobConfiguration
from repro.core.planner import KnobPlan
from repro.core.profiles import ProfileSet
from repro.core.switcher import SwitchDecision
from repro.errors import ConfigurationError
from repro.ml.mlp import MLP, TrainingHistory
from repro.video.content import (
    _BURST_BATCH_ROWS,
    SECONDS_PER_DAY,
    ContentModel,
    ContentState,
)
from repro.video.frame import VideoSegment
from repro.video.stream import SyntheticVideoSource


def _clip01(value: float) -> float:
    return float(min(max(value, 0.0), 1.0))


# --------------------------------------------------------------------- #
# Scalar content math (pre-vectorization ContentModel.state_at)
# --------------------------------------------------------------------- #
def _scalar_burst_intensity(model: ContentModel, timestamp: float) -> float:
    """Verbatim copy of the pre-vectorization ``ContentModel._burst_intensity``."""
    day = int(timestamp // SECONDS_PER_DAY)
    total = 0.0
    # A burst can straddle midnight, so also consider the previous day.
    for candidate_day in (day - 1, day):
        if candidate_day < 0:
            continue
        starts, durations, magnitudes = model._bursts_for_day(candidate_day)
        if starts.size == 0:
            continue
        # Only bursts that have started and not yet ended contribute.
        active = (starts <= timestamp) & (timestamp < starts + durations)
        if not np.any(active):
            continue
        phase = (timestamp - starts[active]) / durations[active]
        total += float(np.sum(magnitudes[active] * np.sin(np.pi * phase)))
    return total


@dataclass(frozen=True)
class _FrozenBurst:
    """One burst of a frozen schedule, sorted by ``start``."""

    start: float
    duration: float
    magnitude: float


def frozen_bursts_for_day(
    model: ContentModel, day: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The original ``ContentModel._bursts_for_day``, draw for draw.

    Starts, durations and magnitudes of one camera-day's bursts, sorted by
    start.  It neither reads nor fills the model's schedule cache, so every
    call generates the day from cold.
    """
    rng = np.random.default_rng((model.seed * 1_000_003 + day * 7_919) & 0xFFFFFFFF)
    expected = model.burst_rate_per_hour * 24.0
    count = int(rng.poisson(expected)) if expected > 0 else 0
    bursts: List[_FrozenBurst] = []
    day_start = day * SECONDS_PER_DAY
    for _ in range(count):
        start = day_start + rng.uniform(0.0, SECONDS_PER_DAY)
        duration = max(rng.exponential(model.burst_duration_seconds), 5.0)
        # Bursts are more likely and stronger during active hours.
        weight = model.diurnal.activity(start)
        if rng.uniform() > 0.25 + 0.75 * weight:
            continue
        magnitude = max(rng.normal(model.burst_magnitude, model.burst_magnitude * 0.4), 0.05)
        bursts.append(_FrozenBurst(start=start, duration=duration, magnitude=magnitude))
    bursts.sort(key=lambda burst: burst.start)
    return (
        np.array([burst.start for burst in bursts], dtype=float),
        np.array([burst.duration for burst in bursts], dtype=float),
        np.array([burst.magnitude for burst in bursts], dtype=float),
    )


def frozen_burst_intensity_at(model: ContentModel, ts: np.ndarray) -> np.ndarray:
    """The two-day ``ContentModel._burst_intensity_at``, reading frozen schedules.

    Every row of day ``d`` sums the bursts of days ``d - 1`` and ``d`` in
    burst-start order; each schedule comes from :func:`frozen_bursts_for_day`,
    so the model's cache is neither read nor filled.
    """
    total = np.zeros(ts.shape, dtype=float)
    if ts.size == 0:
        return total
    days = np.floor_divide(ts, SECONDS_PER_DAY).astype(np.int64)
    for day in np.unique(days):
        day_mask = days == day
        sub = ts[day_mask]
        acc = np.zeros(sub.shape, dtype=float)
        # A burst can straddle midnight, so also consider the previous day.
        for candidate_day in (int(day) - 1, int(day)):
            if candidate_day < 0:
                continue
            starts, durations, magnitudes = frozen_bursts_for_day(model, candidate_day)
            if starts.size == 0:
                continue
            ends = starts + durations
            max_duration = float(durations.max())
            for begin in range(0, sub.size, _BURST_BATCH_ROWS):
                piece = sub[begin : begin + _BURST_BATCH_ROWS]
                lo = int(np.searchsorted(starts, float(piece.min()) - max_duration))
                hi = int(np.searchsorted(starts, float(piece.max()), side="right"))
                if lo >= hi:
                    continue
                t = piece[:, None]
                active = (starts[None, lo:hi] <= t) & (t < ends[None, lo:hi])
                rows, cols = np.nonzero(active)
                if rows.size == 0:
                    continue
                phase = (piece[rows] - starts[lo + cols]) / durations[lo + cols]
                contributions = magnitudes[lo + cols] * np.sin(np.pi * phase)
                np.add.at(acc, begin + rows, contributions)
        total[day_mask] = acc
    return total


def _scalar_smooth_noise(model: ContentModel, timestamp: float) -> float:
    """Verbatim copy of the pre-vectorization ``ContentModel._smooth_noise``."""
    value = 0.0
    for phase, period in zip(model._noise_phases, model._noise_periods):
        value += math.sin(2.0 * math.pi * timestamp / period + phase)
    return model.noise_level * value / len(model._noise_phases)


def scalar_state_at(
    model: ContentModel, timestamp: float, stream_load: Optional[float] = None
) -> ContentState:
    """The pre-vectorization ``ContentModel.state_at``, operation for operation.

    Uses ``math.exp``/``math.pow`` scalar transcendentals where the live
    implementation now uses the numpy ufuncs, so individual fields may differ
    from the live path by a few ulps (the documented tolerance).
    """
    if timestamp < 0:
        raise ConfigurationError("timestamp must be non-negative")
    diurnal = model.diurnal
    baseline = diurnal.activity(timestamp)
    baseline += model.trend_per_day * (timestamp / SECONDS_PER_DAY)
    burst = _scalar_burst_intensity(model, timestamp)
    spike = model.spikes.intensity(timestamp) if model.spikes is not None else 0.0
    noise = _scalar_smooth_noise(model, timestamp)
    activity = _clip01(baseline + burst + spike + noise)

    lighting = diurnal.lighting(timestamp)
    object_density = _clip01(activity * (0.85 + 0.3 * burst))
    occlusion = _clip01(activity**1.4 * (1.1 - 0.25 * lighting))
    motion = _clip01(0.25 + 0.6 * activity + 0.4 * burst)
    load = stream_load if stream_load is not None else _clip01(0.3 + 0.7 * activity + spike)
    return ContentState(
        timestamp=float(timestamp),
        object_density=object_density,
        occlusion=occlusion,
        lighting=lighting,
        motion=motion,
        activity=activity,
        stream_load=load,
    )


def scalar_segment_at(source: SyntheticVideoSource, segment_index: int) -> VideoSegment:
    """The pre-vectorization ``SyntheticVideoSource.segment_at``."""
    if segment_index < 0:
        raise ConfigurationError("segment_index must be non-negative")
    config = source.config
    start_time = segment_index * config.segment_seconds
    model = source.content_model
    shift = getattr(model, "shift_seconds", None)
    query = start_time + config.segment_seconds / 2.0
    if shift is not None:
        # PhaseShiftedContentModel: evaluate the base at the shifted time and
        # re-stamp with the query time, exactly as the live wrapper does.
        base_state = scalar_state_at(model.base, query + shift)
        from dataclasses import replace

        content = replace(base_state, timestamp=float(query))
    else:
        content = scalar_state_at(model, query)
    encoded_bytes = source.size_model.segment_bytes(
        config.segment_seconds, config.width, config.height, content
    )
    ground_truth = max(int(round(content.object_density * config.max_objects)), 0)
    return VideoSegment(
        segment_index=segment_index,
        stream_id=config.stream_id,
        start_time=start_time,
        duration=config.segment_seconds,
        frame_rate=config.frame_rate,
        width=config.width,
        height=config.height,
        content=content,
        encoded_bytes=encoded_bytes,
        ground_truth_objects=ground_truth,
    )


def scalar_segments(
    source: SyntheticVideoSource, start_time: float, end_time: float
) -> Iterator[VideoSegment]:
    """The pre-vectorization ``SyntheticVideoSource.segments`` generator."""
    if end_time < start_time:
        raise ConfigurationError("end_time must not precede start_time")
    first = int(math.floor(start_time / source.config.segment_seconds))
    last = int(math.ceil(end_time / source.config.segment_seconds))
    for index in range(first, last):
        segment = scalar_segment_at(source, index)
        if start_time <= segment.start_time < end_time:
            yield segment


# --------------------------------------------------------------------- #
# The pre-vectorization per-object fleet loop
# --------------------------------------------------------------------- #
_FINISH = 0
_ARRIVAL = 1


@dataclass
class _ReferencePending:
    segment: VideoSegment
    arrival_time: float
    occupancy_at_arrival: int
    arrival_ordinal: int
    weight: float


class _ReferenceSession:
    """Verbatim copy of the pre-columnar ``StreamSession``."""

    def __init__(
        self,
        workload,
        source: SyntheticVideoSource,
        policy,
        buffer_capacity_bytes: int,
        stream_id: Optional[str] = None,
        keep_traces: bool = True,
        segments_fn: Optional[Callable[..., Iterator[VideoSegment]]] = None,
    ):
        self.workload = workload
        self.source = source
        self.policy = policy
        self.buffer_capacity_bytes = int(buffer_capacity_bytes)
        self.stream_id = stream_id or source.stream_id
        self.keep_traces = keep_traces
        self._segments_fn = segments_fn

        self._runtime_scale = getattr(workload, "runtime_scale", None)
        self._quality_weight = getattr(workload, "quality_weight", None)

        self.index = 0
        self.result: Optional[IngestionResult] = None
        self.pending: Deque[_ReferencePending] = deque()
        self.buffer_bytes = 0
        self.last_reported_quality = 1.0
        self.last_configuration_index = 0
        self._last_decision_index: Optional[int] = None
        self._segments: Optional[Iterator[VideoSegment]] = None

    def start(self, start_time: float, end_time: float) -> None:
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
        if self._segments_fn is not None:
            self._segments = self._segments_fn(self.source, start_time, end_time)
        else:
            self._segments = self.source.segments(start_time, end_time)

    def next_segment(self) -> Optional[VideoSegment]:
        assert self._segments is not None
        return next(self._segments, None)

    def finalize(self) -> IngestionResult:
        assert self.result is not None
        self.result.traces.sort(key=lambda trace: trace.segment_index)
        return self.result

    def on_arrival(self, segment: VideoSegment) -> bool:
        result = self.result
        assert result is not None
        arrival = segment.end_time
        backlog_before = self.buffer_bytes

        result.segments_total += 1
        arrival_ordinal = result.segments_total - 1
        weight = (
            float(self._quality_weight(segment)) if self._quality_weight is not None else 1.0
        )
        result.total_quality_weight += weight

        occupancy = backlog_before + segment.encoded_bytes
        result.peak_buffer_bytes = max(result.peak_buffer_bytes, occupancy)
        if occupancy > self.buffer_capacity_bytes:
            result.overflowed = True
            result.overflow_count += 1
            result.segments_dropped += 1
            if self.keep_traces:
                result.traces.append(
                    SegmentTrace(
                        segment_index=segment.segment_index,
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
            _ReferencePending(
                segment=segment,
                arrival_time=arrival,
                occupancy_at_arrival=occupancy,
                arrival_ordinal=arrival_ordinal,
                weight=weight,
            )
        )
        return True

    def on_finish(self, released_bytes: int) -> None:
        self.buffer_bytes -= released_bytes

    def execute(
        self,
        entry: _ReferencePending,
        decision_time: float,
        cluster: ClusterSpec,
        cloud_remaining: float,
    ) -> Tuple[float, float]:
        result = self.result
        assert result is not None
        segment = entry.segment
        arrival = entry.arrival_time

        bytes_per_second = self.source.bytes_per_second(segment.content)
        lag_seconds = max(decision_time - arrival, 0.0)
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

        if placement.cloud_dollars > cloud_remaining:
            placement = decision.profile.on_prem_placement

        scale = 1.0
        if self._runtime_scale is not None:
            scale = float(self._runtime_scale(decision.profile.configuration, segment))
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


# --------------------------------------------------------------------- #
# Frozen scheduler rules
# --------------------------------------------------------------------- #
class _FrozenFifoRule:
    """Verbatim copy of the scanning ``FifoScheduler.select``."""

    name = "fifo"

    def select(self, ready, now):
        return min(ready, key=lambda session: session.pending[0].arrival_time)


class _FrozenRoundRobinRule:
    """Verbatim copy of the scanning ``RoundRobinScheduler.select``."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def select(self, ready, now):
        chosen = next(
            (session for session in ready if session.index >= self._cursor), ready[0]
        )
        self._cursor = chosen.index + 1
        return chosen


class _FrozenLagAwareRule:
    """Verbatim copy of the linear ``LagAwareScheduler.select`` scan."""

    name = "lag-aware"

    def select(self, ready, now):
        def priority(session):
            capacity = session.buffer_capacity_bytes
            fill = session.buffer_bytes / capacity if capacity > 0 else 1.0
            lag = now - session.pending[0].arrival_time
            return (fill, lag)

        return max(ready, key=priority)


_FROZEN_RULES = {
    rule.name: rule for rule in (_FrozenFifoRule, _FrozenRoundRobinRule, _FrozenLagAwareRule)
}


def frozen_scheduler_rule(name: str):
    """A fresh frozen rule for the built-in scheduler ``name``.

    A rule only has ``select(ready, now)``, which scans ``ready`` (the
    sessions with pending segments, in fleet order) on every call.
    """
    if name not in _FROZEN_RULES:
        raise ConfigurationError(
            f"no frozen rule for scheduler {name!r}; frozen: {sorted(_FROZEN_RULES)}"
        )
    return _FROZEN_RULES[name]()


# --------------------------------------------------------------------- #
# The frozen knob switcher
# --------------------------------------------------------------------- #
class FrozenKnobSwitcher:
    """Verbatim copy of the pre-pruning ``KnobSwitcher``.

    Equations 5 and 6 run in numpy (``classify_partial``, the deficit
    ``argmax``), and the feasibility scan walks every placement of every
    fallback configuration (``_select_feasible``), dominated ones included.
    It has the live switcher's interface: ``decide``, ``update_plan``,
    ``realized_histogram``, ``category_history`` and an assignable
    ``categorizer``.
    """

    def __init__(
        self,
        profiles: ProfileSet,
        categorizer: ContentCategorizer,
        plan: KnobPlan,
        segment_duration: float,
        buffer_capacity_bytes: int,
        safety_margin: float = 0.98,
    ):
        self.profiles = profiles
        self.categorizer = categorizer
        self.plan = plan
        self.segment_duration = segment_duration
        self.buffer_capacity_bytes = buffer_capacity_bytes
        self.safety_margin = safety_margin

        n_configurations = len(profiles)
        n_categories = categorizer.actual_categories
        self._usage_counts = np.zeros((n_categories, n_configurations))
        self.category_history: List[Tuple[float, int]] = []
        self._quality_order = [
            profiles.index_of(profile.configuration)
            for profile in profiles.by_quality_descending()
        ]

    def update_plan(self, plan: KnobPlan) -> None:
        self.plan = plan

    def realized_histogram(self, category: int) -> np.ndarray:
        counts = self._usage_counts[category]
        total = counts.sum()
        if total <= 0:
            return np.zeros_like(counts)
        return counts / total

    def decide(
        self,
        observed_quality: float,
        current_configuration_index: int,
        backlog_bytes: int,
        bytes_per_second: float,
        cloud_budget_remaining: float,
        timestamp: float,
    ) -> SwitchDecision:
        n_configurations = len(self.profiles)
        if not 0 <= current_configuration_index < n_configurations:
            raise ConfigurationError("current_configuration_index out of range")

        category = self.categorizer.classify_partial(
            current_configuration_index, observed_quality
        )
        self.category_history.append((timestamp, category))

        planned_histogram = self.plan.histogram(category)

        realized = self.realized_histogram(category)
        deficits = planned_histogram - realized
        planned_choice = int(np.argmax(deficits))

        choice, placement, fell_back = self._select_feasible(
            planned_choice, backlog_bytes, bytes_per_second, cloud_budget_remaining
        )

        self._usage_counts[category, choice] += 1.0
        return SwitchDecision(
            configuration_index=choice,
            profile=self.profiles[choice],
            placement=placement,
            category=category,
            fell_back=fell_back,
            planned_configuration_index=planned_choice,
        )

    def _select_feasible(
        self,
        planned_choice: int,
        backlog_bytes: int,
        bytes_per_second: float,
        cloud_budget_remaining: float,
    ) -> Tuple[int, PlacementProfile, bool]:
        candidates = self._fallback_order(planned_choice)
        last_resort: Optional[Tuple[int, PlacementProfile]] = None
        for candidate in candidates:
            profile = self.profiles[candidate]
            for placement in profile.placements_by_cloud_cost():
                if placement.cloud_dollars > cloud_budget_remaining + 1e-12:
                    continue
                if self._fits_buffer(placement, backlog_bytes, bytes_per_second):
                    return candidate, placement, candidate != planned_choice
                if last_resort is None or (
                    placement.runtime_seconds < last_resort[1].runtime_seconds
                ):
                    last_resort = (candidate, placement)
        # No placement of any configuration avoids the overflow; return the
        # fastest placement seen so the engine can at least minimize the lag.
        if last_resort is None:
            profile = self.profiles[planned_choice]
            return planned_choice, profile.on_prem_placement, False
        return last_resort[0], last_resort[1], True

    def _fallback_order(self, planned_choice: int) -> List[int]:
        """The planned configuration followed by ever less qualitative ones."""
        if planned_choice not in self._quality_order:
            return list(range(len(self.profiles)))
        start = self._quality_order.index(planned_choice)
        return self._quality_order[start:] + []

    def _fits_buffer(
        self, placement: PlacementProfile, backlog_bytes: int, bytes_per_second: float
    ) -> bool:
        """Predict whether processing with ``placement`` avoids an overflow.

        While the placement runs for ``runtime`` seconds, the source keeps
        producing video; the backlog grows by the video produced in excess of
        the chunk being consumed.  One extra segment of headroom is reserved
        for the video that arrives before the next switching decision.
        """
        runtime = placement.runtime_seconds
        rate = max(bytes_per_second, 0.0)
        growth = max(runtime - self.segment_duration, 0.0) * rate
        headroom = self.segment_duration * rate
        predicted = backlog_bytes + growth + headroom
        return predicted <= self.buffer_capacity_bytes * self.safety_margin


def frozen_twin(switcher) -> FrozenKnobSwitcher:
    """A :class:`FrozenKnobSwitcher` over a live switcher's inputs: its
    profiles, categorizer, plan, segment length, buffer and safety margin."""
    return FrozenKnobSwitcher(
        profiles=switcher.profiles,
        categorizer=switcher.categorizer,
        plan=switcher.plan,
        segment_duration=switcher.segment_duration,
        buffer_capacity_bytes=switcher.buffer_capacity_bytes,
        safety_margin=switcher.safety_margin,
    )


def use_frozen_switcher(policy):
    """Give a built ``SkyscraperPolicy`` the :func:`frozen_twin` of its
    switcher.  Swap it in before the policy decides anything; returns
    ``policy``."""
    if policy.switcher.category_history:
        raise ConfigurationError("swap in the frozen switcher before the policy decides")
    policy.switcher = frozen_twin(policy.switcher)
    return policy


def reference_fleet_run(
    streams: Sequence,
    start_time: float,
    end_time: float,
    cluster: ClusterSpec,
    cloud: Optional[CloudSpec] = None,
    scheduler: str = "fifo",
    keep_traces: bool = True,
    ledger=None,
    segments_fn: Optional[Callable[..., Iterator[VideoSegment]]] = None,
):
    """Verbatim copy of the pre-columnar ``FleetEngine.run``.

    ``streams`` is a sequence of :class:`~repro.core.fleet.FleetStream`;
    ``scheduler`` names a built-in scheduler, whose frozen rule
    (:func:`frozen_scheduler_rule`) picks every serve;
    ``segments_fn(source, start, end)`` overrides how each session reads its
    segments (``None`` uses the live ``source.segments``).  Returns a
    :class:`~repro.core.fleet.FleetResult`.
    """
    from repro.core.fleet import DailyBudgetLedger, FleetResult

    if end_time <= start_time:
        raise ConfigurationError("end_time must be after start_time")
    if not streams:
        raise ConfigurationError("a fleet needs at least one stream")
    cloud = cloud or CloudSpec()

    sessions: List[_ReferenceSession] = []
    seen_ids = {}
    for index, stream in enumerate(streams):
        session = _ReferenceSession(
            workload=stream.workload,
            source=stream.source,
            policy=stream.policy,
            buffer_capacity_bytes=stream.buffer_capacity_bytes,
            stream_id=stream.stream_id,
            keep_traces=keep_traces,
            segments_fn=segments_fn,
        )
        if session.stream_id in seen_ids:
            raise ConfigurationError(f"duplicate stream_id {session.stream_id!r} in fleet")
        seen_ids[session.stream_id] = index
        session.index = index
        sessions.append(session)

    resolved_scheduler = frozen_scheduler_rule(scheduler)
    shared_ledger = ledger if ledger is not None else DailyBudgetLedger(cloud.daily_budget_dollars)
    stream_ledgers = [
        stream.ledger if stream.ledger is not None else shared_ledger for stream in streams
    ]

    heap: List[Tuple[float, int, int, int, object]] = []
    sequence = 0

    def schedule(time: float, kind: int, session_index: int, payload) -> None:
        nonlocal sequence
        heapq.heappush(heap, (time, kind, sequence, session_index, payload))
        sequence += 1

    def schedule_next_arrival(session: _ReferenceSession) -> None:
        segment = session.next_segment()
        if segment is not None:
            schedule(segment.end_time, _ARRIVAL, session.index, segment)

    for session in sessions:
        session.start(start_time, end_time)
        schedule_next_arrival(session)

    busy_until = start_time
    while heap:
        now = heap[0][0]
        while heap and heap[0][0] == now:
            _, kind, _, session_index, payload = heapq.heappop(heap)
            session = sessions[session_index]
            if kind == _FINISH:
                session.on_finish(payload)
            elif kind == _ARRIVAL:
                session.on_arrival(payload)
                schedule_next_arrival(session)
        while busy_until <= now:
            ready = [session for session in sessions if session.pending]
            if not ready:
                break
            chosen = resolved_scheduler.select(ready, now)
            stream_ledger = stream_ledgers[chosen.index]
            entry = chosen.pending.popleft()
            finish, cloud_dollars = chosen.execute(
                entry, now, cluster, stream_ledger.remaining(now)
            )
            if cloud_dollars:
                stream_ledger.charge(now, cloud_dollars)
            busy_until = finish
            schedule(finish, _FINISH, chosen.index, entry.segment.encoded_bytes)

    return FleetResult(
        scheduler=resolved_scheduler.name,
        start_time=start_time,
        end_time=end_time,
        stream_results={session.stream_id: session.finalize() for session in sessions},
        cloud_spend_by_day=dict(shared_ledger.spend_by_day),
    )


class _FrozenMLPTrainer:
    """The per-layer ``MLP`` training loop, verbatim.

    Each layer's weights and biases are separate arrays, every mini-batch
    builds fresh gradient lists, and :class:`_FrozenAdamState` updates the
    layers one array at a time.  It trains copies of a network's initial
    parameters and draws from the network's own generator, so it consumes
    the same random stream as the live ``MLP.fit``.
    """

    def __init__(self, network: MLP):
        self.config = network.config
        self._rng = network._rng
        parameters = network.get_parameters()
        self._weights: List[np.ndarray] = parameters[0::2]
        self._biases: List[np.ndarray] = parameters[1::2]

    def get_parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for weight, bias in zip(self._weights, self._biases):
            params.append(weight.copy())
            params.append(bias.copy())
        return params

    def set_parameters(self, parameters: Sequence[np.ndarray]) -> None:
        for layer in range(len(self._weights)):
            self._weights[layer] = np.array(parameters[2 * layer], dtype=float)
            self._biases[layer] = np.array(parameters[2 * layer + 1], dtype=float)

    def _forward(self, features: np.ndarray):
        activations = [features]
        current = features
        for layer, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            pre_activation = current @ weight + bias
            if layer < len(self._weights) - 1:
                current = np.maximum(pre_activation, 0.0)
            else:
                current = self._output_activation(pre_activation)
            activations.append(current)
        return current, activations

    def _output_activation(self, pre_activation: np.ndarray) -> np.ndarray:
        if self.config.output_activation == "softmax":
            shifted = pre_activation - pre_activation.max(axis=1, keepdims=True)
            exps = np.exp(shifted)
            return exps / exps.sum(axis=1, keepdims=True)
        if self.config.output_activation == "sigmoid":
            return 1.0 / (1.0 + np.exp(-pre_activation))
        return pre_activation

    def fit(self, inputs: np.ndarray, targets: np.ndarray) -> TrainingHistory:
        features = np.asarray(inputs, dtype=float)
        labels = np.asarray(targets, dtype=float)
        if features.ndim != 2 or labels.ndim != 2:
            raise ConfigurationError("fit expects 2-D inputs and targets")
        if features.shape[0] != labels.shape[0]:
            raise ConfigurationError("inputs and targets must have the same length")
        if features.shape[0] == 0:
            raise ConfigurationError("cannot fit on an empty training set")

        n_samples = features.shape[0]
        n_validation = int(round(n_samples * self.config.validation_split))
        permutation = self._rng.permutation(n_samples)
        validation_idx = permutation[:n_validation]
        train_idx = permutation[n_validation:]
        if train_idx.size == 0:
            train_idx = permutation
            validation_idx = permutation
        train_x, train_y = features[train_idx], labels[train_idx]
        val_x, val_y = (
            (features[validation_idx], labels[validation_idx])
            if validation_idx.size
            else (train_x, train_y)
        )

        total_epochs = self.config.epochs
        history = TrainingHistory()
        best_parameters = self.get_parameters()
        adam_state = _FrozenAdamState(self._weights, self._biases, self.config.learning_rate)

        for epoch in range(1, total_epochs + 1):
            epoch_loss = self._run_epoch(train_x, train_y, adam_state)
            validation_loss = self._loss(val_x, val_y)
            history.train_loss.append(epoch_loss)
            history.validation_loss.append(validation_loss)
            if validation_loss < history.best_validation_loss:
                history.best_validation_loss = validation_loss
                history.best_epoch = epoch
                best_parameters = self.get_parameters()

        self.set_parameters(best_parameters)
        return history

    def _run_epoch(self, train_x, train_y, adam_state) -> float:
        n_samples = train_x.shape[0]
        order = self._rng.permutation(n_samples)
        batch_size = min(self.config.batch_size, n_samples)
        total_loss = 0.0
        n_batches = 0
        for start in range(0, n_samples, batch_size):
            batch_idx = order[start : start + batch_size]
            loss = self._train_batch(train_x[batch_idx], train_y[batch_idx], adam_state)
            total_loss += loss
            n_batches += 1
        return total_loss / max(n_batches, 1)

    def _train_batch(self, batch_x, batch_y, adam_state) -> float:
        outputs, activations = self._forward(batch_x)
        batch_size = batch_x.shape[0]
        error = outputs - batch_y
        loss = float(np.mean(error**2))

        grad = 2.0 * error / batch_size
        weight_grads: List[np.ndarray] = [np.empty(0)] * len(self._weights)
        bias_grads: List[np.ndarray] = [np.empty(0)] * len(self._biases)
        for layer in reversed(range(len(self._weights))):
            layer_input = activations[layer]
            weight_grads[layer] = layer_input.T @ grad + self.config.weight_decay * self._weights[layer]
            bias_grads[layer] = grad.sum(axis=0)
            if layer > 0:
                grad = grad @ self._weights[layer].T
                grad = grad * (activations[layer] > 0)

        adam_state.step(self._weights, self._biases, weight_grads, bias_grads)
        return loss

    def _loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        outputs, _ = self._forward(features)
        return float(np.mean((outputs - labels) ** 2))


class _FrozenAdamState:
    """Adam optimizer state for per-layer weights and biases, verbatim."""

    def __init__(self, weights, biases, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m_weights = [np.zeros_like(w) for w in weights]
        self.v_weights = [np.zeros_like(w) for w in weights]
        self.m_biases = [np.zeros_like(b) for b in biases]
        self.v_biases = [np.zeros_like(b) for b in biases]

    def step(self, weights, biases, weight_grads, bias_grads) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1**self.step_count
        correction2 = 1.0 - self.beta2**self.step_count
        for layer in range(len(weights)):
            self.m_weights[layer] = (
                self.beta1 * self.m_weights[layer] + (1 - self.beta1) * weight_grads[layer]
            )
            self.v_weights[layer] = (
                self.beta2 * self.v_weights[layer] + (1 - self.beta2) * weight_grads[layer] ** 2
            )
            m_hat = self.m_weights[layer] / correction1
            v_hat = self.v_weights[layer] / correction2
            weights[layer] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)

            self.m_biases[layer] = (
                self.beta1 * self.m_biases[layer] + (1 - self.beta1) * bias_grads[layer]
            )
            self.v_biases[layer] = (
                self.beta2 * self.v_biases[layer] + (1 - self.beta2) * bias_grads[layer] ** 2
            )
            m_hat_b = self.m_biases[layer] / correction1
            v_hat_b = self.v_biases[layer] / correction2
            biases[layer] -= self.learning_rate * m_hat_b / (np.sqrt(v_hat_b) + self.eps)


def frozen_mlp_fit(network: MLP, inputs: np.ndarray, targets: np.ndarray) -> TrainingHistory:
    """Train ``network`` as the per-layer ``MLP.fit`` did, draw for draw.

    Starts from the network's current parameters and generator, keeps the
    best validation epoch's parameters, and leaves the network fitted with
    them and with the returned history, as ``MLP.fit`` does.
    """
    trainer = _FrozenMLPTrainer(network)
    history = trainer.fit(inputs, targets)
    network.restore_parameters(trainer.get_parameters())
    network.history = history
    return history


# --------------------------------------------------------------------- #
# The per-object history labeler
# --------------------------------------------------------------------- #
def frozen_label_quality_series(
    workload: VETLWorkload,
    source: SyntheticVideoSource,
    configuration: KnobConfiguration,
    start_time: float,
    end_time: float,
    period_seconds: float,
) -> np.ndarray:
    """The history labeler that built one ``VideoSegment`` per label.

    The grid is ``label_segments``' (label ``k`` at
    ``start_time + k * period_seconds``, half-open window); each label's
    segment is gathered from one column batch and scored with the scalar
    ``workload.evaluate``.
    """
    if period_seconds <= 0:
        raise ConfigurationError("period_seconds must be positive")
    count = max(int(np.ceil((end_time - start_time) / period_seconds)) + 1, 0)
    stamps = start_time + np.arange(count) * period_seconds
    stamps = stamps[stamps < end_time]
    columns = source.segment_index_columns((stamps / source.segment_seconds).astype(np.int64))
    return np.array(
        [
            workload.evaluate(configuration, columns.segment(position)).reported_quality
            for position in range(len(columns))
        ],
        dtype=float,
    )
