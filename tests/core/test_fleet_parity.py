"""Single-stream parity: the event-driven runtime vs the pre-refactor engine.

``reference_run`` below is a verbatim copy of the sequential loop the
``IngestionEngine`` used before the fleet-runtime redesign (plus the two
telemetry additions that shipped with it: lag accounting and the
peak-buffer fix on the dropped path).  Every scenario asserts that the
event-loop implementation reproduces the reference **bit-for-bit** —
dataclass equality over every field including the full per-segment traces.
"""

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.baselines.static import StaticPolicy, best_static_configuration
from repro.baselines.videostorm import VideoStormPolicy
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.engine import (
    DecisionContext,
    IngestionEngine,
    IngestionResult,
    Policy,
    SegmentTrace,
)

SECONDS_PER_DAY = 86_400.0

ONLINE_START = 0.25 * 86_400.0
ONLINE_END = ONLINE_START + 1_800.0


def reference_run(
    workload,
    source,
    cluster: ClusterSpec,
    cloud: CloudSpec,
    buffer_capacity_bytes: int,
    policy: Policy,
    start_time: float,
    end_time: float,
    keep_traces: bool = True,
) -> IngestionResult:
    """The pre-refactor sequential engine loop, kept as a parity oracle."""
    result = IngestionResult(
        workload_name=workload.name,
        policy_name=policy.name,
        start_time=start_time,
        end_time=end_time,
        stream_id=source.stream_id,
    )

    runtime_scale = getattr(workload, "runtime_scale", None)
    quality_weight = getattr(workload, "quality_weight", None)
    daily_budget = cloud.daily_budget_dollars
    cloud_spend_by_day: Dict[int, float] = {}

    unfinished: Deque[Tuple[float, int]] = deque()
    unfinished_bytes = 0
    busy_until = start_time
    last_reported_quality = 1.0
    last_configuration_index = 0
    last_decision_index: Optional[int] = None

    for segment in source.segments(start_time, end_time):
        arrival = segment.end_time
        while unfinished and unfinished[0][0] <= arrival:
            _, retired_bytes = unfinished.popleft()
            unfinished_bytes -= retired_bytes
        backlog_before = unfinished_bytes

        result.segments_total += 1
        weight = float(quality_weight(segment)) if quality_weight is not None else 1.0
        result.total_quality_weight += weight
        occupancy = backlog_before + segment.encoded_bytes
        result.peak_buffer_bytes = max(result.peak_buffer_bytes, occupancy)
        if occupancy > buffer_capacity_bytes:
            result.overflowed = True
            result.overflow_count += 1
            result.segments_dropped += 1
            if keep_traces:
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
            continue

        decision_time = max(arrival, busy_until)
        day_index = int(decision_time // SECONDS_PER_DAY)
        spent_today = cloud_spend_by_day.get(day_index, 0.0)
        cloud_remaining = (
            float("inf") if daily_budget is None else max(daily_budget - spent_today, 0.0)
        )

        bytes_per_second = source.bytes_per_second(segment.content)
        lag_seconds = max(decision_time - arrival, 0.0)
        estimated_backlog = int(occupancy + lag_seconds * bytes_per_second)
        context = DecisionContext(
            segment=segment,
            decision_time=decision_time,
            backlog_bytes=min(estimated_backlog, buffer_capacity_bytes),
            buffer_capacity_bytes=buffer_capacity_bytes,
            bytes_per_second=bytes_per_second,
            lag_seconds=lag_seconds,
            cloud_budget_remaining=cloud_remaining,
            last_reported_quality=last_reported_quality,
            last_configuration_index=last_configuration_index,
            segments_processed=result.segments_total - 1,
        )
        decision = policy.decide(context)
        placement = decision.placement

        if placement.cloud_dollars > cloud_remaining:
            placement = decision.profile.on_prem_placement

        scale = 1.0
        if runtime_scale is not None:
            scale = float(runtime_scale(decision.profile.configuration, segment))
        runtime = placement.runtime_seconds * scale
        extra = decision.extra_work_core_seconds
        runtime += extra / cluster.cores

        start = decision_time
        finish = start + runtime
        busy_until = finish
        unfinished.append((finish, segment.encoded_bytes))
        unfinished_bytes += segment.encoded_bytes

        outcome = workload.evaluate(decision.profile.configuration, segment)
        policy.observe(outcome, decision)

        cloud_dollars = placement.cloud_dollars * scale
        cloud_spend_by_day[day_index] = spent_today + cloud_dollars
        on_prem_work = placement.on_prem_core_seconds * scale + extra
        cloud_work = placement.cloud_core_seconds * scale

        result.total_true_quality += outcome.true_quality
        result.total_reported_quality += outcome.reported_quality
        result.total_weighted_quality += outcome.true_quality * weight
        result.total_entities += outcome.entities
        result.on_prem_core_seconds += on_prem_work
        result.cloud_core_seconds += cloud_work
        result.cloud_dollars += cloud_dollars
        result.total_lag_seconds += lag_seconds
        result.max_lag_seconds = max(result.max_lag_seconds, lag_seconds)
        label = decision.profile.configuration.short_label()
        result.configuration_usage[label] = result.configuration_usage.get(label, 0) + 1
        if last_decision_index is not None and decision.configuration_index != last_decision_index:
            result.switch_count += 1
        last_decision_index = decision.configuration_index

        last_reported_quality = outcome.reported_quality
        last_configuration_index = decision.configuration_index

        if keep_traces:
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
                    buffer_bytes=occupancy,
                    category=int(decision.metadata.get("category", -1))
                    if "category" in decision.metadata
                    else None,
                )
            )

    return result


def _both_runs(workload, source, policy_factory, cores, buffer_bytes, cloud, start, end):
    """Run a scenario through the event loop and the reference oracle."""
    cluster = ClusterSpec(cores=cores)
    engine = IngestionEngine(
        workload=workload,
        source=source,
        cluster=cluster,
        cloud=cloud,
        buffer_capacity_bytes=buffer_bytes,
        keep_traces=True,
    )
    actual = engine.run(policy_factory(), start, end)
    expected = reference_run(
        workload, source, cluster, cloud, buffer_bytes, policy_factory(), start, end
    )
    return actual, expected


def assert_bit_for_bit(actual: IngestionResult, expected: IngestionResult) -> None:
    """Full dataclass equality, with readable diffs on mismatch."""
    assert actual.segments_total == expected.segments_total
    assert actual.traces == expected.traces
    assert actual == expected


def test_parity_static_realtime(fitted_skyscraper, covid_workload, covid_source):
    """An uncontended run: no lag, no drops."""
    profiles = fitted_skyscraper.profiles
    profile = best_static_configuration(profiles, covid_source.segment_seconds, cores=8)
    actual, expected = _both_runs(
        covid_workload,
        covid_source,
        lambda: StaticPolicy(profiles, profile),
        cores=8,
        buffer_bytes=2_000_000_000,
        cloud=CloudSpec(daily_budget_dollars=1.0),
        start=ONLINE_START,
        end=ONLINE_END,
    )
    assert expected.segments_dropped == 0
    assert_bit_for_bit(actual, expected)


def test_parity_overloaded_with_drops(fitted_skyscraper, covid_workload, covid_source):
    """An over-committed configuration on a tiny buffer: lag builds, segments drop."""
    profiles = fitted_skyscraper.profiles
    expensive = profiles.most_expensive()
    tiny_buffer = 3 * covid_source.segment_at(0).encoded_bytes
    actual, expected = _both_runs(
        covid_workload,
        covid_source,
        lambda: StaticPolicy(profiles, expensive),
        cores=4,
        buffer_bytes=tiny_buffer,
        cloud=CloudSpec(daily_budget_dollars=1.0),
        start=ONLINE_START,
        end=ONLINE_END,
    )
    assert expected.segments_dropped > 0
    assert expected.max_lag_seconds > 0.0
    assert_bit_for_bit(actual, expected)


def test_parity_skyscraper_policy(fitted_skyscraper, covid_workload, covid_source):
    """The full stateful policy (switcher + planner) with a cloud budget."""
    sky = fitted_skyscraper
    actual, expected = _both_runs(
        covid_workload,
        covid_source,
        lambda: sky.build_policy(covid_source.segment_seconds),
        cores=4,
        buffer_bytes=200_000_000,
        cloud=sky.cloud,
        start=ONLINE_START,
        end=ONLINE_END,
    )
    assert expected.switch_count > 0
    assert_bit_for_bit(actual, expected)


def test_parity_videostorm(fitted_skyscraper, covid_workload, covid_source):
    profiles = fitted_skyscraper.profiles
    actual, expected = _both_runs(
        covid_workload,
        covid_source,
        lambda: VideoStormPolicy(profiles, covid_source.segment_seconds),
        cores=4,
        buffer_bytes=500_000_000,
        cloud=CloudSpec(daily_budget_dollars=None),
        start=ONLINE_START,
        end=ONLINE_END,
    )
    assert_bit_for_bit(actual, expected)

