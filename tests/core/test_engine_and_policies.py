"""Tests for the ingestion engine, Skyscraper policy and baselines (integration)."""

import pytest

from repro.baselines.chameleon import ChameleonStarPolicy
from repro.baselines.static import StaticPolicy, best_static_configuration
from repro.baselines.videostorm import VideoStormPolicy
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.engine import IngestionEngine


ONLINE_START = 0.25 * 86_400.0  # 6 AM, after the history used by the fixture
ONLINE_END = ONLINE_START + 3_600.0  # one hour of ingestion


def _engine(workload, source, cores, buffer_bytes=2_000_000_000, cloud=None, **kwargs):
    return IngestionEngine(
        workload=workload,
        source=source,
        cluster=ClusterSpec(cores=cores),
        cloud=cloud or CloudSpec(daily_budget_dollars=1.0),
        buffer_capacity_bytes=buffer_bytes,
        **kwargs,
    )


def test_static_policy_processes_every_segment(fitted_skyscraper, covid_workload, covid_source):
    profiles = fitted_skyscraper.profiles
    profile = best_static_configuration(profiles, covid_source.segment_seconds, cores=8)
    engine = _engine(covid_workload, covid_source, cores=8)
    result = engine.run(StaticPolicy(profiles, profile), ONLINE_START, ONLINE_END)
    expected_segments = int(3_600.0 / covid_source.segment_seconds)
    assert result.segments_total == expected_segments
    assert result.segments_dropped == 0
    assert not result.overflowed
    assert 0.0 < result.mean_true_quality <= 1.0
    assert 0.0 < result.weighted_quality <= 1.0
    assert result.total_work_core_seconds > 0.0
    assert len(result.configuration_usage) == 1
    assert result.switch_count == 0


def test_best_static_configuration_improves_with_cores(fitted_skyscraper, covid_source):
    profiles = fitted_skyscraper.profiles
    small = best_static_configuration(profiles, covid_source.segment_seconds, cores=4)
    large = best_static_configuration(profiles, covid_source.segment_seconds, cores=60)
    assert large.mean_quality >= small.mean_quality


def test_skyscraper_policy_beats_static_on_small_machine(
    fitted_skyscraper, covid_workload, covid_source
):
    """The headline behaviour: content-adaptive tuning wins on constrained hardware."""
    cores = 4
    sky = fitted_skyscraper.with_resources(
        type(fitted_skyscraper.resources)(
            cores=cores, buffer_bytes=2_000_000_000, cloud_budget_per_day=2.0
        )
    )
    policy = sky.build_policy(covid_source.segment_seconds)
    engine = _engine(covid_workload, covid_source, cores=cores)
    sky_result = engine.run(policy, ONLINE_START, ONLINE_END)

    profiles = sky.profiles
    static_profile = best_static_configuration(profiles, covid_source.segment_seconds, cores=cores)
    static_result = _engine(covid_workload, covid_source, cores=cores).run(
        StaticPolicy(profiles, static_profile), ONLINE_START, ONLINE_END
    )
    assert not sky_result.overflowed
    assert sky_result.weighted_quality >= static_result.weighted_quality - 0.02
    assert sky_result.switch_count > 0


def test_engine_records_traces_and_buffer_history(fitted_skyscraper, covid_workload, covid_source):
    profiles = fitted_skyscraper.profiles
    profile = profiles.most_expensive()
    engine = _engine(covid_workload, covid_source, cores=4, keep_traces=True)
    result = engine.run(StaticPolicy(profiles, profile), ONLINE_START, ONLINE_START + 600.0)
    assert len(result.traces) == result.segments_total
    trace = result.traces[0]
    assert trace.runtime_seconds > 0.0
    assert trace.buffer_bytes >= 0
    assert trace.configuration_label == profile.configuration.short_label()
    # The most expensive configuration cannot run in real time on 4 cores, so
    # the buffer must be filling up.
    assert result.peak_buffer_bytes > covid_source.segment_at(0).encoded_bytes


def test_engine_overflow_drops_and_records(fitted_skyscraper, covid_workload, covid_source):
    """An over-committed static policy on a tiny buffer overflows: each
    overflowing segment is dropped and recorded, and the run goes on."""
    profiles = fitted_skyscraper.profiles
    expensive = profiles.most_expensive()
    tiny_buffer = 3 * covid_source.segment_at(0).encoded_bytes
    engine = _engine(covid_workload, covid_source, cores=4, buffer_bytes=tiny_buffer)
    result = engine.run(StaticPolicy(profiles, expensive), ONLINE_START, ONLINE_START + 1200.0)
    assert result.overflowed
    assert result.overflow_count == result.segments_dropped > 0
    assert result.segments_total > result.segments_dropped
    dropped = [trace for trace in result.traces if trace.dropped]
    assert len(dropped) == result.segments_dropped
    assert all(trace.configuration_label == "<dropped>" for trace in dropped)


def test_skyscraper_policy_never_overflows_small_buffer(
    fitted_skyscraper, covid_workload, covid_source
):
    """The switcher's throughput guarantee: no overflow even with a small buffer."""
    small_buffer = 40_000_000  # ~40 MB, a few dozen segments
    sky = fitted_skyscraper.with_resources(
        type(fitted_skyscraper.resources)(
            cores=4, buffer_bytes=small_buffer, cloud_budget_per_day=1.0
        )
    )
    policy = sky.build_policy(covid_source.segment_seconds)
    engine = _engine(covid_workload, covid_source, cores=4, buffer_bytes=small_buffer)
    result = engine.run(policy, ONLINE_START, ONLINE_START + 1_800.0)
    assert not result.overflowed
    assert result.segments_dropped == 0


def test_chameleon_adapts_but_pays_profiling_overhead(
    fitted_skyscraper, covid_workload, covid_source
):
    profiles = fitted_skyscraper.profiles
    policy = ChameleonStarPolicy(covid_workload, profiles, profiling_period_seconds=240.0)
    engine = _engine(covid_workload, covid_source, cores=8)
    result = engine.run(policy, ONLINE_START, ONLINE_END)
    assert policy.profiling_runs >= 2
    # Profiling overhead: total work exceeds the work of the chosen configs alone.
    assert result.total_work_core_seconds > 0.0
    assert len(result.configuration_usage) >= 1


def test_videostorm_fills_buffer_then_behaves_statically(
    fitted_skyscraper, covid_workload, covid_source
):
    profiles = fitted_skyscraper.profiles
    buffer_bytes = 100_000_000
    policy = VideoStormPolicy(profiles, covid_source.segment_seconds)
    engine = _engine(covid_workload, covid_source, cores=4, buffer_bytes=buffer_bytes)
    result = engine.run(policy, ONLINE_START, ONLINE_END)
    assert not result.overflowed
    # VideoStorm is content agnostic: once the buffer is full it settles on the
    # best real-time configuration, so only a couple of configurations appear.
    assert result.peak_buffer_bytes > 0.5 * buffer_bytes
    assert len(result.configuration_usage) <= 3


def test_cloud_budget_is_enforced_per_day(fitted_skyscraper, covid_workload, covid_source):
    cores = 4
    sky = fitted_skyscraper.with_resources(
        type(fitted_skyscraper.resources)(
            cores=cores, buffer_bytes=60_000_000, cloud_budget_per_day=0.05
        )
    )
    policy = sky.build_policy(covid_source.segment_seconds)
    cloud = CloudSpec(daily_budget_dollars=0.05)
    engine = _engine(
        covid_workload, covid_source, cores=cores, buffer_bytes=60_000_000, cloud=cloud
    )
    result = engine.run(policy, ONLINE_START, ONLINE_START + 3_600.0)
    assert result.cloud_dollars <= 0.05 + 1e-9


@pytest.fixture(scope="module")
def mosei_spike_run(mosei_workload):
    """A static MOSEI run over a window that includes a MOSEI-HIGH spike
    (starting at 90 min): ``(source, result)``."""
    from repro.core.profiles import build_profiles

    source = mosei_workload.make_source()
    config = mosei_workload.knob_space.configuration(
        sentence_skip=0, frame_fraction=6, model_size="large", streams=62
    )
    profiles = build_profiles(mosei_workload, [config], cores=8)
    engine = IngestionEngine(
        workload=mosei_workload,
        source=source,
        cluster=ClusterSpec(cores=8),
        buffer_capacity_bytes=10_000_000_000,
    )
    return source, engine.run(StaticPolicy(profiles, profiles[0]), 80 * 60.0, 110 * 60.0)


def test_mosei_runtime_scale_is_applied(mosei_spike_run):
    """The engine scales runtimes by the number of active streams for MOSEI."""
    _, result = mosei_spike_run
    runtimes = [trace.runtime_seconds for trace in result.traces]
    assert max(runtimes) > min(runtimes) * 1.5


def test_mosei_quality_weights_reach_the_engine(mosei_workload, mosei_spike_run):
    """The engine weights each arrival by the workload's own quality weight."""
    from repro.workloads.base import BaseWorkload

    source, result = mosei_spike_run
    segments = [source.segment_at(trace.segment_index) for trace in result.traces]
    assert len(segments) == result.segments_total
    expected = sum(mosei_workload.quality_weight(segment) for segment in segments)
    assert result.total_quality_weight == expected
    # MOSEI's active-stream weights differ from the default per-object weights.
    default = sum(BaseWorkload.quality_weight(mosei_workload, segment) for segment in segments)
    assert expected != default
