"""Tests for the fleet runtime: schedulers, budget ledger, multi-stream runs."""

import pytest

from repro.baselines.static import StaticPolicy, best_static_configuration
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.engine import PolicyDecision
from repro.core.events import PendingSegment, StreamSession
from repro.core.fleet import (
    DailyBudgetLedger,
    FifoScheduler,
    FleetEngine,
    FleetStream,
    LagAwareScheduler,
    RoundRobinScheduler,
    make_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.errors import ConfigurationError
from repro.planning.allocation import TenantSubLedger
from repro.service.ledger import SharedDailyLedger
from repro.workloads.base import WorkloadSetup
from repro.workloads.fleet import (
    PhaseShiftedContentModel,
    make_fleet_scenario,
    make_multi_tenant_scenario,
)

SECONDS_PER_DAY = 86_400.0
ONLINE_START = 0.25 * SECONDS_PER_DAY


# --------------------------------------------------------------------- #
# Daily budget ledger (shared cloud credits)
# --------------------------------------------------------------------- #
class TestDailyBudgetLedger:
    def test_remaining_resets_at_day_boundaries(self):
        ledger = DailyBudgetLedger(5.0)
        ledger.charge(10.0, 3.0)
        assert ledger.remaining(20.0) == pytest.approx(2.0)
        # One second before midnight the day-0 spend still counts ...
        assert ledger.remaining(SECONDS_PER_DAY - 1.0) == pytest.approx(2.0)
        # ... and at midnight the budget is fresh.
        assert ledger.remaining(SECONDS_PER_DAY) == pytest.approx(5.0)
        ledger.charge(SECONDS_PER_DAY + 5.0, 1.0)
        assert ledger.remaining(SECONDS_PER_DAY + 10.0) == pytest.approx(4.0)
        assert ledger.spend_by_day == {0: 3.0, 1: 1.0}
        assert ledger.total_dollars == pytest.approx(4.0)

    def test_remaining_never_negative_and_unlimited_budget(self):
        ledger = DailyBudgetLedger(1.0)
        ledger.charge(0.0, 2.5)
        assert ledger.remaining(1.0) == 0.0
        assert DailyBudgetLedger(None).remaining(123.0) == float("inf")

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            DailyBudgetLedger(-1.0)


@pytest.mark.parametrize(
    "make_ledger",
    [
        lambda: DailyBudgetLedger(2.0),
        lambda: SharedDailyLedger(2.0, horizon_days=4),
        lambda: TenantSubLedger(SharedDailyLedger(10.0, horizon_days=4), 2.0),
    ],
    ids=["daily", "shared", "tenant"],
)
def test_negative_charge_is_rejected_and_changes_no_ledger(make_ledger):
    ledger = make_ledger()
    ledger.charge(100.0, 1.5)
    with pytest.raises(ConfigurationError, match="negative"):
        ledger.charge(200.0, -1.0)
    assert ledger.remaining(300.0) == pytest.approx(0.5)
    assert ledger.spent_on(300.0) == pytest.approx(1.5)
    assert ledger.spend_by_day == {0: pytest.approx(1.5)}
    assert ledger.total_dollars == pytest.approx(1.5)
    if isinstance(ledger, TenantSubLedger):
        assert ledger.parent.spent_on(300.0) == pytest.approx(1.5)


class _CloudGreedyPolicy:
    """Always picks the cloudiest placement of one fixed configuration."""

    name = "cloud-greedy"

    def __init__(self, profiles):
        best = None
        for index, profile in enumerate(profiles):
            for placement in profile.placements:
                if placement.cloud_dollars > 0 and (
                    best is None or placement.cloud_dollars > best[2].cloud_dollars
                ):
                    best = (index, profile, placement)
        assert best is not None, "profile set has no cloud placement"
        self._index, self._profile, self._placement = best

    @property
    def dollars_per_segment(self) -> float:
        return self._placement.cloud_dollars

    def decide(self, context):
        return PolicyDecision(
            configuration_index=self._index,
            profile=self._profile,
            placement=self._placement,
        )

    def observe(self, outcome, decision):
        return None


class TestEngineBudgetEnforcement:
    def test_zero_budget_forces_on_prem_fallback(
        self, fitted_skyscraper, covid_workload, covid_source
    ):
        """A placement whose cloud cost exceeds the remaining budget is
        replaced by the configuration's pure on-premise placement."""
        policy = _CloudGreedyPolicy(fitted_skyscraper.profiles)
        engine = FleetEngine(
            cluster=ClusterSpec(cores=8),
            cloud=CloudSpec(daily_budget_dollars=0.0),
        )
        stream = FleetStream(
            workload=covid_workload,
            source=covid_source,
            policy=policy,
            buffer_capacity_bytes=2_000_000_000,
        )
        result = engine.run([stream], ONLINE_START, ONLINE_START + 240.0)
        only = result.results[0]
        assert only.cloud_dollars == 0.0
        assert only.cloud_core_seconds == 0.0
        assert all(trace.cloud_tasks == 0 for trace in only.traces)

    def test_budget_resets_at_day_boundary_and_caps_each_day(
        self, fitted_skyscraper, covid_workload, covid_source
    ):
        """A budget worth ~1.5 cloud segments admits exactly one cloud
        segment per day — the rest fall back on-premise until midnight."""
        policy = _CloudGreedyPolicy(fitted_skyscraper.profiles)
        budget = 1.5 * policy.dollars_per_segment
        engine = FleetEngine(
            cluster=ClusterSpec(cores=8),
            cloud=CloudSpec(daily_budget_dollars=budget),
        )
        stream = FleetStream(
            workload=covid_workload,
            source=covid_source,
            policy=policy,
            buffer_capacity_bytes=2_000_000_000,
        )
        result = engine.run(
            [stream], SECONDS_PER_DAY - 300.0, SECONDS_PER_DAY + 300.0
        )
        assert set(result.cloud_spend_by_day) == {0, 1}
        for day in (0, 1):
            assert result.cloud_spend_by_day[day] == pytest.approx(
                policy.dollars_per_segment
            )
        assert result.cloud_dollars == pytest.approx(2 * policy.dollars_per_segment)


def test_peak_buffer_records_attempted_occupancy_on_drops(
    fitted_skyscraper, covid_workload, covid_source
):
    """Overflow severity is visible: the peak includes the dropped segment's
    attempted occupancy, so it can exceed the buffer capacity."""
    profiles = fitted_skyscraper.profiles
    expensive = profiles.most_expensive()
    tiny_buffer = 3 * covid_source.segment_at(0).encoded_bytes
    engine = FleetEngine(
        cluster=ClusterSpec(cores=4), cloud=CloudSpec(daily_budget_dollars=1.0)
    )
    stream = FleetStream(
        workload=covid_workload,
        source=covid_source,
        policy=StaticPolicy(profiles, expensive),
        buffer_capacity_bytes=tiny_buffer,
    )
    result = engine.run([stream], ONLINE_START, ONLINE_START + 1_200.0).results[0]
    assert result.segments_dropped > 0
    assert result.peak_buffer_bytes > tiny_buffer


# --------------------------------------------------------------------- #
# Schedulers
# --------------------------------------------------------------------- #
def _session(covid_workload, covid_source, index, capacity=1_000_000):
    session = StreamSession(
        workload=covid_workload,
        source=covid_source,
        policy=_FakePolicy(),
        buffer_capacity_bytes=capacity,
        stream_id=f"cam-{index}",
    )
    session.index = index
    return session


class _FakePolicy:
    name = "fake"

    def decide(self, context):  # pragma: no cover - never called in these tests
        raise AssertionError("scheduler tests never execute segments")

    def observe(self, outcome, decision):  # pragma: no cover
        raise AssertionError


def _pend(session, covid_source, arrival_time):
    segment = covid_source.segment_at(int(arrival_time / covid_source.segment_seconds))
    session.pending.append(
        PendingSegment(
            position=0,
            arrival_time=arrival_time,
            occupancy_at_arrival=segment.encoded_bytes,
            arrival_ordinal=0,
            weight=1.0,
            encoded_bytes=segment.encoded_bytes,
        )
    )


class TestSchedulers:
    def test_builtins_are_registered(self):
        assert {"fifo", "round-robin", "lag-aware"} <= set(scheduler_names())

    def test_make_scheduler_resolves_names_and_instances(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        instance = RoundRobinScheduler()
        assert make_scheduler(instance) is instance
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            make_scheduler("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_scheduler("fifo")(FifoScheduler)

    def test_fifo_picks_globally_oldest_arrival(self, covid_workload, covid_source):
        sessions = [_session(covid_workload, covid_source, i) for i in range(3)]
        for session, arrival in zip(sessions, (30.0, 10.0, 20.0)):
            _pend(session, covid_source, arrival)
        assert FifoScheduler().select(sessions, now=40.0) is sessions[1]

    def test_round_robin_cycles_through_ready_streams(self, covid_workload, covid_source):
        sessions = [_session(covid_workload, covid_source, i) for i in range(3)]
        for session in sessions:
            _pend(session, covid_source, 10.0)
        scheduler = RoundRobinScheduler()
        order = [scheduler.select(sessions, now=20.0).index for _ in range(5)]
        assert order == [0, 1, 2, 0, 1]
        # Streams with nothing pending are skipped.
        ready = [sessions[0], sessions[2]]
        assert scheduler.select(ready, now=20.0) is sessions[2]

    def test_lag_aware_prefers_fullest_buffer(self, covid_workload, covid_source):
        relaxed = _session(covid_workload, covid_source, 0, capacity=1_000_000_000)
        endangered = _session(covid_workload, covid_source, 1, capacity=1_000_000)
        # Same absolute occupancy, very different fill fractions.
        for session in (relaxed, endangered):
            _pend(session, covid_source, 10.0)
            session.buffer_bytes = 900_000
        # The relaxed stream has even waited longer, but fill ratio wins.
        relaxed.pending[0].arrival_time = 1.0
        scheduler = LagAwareScheduler()
        for session in (relaxed, endangered):
            scheduler.update(session)
        chosen = scheduler.select([relaxed, endangered], now=20.0)
        assert chosen is endangered


# --------------------------------------------------------------------- #
# Fleet runs
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def covid_setup(covid_workload, covid_source):
    return WorkloadSetup(
        workload=covid_workload,
        source=covid_source,
        history_days=0.25,
        online_days=0.01,
    )


def _static_policy(fitted_skyscraper, covid_source, cores=8):
    profiles = fitted_skyscraper.profiles
    profile = best_static_configuration(profiles, covid_source.segment_seconds, cores=cores)
    return StaticPolicy(profiles, profile)


class TestFleetEngine:
    def test_duplicate_stream_ids_rejected(
        self, fitted_skyscraper, covid_workload, covid_source
    ):
        policy = _static_policy(fitted_skyscraper, covid_source)
        stream = FleetStream(
            workload=covid_workload, source=covid_source, policy=policy
        )
        engine = FleetEngine(cluster=ClusterSpec(cores=8))
        with pytest.raises(ConfigurationError, match="duplicate stream_id"):
            engine.run([stream, stream], ONLINE_START, ONLINE_START + 60.0)

    def test_empty_fleet_and_bad_window_rejected(self):
        engine = FleetEngine(cluster=ClusterSpec(cores=8))
        with pytest.raises(ConfigurationError):
            engine.run([], 0.0, 10.0)
        with pytest.raises(ConfigurationError):
            engine.run([], 10.0, 10.0)

    @pytest.mark.parametrize("scheduler", ["fifo", "round-robin", "lag-aware"])
    def test_32_stream_fleet_under_every_scheduler(
        self, scheduler, fitted_skyscraper, covid_workload, covid_setup
    ):
        """The acceptance scenario: a 32-camera fleet on one shared cluster."""
        scenario = make_fleet_scenario(
            covid_setup, 32, phase_shift_seconds=1_800.0, heterogeneous=True
        )
        streams = [
            FleetStream(
                workload=covid_workload,
                source=spec.source,
                policy=_static_policy(fitted_skyscraper, spec.source),
                stream_id=spec.stream_id,
                buffer_capacity_bytes=100_000_000,
            )
            for spec in scenario.streams
        ]
        engine = FleetEngine(
            cluster=ClusterSpec(cores=8),
            cloud=CloudSpec(daily_budget_dollars=1.0),
            scheduler=scheduler,
            keep_traces=False,
        )
        result = engine.run(streams, ONLINE_START, ONLINE_START + 600.0)
        per_stream_segments = int(600.0 / covid_setup.source.segment_seconds)
        assert result.n_streams == 32
        assert result.scheduler == scheduler
        assert sorted(result.stream_results) == sorted(scenario.stream_ids())
        assert result.segments_total == 32 * per_stream_segments
        # 32 cameras on hardware sized for ~1: the fleet must lag hard.
        assert result.max_lag_seconds > 0.0
        assert 0.0 <= result.weighted_quality <= 1.0
        for stream_result in result.results:
            assert stream_result.segments_total == per_stream_segments

    def test_schedulers_share_one_cluster_serially(
        self, fitted_skyscraper, covid_workload, covid_setup
    ):
        """Processing windows across the whole fleet never overlap."""
        scenario = make_fleet_scenario(covid_setup, 4, phase_shift_seconds=900.0)
        streams = [
            FleetStream(
                workload=covid_workload,
                source=spec.source,
                policy=_static_policy(fitted_skyscraper, spec.source),
                stream_id=spec.stream_id,
            )
            for spec in scenario.streams
        ]
        engine = FleetEngine(cluster=ClusterSpec(cores=8), scheduler="round-robin")
        result = engine.run(streams, ONLINE_START, ONLINE_START + 300.0)
        windows = sorted(
            (trace.start_time, trace.finish_time)
            for stream_result in result.results
            for trace in stream_result.traces
            if not trace.dropped
        )
        for (_, previous_finish), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= previous_finish - 1e-9


# --------------------------------------------------------------------- #
# Fleet scenarios (workloads layer)
# --------------------------------------------------------------------- #
class TestFleetScenario:
    def test_replicates_streams_with_unique_ids(self, covid_setup):
        scenario = make_fleet_scenario(covid_setup, 5)
        assert scenario.n_streams == 5
        assert len(set(scenario.stream_ids())) == 5
        assert scenario.name == f"{covid_setup.workload.name}-fleet-5"

    def test_phase_shift_offsets_the_content_process(self, covid_setup):
        scenario = make_fleet_scenario(
            covid_setup, 3, phase_shift_seconds=3_600.0, heterogeneous=False
        )
        base = covid_setup.source.content_model
        shifted_source = scenario.streams[2].source
        state = shifted_source.content_model.state_at(1_000.0)
        expected = base.state_at(1_000.0 + 2 * 3_600.0)
        assert state.object_density == expected.object_density
        assert state.activity == expected.activity
        # The timestamp is re-stamped to the camera's own clock.
        assert state.timestamp == 1_000.0

    def test_shifts_beyond_a_day_do_not_wrap_into_duplicates(self, covid_setup):
        """Camera 24 of an hourly-shifted fleet must not clone camera 0:
        bursts are functions of absolute time, so shifts keep growing."""
        scenario = make_fleet_scenario(
            covid_setup, 25, phase_shift_seconds=3_600.0, heterogeneous=False
        )
        first = scenario.streams[0].source.content_model
        last = scenario.streams[24].source.content_model
        assert last.shift_seconds == 24 * 3_600.0
        samples = [10_000.0, 30_000.0, 50_000.0]
        assert [last.state_at(t).activity for t in samples] != [
            first.state_at(t).activity for t in samples
        ]

    def test_stream_zero_is_the_base_camera(self, covid_setup):
        scenario = make_fleet_scenario(covid_setup, 2, phase_shift_seconds=3_600.0)
        base_state = covid_setup.source.content_model.state_at(500.0)
        clone_state = scenario.streams[0].source.content_model.state_at(500.0)
        assert clone_state == base_state

    def test_heterogeneous_seeds_decorrelate_cameras(self, covid_setup):
        scenario = make_fleet_scenario(
            covid_setup, 2, phase_shift_seconds=0.0, heterogeneous=True
        )
        base_model = scenario.streams[0].source.content_model
        other_model = scenario.streams[1].source.content_model
        assert other_model.seed != base_model.seed
        states_a = [base_model.state_at(t).activity for t in (100.0, 5_000.0, 40_000.0)]
        states_b = [other_model.state_at(t).activity for t in (100.0, 5_000.0, 40_000.0)]
        assert states_a != states_b

    def test_invalid_arguments_rejected(self, covid_setup):
        with pytest.raises(ConfigurationError):
            make_fleet_scenario(covid_setup, 0)
        with pytest.raises(ConfigurationError):
            make_fleet_scenario(covid_setup, 2, phase_shift_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            PhaseShiftedContentModel(covid_setup.source.content_model, -5.0)


class TestMultiTenantScenario:
    def test_tenant_blocks_are_contiguous_and_named(self, covid_setup):
        scenario = make_multi_tenant_scenario(covid_setup, {"gold": 2, "silver": 3})
        assert scenario.n_streams == 5
        assert [spec.tenant for spec in scenario.streams] == (
            ["gold"] * 2 + ["silver"] * 3
        )
        assert scenario.stream_ids() == [
            "gold-00", "gold-01", "silver-00", "silver-01", "silver-02",
        ]
        assert scenario.name == f"{covid_setup.workload.name}-tenants-2x5"

    def test_global_phase_shift_spans_tenant_blocks(self, covid_setup):
        scenario = make_multi_tenant_scenario(
            covid_setup,
            [("a", 1), ("b", 1)],
            phase_shift_seconds=3_600.0,
            heterogeneous=False,
        )
        # Tenant b's first camera is global camera 1: shifted, not a clone.
        model = scenario.streams[1].source.content_model
        expected = covid_setup.source.content_model.state_at(1_000.0 + 3_600.0)
        assert model.state_at(1_000.0).activity == expected.activity

    def test_stream_ids_follow_their_tenant(self, covid_setup):
        scenario = make_multi_tenant_scenario(covid_setup, [("acme", 1)])
        assert scenario.streams[0].source.config.stream_id == "acme-00"

    def test_invalid_rosters_rejected(self, covid_setup):
        with pytest.raises(ConfigurationError):
            make_multi_tenant_scenario(covid_setup, {})
        with pytest.raises(ConfigurationError):
            make_multi_tenant_scenario(covid_setup, {"a": 0})
        with pytest.raises(ConfigurationError):
            make_multi_tenant_scenario(covid_setup, [("a", 1), ("a", 2)])
        with pytest.raises(ConfigurationError):
            make_multi_tenant_scenario(covid_setup, [("", 1)])


def test_heterogeneous_needs_with_seed_and_wrapper_delegates(covid_setup):
    base = covid_setup.source.content_model
    shifted = PhaseShiftedContentModel(base, 7_200.0)
    reseeded = shifted.with_seed(base.seed + 5)
    assert isinstance(reseeded, PhaseShiftedContentModel)
    assert reseeded.shift_seconds == 7_200.0
    assert reseeded.seed == base.seed + 5

    class _NoReseed:
        seed = 0

        def state_at(self, timestamp, stream_load=None):  # pragma: no cover
            raise AssertionError

    from dataclasses import replace as dc_replace

    bad_setup = dc_replace(
        covid_setup,
        source=type(covid_setup.source)(_NoReseed(), covid_setup.source.config),
    )
    with pytest.raises(ConfigurationError, match="with_seed"):
        make_fleet_scenario(bad_setup, 2, heterogeneous=True)
