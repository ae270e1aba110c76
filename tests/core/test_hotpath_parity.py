"""Parity oracle for the columnar hot path and the pruned switcher scan.

Pins every vectorized or pruned layer against the frozen implementations in
:mod:`repro.core.reference`:

* **bit-for-bit** wherever only the loop structure changed — the scalar
  object APIs (``state_at``, ``segment_at``, ``quality_weight``) against
  their batched twins, the switcher's pruned ``PlacementTable.select``
  against the frozen full ``_select_feasible`` scan, the live ``decide``
  against :class:`~repro.core.reference.FrozenKnobSwitcher`, and the fleet
  engine against ``reference_fleet_run`` when both read the same segment
  columns (the reference side runs the frozen switcher);
* **documented fp tolerance** (~1 ulp per content state, ``PARITY_RTOL``
  after aggregation) where ``np.exp``/``np.power`` replaced ``math``
  transcendentals — the full scalar reference including ``scalar_segments``
  and the frozen switcher.

``tests/core/test_switcher_pruning.py`` adds a seeded differential test of
the live switcher against the frozen one over tie-heavy random profiles.
"""

import numpy as np
import pytest

from repro.baselines.static import StaticPolicy, best_static_configuration
from repro.cluster.profiler import PlacementProfile
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.categorizer import ContentCategorizer
from repro.core.columnar import SessionColumns
from repro.core.fleet import DailyBudgetLedger, FleetEngine, FleetStream
from repro.core.knobs import KnobConfiguration
from repro.core.planner import KnobPlanner
from repro.core.profiles import ConfigurationProfile, ProfileSet
from repro.core.reference import (
    frozen_twin,
    reference_fleet_run,
    scalar_segments,
    scalar_state_at,
    use_frozen_switcher,
)
from repro.core.switcher import KnobSwitcher
from repro.workloads.base import WorkloadSetup
from repro.workloads.fleet import make_fleet_scenario

SECONDS_PER_DAY = 86_400.0
ONLINE_START = 0.25 * SECONDS_PER_DAY
ONLINE_END = ONLINE_START + 900.0

#: Relative tolerance for aggregates against the full scalar reference (the
#: only divergence is numpy-vs-math transcendentals inside content states).
PARITY_RTOL = 1e-9


# --------------------------------------------------------------------- #
# Content and segment layers
# --------------------------------------------------------------------- #
def test_state_at_is_the_batched_path_bitwise(content_model):
    """The scalar API is a 1-element batch: every field identical."""
    timestamps = np.linspace(0.0, 3.0 * SECONDS_PER_DAY, 257)
    columns = content_model.states_at(timestamps)
    for position, timestamp in enumerate(timestamps):
        state = content_model.state_at(float(timestamp))
        batched = columns.state(position)
        assert state == batched, f"mismatch at t={timestamp}"


def test_states_at_is_batch_size_invariant(content_model):
    """Splitting a batch never changes a value (chunked burst accumulation)."""
    timestamps = np.linspace(100.0, 2.0 * SECONDS_PER_DAY, 1_001)
    full = content_model.states_at(timestamps)
    for chunk in (1, 7, 100):
        pieces = [
            content_model.states_at(timestamps[start:start + chunk])
            for start in range(0, timestamps.size, chunk)
        ]
        merged = np.concatenate([piece.activity for piece in pieces])
        assert np.array_equal(full.activity, merged)


def test_states_at_matches_scalar_reference_within_tolerance(content_model):
    timestamps = np.linspace(0.0, 2.0 * SECONDS_PER_DAY, 501)
    columns = content_model.states_at(timestamps)
    for position, timestamp in enumerate(timestamps):
        reference = scalar_state_at(content_model, float(timestamp))
        batched = columns.state(position)
        for attribute in (
            "activity",
            "object_density",
            "occlusion",
            "lighting",
            "motion",
            "stream_load",
        ):
            assert getattr(batched, attribute) == pytest.approx(
                getattr(reference, attribute), rel=PARITY_RTOL, abs=1e-12
            )


def test_segment_columns_match_segment_at_bitwise(small_source):
    columns = small_source.segment_columns(ONLINE_START, ONLINE_START + 600.0)
    assert len(columns) == 300
    for position in range(len(columns)):
        assert columns.segment(position) == small_source.segment_at(
            int(columns.segment_index[position])
        )


def test_segment_index_gather_matches_segment_at_bitwise(small_source):
    """A gather of unsorted, repeated indices across day boundaries.

    The offline stages read the history this way; ``content_categories``
    draws its indices with replacement.  ``repr`` pins every float exactly.
    """
    per_day = int(SECONDS_PER_DAY / small_source.segment_seconds)
    drawn = np.random.default_rng(7).integers(0, 4 * per_day, size=400)
    edges = [2 * per_day, per_day - 1, 0, 3 * per_day, per_day, 2 * per_day - 1]
    indices = np.concatenate([drawn, edges, drawn[:60], drawn[::-7], edges])
    assert np.unique(indices // per_day).size == 4
    columns = small_source.segment_index_columns(indices)
    assert len(columns) == indices.size
    for position, index in enumerate(indices.tolist()):
        assert repr(columns.segment(position)) == repr(small_source.segment_at(index))


def test_segment_stream_matches_scalar_reference(small_source):
    vectorized = small_source.record(ONLINE_START, ONLINE_START + 600.0)
    reference = list(scalar_segments(small_source, ONLINE_START, ONLINE_START + 600.0))
    assert len(vectorized) == len(reference)
    for ours, theirs in zip(vectorized, reference):
        # Integer-valued fields survive the ~1 ulp content difference exactly.
        assert ours.segment_index == theirs.segment_index
        assert ours.encoded_bytes == theirs.encoded_bytes
        assert ours.ground_truth_objects == theirs.ground_truth_objects
        assert ours.content.activity == pytest.approx(
            theirs.content.activity, rel=PARITY_RTOL, abs=1e-12
        )


# --------------------------------------------------------------------- #
# Workload scoring
# --------------------------------------------------------------------- #
def test_evaluate_many_matches_scalar_evaluate(ev_workload, small_source):
    """Batched scoring (with the vectorized EV batch path) is bit-for-bit."""
    segments = small_source.record(ONLINE_START, ONLINE_START + 120.0)
    configurations = list(ev_workload.knob_space.all_configurations())[:5]
    pairs = [
        (configurations[index % len(configurations) if index < 30 else 0], segment)
        for index, segment in enumerate(segments)
    ]
    batched = ev_workload.evaluate_many(pairs)
    scalar = [ev_workload.evaluate(configuration, segment) for configuration, segment in pairs]
    assert batched == scalar


def test_quality_weight_columns_match_scalar(mosei_workload, ev_workload, small_source):
    columns = small_source.segment_columns(ONLINE_START, ONLINE_START + 240.0)
    for workload in (mosei_workload, ev_workload):
        weights = workload.quality_weight_columns(columns)
        for position in range(len(columns)):
            assert weights[position] == workload.quality_weight(columns.segment(position))


def test_session_columns_mirror_scalar_session_inputs(ev_workload, small_source):
    """Arrival times, sizes, bitrates and weights match the scalar per-object path."""
    session = SessionColumns(small_source, ev_workload, ONLINE_START, ONLINE_START + 240.0)
    for position in range(len(session)):
        segment = session.segment(position)
        assert session.arrival_times[position] == segment.end_time
        assert session.encoded_bytes[position] == segment.encoded_bytes
        assert session.bytes_per_second[position] == small_source.bytes_per_second(
            segment.content
        )
        assert session.weights[position] == ev_workload.quality_weight(segment)
        # Plain Python scalars only: heap entries and results must stay
        # free of numpy types (json serialization, tuple ordering).
        assert type(session.arrival_times[position]) is float
        assert type(session.encoded_bytes[position]) is int


# --------------------------------------------------------------------- #
# Switcher: pruned table and live decide vs the frozen switcher
# --------------------------------------------------------------------- #
def _placement(runtime, cloud_dollars=0.0):
    return PlacementProfile(
        placement={"task": "on_prem" if cloud_dollars == 0.0 else "cloud"},
        runtime_seconds=runtime,
        makespan_seconds=runtime,
        on_prem_core_seconds=max(runtime, 0.1),
        cloud_core_seconds=0.0 if cloud_dollars == 0.0 else runtime,
        cloud_dollars=cloud_dollars,
        upload_bytes=0 if cloud_dollars == 0.0 else 100_000,
    )


def _profile(name, runtimes, quality):
    """First runtime is the on-prem placement, the rest are cloud ones."""
    placements = [_placement(runtimes[0])]
    for extra, runtime in enumerate(runtimes[1:]):
        placements.append(_placement(runtime, cloud_dollars=0.001 * (extra + 1)))
    return ConfigurationProfile(
        configuration=KnobConfiguration.from_dict({"level": name}),
        placements=placements,
        mean_quality=quality,
    )


def _make_switcher(profiles, buffer_bytes=10_000_000, safety_margin=0.98):
    vectors = np.array([[0.9, 0.95, 0.99], [0.4, 0.7, 0.95]] * 10)
    categorizer = ContentCategorizer(n_categories=2, seed=0).fit(vectors)
    for profile in profiles:
        for category in range(categorizer.actual_categories):
            profile.category_quality.setdefault(category, profile.mean_quality)
    plan = KnobPlanner(profiles, categorizer.actual_categories).plan(
        forecast=[0.5, 0.5], budget_core_seconds_per_segment=20.0
    )
    return KnobSwitcher(
        profiles=profiles,
        categorizer=categorizer,
        plan=plan,
        segment_duration=2.0,
        buffer_capacity_bytes=buffer_bytes,
        safety_margin=safety_margin,
    )


@pytest.fixture()
def switcher():
    profiles = ProfileSet(
        [
            _profile("cheap", [0.5], quality=0.5),
            _profile("medium", [2.0, 1.2], quality=0.8),
            _profile("expensive", [8.0, 2.5, 1.4], quality=0.97),
        ]
    )
    return _make_switcher(profiles)


def test_placement_table_matches_scalar_scan_exhaustively(switcher):
    """Every (planned, backlog, rate, budget) cell: identical decisions."""
    table = switcher._placement_table
    frozen = frozen_twin(switcher)
    capacity = switcher.buffer_capacity_bytes
    for planned in range(len(switcher.profiles)):
        for backlog in (0, capacity // 2, capacity - 1, capacity):
            for rate in (0.0, 250_000.0, 2_000_000.0):
                for budget in (-1.0, 0.0, 0.0005, 0.001, 10.0):
                    expected = frozen._select_feasible(planned, backlog, rate, budget)
                    actual = table.select(planned, backlog, rate, budget)
                    assert actual[0] == expected[0], (planned, backlog, rate, budget)
                    assert actual[1] is expected[1], (planned, backlog, rate, budget)
                    assert actual[2] == expected[2], (planned, backlog, rate, budget)


def test_switcher_decide_matches_frozen_switcher(switcher):
    """Full ``decide`` over one decision stream, live and frozen."""
    frozen = frozen_twin(switcher)
    for step in range(120):
        inputs = dict(
            observed_quality=(0.95, 0.5, 0.7)[step % 3],
            current_configuration_index=step % len(switcher.profiles),
            backlog_bytes=(step * 997_001) % switcher.buffer_capacity_bytes,
            bytes_per_second=250_000.0 + (step % 5) * 400_000.0,
            cloud_budget_remaining=(0.0, 0.0007, 5.0)[step % 3],
            timestamp=2.0 * step,
        )
        ours = switcher.decide(**inputs)
        theirs = frozen.decide(**inputs)
        assert (
            ours.configuration_index,
            ours.planned_configuration_index,
            ours.category,
            ours.fell_back,
        ) == (
            theirs.configuration_index,
            theirs.planned_configuration_index,
            theirs.category,
            theirs.fell_back,
        )
        assert ours.placement is theirs.placement
    assert switcher.category_history == frozen.category_history


def test_empty_feasible_set_falls_back_to_planned_on_prem(switcher):
    """A negative remaining budget excludes even free placements (the scan's
    epsilon comparison), leaving no candidates: both paths return the
    planned configuration's on-prem placement without flagging a fallback."""
    table = switcher._placement_table
    frozen = frozen_twin(switcher)
    for planned in range(len(switcher.profiles)):
        expected = frozen._select_feasible(planned, 0, 1e6, -1.0)
        actual = table.select(planned, 0, 1e6, -1.0)
        assert expected == (
            planned,
            switcher.profiles[planned].on_prem_placement,
            False,
        )
        assert actual[0] == expected[0]
        assert actual[1] is expected[1]
        assert actual[2] == expected[2]


def test_zero_runtime_placement_always_fits():
    """Zero-runtime placements have zero backlog growth; they fit whenever
    one segment of headroom does, and win every last-resort runtime scan."""
    profiles = ProfileSet(
        [
            _profile("instant", [0.0], quality=0.9),
            _profile("slow", [50.0], quality=0.95),
        ]
    )
    switcher = _make_switcher(profiles, buffer_bytes=1_000_000, safety_margin=1.0)
    table = switcher._placement_table
    frozen = frozen_twin(switcher)
    # Headroom fits: the zero-runtime placement is feasible even when the
    # slow configuration is planned (fallback walks down the quality order).
    for planned in range(2):
        expected = frozen._select_feasible(planned, 500_000, 100_000.0, 10.0)
        actual = table.select(planned, 500_000, 100_000.0, 10.0)
        assert actual[0] == expected[0]
        assert actual[1] is expected[1]
        assert actual[2] == expected[2]
        assert expected[1].runtime_seconds == 0.0 or planned == 0
    # Nothing fits (headroom alone overflows): the zero-runtime placement is
    # the first strict minimum of the last-resort scan in both paths.
    expected = frozen._select_feasible(1, 1_000_000, 10_000_000.0, 10.0)
    actual = table.select(1, 1_000_000, 10_000_000.0, 10.0)
    assert expected[1].runtime_seconds == 0.0 and expected[2]
    assert actual[0] == expected[0]
    assert actual[1] is expected[1]
    assert actual[2] == expected[2]


def test_exactly_full_buffer_boundary():
    """``predicted == capacity * safety_margin`` fits (<=); one more byte
    does not — in both the frozen predicate and the table's scan."""
    profiles = ProfileSet([_profile("only", [2.0], quality=0.9)])
    switcher = _make_switcher(profiles, buffer_bytes=10_000, safety_margin=1.0)
    table = switcher._placement_table
    frozen = frozen_twin(switcher)
    rate = 1_000.0  # headroom = segment_duration * rate = 2_000 bytes
    placement = profiles[0].placements[0]
    assert frozen._fits_buffer(placement, 8_000, rate)
    assert not frozen._fits_buffer(placement, 8_001, rate)
    for backlog, fell_back in ((8_000, False), (8_001, True)):
        expected = frozen._select_feasible(0, backlog, rate, 10.0)
        actual = table.select(0, backlog, rate, 10.0)
        assert expected[2] == fell_back
        assert actual[0] == expected[0]
        assert actual[1] is expected[1]
        assert actual[2] == expected[2]


def test_fallback_order_edges(switcher):
    """The planned configuration heads its quality-order suffix, and the
    table's walk from the planned configuration's block visits the blocks
    of exactly that suffix; a planned index missing from the frozen order
    degrades to the canonical range."""
    table = switcher._placement_table
    frozen = frozen_twin(switcher)
    order = frozen._quality_order
    assert order == switcher._quality_order
    for planned in range(len(switcher.profiles)):
        fallback = frozen._fallback_order(planned)
        assert fallback[0] == planned
        assert fallback == order[order.index(planned):]
        walked = table.blocks[table.block_of[planned]:]
        assert [block[0] for block in walked] == fallback
    frozen._quality_order = [entry for entry in order if entry != 0]
    assert frozen._fallback_order(0) == list(range(len(switcher.profiles)))


# --------------------------------------------------------------------- #
# Fleet engine vs the frozen reference loop
# --------------------------------------------------------------------- #
def _fleet_streams(
    sky,
    workload,
    source,
    n_streams,
    frozen=False,
    buffer_capacity_bytes=200_000_000,
    phase_shift_seconds=1_800.0,
):
    setup = WorkloadSetup(
        workload=workload, source=source, history_days=0.25, online_days=0.01
    )
    scenario = make_fleet_scenario(setup, n_streams, phase_shift_seconds=phase_shift_seconds)
    profiles = sky.profiles
    static_profile = best_static_configuration(
        profiles, source.segment_seconds, cores=8
    )
    streams = []
    for index, spec in enumerate(scenario.streams):
        if index % 2 == 0:
            policy = sky.build_policy(source.segment_seconds)
            if frozen:
                use_frozen_switcher(policy)
        else:
            policy = StaticPolicy(profiles, static_profile)
        streams.append(
            FleetStream(
                workload=workload,
                source=spec.source,
                policy=policy,
                stream_id=spec.stream_id,
                buffer_capacity_bytes=buffer_capacity_bytes,
            )
        )
    return streams


@pytest.mark.parametrize(
    "scheduler, fleet",
    [
        ("fifo", {"n_streams": 3}),
        ("round-robin", {"n_streams": 3}),
        ("lag-aware", {"n_streams": 3}),
        # Unshifted cameras see the same segment sizes, so fills tie across
        # streams, and a buffer of a few segments fills up and drops.
        (
            "lag-aware",
            {"n_streams": 12, "buffer_capacity_bytes": 1_000_000, "phase_shift_seconds": 0.0},
        ),
    ],
    ids=["fifo", "round-robin", "lag-aware", "lag-aware-ties"],
)
def test_fleet_run_matches_reference_loop_bitwise(
    scheduler, fleet, fitted_skyscraper, covid_workload, covid_source
):
    """Same segment columns on both sides: only the loop structure, the
    scheduler's index and the switcher differ, so every stream's result
    (traces included) must be bit-for-bit equal to the frozen loop with its
    frozen scheduler scan and frozen switcher."""
    cluster = ClusterSpec(cores=8)
    cloud = CloudSpec(daily_budget_dollars=2.0)
    engine = FleetEngine(cluster=cluster, cloud=cloud, scheduler=scheduler, keep_traces=True)
    actual = engine.run(
        _fleet_streams(fitted_skyscraper, covid_workload, covid_source, **fleet),
        ONLINE_START,
        ONLINE_END,
    )
    if fleet.get("buffer_capacity_bytes"):
        assert actual.segments_dropped > 0
    expected = reference_fleet_run(
        _fleet_streams(fitted_skyscraper, covid_workload, covid_source, frozen=True, **fleet),
        ONLINE_START,
        ONLINE_END,
        cluster,
        cloud=cloud,
        scheduler=scheduler,
        keep_traces=True,
    )
    assert sorted(actual.stream_results) == sorted(expected.stream_results)
    for stream_id, ours in actual.stream_results.items():
        assert ours == expected.stream_results[stream_id], stream_id
    assert actual.cloud_spend_by_day == expected.cloud_spend_by_day


def test_fleet_run_matches_full_scalar_reference_within_tolerance(
    fitted_skyscraper, covid_workload, covid_source
):
    """Against the complete pre-vectorization hot path — scalar segment
    generation plus the frozen switcher — integer telemetry is exact and
    float aggregates agree within the documented fp tolerance."""
    cluster = ClusterSpec(cores=8)
    cloud = CloudSpec(daily_budget_dollars=2.0)
    engine = FleetEngine(cluster=cluster, cloud=cloud, scheduler="fifo", keep_traces=False)
    actual = engine.run(
        _fleet_streams(fitted_skyscraper, covid_workload, covid_source, 3),
        ONLINE_START,
        ONLINE_END,
    )
    expected = reference_fleet_run(
        _fleet_streams(fitted_skyscraper, covid_workload, covid_source, 3, frozen=True),
        ONLINE_START,
        ONLINE_END,
        cluster,
        cloud=cloud,
        scheduler="fifo",
        keep_traces=False,
        segments_fn=scalar_segments,
    )
    for stream_id, ours in actual.stream_results.items():
        theirs = expected.stream_results[stream_id]
        assert ours.segments_total == theirs.segments_total
        assert ours.segments_dropped == theirs.segments_dropped
        assert ours.switch_count == theirs.switch_count
        assert ours.configuration_usage == theirs.configuration_usage
        for attribute in (
            "total_true_quality",
            "total_reported_quality",
            "total_weighted_quality",
            "cloud_dollars",
            "total_lag_seconds",
            "on_prem_core_seconds",
        ):
            assert getattr(ours, attribute) == pytest.approx(
                getattr(theirs, attribute), rel=PARITY_RTOL
            )


# --------------------------------------------------------------------- #
# Ledger day-bucket cache
# --------------------------------------------------------------------- #
class TestLedgerDayCache:
    def test_interleaved_days_stay_consistent(self):
        ledger = DailyBudgetLedger(5.0)
        ledger.charge(10.0, 1.0)
        assert ledger.remaining(20.0) == pytest.approx(4.0)
        # Reading another day must not poison the cached bucket.
        assert ledger.remaining(SECONDS_PER_DAY + 1.0) == pytest.approx(5.0)
        assert ledger.remaining(30.0) == pytest.approx(4.0)
        ledger.charge(SECONDS_PER_DAY + 2.0, 2.0)
        ledger.charge(40.0, 0.5)
        assert ledger.spend_by_day == {0: 1.5, 1: 2.0}
        assert ledger.spent_on(50.0) == pytest.approx(1.5)
        assert ledger.spent_on(SECONDS_PER_DAY + 50.0) == pytest.approx(2.0)
        assert ledger.total_dollars == pytest.approx(3.5)

    def test_repeated_same_day_charges_accumulate(self):
        ledger = DailyBudgetLedger(None)
        for step in range(10):
            ledger.charge(100.0 + step, 0.25)
        assert ledger.spent_on(500.0) == pytest.approx(2.5)
        assert ledger.remaining(500.0) == float("inf")
        assert ledger.spend_by_day == {0: 2.5}
