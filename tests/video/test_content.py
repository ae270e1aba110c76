"""Tests for the content dynamics model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reference import frozen_burst_intensity_at, frozen_bursts_for_day
from repro.errors import ConfigurationError
from repro.video.content import ContentModel, DiurnalProfile, SpikeSchedule
from repro.workloads.covid import CovidWorkload
from repro.workloads.ev import EVCountingWorkload, make_ev_setup
from repro.workloads.fleet import make_fleet_scenario
from repro.workloads.mosei import MoseiWorkload
from repro.workloads.mot import MotWorkload


def test_diurnal_profile_has_rush_hour_peaks():
    profile = DiurnalProfile()
    night = profile.activity(3 * 3600.0)
    morning_peak = profile.activity(8 * 3600.0)
    midday = profile.activity(13 * 3600.0)
    evening_peak = profile.activity(17.5 * 3600.0)
    assert night < midday < morning_peak
    assert night < midday < evening_peak


def test_lighting_is_dark_at_night_and_bright_at_noon():
    profile = DiurnalProfile()
    assert profile.lighting(2 * 3600.0) < 0.4
    assert profile.lighting(13 * 3600.0) > 0.9


def test_state_at_is_deterministic_for_same_seed():
    first = ContentModel(seed=5)
    second = ContentModel(seed=5)
    for timestamp in (0.0, 3600.0, 86_400.0 + 123.0, 5 * 86_400.0):
        assert first.state_at(timestamp) == second.state_at(timestamp)


def test_different_seeds_produce_different_bursts():
    timestamps = np.arange(8 * 3600.0, 12 * 3600.0, 300.0)
    first = [ContentModel(seed=1).state_at(t).activity for t in timestamps]
    second = [ContentModel(seed=2).state_at(t).activity for t in timestamps]
    assert not np.allclose(first, second)


def test_state_fields_are_within_bounds():
    model = ContentModel(seed=0)
    for timestamp in np.linspace(0.0, 2 * 86_400.0, 500):
        state = model.state_at(float(timestamp))
        for value in (
            state.object_density,
            state.occlusion,
            state.lighting,
            state.motion,
            state.activity,
            state.stream_load,
        ):
            assert 0.0 <= value <= 1.0


def test_rush_hour_is_harder_than_night():
    model = ContentModel(seed=3)
    night_states = [model.state_at(2 * 3600.0 + offset) for offset in range(0, 1800, 60)]
    rush_states = [model.state_at(8 * 3600.0 + offset) for offset in range(0, 1800, 60)]
    assert np.mean([s.occlusion for s in rush_states]) > np.mean([s.occlusion for s in night_states])
    assert np.mean([s.object_density for s in rush_states]) > np.mean(
        [s.object_density for s in night_states]
    )


def test_spike_schedule_injects_load():
    spikes = SpikeSchedule(period_seconds=3600.0, duration_seconds=600.0, magnitude=0.8)
    assert spikes.intensity(100.0) > 0.0
    assert spikes.intensity(2000.0) == 0.0
    assert spikes.intensity(3700.0) > 0.0


def test_spiky_model_has_higher_peak_load():
    base = ContentModel(seed=9)
    spiky = ContentModel(
        seed=9,
        spikes=SpikeSchedule(period_seconds=4 * 3600.0, duration_seconds=1200.0, magnitude=0.9),
    )
    timestamps = np.arange(0.0, 86_400.0, 600.0)
    base_max = max(base.state_at(float(t)).stream_load for t in timestamps)
    spiky_max = max(spiky.state_at(float(t)).stream_load for t in timestamps)
    assert spiky_max >= base_max


def test_states_sampling_and_validation():
    model = ContentModel(seed=0)
    states = model.states(0.0, 600.0, 60.0)
    assert len(states) == 10
    with pytest.raises(ConfigurationError):
        model.states(0.0, 100.0, 0.0)
    with pytest.raises(ConfigurationError):
        model.states(100.0, 0.0, 10.0)
    with pytest.raises(ConfigurationError):
        model.state_at(-1.0)
    with pytest.raises(ConfigurationError):
        ContentModel(burst_rate_per_hour=-1.0)
    with pytest.raises(ConfigurationError):
        ContentModel(burst_magnitude=-0.1)


def test_content_category_changes_on_tens_of_seconds_scale():
    """Bursts should change the content difficulty every few tens of seconds."""
    model = ContentModel(seed=4)
    start = 12 * 3600.0
    activities = [model.state_at(start + offset).activity for offset in range(0, 3600, 2)]
    jumps = np.abs(np.diff(activities)) > 0.02
    # There should be a healthy number of notable changes within one hour.
    assert jumps.sum() > 20


def test_as_vector_shape():
    state = ContentModel(seed=0).state_at(1000.0)
    assert state.as_vector().shape == (5,)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    timestamp=st.floats(min_value=0.0, max_value=10 * 86_400.0),
)
def test_property_state_always_valid(seed, timestamp):
    state = ContentModel(seed=seed).state_at(timestamp)
    assert 0.0 <= state.activity <= 1.0
    assert 0.0 <= state.occlusion <= 1.0
    assert state.timestamp == pytest.approx(timestamp)


# --------------------------------------------------------------------- #
# Burst schedules: the live generator against the frozen one, bit for bit
# --------------------------------------------------------------------- #
GRID_SEEDS = list(range(50)) + [2**31 - 1, 2**32 + 5]
GRID_DAYS = (0, 1, 2, 365, 10_000)

WORKLOAD_CONTENT = {
    "ev": lambda: EVCountingWorkload().content_model,
    "mot": lambda: MotWorkload().content_model,
    "covid": lambda: CovidWorkload().content_model,
    "mosei": lambda: MoseiWorkload().content_model,
    "default": ContentModel,
}


def assert_same_schedule(model, day):
    live = model._bursts_for_day(day)
    frozen = frozen_bursts_for_day(model, day)
    assert len(live) == len(frozen) == 3
    for ours, theirs in zip(live, frozen):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    return live


@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_burst_schedule_matches_frozen_on_seeded_grid(seed):
    model = ContentModel(seed=seed)
    for day in GRID_DAYS:
        starts, _, _ = assert_same_schedule(model, day)
        assert starts.size > 0


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONTENT))
def test_burst_schedule_matches_frozen_for_workload_content(name):
    base = WORKLOAD_CONTENT[name]()
    for model in (base, base.with_seed(2**32 + 5)):
        for day in GRID_DAYS:
            assert_same_schedule(model, day)


def test_burst_schedule_edge_cases_match_frozen():
    starts, durations, magnitudes = assert_same_schedule(
        ContentModel(seed=1, burst_rate_per_hour=0.0), 0
    )
    assert starts.size == durations.size == magnitudes.size == 0
    assert starts.dtype == durations.dtype == magnitudes.dtype == np.float64
    for seed in range(8):
        assert_same_schedule(ContentModel(seed=seed, burst_rate_per_hour=0.05), 3)
    _, durations, _ = assert_same_schedule(
        ContentModel(seed=2, burst_duration_seconds=1.0), 1
    )
    assert durations.min() == 5.0
    for magnitude in (0.0, 0.01):
        _, _, magnitudes = assert_same_schedule(
            ContentModel(seed=4, burst_magnitude=magnitude), 2
        )
        assert (magnitudes == 0.05).all()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**40),
    day=st.integers(min_value=0, max_value=20_000),
    rate=st.floats(min_value=0.0, max_value=60.0),
    duration=st.floats(min_value=0.5, max_value=600.0),
    magnitude=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_burst_schedule_matches_frozen(seed, day, rate, duration, magnitude):
    model = ContentModel(
        seed=seed,
        burst_rate_per_hour=rate,
        burst_duration_seconds=duration,
        burst_magnitude=magnitude,
    )
    assert_same_schedule(model, day)


def test_burst_schedules_do_not_depend_on_generation_order():
    forward, backward = ContentModel(seed=13), ContentModel(seed=13)
    for day in (4, 3):
        backward._bursts_for_day(day)
    for day in (3, 4):
        for ours, theirs in zip(forward._bursts_for_day(day), backward._bursts_for_day(day)):
            assert ours.tobytes() == theirs.tobytes()


def test_burst_schedule_is_cached_per_day():
    model = ContentModel(seed=6)
    first = model._bursts_for_day(2)
    assert model._bursts_for_day(2) is first


# --------------------------------------------------------------------- #
# Burst columns: the live kernel against the frozen two-day kernel
# --------------------------------------------------------------------- #
WINDOW_ROWS = (1, 87, 43_200)
WINDOW_DAY = 2


def spill_seconds(model):
    """The documented bound: every burst of day d - 1 ends by d * 86_400 + spill."""
    return max(64.0 * model.burst_duration_seconds, 5.0)


def window_offsets(model):
    spill = spill_seconds(model)
    return (0.0, 1.0, spill - 2.0, spill, spill + 1.0, 3_600.0, 43_200.0)


def assert_same_burst_column(model, ts):
    live = model._burst_intensity_at(ts)
    frozen = frozen_burst_intensity_at(model, ts)
    assert live.dtype == frozen.dtype
    assert live.tobytes() == frozen.tobytes()


def assert_same_burst_windows(model):
    midnight = WINDOW_DAY * 86_400.0
    for offset in window_offsets(model):
        for rows in WINDOW_ROWS:
            # Segment midpoints of 2 s segments: 43,200 rows span a whole day.
            assert_same_burst_column(model, midnight + offset + 2.0 * np.arange(rows))


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONTENT))
def test_burst_intensity_matches_frozen_for_workload_content(name):
    base = WORKLOAD_CONTENT[name]()
    for model in (base, base.with_seed(2**32 + 5)):
        assert_same_burst_windows(model)


@pytest.mark.parametrize("mean_duration", [600.0, 3_000.0])
def test_burst_intensity_matches_frozen_when_bursts_cross_midnight(mean_duration):
    model = ContentModel(seed=7, burst_duration_seconds=mean_duration)
    starts, durations, _ = model._bursts_for_day(WINDOW_DAY - 1)
    assert (starts + durations > WINDOW_DAY * 86_400.0).any()
    assert_same_burst_windows(model)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**40),
    day=st.integers(min_value=0, max_value=20_000),
    from_spill=st.booleans(),
    offset=st.floats(min_value=-600.0, max_value=7_200.0),
    rows=st.integers(min_value=1, max_value=400),
    mean_duration=st.floats(min_value=0.5, max_value=3_000.0),
)
def test_property_burst_intensity_matches_frozen(
    seed, day, from_spill, offset, rows, mean_duration
):
    model = ContentModel(seed=seed, burst_duration_seconds=mean_duration)
    anchor = spill_seconds(model) if from_spill else 0.0
    start = max(day * 86_400.0 + anchor + offset, 0.0)
    assert_same_burst_column(model, start + 2.0 * np.arange(rows))


def test_burst_intensity_reads_the_previous_day_only_near_midnight():
    late = WORKLOAD_CONTENT["ev"]()
    late.state_at(2 * 86_400.0 + 3_600.0)
    assert set(late._burst_cache) == {2}
    early = WORKLOAD_CONTENT["ev"]()
    early.state_at(2 * 86_400.0)
    assert set(early._burst_cache) == {1, 2}


def test_drain_window_draws_one_schedule_per_camera_day():
    """64 hour-shifted EV cameras read 172.8 s from 0.5 days, like a service drain.

    Each camera's window lies in one day; only the three whose window starts
    just after midnight (shifts of 12, 36 and 60 hours) read the day before.
    """
    setup = make_ev_setup(history_days=0.5, online_days=0.002, seed=3)
    scenario = make_fleet_scenario(
        setup, 64, phase_shift_seconds=3_600.0, heterogeneous=True
    )
    start = setup.history_days * 86_400.0
    drawn = 0
    for stream in scenario.streams:
        stream.source.segment_columns(start, start + setup.online_days * 86_400.0)
        model = stream.source.content_model
        drawn += len(getattr(model, "base", model)._burst_cache)
    assert drawn == 67
