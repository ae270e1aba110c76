"""Tests for the knob planner (Section 4.1) and the knob switcher (Section 4.2)."""

import numpy as np
import pytest

from repro.cluster.profiler import PlacementProfile
from repro.core.categorizer import ContentCategorizer
from repro.core.knobs import KnobConfiguration
from repro.core.planner import KnobPlanner
from repro.core.profiles import ConfigurationProfile, ProfileSet
from repro.core.switcher import KnobSwitcher
from repro.errors import ConfigurationError, NotFittedError, PlanningError


def _placement(runtime, cloud_dollars=0.0, on_prem_core_seconds=None, cloud_core_seconds=0.0):
    return PlacementProfile(
        placement={"task": "on_prem" if cloud_dollars == 0.0 else "cloud"},
        runtime_seconds=runtime,
        makespan_seconds=runtime,
        on_prem_core_seconds=on_prem_core_seconds if on_prem_core_seconds is not None else runtime,
        cloud_core_seconds=cloud_core_seconds,
        cloud_dollars=cloud_dollars,
        upload_bytes=0 if cloud_dollars == 0.0 else 100_000,
    )


def _profile(name, work, quality, cloud_runtime=None, cloud_dollars=0.001):
    """A configuration profile with an on-prem placement and optionally a cloud one."""
    placements = [_placement(runtime=work, on_prem_core_seconds=work)]
    if cloud_runtime is not None:
        placements.append(
            _placement(
                runtime=cloud_runtime,
                cloud_dollars=cloud_dollars,
                on_prem_core_seconds=work * 0.3,
                cloud_core_seconds=work * 0.7,
            )
        )
    return ConfigurationProfile(
        configuration=KnobConfiguration.from_dict({"level": name}),
        placements=placements,
        mean_quality=quality,
    )


@pytest.fixture()
def profile_set():
    """Three configurations: cheap (fragile), medium, expensive (robust)."""
    cheap = _profile("cheap", work=0.5, quality=0.5)
    medium = _profile("medium", work=2.0, quality=0.8, cloud_runtime=1.2)
    expensive = _profile("expensive", work=8.0, quality=0.97, cloud_runtime=2.5)
    profiles = ProfileSet([cheap, medium, expensive])
    # Per-category qualities: category 0 easy, category 1 hard.
    qualities = {
        0: {0: 0.95, 1: 0.4},   # cheap
        1: {0: 0.97, 1: 0.75},  # medium
        2: {0: 0.99, 1: 0.96},  # expensive
    }
    for config_index, per_category in qualities.items():
        profiles[config_index].category_quality.update(per_category)
    return profiles


@pytest.fixture()
def categorizer(profile_set):
    """A categorizer whose centers match the profile qualities above."""
    vectors = np.array(
        [
            [0.95, 0.97, 0.99],
            [0.94, 0.96, 0.99],
            [0.4, 0.75, 0.96],
            [0.42, 0.74, 0.95],
        ]
        * 10
    )
    return ContentCategorizer(n_categories=2, seed=0).fit(vectors)


# --------------------------------------------------------------------- #
# Profiles
# --------------------------------------------------------------------- #
def test_profile_set_orderings(profile_set):
    assert profile_set.cheapest().configuration["level"] == "cheap"
    assert profile_set.most_expensive().configuration["level"] == "expensive"
    assert profile_set.most_qualitative().configuration["level"] == "expensive"
    assert [p.configuration["level"] for p in profile_set.by_work_ascending()] == [
        "cheap",
        "medium",
        "expensive",
    ]
    assert profile_set.index_of(profile_set[1].configuration) == 1
    matrix = profile_set.quality_matrix(2)
    assert matrix.shape == (3, 2)
    assert matrix[2, 1] == pytest.approx(0.96)


def test_profile_work_and_placements(profile_set):
    medium = profile_set[1]
    assert medium.work_core_seconds == pytest.approx(2.0)
    assert medium.on_prem_placement.cloud_dollars == 0.0
    assert medium.fastest_placement.runtime_seconds == pytest.approx(1.2)
    assert medium.min_runtime_seconds == pytest.approx(1.2)
    ordered = medium.placements_by_cloud_cost()
    assert ordered[0].cloud_dollars <= ordered[-1].cloud_dollars
    with pytest.raises(NotFittedError):
        profile_set[0].quality_for_category(7)


def test_profile_set_validation(profile_set):
    with pytest.raises(ConfigurationError):
        ProfileSet([])
    with pytest.raises(ConfigurationError):
        profile_set.index_of(KnobConfiguration.from_dict({"level": "unknown"}))
    with pytest.raises(ConfigurationError):
        ConfigurationProfile(
            configuration=KnobConfiguration.from_dict({"level": "x"}), placements=[]
        )


# --------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------- #
def test_large_budget_plans_expensive_everywhere(profile_set):
    planner = KnobPlanner(profile_set, n_categories=2)
    plan = planner.plan(forecast=[0.5, 0.5], budget_core_seconds_per_segment=10.0)
    assert plan.dominant_configuration(0) == 2
    assert plan.dominant_configuration(1) == 2
    assert plan.expected_cost <= 10.0 + 1e-6


def test_tight_budget_spends_on_the_hard_category(profile_set):
    """With a small budget the plan keeps cheap configs for easy content and
    reserves the expensive one for the difficult category."""
    planner = KnobPlanner(profile_set, n_categories=2)
    plan = planner.plan(forecast=[0.8, 0.2], budget_core_seconds_per_segment=2.0)
    easy_hist = plan.histogram(0)
    hard_hist = plan.histogram(1)
    expensive_share_easy = easy_hist[2]
    expensive_share_hard = hard_hist[2]
    assert expensive_share_hard > expensive_share_easy
    assert plan.expected_cost <= 2.0 + 1e-6
    for category in (0, 1):
        assert plan.histogram(category).sum() == pytest.approx(1.0)


def test_budget_below_cheapest_is_infeasible(profile_set):
    planner = KnobPlanner(profile_set, n_categories=2)
    with pytest.raises(PlanningError):
        planner.plan(forecast=[0.5, 0.5], budget_core_seconds_per_segment=0.1)


def test_plan_validation(profile_set):
    planner = KnobPlanner(profile_set, n_categories=2)
    with pytest.raises(ConfigurationError):
        planner.plan(forecast=[1.0], budget_core_seconds_per_segment=5.0)
    with pytest.raises(ConfigurationError):
        planner.plan(forecast=[0.5, 0.5], budget_core_seconds_per_segment=0.0)
    plan = planner.plan(forecast=[0.5, 0.5], budget_core_seconds_per_segment=5.0)
    with pytest.raises(ConfigurationError):
        plan.histogram(9)


def test_plan_inputs_key_changes_with_every_lp_input(profile_set):
    """``Skyscraper`` memoizes the initial plan on ``plan_inputs(...).key``:
    equal keys solve equal plans, and a change to any LP input changes it."""
    planner = KnobPlanner(profile_set, n_categories=2)
    inputs = planner.plan_inputs([0.6, 0.4], 4.0)
    base = inputs.key
    # A forecast that normalizes to the same ratios is the same LP.
    assert planner.plan_inputs([1.5, 1.0], 4.0).key == base
    plan = planner.plan([0.6, 0.4], 4.0)
    same = planner.plan([1.5, 1.0], 4.0)
    assert np.array_equal(plan.forecast, inputs.ratios)
    for category in range(2):
        assert np.array_equal(same.histogram(category), plan.histogram(category))

    assert planner.plan_inputs([0.5, 0.5], 4.0).key != base
    assert planner.plan_inputs([0.6, 0.4], 4.5).key != base
    moved = profile_set.quality_matrix(2)[:, ::-1]
    assert planner.plan_inputs([0.6, 0.4], 4.0, quality_matrix=moved).key != base
    medium = _profile("medium", work=2.5, quality=0.8, cloud_runtime=1.2)
    heavier = ProfileSet([profile_set[0], medium, profile_set[2]])
    heavier[1].category_quality.update(profile_set[1].category_quality)
    assert np.array_equal(heavier.quality_matrix(2), profile_set.quality_matrix(2))
    assert KnobPlanner(heavier, n_categories=2).plan_inputs([0.6, 0.4], 4.0).key != base


def test_joint_plan_shares_budget_across_streams(profile_set):
    planner = KnobPlanner(profile_set, n_categories=2)
    plans = planner.plan_joint(
        forecasts=[[0.9, 0.1], [0.1, 0.9]],
        budget_core_seconds_per_segment=2.0,
    )
    assert len(plans) == 2
    # The stream facing mostly hard content gets more of the expensive config.
    easy_stream_expensive = float(np.dot(plans[0].forecast, [plans[0].histogram(c)[2] for c in range(2)]))
    hard_stream_expensive = float(np.dot(plans[1].forecast, [plans[1].histogram(c)[2] for c in range(2)]))
    assert hard_stream_expensive > easy_stream_expensive


# --------------------------------------------------------------------- #
# Switcher
# --------------------------------------------------------------------- #
def _make_switcher(profile_set, categorizer, plan=None, buffer_bytes=10_000_000):
    if plan is None:
        planner = KnobPlanner(profile_set, n_categories=2)
        plan = planner.plan(forecast=[0.6, 0.4], budget_core_seconds_per_segment=4.0)
    return KnobSwitcher(
        profiles=profile_set,
        categorizer=categorizer,
        plan=plan,
        segment_duration=2.0,
        buffer_capacity_bytes=buffer_bytes,
    )


def test_switcher_classifies_content_from_observed_quality(profile_set, categorizer):
    switcher = _make_switcher(profile_set, categorizer)
    easy = switcher.decide(
        observed_quality=0.96,
        current_configuration_index=0,
        backlog_bytes=0,
        bytes_per_second=100_000.0,
        cloud_budget_remaining=1.0,
        timestamp=0.0,
    )
    hard = switcher.decide(
        observed_quality=0.4,
        current_configuration_index=0,
        backlog_bytes=0,
        bytes_per_second=100_000.0,
        cloud_budget_remaining=1.0,
        timestamp=2.0,
    )
    assert easy.category != hard.category
    assert len(switcher.category_history) == 2


def test_switcher_tracks_planned_histogram(profile_set, categorizer):
    """Over many decisions the realized usage approaches the planned histogram."""
    planner = KnobPlanner(profile_set, n_categories=2)
    plan = planner.plan(forecast=[1.0, 0.0], budget_core_seconds_per_segment=4.0)
    switcher = _make_switcher(profile_set, categorizer, plan=plan, buffer_bytes=10**9)
    for step in range(200):
        switcher.decide(
            observed_quality=0.96,
            current_configuration_index=0,
            backlog_bytes=0,
            bytes_per_second=100_000.0,
            cloud_budget_remaining=10.0,
            timestamp=2.0 * step,
        )
    category = switcher.categorizer.classify_partial(0, 0.96)
    realized = switcher.realized_histogram(category)
    planned = plan.histogram(category)
    assert np.abs(realized - planned).max() < 0.05


def test_switcher_falls_back_when_buffer_would_overflow(profile_set, categorizer):
    switcher = _make_switcher(profile_set, categorizer, buffer_bytes=500_000)
    decision = switcher.decide(
        observed_quality=0.4,  # hard content: the plan wants the expensive config
        current_configuration_index=0,
        backlog_bytes=450_000,
        bytes_per_second=500_000.0,
        cloud_budget_remaining=0.0,  # cloud not allowed
        timestamp=0.0,
    )
    # The expensive config needs 8 s per 2 s segment fully on premises, which
    # would overflow the nearly full buffer; the switcher must fall back.
    assert decision.profile.work_core_seconds < 8.0
    assert decision.fell_back or decision.configuration_index != 2


def test_switcher_uses_cloud_placement_to_avoid_overflow(profile_set, categorizer):
    switcher = _make_switcher(profile_set, categorizer, buffer_bytes=600_000)
    decision = switcher.decide(
        observed_quality=0.4,
        current_configuration_index=0,
        backlog_bytes=400_000,
        bytes_per_second=400_000.0,
        cloud_budget_remaining=10.0,
        timestamp=0.0,
    )
    # With cloud credits available a cloud placement keeps the expensive or
    # medium configuration feasible.
    assert decision.placement.cloud_dollars >= 0.0
    assert decision.placement.runtime_seconds <= 2.5 + 1e-9


def test_switcher_respects_cloud_budget(profile_set, categorizer):
    switcher = _make_switcher(profile_set, categorizer, buffer_bytes=600_000)
    decision = switcher.decide(
        observed_quality=0.4,
        current_configuration_index=0,
        backlog_bytes=400_000,
        bytes_per_second=400_000.0,
        cloud_budget_remaining=0.0,
        timestamp=0.0,
    )
    assert decision.placement.cloud_dollars == 0.0


def test_switcher_validation(profile_set, categorizer):
    with pytest.raises(ConfigurationError):
        _make_switcher(profile_set, categorizer).decide(
            observed_quality=0.5,
            current_configuration_index=99,
            backlog_bytes=0,
            bytes_per_second=1.0,
            cloud_budget_remaining=0.0,
            timestamp=0.0,
        )
    with pytest.raises(ConfigurationError):
        KnobSwitcher(
            profiles=profile_set,
            categorizer=categorizer,
            plan=KnobPlanner(profile_set, 2).plan([0.5, 0.5], 5.0),
            segment_duration=0.0,
            buffer_capacity_bytes=100,
        )
