"""Seeded differential test: the live switcher against the frozen one.

The live :class:`~repro.core.switcher.KnobSwitcher` scans only the
non-dominated placements of each configuration, as plain lists.  The frozen
:class:`~repro.core.reference.FrozenKnobSwitcher` runs Equations 5 and 6 in
numpy and scans every placement.  Random profile sets here are built to tie:
equal costs, equal runtimes, duplicate (cost, runtime) points, zero runtimes,
runtimes equal to the segment length, duplicate category centers and flat
plan histograms.  The inputs hit the boundaries: budgets exactly at a cost
and 1e-12 below it, negative budgets, zero and negative rates, and backlogs
at capacity.
"""

import random

import numpy as np
import pytest

from repro.cluster.profiler import PlacementProfile
from repro.core.categorizer import ContentCategorizer
from repro.core.knobs import KnobConfiguration
from repro.core.planner import KnobPlan
from repro.core.profiles import ConfigurationProfile, ProfileSet
from repro.core.reference import FrozenKnobSwitcher
from repro.core.switcher import KnobSwitcher

SEGMENT_SECONDS = 2.0
RUNTIMES = (0.0, 0.5, 1.0, SEGMENT_SECONDS, 3.0, 5.0, 8.0)
COSTS = (0.0, 0.001, 0.002, 0.004)
QUALITIES = (0.2, 0.5, 0.8)


def _placement(runtime, cloud_dollars, task="cloud"):
    return PlacementProfile(
        placement={"task": task},
        runtime_seconds=runtime,
        makespan_seconds=1.0,
        on_prem_core_seconds=1.0,
        cloud_core_seconds=0.0 if task == "on_prem" else 1.0,
        cloud_dollars=cloud_dollars,
        upload_bytes=0 if task == "on_prem" else 1,
    )


def _random_profiles(rng):
    profiles = []
    for index in range(rng.randint(1, 5)):
        placements = [_placement(rng.choice(RUNTIMES), 0.0, task="on_prem")]
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.3:
                # The (runtime, cost) point of an earlier placement, as a
                # distinct object.
                twin = rng.choice(placements)
                placements.append(_placement(twin.runtime_seconds, twin.cloud_dollars))
            else:
                placements.append(_placement(rng.choice(RUNTIMES), rng.choice(COSTS)))
        rng.shuffle(placements)
        profiles.append(
            ConfigurationProfile(
                configuration=KnobConfiguration.from_dict({"level": index}),
                placements=placements,
                mean_quality=rng.choice(QUALITIES),
            )
        )
    return ProfileSet(profiles)


def _random_categorizer(rng, n_configurations, n_categories):
    values = (0.1, 0.3, 0.5, 0.7, 0.9)
    centers = np.array(
        [[rng.choice(values) for _ in range(n_configurations)] for _ in range(n_categories)]
    )
    return ContentCategorizer.from_centers(centers)


def _random_plan(rng, n_configurations, n_categories):
    assignments = {}
    for category in range(n_categories):
        kind = rng.random()
        if kind < 0.3:
            histogram = np.full(n_configurations, 1.0 / n_configurations)
        elif kind < 0.5:
            histogram = np.zeros(n_configurations)
            histogram[rng.randrange(n_configurations)] = 1.0
        else:
            weights = np.array([rng.choice((0.0, 1.0, 2.0)) for _ in range(n_configurations)])
            weights[rng.randrange(n_configurations)] += 1.0
            histogram = weights / weights.sum()
        assignments[category] = histogram
    return KnobPlan(
        assignments=assignments,
        expected_quality=0.0,
        expected_cost=0.0,
        forecast=np.full(n_categories, 1.0 / n_categories),
    )


def _decide_inputs(rng, profiles, centers, capacity, step):
    n_configurations = len(profiles)
    current = rng.randrange(n_configurations)
    column = sorted(set(centers[:, current].tolist()))
    quality_choices = column + [rng.random()]
    if len(column) > 1:
        # Equidistant from two centers: a distance tie.
        quality_choices.append((column[0] + column[1]) / 2.0)
    costs = [
        placement.cloud_dollars for profile in profiles for placement in profile.placements
    ]
    cost = rng.choice(costs)
    budget = rng.choice((cost, cost - 1e-12, cost + 1e-12, -1.0, 0.0, 1e-13, 10.0))
    backlog = rng.choice((0, capacity // 2, capacity - 1, capacity, rng.randrange(capacity + 1)))
    rate = rng.choice((0.0, -1_000.0, 1_000.0, 50_000.0, 400_000.0, rng.uniform(0.0, 1e6)))
    return dict(
        observed_quality=rng.choice(quality_choices),
        current_configuration_index=current,
        backlog_bytes=backlog,
        bytes_per_second=rate,
        cloud_budget_remaining=budget,
        timestamp=2.0 * step,
    )


def _strictly_faster_rows(profiles, order):
    """Each block's rows that beat every earlier row's runtime, in scan order."""
    rows = []
    for config_index in order:
        fastest = float("inf")
        for placement in profiles[config_index].placements_by_cloud_cost():
            if placement.runtime_seconds < fastest:
                fastest = placement.runtime_seconds
                rows.append((config_index, placement))
    return rows


@pytest.mark.parametrize("seed", range(60))
def test_live_switcher_matches_frozen_switcher(seed):
    rng = random.Random(seed)
    profiles = _random_profiles(rng)
    n_configurations = len(profiles)
    n_categories = rng.randint(1, 4)
    categorizer = _random_categorizer(rng, n_configurations, n_categories)
    plan = _random_plan(rng, n_configurations, n_categories)
    capacity = rng.choice((0, 1_000, 100_000, 10_000_000))
    safety_margin = rng.choice((0.98, 1.0))
    arguments = dict(
        profiles=profiles,
        categorizer=categorizer,
        plan=plan,
        segment_duration=SEGMENT_SECONDS,
        buffer_capacity_bytes=capacity,
        safety_margin=safety_margin,
    )
    live = KnobSwitcher(**arguments)
    frozen = FrozenKnobSwitcher(**arguments)

    kept = [
        (block[0], id(placement))
        for block in live._placement_table.blocks
        for placement in block[4]
    ]
    assert kept == [
        (config_index, id(placement))
        for config_index, placement in _strictly_faster_rows(profiles, frozen._quality_order)
    ]

    steps = 120
    for step in range(steps):
        if step == steps // 3:
            replanned = _random_plan(rng, n_configurations, n_categories)
            live.update_plan(replanned)
            frozen.update_plan(replanned)
        inputs = _decide_inputs(rng, profiles, live.categorizer.centers, capacity, step)
        ours = live.decide(**inputs)
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
        ), (seed, step, inputs)
        assert ours.placement is theirs.placement, (seed, step, inputs)
        assert ours.profile is theirs.profile
    assert live.category_history == frozen.category_history
    for category in range(n_categories):
        assert np.array_equal(
            live.realized_histogram(category), frozen.realized_histogram(category)
        )


def test_select_matches_frozen_scan_on_boundaries():
    """Every (planned, backlog, rate, budget) boundary cell of tie-heavy
    random tables returns the frozen scan's configuration, flag and very
    placement object."""
    checks = 0
    for seed in range(40):
        rng = random.Random(1_000 + seed)
        profiles = _random_profiles(rng)
        n_categories = 2
        capacity = rng.choice((0, 1_000, 100_000))
        arguments = dict(
            profiles=profiles,
            categorizer=_random_categorizer(rng, len(profiles), n_categories),
            plan=_random_plan(rng, len(profiles), n_categories),
            segment_duration=SEGMENT_SECONDS,
            buffer_capacity_bytes=capacity,
        )
        table = KnobSwitcher(**arguments)._placement_table
        frozen = FrozenKnobSwitcher(**arguments)
        costs = sorted(
            {placement.cloud_dollars for profile in profiles for placement in profile.placements}
        )
        budgets = [-1.0, 10.0] + [cost + delta for cost in costs for delta in (-1e-12, 0.0)]
        for planned in range(len(profiles)):
            for backlog in (0, capacity // 2, capacity):
                for rate in (-1.0, 0.0, 500.0, 50_000.0):
                    for budget in budgets:
                        expected = frozen._select_feasible(planned, backlog, rate, budget)
                        actual = table.select(planned, backlog, rate, budget)
                        assert actual[0] == expected[0]
                        assert actual[1] is expected[1]
                        assert actual[2] == expected[2]
                        checks += 1
    assert checks > 5_000
