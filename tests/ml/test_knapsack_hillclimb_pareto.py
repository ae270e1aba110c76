"""Tests for the knapsack, hill climbing and Pareto utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.ml.hillclimb import hill_climb, neighbours
from repro.ml.knapsack import KnapsackItem, greedy_knapsack
from repro.ml.pareto import is_dominated, pareto_front, pareto_front_points


# --------------------------------------------------------------------- #
# Knapsack
# --------------------------------------------------------------------- #
def test_knapsack_prefers_high_value_upgrades():
    items = [
        KnapsackItem("a", "cheap", value=1.0, cost=1.0),
        KnapsackItem("a", "expensive", value=5.0, cost=3.0),
        KnapsackItem("b", "cheap", value=1.0, cost=1.0),
        KnapsackItem("b", "expensive", value=2.0, cost=3.0),
    ]
    choices, value, cost = greedy_knapsack(items, budget=4.0)
    assert choices["a"].option == "expensive"
    assert choices["b"].option == "cheap"
    assert cost <= 4.0
    assert value == pytest.approx(6.0)


def test_knapsack_every_key_gets_an_option_even_with_zero_budget():
    items = [
        KnapsackItem(0, "cheap", value=0.2, cost=0.0),
        KnapsackItem(0, "big", value=1.0, cost=2.0),
        KnapsackItem(1, "cheap", value=0.3, cost=0.0),
    ]
    choices, _, cost = greedy_knapsack(items, budget=0.0)
    assert set(choices) == {0, 1}
    assert cost == 0.0


def test_knapsack_respects_budget():
    items = [
        KnapsackItem(key, option, value=float(option), cost=float(option))
        for key in range(5)
        for option in (1, 2, 3)
    ]
    _, _, cost = greedy_knapsack(items, budget=9.0)
    assert cost <= 9.0


def test_knapsack_input_validation():
    with pytest.raises(ConfigurationError):
        greedy_knapsack([KnapsackItem("a", "x", 1.0, 1.0)], budget=-1.0)
    with pytest.raises(ConfigurationError):
        greedy_knapsack([KnapsackItem("a", "x", 1.0, -2.0)], budget=1.0)
    assert greedy_knapsack([], budget=1.0) == ({}, 0.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(
    budget=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=100),
)
def test_knapsack_property_budget_and_coverage(budget, seed):
    rng = np.random.default_rng(seed)
    items = [
        KnapsackItem(key, option, value=float(rng.uniform(0, 1)), cost=float(rng.uniform(0, 5)))
        for key in range(6)
        for option in range(3)
    ]
    # Guarantee a zero-cost option per key so the baseline is always feasible.
    items += [KnapsackItem(key, "free", value=0.0, cost=0.0) for key in range(6)]
    choices, value, cost = greedy_knapsack(items, budget=budget)
    assert set(choices) == set(range(6))
    assert cost <= budget + 1e-9
    assert value >= 0.0


# --------------------------------------------------------------------- #
# Hill climbing
# --------------------------------------------------------------------- #
def test_neighbours_change_one_knob_by_one_step():
    domains = [(1, 2, 3), ("a", "b")]
    result = neighbours((2, "a"), domains)
    assert set(result) == {(1, "a"), (3, "a"), (2, "b")}


def test_hill_climb_finds_separable_maximum():
    domains = [tuple(range(5)), tuple(range(5))]

    def objective(values):
        return -((values[0] - 3) ** 2) - (values[1] - 1) ** 2

    best, score, visited = hill_climb(domains, objective)
    assert best == (3, 1)
    assert score == 0
    assert (0, 0) in visited


def test_hill_climb_rejects_empty_domain():
    with pytest.raises(ConfigurationError):
        hill_climb([()], lambda values: 0.0)


# --------------------------------------------------------------------- #
# Pareto
# --------------------------------------------------------------------- #
def test_pareto_front_keeps_only_nondominated():
    points = {
        "cheap_bad": (1.0, 0.2),
        "dominated": (2.0, 0.2),
        "mid": (2.0, 0.6),
        "expensive_good": (5.0, 0.9),
        "expensive_bad": (6.0, 0.5),
    }
    frontier = pareto_front(points)
    assert frontier == ["cheap_bad", "mid", "expensive_good"]


def test_is_dominated_handles_duplicates():
    points = [(1.0, 1.0), (1.0, 1.0)]
    assert not is_dominated((1.0, 1.0), points)


def test_pareto_front_points_indices():
    indices = pareto_front_points([(1.0, 0.1), (0.5, 0.5), (2.0, 0.05)])
    assert indices == [1]


def _pairwise_pareto_front(points):
    """The quadratic definition: keep every point no other point dominates."""
    all_points = list(points.values())
    frontier = [key for key, point in points.items() if not is_dominated(point, all_points)]
    frontier.sort(key=lambda key: (points[key][0], -points[key][1]))
    return frontier


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500), count=st.integers(min_value=1, max_value=40))
def test_pareto_front_matches_pairwise_definition(seed, count):
    rng = np.random.default_rng(seed)
    # Few distinct coordinates: equal costs, equal values and duplicates occur.
    points = {
        index: (float(rng.integers(0, 5)), float(rng.integers(0, 4)) / 4)
        for index in range(count)
    }
    assert pareto_front(points) == _pairwise_pareto_front(points)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200), count=st.integers(min_value=1, max_value=25))
def test_pareto_property_every_dropped_point_is_dominated(seed, count):
    rng = np.random.default_rng(seed)
    points = {index: (float(rng.uniform(0, 5)), float(rng.uniform(0, 1))) for index in range(count)}
    frontier = set(pareto_front(points))
    kept_points = [points[key] for key in frontier]
    for key, point in points.items():
        if key not in frontier:
            assert is_dominated(point, kept_points)
