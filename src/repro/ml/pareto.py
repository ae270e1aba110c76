"""Pareto-frontier utilities.

Skyscraper keeps only knob configurations on the work-quality Pareto frontier
and only task placements on the cost-runtime Pareto frontier (Section 3.1).
These helpers work on generic ``(cost, value)`` points where lower cost and
higher value are better.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple


def is_dominated(
    candidate: Tuple[float, float],
    others: Sequence[Tuple[float, float]],
) -> bool:
    """Whether ``candidate`` is dominated by any point in ``others``.

    A point ``(cost, value)`` is dominated when another point has cost no
    higher and value no lower, with at least one strict inequality.
    """
    cost, value = candidate
    for other_cost, other_value in others:
        if (other_cost, other_value) == (cost, value):
            continue
        if other_cost <= cost and other_value >= value:
            if other_cost < cost or other_value > value:
                return True
    return False


def pareto_front(points: Mapping[Hashable, Tuple[float, float]]) -> List[Hashable]:
    """Keys of ``points`` that lie on the (min cost, max value) Pareto frontier.

    Duplicate ``(cost, value)`` pairs are all kept; the result is sorted by
    increasing cost, breaking ties by decreasing value, so downstream code can
    treat it as the "cheap to expensive" ladder the knob switcher walks when
    it has to fall back to cheaper configurations (Section 4.2).  Keys with
    equal points keep their input order.

    One sort and one sweep over the cost groups, O(n log n): a point is
    dominated exactly when a strictly cheaper point has at least its value,
    or a point of equal cost has a higher value (:func:`is_dominated`).
    """
    ordered = sorted(points, key=lambda key: (points[key][0], -points[key][1]))
    frontier: List[Hashable] = []
    best_cheaper = None  # highest value among strictly cheaper points
    for _, group in groupby(ordered, key=lambda key: points[key][0]):
        group = list(group)
        best = points[group[0]][1]
        if best_cheaper is None or best > best_cheaper:
            frontier.extend(key for key in group if points[key][1] == best)
            best_cheaper = best
    return frontier


def pareto_front_points(
    points: Sequence[Tuple[float, float]],
) -> List[int]:
    """Index-based variant of :func:`pareto_front` for plain point lists."""
    mapping: Dict[int, Tuple[float, float]] = {index: point for index, point in enumerate(points)}
    return pareto_front(mapping)
