"""The knob planner (Section 4.1).

Given a forecast of how often each content category will appear over the
planned interval, the planner assigns to every category a histogram over knob
configurations that maximizes expected quality subject to the compute budget.
The assignment is the solution of the linear program of Equations 2-4; an
off-the-shelf LP solver finds it in well under a second for the problem sizes
Skyscraper encounters (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, PlanningError
from repro.core.profiles import ProfileSet
from repro.ml.linear_program import LinearProgram


@dataclass
class KnobPlan:
    """The planner's output: one configuration histogram per content category.

    Attributes:
        assignments: ``assignments[c]`` is a length-|K| array whose ``i``-th
            entry is the fraction of category-``c`` content that should be
            processed with configuration ``i`` (the paper's ``alpha[k, c]``).
        expected_quality: LP objective value (expected quality per segment).
        expected_cost: expected per-segment cost (core-seconds) under the
            forecast.
        forecast: the forecast ``r_c`` the plan was computed from.
    """

    assignments: Dict[int, np.ndarray]
    expected_quality: float
    expected_cost: float
    forecast: np.ndarray

    @property
    def n_categories(self) -> int:
        return len(self.assignments)

    def histogram(self, category: int) -> np.ndarray:
        if category not in self.assignments:
            raise ConfigurationError(f"plan has no category {category}")
        return self.assignments[category]

    def dominant_configuration(self, category: int) -> int:
        """The configuration used most often for a category (for reporting)."""
        return int(np.argmax(self.histogram(category)))


@dataclass(frozen=True)
class PlanInputs:
    """Everything the Equations 2-4 LP reads, validated and normalized.

    :meth:`KnobPlanner.plan` solves from these fields and nothing else, so
    two calls whose :attr:`key` is equal solve the same LP.

    Attributes:
        ratios: the forecast ``r_c``, normalized to sum to one.
        quality_matrix: the ``(|K|, |C|)`` per-category qualities.
        costs: each configuration's work (on-premise core-seconds).
        budget: the per-segment budget (core-seconds).
    """

    ratios: np.ndarray
    quality_matrix: np.ndarray
    costs: np.ndarray
    budget: float

    @property
    def key(self) -> tuple:
        """The inputs as exact, hashable bytes (shapes included)."""
        arrays = (self.ratios, self.quality_matrix, self.costs)
        return tuple((array.shape, array.tobytes()) for array in arrays) + (self.budget,)


class KnobPlanner:
    """Solves the Equations 2-4 linear program.

    Args:
        profiles: profiled knob configurations (costs come from the fully
            on-premise placement, following footnote 4: the budget is
            expressed in on-premise ``core * s``).
        n_categories: number of content categories.
    """

    def __init__(self, profiles: ProfileSet, n_categories: int):
        if n_categories < 1:
            raise ConfigurationError("n_categories must be at least 1")
        self.profiles = profiles
        self.n_categories = n_categories

    def plan(
        self,
        forecast: Sequence[float],
        budget_core_seconds_per_segment: float,
        quality_matrix: Optional[np.ndarray] = None,
    ) -> KnobPlan:
        """Compute the knob plan for a forecast and a per-segment budget.

        Args:
            forecast: forecasted frequency ``r_c`` of every content category
                over the planned interval (normalized internally).
            budget_core_seconds_per_segment: compute budget per segment, i.e.
                total budget of the planned interval divided by the number of
                segments it contains.
            quality_matrix: optional ``(|K|, |C|)`` per-category quality
                matrix; defaults to the qualities stored in the profiles.

        Raises:
            PlanningError: if even the cheapest configuration exceeds the
                budget (no feasible plan exists).
        """
        inputs = self.plan_inputs(forecast, budget_core_seconds_per_segment, quality_matrix)
        ratios = inputs.ratios
        quality_matrix = inputs.quality_matrix
        costs = inputs.costs
        n_configurations, n_categories = quality_matrix.shape

        lp = LinearProgram()
        for config_index in range(n_configurations):
            for category in range(n_categories):
                lp.add_variable(
                    ("alpha", config_index, category),
                    objective=ratios[category] * quality_matrix[config_index, category],
                    lower=0.0,
                    upper=1.0,
                )
        # Budget constraint (Equation 3).
        lp.add_constraint_le(
            {
                ("alpha", config_index, category): ratios[category] * costs[config_index]
                for config_index in range(n_configurations)
                for category in range(n_categories)
            },
            inputs.budget,
        )
        # Normalization constraints (Equation 4).
        for category in range(n_categories):
            lp.add_constraint_eq(
                {
                    ("alpha", config_index, category): 1.0
                    for config_index in range(n_configurations)
                },
                1.0,
            )

        try:
            solution = lp.solve()
        except PlanningError as exc:
            raise PlanningError(
                "knob planning failed; the budget is likely below the cost of the "
                f"cheapest configuration ({costs.min():.3f} core-s/segment): {exc}"
            ) from exc

        assignments: Dict[int, np.ndarray] = {}
        expected_cost = 0.0
        for category in range(n_categories):
            histogram = np.array(
                [
                    max(solution[("alpha", config_index, category)], 0.0)
                    for config_index in range(n_configurations)
                ]
            )
            histogram_sum = histogram.sum()
            if histogram_sum > 0:
                histogram = histogram / histogram_sum
            else:
                histogram = np.zeros(n_configurations)
                histogram[int(np.argmin(costs))] = 1.0
            assignments[category] = histogram
            expected_cost += float(ratios[category] * np.dot(histogram, costs))

        return KnobPlan(
            assignments=assignments,
            expected_quality=solution.objective,
            expected_cost=expected_cost,
            forecast=ratios,
        )

    def plan_inputs(
        self,
        forecast: Sequence[float],
        budget_core_seconds_per_segment: float,
        quality_matrix: Optional[np.ndarray] = None,
    ) -> PlanInputs:
        """The inputs :meth:`plan` solves for these arguments.

        Raises:
            ConfigurationError: on a malformed forecast or quality matrix, or
                a budget that is not positive.
        """
        ratios = np.asarray(forecast, dtype=float)
        if ratios.shape != (self.n_categories,):
            raise ConfigurationError(
                f"forecast must have {self.n_categories} entries, got {ratios.shape}"
            )
        if np.any(ratios < 0):
            raise ConfigurationError("forecast frequencies must be non-negative")
        total = ratios.sum()
        ratios = ratios / total if total > 0 else np.full_like(ratios, 1.0 / len(ratios))
        if budget_core_seconds_per_segment <= 0:
            raise ConfigurationError("budget must be positive")

        if quality_matrix is None:
            quality_matrix = self.profiles.quality_matrix(self.n_categories)
        quality_matrix = np.asarray(quality_matrix, dtype=float)
        n_configurations = len(self.profiles)
        if quality_matrix.shape != (n_configurations, self.n_categories):
            raise ConfigurationError(
                f"quality matrix must be ({n_configurations}, {self.n_categories}), "
                f"got {quality_matrix.shape}"
            )

        costs = np.array([profile.work_core_seconds for profile in self.profiles], dtype=float)
        return PlanInputs(
            ratios=ratios,
            quality_matrix=quality_matrix,
            costs=costs,
            budget=budget_core_seconds_per_segment,
        )

    # ------------------------------------------------------------------ #
    # Multi-stream extension (Appendix D)
    # ------------------------------------------------------------------ #
    def plan_joint(
        self,
        forecasts: Sequence[Sequence[float]],
        budget_core_seconds_per_segment: float,
        quality_matrices: Optional[Sequence[np.ndarray]] = None,
    ) -> List[KnobPlan]:
        """Joint plan for several streams sharing one budget (Equations 7-9).

        Every stream keeps its own content categories and quality matrix; the
        budget constraint sums over all streams while the normalization
        constraints apply per (stream, category).

        Returns one :class:`KnobPlan` per stream.
        """
        if not forecasts:
            raise ConfigurationError("plan_joint needs at least one stream forecast")
        n_streams = len(forecasts)
        if quality_matrices is None:
            quality_matrices = [None] * n_streams
        if len(quality_matrices) != n_streams:
            raise ConfigurationError("one quality matrix per stream is required")

        ratios_per_stream: List[np.ndarray] = []
        matrices: List[np.ndarray] = []
        for stream_index in range(n_streams):
            ratios = np.asarray(forecasts[stream_index], dtype=float)
            if ratios.shape != (self.n_categories,):
                raise ConfigurationError("forecast shape mismatch in plan_joint")
            total = ratios.sum()
            ratios = ratios / total if total > 0 else np.full_like(ratios, 1.0 / len(ratios))
            ratios_per_stream.append(ratios)
            matrix = quality_matrices[stream_index]
            if matrix is None:
                matrix = self.profiles.quality_matrix(self.n_categories)
            matrices.append(np.asarray(matrix, dtype=float))

        costs = np.array([profile.work_core_seconds for profile in self.profiles])
        n_configurations = len(self.profiles)

        lp = LinearProgram()
        budget_coefficients: Dict = {}
        for stream_index in range(n_streams):
            ratios = ratios_per_stream[stream_index]
            matrix = matrices[stream_index]
            for config_index in range(n_configurations):
                for category in range(self.n_categories):
                    key = ("alpha", stream_index, config_index, category)
                    lp.add_variable(
                        key,
                        objective=ratios[category] * matrix[config_index, category],
                        lower=0.0,
                        upper=1.0,
                    )
                    budget_coefficients[key] = ratios[category] * costs[config_index]
        lp.add_constraint_le(budget_coefficients, budget_core_seconds_per_segment * n_streams)
        for stream_index in range(n_streams):
            for category in range(self.n_categories):
                lp.add_constraint_eq(
                    {
                        ("alpha", stream_index, config_index, category): 1.0
                        for config_index in range(n_configurations)
                    },
                    1.0,
                )
        solution = lp.solve()

        plans: List[KnobPlan] = []
        for stream_index in range(n_streams):
            assignments: Dict[int, np.ndarray] = {}
            expected_cost = 0.0
            ratios = ratios_per_stream[stream_index]
            for category in range(self.n_categories):
                histogram = np.array(
                    [
                        max(solution[("alpha", stream_index, config_index, category)], 0.0)
                        for config_index in range(n_configurations)
                    ]
                )
                histogram_sum = histogram.sum()
                histogram = (
                    histogram / histogram_sum
                    if histogram_sum > 0
                    else np.eye(n_configurations)[int(np.argmin(costs))]
                )
                assignments[category] = histogram
                expected_cost += float(ratios[category] * np.dot(histogram, costs))
            plans.append(
                KnobPlan(
                    assignments=assignments,
                    expected_quality=solution.objective / n_streams,
                    expected_cost=expected_cost,
                    forecast=ratios,
                )
            )
        return plans
