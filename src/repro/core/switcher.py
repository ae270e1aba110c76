"""The reactive knob switcher (Section 4.2).

Every few seconds the switcher determines the current content category from
the quality reported by the configuration that just ran (Equation 5), looks
the category up in the knob plan, picks the configuration that keeps the
realized usage histogram closest to the planned one (Equation 6), and chooses
the cheapest task placement that does not overflow the buffer.  If no
placement of the chosen configuration can avoid an overflow, the switcher
recursively falls back to the next less qualitative configuration.

A decision reads a handful of numbers per step, so :meth:`KnobSwitcher.decide`
works on plain Python lists: the plan's histograms, the usage counts, each
configuration's column of category centers, and the non-dominated placements
of :class:`~repro.core.columnar.PlacementTable`.  It performs the same IEEE
operations in the same order as the numpy formulation and breaks ties toward
the lowest index like ``np.argmin``/``np.argmax``.  The numpy formulation with
the full nested placement scan is frozen in :mod:`repro.core.reference`
(:class:`~repro.core.reference.FrozenKnobSwitcher`) as the parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.cluster.profiler import PlacementProfile
from repro.core.categorizer import ContentCategorizer
from repro.core.columnar import PlacementTable
from repro.core.planner import KnobPlan
from repro.core.profiles import ConfigurationProfile, ProfileSet


@dataclass
class SwitchDecision:
    """The switcher's choice for the next chunk of video.

    Attributes:
        configuration_index: index of the chosen configuration in the profile
            set's canonical order.
        profile: the chosen configuration's profile.
        placement: the chosen task placement.
        category: content category the current content was classified into.
        fell_back: whether the switcher had to deviate from the planned
            configuration to avoid a buffer overflow.
        planned_configuration_index: the configuration Equation 6 selected
            before any overflow fallback.
    """

    configuration_index: int
    profile: ConfigurationProfile
    placement: PlacementProfile
    category: int
    fell_back: bool
    planned_configuration_index: int


class KnobSwitcher:
    """Reactive per-segment configuration and placement selection.

    Args:
        profiles: the filtered, profiled knob configurations.
        categorizer: fitted content categorizer.
        plan: the current knob plan (replaced by :meth:`update_plan` when the
            planner re-runs).
        segment_duration: length of the video chunk one decision covers, in
            seconds of video.
        buffer_capacity_bytes: capacity of the video buffer.
        safety_margin: fraction of the buffer the switcher refuses to exceed
            when predicting occupancy (guards against runtime underestimates).
    """

    def __init__(
        self,
        profiles: ProfileSet,
        categorizer: ContentCategorizer,
        plan: KnobPlan,
        segment_duration: float,
        buffer_capacity_bytes: int,
        safety_margin: float = 0.98,
    ):
        if segment_duration <= 0:
            raise ConfigurationError("segment_duration must be positive")
        if buffer_capacity_bytes < 0:
            raise ConfigurationError("buffer_capacity_bytes must be non-negative")
        if not 0.0 < safety_margin <= 1.0:
            raise ConfigurationError("safety_margin must be in (0, 1]")
        self.profiles = profiles
        self._categorizer = categorizer
        #: each configuration's column of category centers (Equation 5).
        self._center_columns = categorizer.centers.T.tolist()
        self.plan = plan
        self.segment_duration = segment_duration
        self.buffer_capacity_bytes = buffer_capacity_bytes
        self.safety_margin = safety_margin

        n_configurations = len(profiles)
        n_categories = categorizer.actual_categories
        # Realized usage counts per category (the paper's alpha-hat) and
        # their per-category sums.  The counts are whole numbers, so the
        # running sums are exact.
        self._usage_counts = [[0.0] * n_configurations for _ in range(n_categories)]
        self._usage_totals = [0.0] * n_categories
        #: category label history as (timestamp, category) pairs, consumed by
        #: the planner's forecaster.
        self.category_history: List[Tuple[float, int]] = []
        #: ordering from most to least qualitative used for overflow fallback.
        self._quality_order = [
            profiles.index_of(profile.configuration)
            for profile in profiles.by_quality_descending()
        ]
        self._placement_table = PlacementTable(
            profiles,
            self._quality_order,
            segment_duration,
            buffer_capacity_bytes,
            safety_margin,
        )

    # ------------------------------------------------------------------ #
    # Plan and categorizer
    # ------------------------------------------------------------------ #
    @property
    def plan(self) -> KnobPlan:
        return self._plan

    @plan.setter
    def plan(self, plan: KnobPlan) -> None:
        self._plan = plan
        self._plan_rows = {
            category: histogram.tolist() for category, histogram in plan.assignments.items()
        }

    @property
    def categorizer(self) -> ContentCategorizer:
        return self._categorizer

    def update_plan(self, plan: KnobPlan) -> None:
        """Install a freshly computed knob plan (every planned interval)."""
        self.plan = plan

    def realized_histogram(self, category: int) -> np.ndarray:
        """Observed configuration usage for a category, normalized."""
        counts = np.array(self._usage_counts[category])
        total = counts.sum()
        if total <= 0:
            return np.zeros_like(counts)
        return counts / total

    # ------------------------------------------------------------------ #
    # Decision
    # ------------------------------------------------------------------ #
    def decide(
        self,
        observed_quality: float,
        current_configuration_index: int,
        backlog_bytes: int,
        bytes_per_second: float,
        cloud_budget_remaining: float,
        timestamp: float,
    ) -> SwitchDecision:
        """Choose the configuration and placement for the next video chunk.

        Args:
            observed_quality: quality reported by the configuration that just
                processed video (the only observable content signal).
            current_configuration_index: index of that configuration.
            backlog_bytes: bytes currently sitting in the video buffer.
            bytes_per_second: current encoded bitrate of the incoming video.
            cloud_budget_remaining: cloud dollars still available in the
                current budgeting period.
            timestamp: current stream time (seconds), recorded with the
                category label for the forecaster.
        """
        if not 0 <= current_configuration_index < len(self.profiles):
            raise ConfigurationError("current_configuration_index out of range")

        # Step 1: classify the current content from a single quality value:
        # the nearest category center in the observed configuration's column.
        distances = [
            abs(center - observed_quality)
            for center in self._center_columns[current_configuration_index]
        ]
        category = distances.index(min(distances))
        self.category_history.append((timestamp, category))

        # Step 2: look the category up in the knob plan.
        planned_histogram = self._plan_rows.get(category)
        if planned_histogram is None:
            raise ConfigurationError(f"plan has no category {category}")

        # Step 3a: pick the configuration that keeps usage closest to the
        # plan (the largest deficit, first index on ties).
        counts = self._usage_counts[category]
        total = self._usage_totals[category]
        if total > 0:
            deficits = [
                planned - count / total for planned, count in zip(planned_histogram, counts)
            ]
        else:
            deficits = planned_histogram
        planned_choice = deficits.index(max(deficits))

        # Step 3b: cheapest placement that does not overflow the buffer; fall
        # back to less qualitative configurations if necessary.
        choice, placement, fell_back = self._placement_table.select(
            planned_choice, backlog_bytes, bytes_per_second, cloud_budget_remaining
        )

        counts[choice] += 1.0
        self._usage_totals[category] = total + 1.0
        return SwitchDecision(
            configuration_index=choice,
            profile=self.profiles[choice],
            placement=placement,
            category=category,
            fell_back=fell_back,
            planned_configuration_index=planned_choice,
        )
