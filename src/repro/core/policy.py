"""Policies: per-segment decision procedures driven by the ingestion engine.

:class:`SkyscraperPolicy` combines the predictive knob planner (re-run every
planned interval on a fresh forecast) with the reactive knob switcher (run
every switching period).  The baseline systems of the evaluation implement the
same :class:`~repro.core.engine.Policy` protocol in :mod:`repro.baselines`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.categorizer import ContentCategorizer
from repro.core.engine import DecisionContext, PolicyDecision
from repro.core.forecaster import ContentForecaster
from repro.core.interfaces import SegmentOutcome
from repro.core.planner import KnobPlan, KnobPlanner
from repro.core.profiles import ProfileSet
from repro.core.switcher import KnobSwitcher


class SkyscraperPolicy:
    """The full online Skyscraper: predictive planning + reactive switching.

    Args:
        profiles: filtered and profiled knob configurations.
        categorizer: fitted content categorizer.
        planner: the LP knob planner.
        initial_forecast: content distribution used for the very first plan
            (typically the category distribution of the unlabeled training
            data).
        budget_core_seconds_per_segment: per-segment compute budget handed to
            the planner (on-premise cores × segment length, plus the cloud
            credits converted to core-seconds).
        segment_duration: segment length in seconds.
        buffer_capacity_bytes: video buffer capacity.
        forecaster: trained forecasting model; if ``None`` the policy keeps
            re-using the initial forecast (useful for ablations).
        switch_period_seconds: how often the knob switcher re-decides
            (default 4 s, Appendix I).
        planned_interval_seconds: how often the knob planner re-plans
            (default 2 days, Appendix I).
        initial_plan: the plan of ``initial_forecast`` under the budget.
            :meth:`Skyscraper.build_policy
            <repro.core.skyscraper.Skyscraper.build_policy>` solves it and
            shares one read-only plan across the policies of a run context.
    """

    name = "skyscraper"

    def __init__(
        self,
        profiles: ProfileSet,
        categorizer: ContentCategorizer,
        planner: KnobPlanner,
        initial_forecast: Sequence[float],
        budget_core_seconds_per_segment: float,
        segment_duration: float,
        buffer_capacity_bytes: int,
        forecaster: Optional[ContentForecaster] = None,
        switch_period_seconds: float = 4.0,
        planned_interval_seconds: float = 2 * 86_400.0,
        *,
        initial_plan: KnobPlan,
    ):
        if switch_period_seconds <= 0:
            raise ConfigurationError("switch_period_seconds must be positive")
        if planned_interval_seconds <= 0:
            raise ConfigurationError("planned_interval_seconds must be positive")
        self.profiles = profiles
        self.categorizer = categorizer
        self.planner = planner
        self.forecaster = forecaster
        self.budget_core_seconds_per_segment = budget_core_seconds_per_segment
        self.segment_duration = segment_duration
        self.switch_period_seconds = switch_period_seconds
        self.planned_interval_seconds = planned_interval_seconds

        self.switcher = KnobSwitcher(
            profiles=profiles,
            categorizer=categorizer,
            plan=initial_plan,
            segment_duration=segment_duration,
            buffer_capacity_bytes=buffer_capacity_bytes,
        )
        self._last_switch_time: Optional[float] = None
        self._last_decision: Optional[PolicyDecision] = None
        self._next_planning_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Policy protocol
    # ------------------------------------------------------------------ #
    def decide(self, context: DecisionContext) -> PolicyDecision:
        now = context.decision_time
        if self._next_planning_time is None:
            self._next_planning_time = now + self.planned_interval_seconds
        elif now >= self._next_planning_time:
            self._replan(now)
            self._next_planning_time = now + self.planned_interval_seconds

        due = (
            self._last_switch_time is None
            or now - self._last_switch_time >= self.switch_period_seconds - 1e-9
            or self._last_decision is None
        )
        if not due:
            # Re-use the previous decision within the switching period, but
            # never blow the buffer: fall back to re-deciding when the
            # previously chosen placement no longer fits the backlog.
            placement = self._last_decision.placement
            growth = max(placement.runtime_seconds - self.segment_duration, 0.0)
            headroom = self.segment_duration * context.bytes_per_second
            predicted = context.backlog_bytes + growth * context.bytes_per_second + headroom
            if predicted <= context.buffer_capacity_bytes * 0.98:
                return self._last_decision

        switch = self.switcher.decide(
            observed_quality=context.last_reported_quality,
            current_configuration_index=context.last_configuration_index,
            backlog_bytes=context.backlog_bytes,
            bytes_per_second=context.bytes_per_second,
            cloud_budget_remaining=context.cloud_budget_remaining,
            timestamp=now,
        )
        decision = PolicyDecision(
            configuration_index=switch.configuration_index,
            profile=switch.profile,
            placement=switch.placement,
            metadata={
                "category": float(switch.category),
                "fell_back": 1.0 if switch.fell_back else 0.0,
            },
        )
        self._last_switch_time = now
        self._last_decision = decision
        return decision

    def observe(self, outcome: SegmentOutcome, decision: PolicyDecision) -> None:
        """The engine reports outcomes; the switcher already tracks history."""
        return None

    # ------------------------------------------------------------------ #
    # Periodic re-planning
    # ------------------------------------------------------------------ #
    def _replan(self, now: float) -> None:
        forecast = self._forecast(now)
        plan = self.planner.plan(forecast, self.budget_core_seconds_per_segment)
        self.switcher.update_plan(plan)

    def _forecast(self, now: float) -> np.ndarray:
        n_categories = self.categorizer.actual_categories
        history = self.switcher.category_history
        if self.forecaster is None or not self.forecaster.is_fitted or not history:
            return self._historical_distribution(history, n_categories)
        n_splits = self.forecaster.n_splits
        window = self.forecaster.input_seconds
        split_length = window / n_splits
        histograms = []
        for split_index in range(n_splits):
            split_start = now - window + split_index * split_length
            split_end = split_start + split_length
            labels = [
                category
                for timestamp, category in history
                if split_start <= timestamp < split_end
            ]
            if labels:
                histograms.append(self._labels_to_histogram(labels, n_categories))
            else:
                histograms.append(np.full(n_categories, 1.0 / n_categories))
        return self.forecaster.predict(histograms)

    @staticmethod
    def _labels_to_histogram(labels: List[int], n_categories: int) -> np.ndarray:
        counts = np.bincount(np.asarray(labels, dtype=int), minlength=n_categories)
        counts = counts[:n_categories].astype(float)
        total = counts.sum()
        if total <= 0:
            return np.full(n_categories, 1.0 / n_categories)
        return counts / total

    @staticmethod
    def _historical_distribution(history, n_categories: int) -> np.ndarray:
        if not history:
            return np.full(n_categories, 1.0 / n_categories)
        labels = [category for _, category in history]
        return SkyscraperPolicy._labels_to_histogram(labels, n_categories)
