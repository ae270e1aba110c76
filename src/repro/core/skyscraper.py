"""The user-facing Skyscraper API (Appendix F) and the offline learning phase.

Typical usage mirrors the paper's code snippet::

    workload = CovidWorkload(...)
    sky = Skyscraper(workload, SkyscraperResources(cores=8, buffer_bytes=4_000_000_000,
                                                   cloud_budget_per_day=5.0))
    report = sky.fit(source, unlabeled_days=14)
    result = sky.ingest(source, start_time=14 * 86_400, duration=8 * 86_400)

``fit`` runs the offline phase of Section 3 (filter knob configurations and
placements, build content categories, train the forecaster) and records the
per-step runtimes reported in Table 3.  ``ingest`` runs the online phase of
Section 4 through the ingestion engine.

A fit persists itself through ``fit(stage_cache_dir=...)``: a later fit
with the same inputs resumes every cacheable stage from that directory, bit
for bit (see :class:`~repro.core.offline.StageCache`).  Experiments compare
Skyscraper against the baselines through the policy registry and the
experiment runner::

    from repro.experiments import ExperimentConfig, ExperimentRunner, prepare_bundle

    bundle = prepare_bundle(setup, ExperimentConfig(), cache_dir="~/.cache/skyscraper")
    runner = ExperimentRunner(bundle)
    result = runner.run("skyscraper", cores=8)      # any registered policy name
    points = runner.sweep(["static", "chameleon*", "skyscraper"])
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.cluster.cost import CostModel
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.categorizer import ContentCategorizer
from repro.core.engine import IngestionEngine, IngestionResult
from repro.core.forecaster import ContentForecaster
from repro.core.interfaces import VETLWorkload
from repro.core.offline import (
    EvaluationCache,
    OfflineFitParams,
    OfflinePhaseReport,
    OfflinePipeline,
    label_quality_series,
    profile_configurations,
)
from repro.core.planner import KnobPlan, KnobPlanner
from repro.core.policy import SkyscraperPolicy
from repro.core.profiles import ConfigurationProfile, ProfileSet
from repro.video.stream import SyntheticVideoSource

SECONDS_PER_DAY = 86_400.0

__all__ = [
    "Skyscraper",
    "SkyscraperResources",
]


@dataclass(frozen=True)
class SkyscraperResources:
    """Provisioned resources (``sky.set_resources`` in the paper's API).

    Attributes:
        cores: on-premise cores.
        buffer_bytes: video buffer capacity in bytes.
        cloud_budget_per_day: cloud credits available per day, in dollars
            (``0`` disables cloud bursting).
        utilization: fraction of the on-premise cores the planner budgets for
            (headroom for decode and system overhead).
    """

    cores: int
    buffer_bytes: int = 4_000_000_000
    cloud_budget_per_day: float = 0.0
    utilization: float = 0.95

    def __post_init__(self):
        if self.cores < 1:
            raise ConfigurationError("cores must be at least 1")
        if self.buffer_bytes < 0:
            raise ConfigurationError("buffer_bytes must be non-negative")
        if self.cloud_budget_per_day < 0:
            raise ConfigurationError("cloud_budget_per_day must be non-negative")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError("utilization must be in (0, 1]")

    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(cores=self.cores)

    def cloud_spec(self, base: Optional[CloudSpec] = None) -> CloudSpec:
        base = base or CloudSpec()
        return CloudSpec(
            max_concurrency=base.max_concurrency,
            uplink_bytes_per_second=base.uplink_bytes_per_second,
            downlink_bytes_per_second=base.downlink_bytes_per_second,
            round_trip_seconds=base.round_trip_seconds,
            pricing=base.pricing,
            daily_budget_dollars=self.cloud_budget_per_day,
        )


class Skyscraper:
    """End-to-end Skyscraper instance for one workload and one provisioning.

    Args:
        workload: the user's V-ETL job (UDFs, knobs, quality metric).
        resources: provisioned hardware and cloud budget.
        n_categories: number of content categories (default 4, Appendix I).
        switch_period_seconds: knob switching period (default 4 s).
        planned_interval_seconds: knob planning period (default 2 days).
        forecaster_splits: number of input histograms of the forecaster.
        cost_model: converts cloud credits into the planner's core-second
            budget (footnote 4).
        seed: seed for the offline phase's sampling.
    """

    def __init__(
        self,
        workload: VETLWorkload,
        resources: SkyscraperResources,
        n_categories: int = 4,
        switch_period_seconds: float = 4.0,
        planned_interval_seconds: float = 2 * SECONDS_PER_DAY,
        forecaster_splits: int = 8,
        cost_model: Optional[CostModel] = None,
        cloud: Optional[CloudSpec] = None,
        seed: int = 0,
    ):
        self.workload = workload
        self.resources = resources
        self.n_categories = n_categories
        self.switch_period_seconds = switch_period_seconds
        self.planned_interval_seconds = planned_interval_seconds
        self.forecaster_splits = forecaster_splits
        self.cost_model = cost_model or CostModel()
        self.cloud = resources.cloud_spec(cloud)
        self.seed = seed

        self.profiles: Optional[ProfileSet] = None
        self.categorizer: Optional[ContentCategorizer] = None
        self.forecaster: Optional[ContentForecaster] = None
        self.report: Optional[OfflinePhaseReport] = None
        # The last initial plan build_policy solved, keyed on its LP inputs.
        self._initial_plan_memo: Optional[Tuple[tuple, KnobPlan]] = None

    # ------------------------------------------------------------------ #
    # Offline phase (Section 3)
    # ------------------------------------------------------------------ #
    def fit(
        self,
        source: SyntheticVideoSource,
        unlabeled_days: float = 14.0,
        labeled_minutes: float = 20.0,
        n_search_segments: int = 5,
        n_presample_segments: int = 200,
        n_category_samples: int = 300,
        forecast_label_period_seconds: float = 60.0,
        forecast_input_days: float = 2.0,
        max_configurations: int = 8,
        train_forecaster: bool = True,
        executor: None = None,
        evaluation_cache: Optional[EvaluationCache] = None,
        stage_cache_dir: Optional[Union[str, Path]] = None,
    ) -> OfflinePhaseReport:
        """Run the offline learning phase on historical data from ``source``.

        The historical recording spans ``[0, unlabeled_days)`` of the source;
        online ingestion should start after that window so train and test data
        do not overlap (as in the paper's 16-day-train / 8-day-test split).

        The phase itself is a thin wrapper over
        :class:`~repro.core.offline.OfflinePipeline`: ``evaluation_cache``
        shares memoized evaluations across repeated fits, and
        ``stage_cache_dir`` persists per-stage artifacts so a re-run resumes
        from whatever upstream stages are still valid.  The fit runs in this
        process; ``executor`` accepts only ``None`` and any other value
        raises :class:`~repro.errors.ConfigurationError`.
        """
        if executor is not None:
            raise ConfigurationError(
                f"the offline fit runs serially; executor must be None, not {executor!r}"
            )
        pipeline = OfflinePipeline(
            workload=self.workload,
            source=source,
            cores=self.resources.cores,
            cloud=self.cloud,
            n_categories=self.n_categories,
            forecaster_splits=self.forecaster_splits,
            planned_interval_seconds=self.planned_interval_seconds,
            seed=self.seed,
            params=OfflineFitParams(
                unlabeled_days=unlabeled_days,
                labeled_minutes=labeled_minutes,
                n_search_segments=n_search_segments,
                n_presample_segments=n_presample_segments,
                n_category_samples=n_category_samples,
                forecast_label_period_seconds=forecast_label_period_seconds,
                forecast_input_days=forecast_input_days,
                max_configurations=max_configurations,
                train_forecaster=train_forecaster,
            ),
            evaluation_cache=evaluation_cache,
            stage_cache_dir=stage_cache_dir,
        )
        result = pipeline.run()
        self.profiles = result.profiles
        self.categorizer = result.categorizer
        self.forecaster = result.forecaster
        self.report = result.report
        return result.report

    def _label_history(
        self,
        source: SyntheticVideoSource,
        start_time: float,
        end_time: float,
        period_seconds: float,
        evaluator: Optional[EvaluationCache] = None,
    ) -> List[int]:
        """Category label of the content sampled every ``period_seconds``.

        Appendix H: the unlabeled history is processed with the cheapest
        configuration and classified with the switcher's single-dimension
        rule.  The evaluations run as one batch (optionally through a shared
        evaluation cache); an empty window yields no labels.
        """
        if self.profiles is None or self.categorizer is None:
            raise NotFittedError("profiles and categorizer must exist before labeling history")
        cheapest_profile = self.profiles.cheapest()
        cheapest_index = self.profiles.index_of(cheapest_profile.configuration)
        qualities = label_quality_series(
            self.workload,
            source,
            cheapest_profile.configuration,
            start_time=start_time,
            end_time=end_time,
            period_seconds=period_seconds,
            evaluator=evaluator,
        )
        return self.categorizer.classify_partial_many(cheapest_index, qualities).tolist()

    # ------------------------------------------------------------------ #
    # Re-provisioning
    # ------------------------------------------------------------------ #
    def with_resources(self, resources: SkyscraperResources) -> "Skyscraper":
        """A copy of this fitted instance provisioned with different hardware.

        Content categories and the forecaster only depend on the video, not on
        the hardware, so they are shared; the placement profiles (runtimes,
        cloud costs) are re-measured for the new core count and cloud budget.
        This is how the evaluation sweeps machine tiers without re-running the
        whole offline phase.

        On this instance's own hardware (same cores, equal cloud spec) a
        re-measurement would repeat the placements already profiled, so the
        clone gets fresh profile objects over those frozen placements, with
        the same mean and per-category qualities a re-profile attaches.
        Fresh objects keep a later
        :meth:`~repro.core.profiles.ProfileSet.set_category_qualities` on
        the clone away from this instance.
        """
        if self.profiles is None or self.categorizer is None or self.report is None:
            raise NotFittedError("Skyscraper.fit must run before re-provisioning")
        clone = Skyscraper(
            workload=self.workload,
            resources=resources,
            n_categories=self.n_categories,
            switch_period_seconds=self.switch_period_seconds,
            planned_interval_seconds=self.planned_interval_seconds,
            forecaster_splits=self.forecaster_splits,
            cost_model=self.cost_model,
            # Base the clone's cloud spec on this instance's: custom pricing,
            # uplink and latency settings survive re-provisioning while the
            # daily budget comes from the new resources.
            cloud=self.cloud,
            seed=self.seed,
        )
        clone.categorizer = self.categorizer
        clone.forecaster = self.forecaster
        clone.report = self.report
        if resources.cores == self.resources.cores and clone.cloud == self.cloud:
            clone.profiles = ProfileSet(
                [
                    ConfigurationProfile(
                        configuration=configuration,
                        placements=list(self.profiles.profile(configuration).placements),
                        mean_quality=float(self.report.mean_qualities[configuration]),
                    )
                    for configuration in self.report.kept_configurations
                ]
            )
            clone.attach_category_qualities(clone.profiles)
        else:
            clone.profiles = profile_configurations(
                self.workload,
                self.report.kept_configurations,
                cores=resources.cores,
                cloud=clone.cloud,
                mean_qualities=self.report.mean_qualities,
                categorizer=self.categorizer,
            )
        return clone

    def attach_category_qualities(self, profiles: ProfileSet) -> None:
        """Fill per-category qualities of ``profiles`` from the categorizer."""
        if self.categorizer is None:
            raise NotFittedError("a fitted categorizer is required")
        profiles.set_category_qualities(self.categorizer.centers.T)

    # ------------------------------------------------------------------ #
    # Online phase (Section 4)
    # ------------------------------------------------------------------ #
    def budget_core_seconds_per_segment(self, segment_seconds: float) -> float:
        """The planner's per-segment budget (footnote 4).

        On-premise capacity contributes ``cores * segment_seconds`` scaled by
        the utilization headroom; the daily cloud credits are converted to
        core-seconds through the cost model's cloud price per core-second.
        """
        on_prem = self.resources.cores * segment_seconds * self.resources.utilization
        cloud_dollars_per_core_second = self.cost_model.cloud_work_dollars(1.0)
        segments_per_day = SECONDS_PER_DAY / segment_seconds
        cloud_core_seconds = 0.0
        if self.resources.cloud_budget_per_day > 0 and cloud_dollars_per_core_second > 0:
            cloud_core_seconds = (
                self.resources.cloud_budget_per_day
                / cloud_dollars_per_core_second
                / segments_per_day
            )
        return on_prem + cloud_core_seconds

    def build_policy(self, segment_seconds: float) -> SkyscraperPolicy:
        """Construct the online policy from the offline artifacts."""
        if self.profiles is None or self.categorizer is None or self.report is None:
            raise NotFittedError("Skyscraper.fit must run before building the online policy")
        planner = KnobPlanner(self.profiles, self.categorizer.actual_categories)
        initial_forecast = self.report.initial_forecast
        if initial_forecast is None:
            initial_forecast = np.full(
                self.categorizer.actual_categories, 1.0 / self.categorizer.actual_categories
            )
        budget = self.budget_core_seconds_per_segment(segment_seconds)
        return SkyscraperPolicy(
            profiles=self.profiles,
            categorizer=self.categorizer,
            planner=planner,
            initial_forecast=initial_forecast,
            budget_core_seconds_per_segment=budget,
            segment_duration=segment_seconds,
            buffer_capacity_bytes=self.resources.buffer_bytes,
            forecaster=self.forecaster,
            switch_period_seconds=self.switch_period_seconds,
            planned_interval_seconds=self.planned_interval_seconds,
            initial_plan=self._initial_plan(planner, initial_forecast, budget),
        )

    def _initial_plan(
        self, planner: KnobPlanner, initial_forecast, budget: float
    ) -> KnobPlan:
        """The plan of the initial forecast, solved once per distinct LP input.

        Every stream of a run context builds its policy from the same
        forecast, budget and profiles, so they share one plan, made
        read-only.  The memo key is :meth:`KnobPlanner.plan_inputs
        <repro.core.planner.KnobPlanner.plan_inputs>`, the exact inputs
        ``plan`` solves from.  When the profiles' category qualities change
        in between, the key changes and the next policy gets a fresh solve.
        """
        key = planner.plan_inputs(initial_forecast, budget).key
        memo = self._initial_plan_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        plan = planner.plan(initial_forecast, budget)
        for array in (*plan.assignments.values(), plan.forecast):
            array.flags.writeable = False
        self._initial_plan_memo = (key, plan)
        return plan

    def ingest(
        self,
        source: SyntheticVideoSource,
        start_time: float,
        duration: float,
        keep_traces: bool = True,
    ) -> IngestionResult:
        """Ingest ``duration`` seconds of live video starting at ``start_time``."""
        if self.profiles is None:
            raise NotFittedError("Skyscraper.fit must run before ingesting")
        policy = self.build_policy(source.segment_seconds)
        engine = IngestionEngine(
            workload=self.workload,
            source=source,
            cluster=self.resources.cluster_spec(),
            cloud=self.cloud,
            buffer_capacity_bytes=self.resources.buffer_bytes,
            keep_traces=keep_traces,
        )
        return engine.run(policy, start_time, start_time + duration)
