"""The unified experiment runner.

One object runs every system of the evaluation through the same ingestion
engine: :class:`ExperimentRunner` resolves system names through the policy
registry (:mod:`repro.registry`), re-provisions the fitted bundle for the
requested hardware, and executes the run.

The module also owns the experiment bundle machinery: ``ExperimentConfig``
(the common knobs of a run), ``SystemBundle`` (a fitted Skyscraper plus its
setup), and ``prepare_bundle`` — which, given ``cache_dir=``, persists each
offline stage's artifacts and resumes later fits from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.cost import CostModel, MachineType
from repro.core.engine import IngestionEngine, IngestionResult
from repro.core.fleet import (
    BudgetLedger,
    FleetEngine,
    FleetResult,
    FleetStream,
    Scheduler,
    scheduler_names,
)
from repro.core.offline import OfflinePhaseReport
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.errors import ConfigurationError
from repro.experiments.hardware import MACHINE_TIERS, machine_for
from repro.experiments.results import CostQualityPoint, FleetPoint, fleet_point
from repro.registry import (
    AssignmentReplayPolicy,
    RunContext,
    create_policy,
    policy_spec,
)
from repro.workloads.base import WorkloadSetup
from repro.workloads.fleet import FleetScenario, make_fleet_scenario

SECONDS_PER_DAY = 86_400.0


@dataclass
class ExperimentConfig:
    """Common knobs of an experiment run.

    The defaults are sized so the full benchmark suite completes in minutes;
    passing larger ``history_days`` / ``online_days`` approaches the paper's
    16-day / 8-day setup.
    """

    history_days: float = 2.0
    online_days: float = 0.5
    n_categories: int = 4
    buffer_bytes: int = 4_000_000_000
    cloud_budget_per_day: float = 4.0
    switch_period_seconds: float = 4.0
    planned_interval_seconds: float = 2 * SECONDS_PER_DAY
    train_forecaster: bool = False
    max_configurations: int = 8
    #: Forecaster look-back window in days; ``None`` keeps ``fit``'s default
    #: (2 days).  Short-window experiments must shrink it or the forecast
    #: dataset cannot produce a single training sample.
    forecast_input_days: Optional[float] = None
    #: Label period of the forecaster's history series in seconds; ``None``
    #: keeps ``fit``'s default (60 s).
    forecast_label_period_seconds: Optional[float] = None
    seed: int = 0

    @property
    def online_start(self) -> float:
        """Start of the online window (seconds since stream start)."""
        return self.history_days * SECONDS_PER_DAY

    @property
    def online_end(self) -> float:
        """End of the online window (seconds since stream start)."""
        return (self.history_days + self.online_days) * SECONDS_PER_DAY

    @property
    def online_hours(self) -> float:
        """Length of the online window in hours (cost accounting)."""
        return self.online_days * 24.0


@dataclass
class SystemBundle:
    """A fitted Skyscraper instance plus the setup it was fitted on.

    ``offline_report`` is the :class:`~repro.core.offline.OfflinePhaseReport`
    of the ``fit`` that produced the bundle; the figure-reproduction suite
    reads its stage-cache hits.
    """

    setup: WorkloadSetup
    config: ExperimentConfig
    skyscraper: Skyscraper
    offline_report: OfflinePhaseReport

    def reprovision(
        self,
        cores: int,
        cloud_budget_per_day: Optional[float] = None,
        buffer_bytes: Optional[int] = None,
    ) -> Skyscraper:
        """The fitted Skyscraper re-provisioned for different hardware.

        Overrides default to the bundle config's budget and buffer; profiles
        are re-derived for the new core count (see
        :meth:`~repro.core.skyscraper.Skyscraper.with_resources`).
        """
        budget = (
            self.config.cloud_budget_per_day
            if cloud_budget_per_day is None
            else cloud_budget_per_day
        )
        resources = SkyscraperResources(
            cores=cores,
            buffer_bytes=self.config.buffer_bytes if buffer_bytes is None else buffer_bytes,
            cloud_budget_per_day=budget,
        )
        return self.skyscraper.with_resources(resources)


def prepare_bundle(
    setup: WorkloadSetup,
    config: Optional[ExperimentConfig] = None,
    reference_cores: int = 8,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SystemBundle:
    """Run the offline phase once for a workload setup.

    With ``cache_dir`` set, ``fit`` persists every cacheable stage's artifact
    under ``cache_dir/stages`` and later calls resume from them: a repeated
    call re-evaluates nothing, and one that changes only a downstream
    parameter (say ``n_categories``) reuses the upstream stages.  ``fit``
    always runs, so its :class:`~repro.core.offline.OfflinePhaseReport`, with
    the per-stage cache hits, lands on ``SystemBundle.offline_report``.
    """
    config = config or ExperimentConfig(
        history_days=setup.history_days, online_days=setup.online_days
    )
    resources = SkyscraperResources(
        cores=reference_cores,
        buffer_bytes=config.buffer_bytes,
        cloud_budget_per_day=config.cloud_budget_per_day,
    )
    stage_cache_dir = (
        Path(cache_dir).expanduser() / "stages" if cache_dir is not None else None
    )
    skyscraper = Skyscraper(
        setup.workload,
        resources,
        n_categories=config.n_categories,
        switch_period_seconds=config.switch_period_seconds,
        planned_interval_seconds=config.planned_interval_seconds,
        seed=config.seed,
    )
    fit_overrides = {}
    if config.forecast_input_days is not None:
        fit_overrides["forecast_input_days"] = config.forecast_input_days
    if config.forecast_label_period_seconds is not None:
        fit_overrides["forecast_label_period_seconds"] = config.forecast_label_period_seconds
    report = skyscraper.fit(
        setup.source,
        unlabeled_days=config.history_days,
        train_forecaster=config.train_forecaster,
        max_configurations=config.max_configurations,
        stage_cache_dir=stage_cache_dir,
        **fit_overrides,
    )
    return SystemBundle(
        setup=setup, config=config, skyscraper=skyscraper, offline_report=report
    )


# --------------------------------------------------------------------- #
# Cost accounting (Section 5.3 / Table 2)
# --------------------------------------------------------------------- #
def provisioned_cost_dollars(
    machine: MachineType,
    hours: float,
    cloud_dollars: float,
    cost_model: Optional[CostModel] = None,
) -> float:
    """Total cost: GCP rental divided by the Appendix-L ratio plus cloud spend."""
    cost_model = cost_model or CostModel()
    return cost_model.provisioned_machine_dollars(machine, hours) + cloud_dollars


class ExperimentRunner:
    """Runs registered systems on a fitted bundle, one call per experiment.

    Args:
        bundle: the fitted workload bundle (see :func:`prepare_bundle`).

    Example::

        runner = ExperimentRunner(bundle)
        static = runner.run("static", cores=8)
        points = runner.sweep(["static", "chameleon*", "skyscraper"],
                              tiers=["e2-standard-4", "e2-standard-16"])
    """

    def __init__(self, bundle: SystemBundle):
        """Wrap a fitted bundle."""
        self.bundle = bundle

    # ------------------------------------------------------------------ #
    # Single runs
    # ------------------------------------------------------------------ #
    def context_for(
        self,
        system: str,
        cores: int,
        cloud_budget_per_day: Optional[float] = None,
        buffer_bytes: Optional[int] = None,
    ) -> RunContext:
        """The :class:`RunContext` a factory for ``system`` would receive.

        Systems whose registration says they do not use the cloud are
        re-provisioned with a zero cloud budget (the paper's comparison
        setup) unless an explicit ``cloud_budget_per_day`` overrides that.
        ``buffer_bytes`` overrides the bundle's buffer so policies plan
        against the buffer the run actually enforces.
        """
        spec = policy_spec(system)
        if cloud_budget_per_day is None:
            cloud_budget_per_day = (
                self.bundle.config.cloud_budget_per_day if spec.uses_cloud else 0.0
            )
        skyscraper = self.bundle.reprovision(cores, cloud_budget_per_day, buffer_bytes)
        return RunContext(
            bundle=self.bundle,
            skyscraper=skyscraper,
            resources=skyscraper.resources,
            seed=self.bundle.config.seed,
        )

    def run(
        self,
        system: str,
        cores: Optional[int] = None,
        tier: Optional[str] = None,
        *,
        keep_traces: bool = False,
        cloud_budget_per_day: Optional[float] = None,
        **policy_options,
    ) -> IngestionResult:
        """Run one system over the bundle's online window.

        Args:
            system: a registered policy name (see
                :func:`repro.registry.policy_names`).
            cores: on-premise core count; alternatively pass ``tier``.
            tier: machine-tier name resolved through the hardware catalogue.
            keep_traces: record per-segment traces in the result.
            cloud_budget_per_day: override the registry's cloud handling.
            policy_options: forwarded to the registered policy factory
                (e.g. ``configuration_index=`` for ``"static"``).
        """
        if (cores is None) == (tier is None):
            raise ConfigurationError("pass exactly one of cores= or tier=")
        if cores is None:
            cores = machine_for(tier).vcpus
        context = self.context_for(system, cores, cloud_budget_per_day)
        policy = create_policy(system, context, **policy_options)
        skyscraper = context.skyscraper
        engine = IngestionEngine(
            workload=self.bundle.setup.workload,
            source=self.bundle.setup.source,
            cluster=skyscraper.resources.cluster_spec(),
            cloud=skyscraper.cloud,
            buffer_capacity_bytes=skyscraper.resources.buffer_bytes,
            keep_traces=keep_traces,
        )
        return engine.run(
            policy, self.bundle.config.online_start, self.bundle.config.online_end
        )

    def run_point(self, system: str, tier: str, **policy_options) -> CostQualityPoint:
        """Run one (system, tier) experiment and report its cost-quality point."""
        spec = policy_spec(system)
        machine = machine_for(tier)
        result = self.run(system, cores=machine.vcpus, **policy_options)
        return CostQualityPoint(
            system=spec.name,
            machine=tier,
            vcpus=machine.vcpus,
            quality=result.weighted_quality,
            cloud_dollars=result.cloud_dollars,
            total_dollars=provisioned_cost_dollars(
                machine, self.bundle.config.online_hours, result.cloud_dollars
            ),
            crashed=result.overflowed,
        )

    # ------------------------------------------------------------------ #
    # Fleet runs (multi-stream ingestion on one shared cluster)
    # ------------------------------------------------------------------ #
    def run_fleet(
        self,
        system: str = "skyscraper",
        *,
        n_streams: Optional[int] = None,
        scheduler: Union[str, Scheduler] = "fifo",
        cores: Optional[int] = None,
        tier: Optional[str] = None,
        scenario: Optional[FleetScenario] = None,
        phase_shift_seconds: Optional[float] = None,
        heterogeneous: Optional[bool] = None,
        buffer_bytes: Optional[int] = None,
        keep_traces: bool = False,
        cloud_budget_per_day: Optional[float] = None,
        ledger: Optional[BudgetLedger] = None,
        tenant_ledgers: Optional[Dict[str, BudgetLedger]] = None,
        **policy_options,
    ) -> FleetResult:
        """Ingest a fleet of streams concurrently over the bundle's window.

        By default the bundle's stream is replicated across ``n_streams``
        (default 4) phase-shifted cameras (see
        :func:`repro.workloads.fleet.make_fleet_scenario`); pass ``scenario``
        for full control, including per-stream ``system`` overrides — but
        then the scenario *is* the fleet, so combining it with
        ``n_streams``/``phase_shift_seconds``/``heterogeneous`` is an error.
        Every stream gets its own policy instance resolved through the
        registry and re-provisioned for the buffer that stream actually has
        (``buffer_bytes`` sets the fleet-wide default, a scenario spec's
        ``buffer_bytes`` overrides per stream), so a policy's planner and
        switcher see the same buffer the engine enforces.  The fitted
        offline artifacts are shared, as is the cluster, the cloud's daily
        budget, and the scheduler's attention.

        ``policy_options`` are forwarded to the *default* system's policy
        factory only; streams whose scenario spec overrides ``system`` use
        that system's registry defaults.

        Note: offline replay systems (``"optimum"``, ``"idealized"``)
        precompute their assignment on the bundle's base camera (solved once
        per fleet) and replay it on every stream by segment index, so on
        shifted or re-seeded cameras they are approximations rather than
        true upper bounds.

        ``ledger`` forwards an external budget ledger to the engine (see
        :class:`~repro.core.fleet.FleetEngine`); the sharded ingestion
        service uses it to fund many engines from one shared daily budget.
        ``tenant_ledgers`` maps scenario tenant ids to per-tenant budget
        ledgers (a fleet plan's sub-budgets, see
        :mod:`repro.planning.allocation`); streams of a mapped tenant
        charge their tenant's ledger instead of the engine-wide one.
        """
        if (cores is None) == (tier is None):
            raise ConfigurationError("pass exactly one of cores= or tier=")
        if cores is None:
            cores = machine_for(tier).vcpus
        if scenario is None:
            scenario = make_fleet_scenario(
                self.bundle.setup,
                4 if n_streams is None else n_streams,
                phase_shift_seconds=(
                    3_600.0 if phase_shift_seconds is None else phase_shift_seconds
                ),
                heterogeneous=bool(heterogeneous),
            )
        elif not (n_streams is None and phase_shift_seconds is None and heterogeneous is None):
            raise ConfigurationError(
                "scenario= already defines the fleet; do not combine it with "
                "n_streams=, phase_shift_seconds= or heterogeneous="
            )
        if scenario.base.workload is not self.bundle.setup.workload:
            raise ConfigurationError(
                "the fleet scenario was built from a different workload setup "
                f"({scenario.base.workload.name!r}) than this runner's bundle "
                f"({self.bundle.setup.workload.name!r}); build it with "
                "make_fleet_scenario(runner.bundle.setup, ...) so streams are "
                "evaluated with the workload the bundle was fitted on"
            )

        contexts: Dict[Tuple[str, int], RunContext] = {}

        def context_of(system_name: str, stream_buffer: int) -> RunContext:
            """One shared context per (system, buffer) combination."""
            key = (policy_spec(system_name).name, stream_buffer)
            if key not in contexts:
                contexts[key] = self.context_for(
                    system_name, cores, cloud_budget_per_day, buffer_bytes=stream_buffer
                )
            return contexts[key]

        default_system = policy_spec(system).name
        replay_cache: Dict[Tuple[str, int], AssignmentReplayPolicy] = {}

        def policy_for(system_name: str, stream_buffer: int, context: RunContext):
            """A fresh policy instance for one stream of the fleet."""
            # ``policy_options`` configure the *default* system's policies;
            # per-stream override systems take their registry defaults (their
            # factories would reject foreign keyword options).
            canonical = policy_spec(system_name).name
            options = policy_options if canonical == default_system else {}
            key = (canonical, stream_buffer)
            cached = replay_cache.get(key)
            if cached is not None:
                # Offline replay systems solve one assignment per context;
                # re-wrap it per stream instead of re-solving the knapsack N
                # times for byte-identical results.
                return AssignmentReplayPolicy(
                    cached.name, cached.profiles, cached.assignment
                )
            policy = create_policy(system_name, context, **options)
            if isinstance(policy, AssignmentReplayPolicy):
                replay_cache[key] = policy
            return policy

        workload = self.bundle.setup.workload
        default_buffer = (
            self.bundle.config.buffer_bytes if buffer_bytes is None else buffer_bytes
        )
        stream_systems: List[str] = []
        streams: List[FleetStream] = []
        for spec in scenario.streams:
            stream_system = spec.system or system
            stream_systems.append(stream_system)
            stream_buffer = (
                spec.buffer_bytes if spec.buffer_bytes is not None else default_buffer
            )
            context = context_of(stream_system, stream_buffer)
            policy = policy_for(stream_system, stream_buffer, context)
            streams.append(
                FleetStream(
                    workload=workload,
                    source=spec.source,
                    policy=policy,
                    stream_id=spec.stream_id,
                    buffer_capacity_bytes=stream_buffer,
                    ledger=(
                        tenant_ledgers.get(spec.tenant)
                        if tenant_ledgers is not None
                        else None
                    ),
                )
            )

        # The fleet shares one cloud/ledger.  Provision it from a cloud-using
        # member if there is one, so a non-cloud *default* system (whose
        # context is re-provisioned with a zero budget) does not silently
        # starve a mixed fleet's cloud-using streams.
        engine_system = next(
            (name for name in stream_systems if policy_spec(name).uses_cloud), system
        )
        # Cluster and cloud specs do not depend on the buffer size, so any
        # already-built context for that system avoids an extra reprovision
        # (with_resources re-profiles every placement).
        engine_canonical = policy_spec(engine_system).name
        context = next(
            (ctx for (name, _), ctx in contexts.items() if name == engine_canonical),
            None,
        )
        if context is None:
            context = context_of(engine_system, default_buffer)
        engine = FleetEngine(
            cluster=context.skyscraper.resources.cluster_spec(),
            cloud=context.skyscraper.cloud,
            scheduler=scheduler,
            keep_traces=keep_traces,
            ledger=ledger,
        )
        return engine.run(
            streams, self.bundle.config.online_start, self.bundle.config.online_end
        )

    def sweep_fleet(
        self,
        system: str = "skyscraper",
        n_streams_list: Sequence[int] = (1, 4, 16),
        schedulers: Optional[Sequence[str]] = None,
        cores: Optional[int] = None,
        tier: Optional[str] = None,
        **fleet_options,
    ) -> List[FleetPoint]:
        """Fleet scaling sweep: every scheduler at every fleet size.

        Returns one :class:`FleetPoint` per (streams, scheduler) cell, in
        deterministic order, with the wall-clock time of each simulation
        recorded for the scaling benchmark.  Hardware defaults to 8 cores;
        pass ``cores=`` or ``tier=`` like :meth:`run`.  Schedulers must be
        registered *names* so every cell starts from a fresh instance —
        sharing one stateful instance across cells would leak state (e.g.
        the round-robin cursor) and make cells order-dependent; use
        :meth:`run_fleet` directly for a custom scheduler instance.
        """
        resolved = list(schedulers) if schedulers is not None else scheduler_names()
        for scheduler in resolved:
            if not isinstance(scheduler, str):
                raise ConfigurationError(
                    "sweep_fleet takes registered scheduler names (so each cell "
                    "gets a fresh instance); pass instances to run_fleet instead"
                )
        if cores is None and tier is None:
            cores = 8
        points: List[FleetPoint] = []
        for n_streams in n_streams_list:
            for scheduler in resolved:
                started = time.perf_counter()
                result = self.run_fleet(
                    system,
                    n_streams=n_streams,
                    scheduler=scheduler,
                    cores=cores,
                    tier=tier,
                    **fleet_options,
                )
                points.append(
                    fleet_point(
                        result,
                        system=policy_spec(system).name,
                        wall_seconds=time.perf_counter() - started,
                    )
                )
        return points

    # ------------------------------------------------------------------ #
    # Sweeps (Figure 4 / Table 2)
    # ------------------------------------------------------------------ #
    def sweep(
        self,
        systems: Sequence[str] = ("static", "chameleon*", "skyscraper"),
        tiers: Optional[Sequence[str]] = None,
        skyscraper_tiers: Optional[Sequence[str]] = None,
    ) -> List[CostQualityPoint]:
        """Every system on every machine tier (the Figure 4 sweep).

        Skyscraper is only run on the smaller tiers by default (as in
        Table 2, where it already reaches peak quality on 4-8 vCPUs).
        Points come back tier by tier, in ``systems`` order within a tier.
        """
        tiers = list(tiers) if tiers is not None else list(MACHINE_TIERS)
        skyscraper_tiers = (
            list(skyscraper_tiers) if skyscraper_tiers is not None else tiers[:2]
        )
        return [
            self.run_point(system, tier)
            for tier in tiers
            for system in systems
            if policy_spec(system).name != "skyscraper" or tier in skyscraper_tiers
        ]


def cost_reduction_factor(points: Sequence[CostQualityPoint]) -> Optional[float]:
    """Cheapest Skyscraper cost vs cheapest baseline cost at comparable quality.

    "Comparable" follows the paper's reading of Figure 4: the baseline must
    reach at least the quality Skyscraper achieves at its cheapest point
    (minus a small tolerance).  Returns ``None`` when no baseline point
    qualifies (the baseline never reaches Skyscraper's quality).
    """
    sky_points = [point for point in points if point.system == "skyscraper"]
    baseline_points = [
        point for point in points if point.system != "skyscraper" and not point.crashed
    ]
    if not sky_points or not baseline_points:
        return None
    best_sky = min(sky_points, key=lambda point: point.total_dollars)
    comparable = [
        point for point in baseline_points if point.quality >= best_sky.quality - 0.03
    ]
    if not comparable:
        return None
    cheapest_baseline = min(comparable, key=lambda point: point.total_dollars)
    if best_sky.total_dollars <= 0:
        return None
    return cheapest_baseline.total_dollars / best_sky.total_dollars
