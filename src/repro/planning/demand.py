"""Per-tenant demand curves and the joint planning problem.

The bridge between the Section 4.1 knob planner and the fleet-level
allocators: an allocation of ``(cores, cloud dollars/day)`` to a tenant is
worth exactly the expected quality its knob planner can buy with the
resulting per-stream, per-segment compute budget.  This module converts
allocations into budgets (the same arithmetic as
``Skyscraper.budget_core_seconds_per_segment``, but per tenant and with the
tenant's own cloud cost ratio), probes the tenant's quality at a grid of
candidate allocations, and packages everything into a
:class:`PlanningProblem` the solver ladder consumes.

Quality probing goes through a pluggable *quality model* so the solvers and
their tests run on synthetic concave curves without a fitted system, while
production planning uses :class:`PlannerQualityModel` — a memoized wrapper
around :class:`repro.core.planner.KnobPlanner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cost import CostModel
from repro.core.planner import KnobPlanner
from repro.core.profiles import ProfileSet
from repro.errors import ConfigurationError, PlanningError
from repro.planning.tenants import TenantSpec

SECONDS_PER_DAY = 86400.0

#: A quality model maps (tenant, per-stream per-segment core-second budget)
#: to expected quality, raising PlanningError when the budget is infeasible.
QualityModel = Callable[[TenantSpec, float], float]

#: Named core-split candidates shared by the demand grid and the knapsack
#: solver — using the same candidates on both sides is what makes the joint
#: LP a strict relaxation of every knapsack solution.
CORE_SPLIT_NAMES = ("proportional", "equal", "weighted")


def per_stream_budget(
    n_streams: int,
    cores: float,
    cloud_dollars_per_day: float,
    segment_seconds: float,
    utilization: float = 0.95,
    cost_ratio: Optional[float] = None,
    cost_model: Optional[CostModel] = None,
) -> float:
    """Per-stream, per-segment core-second budget of an allocation.

    Mirrors ``Skyscraper.budget_core_seconds_per_segment`` — on-premise
    cores contribute ``cores * segment_seconds * utilization`` core-seconds
    per segment, the daily cloud budget converts through the tenant's cost
    model and spreads over the day's segments — then divides by the
    tenant's stream count, since every stream plans against an equal share.
    """
    if n_streams < 1:
        raise ConfigurationError("n_streams must be >= 1")
    if segment_seconds <= 0:
        raise ConfigurationError("segment_seconds must be positive")
    if cores < 0 or cloud_dollars_per_day < 0:
        raise ConfigurationError("allocations must be non-negative")
    if cost_model is None:
        cost_model = CostModel() if cost_ratio is None else CostModel(cost_ratio)
    on_prem = cores * segment_seconds * utilization
    cloud = 0.0
    if cloud_dollars_per_day > 0:
        dollars_per_core_second = cost_model.cloud_work_dollars(1.0)
        segments_per_day = SECONDS_PER_DAY / segment_seconds
        cloud = cloud_dollars_per_day / dollars_per_core_second / segments_per_day
    return (on_prem + cloud) / n_streams


@dataclass(frozen=True)
class AllocationOption:
    """One candidate allocation for one tenant, priced by its quality.

    Attributes:
        cores: on-premise cores assigned to the tenant (fractional cores
            are fine — cores are time-shared by the fleet scheduler, so an
            allocation is a planning-time share, not a physical partition).
        cloud_dollars_per_day: share of the daily cloud budget.
        budget_core_seconds_per_segment: the per-stream per-segment budget
            the allocation buys (via :func:`per_stream_budget`).
        quality: expected quality of each of the tenant's streams at that
            budget, as priced by the quality model.
    """

    cores: float
    cloud_dollars_per_day: float
    budget_core_seconds_per_segment: float
    quality: float


@dataclass
class TenantDemand:
    """A tenant's feasible allocation options (its discretized demand curve)."""

    spec: TenantSpec
    options: List[AllocationOption] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """Whether the tenant has at least one feasible allocation option."""
        return bool(self.options)

    @property
    def best_quality(self) -> float:
        """Highest quality over the feasible options (-inf when none)."""
        if not self.options:
            return float("-inf")
        return max(option.quality for option in self.options)


class PlannerQualityModel:
    """Prices a tenant's quality through the Section 4.1 knob planner.

    Quality depends on an allocation only through the scalar per-stream
    budget, so probes memoize on ``(tenant_id, rounded budget)`` — the grid
    construction revisits the same budget through many core/dollar pairs and
    would otherwise re-solve identical LPs.
    """

    def __init__(
        self,
        profiles: ProfileSet,
        n_categories: int,
        default_forecast: Optional[Sequence[float]] = None,
        quality_matrix: Optional[np.ndarray] = None,
    ):
        self.planner = KnobPlanner(profiles, n_categories)
        if default_forecast is None:
            default = np.full(n_categories, 1.0 / n_categories)
        else:
            default = np.asarray(default_forecast, dtype=float)
            if default.shape != (n_categories,):
                raise ConfigurationError(
                    f"default_forecast must have {n_categories} entries, "
                    f"got {default.shape}"
                )
        self.default_forecast = default
        self.quality_matrix = quality_matrix
        self._cache: Dict[Tuple[str, float], float] = {}

    @classmethod
    def from_skyscraper(cls, skyscraper) -> "PlannerQualityModel":
        """Build from a fitted :class:`repro.core.skyscraper.Skyscraper`."""
        n_categories = int(skyscraper.categorizer.actual_categories)
        return cls(
            skyscraper.profiles,
            n_categories,
            default_forecast=skyscraper.report.initial_forecast,
        )

    def __call__(self, tenant: TenantSpec, budget: float) -> float:
        if budget <= 0:
            raise PlanningError(
                f"tenant {tenant.tenant_id!r}: per-stream budget must be "
                f"positive, got {budget:.6f}"
            )
        key = (tenant.tenant_id, round(budget, 9))
        if key in self._cache:
            return self._cache[key]
        forecast = (
            tenant.forecast if tenant.forecast is not None else self.default_forecast
        )
        plan = self.planner.plan(forecast, budget, quality_matrix=self.quality_matrix)
        quality = float(plan.expected_quality)
        self._cache[key] = quality
        return quality


@dataclass
class PlanningProblem:
    """Everything the solver ladder needs: tenants, resources, demands.

    Attributes:
        tenants: admitted (or to-be-admitted) tenant specs, in a stable
            order.
        cloud_budget_per_day: the shared daily cloud budget to split.
        cores: total on-premise cores to split (time-shared, so fractional
            per-tenant assignments are legal).
        segment_seconds: segment length of the underlying workload.
        utilization: planning headroom on on-premise cores (matches
            ``SkyscraperResources.utilization``).
        quality_model: callable pricing a tenant's per-stream budget.
        demands: per-tenant discretized demand curves over the candidate
            grid (core splits x budget levels), feasible options only.
        budget_levels: the absolute dollar levels of the candidate grid.
        core_splits: named per-tenant core assignments; each split's cores
            sum to ``cores`` across tenants.
    """

    tenants: List[TenantSpec]
    cloud_budget_per_day: float
    cores: float
    segment_seconds: float
    utilization: float
    quality_model: QualityModel
    demands: Dict[str, TenantDemand]
    budget_levels: Tuple[float, ...]
    core_splits: Dict[str, Dict[str, float]]

    @property
    def total_streams(self) -> int:
        """Streams across all tenants (the per-stream split denominator)."""
        return sum(spec.n_streams for spec in self.tenants)

    @property
    def total_weight(self) -> float:
        """Stream-weighted priority mass across all tenants."""
        return sum(spec.total_weight for spec in self.tenants)

    def tenant(self, tenant_id: str) -> TenantSpec:
        """Look up a tenant spec by id, raising on unknown tenants."""
        for spec in self.tenants:
            if spec.tenant_id == tenant_id:
                return spec
        raise ConfigurationError(f"unknown tenant {tenant_id!r}")

    def budget_for(
        self, spec: TenantSpec, cores: float, cloud_dollars_per_day: float
    ) -> float:
        """The per-stream budget an allocation buys for ``spec``."""
        return per_stream_budget(
            spec.n_streams,
            cores,
            cloud_dollars_per_day,
            self.segment_seconds,
            self.utilization,
            cost_ratio=spec.cost_ratio,
        )

    def quality_at(
        self, spec: TenantSpec, cores: float, cloud_dollars_per_day: float
    ) -> Optional[float]:
        """Quality of an arbitrary allocation, or ``None`` when infeasible."""
        budget = self.budget_for(spec, cores, cloud_dollars_per_day)
        try:
            return self.quality_model(spec, budget)
        except PlanningError:
            return None

    def option_at(
        self, spec: TenantSpec, cores: float, cloud_dollars_per_day: float
    ) -> Optional[AllocationOption]:
        """An :class:`AllocationOption` for an arbitrary allocation."""
        quality = self.quality_at(spec, cores, cloud_dollars_per_day)
        if quality is None:
            return None
        return AllocationOption(
            cores=cores,
            cloud_dollars_per_day=cloud_dollars_per_day,
            budget_core_seconds_per_segment=self.budget_for(
                spec, cores, cloud_dollars_per_day
            ),
            quality=quality,
        )

    def restricted(self, tenant_ids: Sequence[str]) -> "PlanningProblem":
        """The same problem over a subset of tenants (for admission)."""
        keep = set(tenant_ids)
        unknown = keep - {spec.tenant_id for spec in self.tenants}
        if unknown:
            raise ConfigurationError(f"unknown tenants {sorted(unknown)!r}")
        tenants = [spec for spec in self.tenants if spec.tenant_id in keep]
        if not tenants:
            raise ConfigurationError("restricted problem would have no tenants")
        return build_problem(
            tenants,
            self.quality_model,
            cloud_budget_per_day=self.cloud_budget_per_day,
            cores=self.cores,
            segment_seconds=self.segment_seconds,
            utilization=self.utilization,
            n_budget_levels=len(self.budget_levels),
        )


def _core_splits(
    tenants: Sequence[TenantSpec], cores: float
) -> Dict[str, Dict[str, float]]:
    """The named per-tenant core assignments; each sums to ``cores``."""
    total_streams = sum(spec.n_streams for spec in tenants)
    total_weight = sum(spec.total_weight for spec in tenants)
    splits: Dict[str, Dict[str, float]] = {
        "proportional": {
            spec.tenant_id: cores * spec.n_streams / total_streams
            for spec in tenants
        },
        "equal": {spec.tenant_id: cores / len(tenants) for spec in tenants},
        "weighted": {
            spec.tenant_id: cores * spec.total_weight / total_weight
            for spec in tenants
        },
    }
    return splits


def build_problem(
    tenants: Sequence[TenantSpec],
    quality_model: QualityModel,
    cloud_budget_per_day: float,
    cores: float,
    segment_seconds: float,
    utilization: float = 0.95,
    n_budget_levels: int = 5,
) -> PlanningProblem:
    """Assemble a :class:`PlanningProblem` by probing the quality model.

    The candidate grid crosses the named core splits (proportional, equal,
    weight-proportional — the same candidates the knapsack solver searches)
    with ``n_budget_levels`` evenly spaced dollar levels from 0 to the full
    budget.  Infeasible grid points (the knob planner cannot afford even its
    cheapest configuration) are dropped; a tenant whose every grid point is
    infeasible surfaces as an empty demand, which admission control turns
    into a rejection.
    """
    tenants = list(tenants)
    if not tenants:
        raise ConfigurationError("at least one tenant is required")
    seen = set()
    for spec in tenants:
        if spec.tenant_id in seen:
            raise ConfigurationError(f"duplicate tenant {spec.tenant_id!r}")
        seen.add(spec.tenant_id)
    if cloud_budget_per_day < 0:
        raise ConfigurationError("cloud_budget_per_day must be non-negative")
    if cores <= 0:
        raise ConfigurationError("cores must be positive")
    if segment_seconds <= 0:
        raise ConfigurationError("segment_seconds must be positive")
    if not 0 < utilization <= 1:
        raise ConfigurationError("utilization must be in (0, 1]")
    if n_budget_levels < 2:
        raise ConfigurationError("n_budget_levels must be at least 2")

    if cloud_budget_per_day > 0:
        budget_levels = tuple(
            cloud_budget_per_day * index / (n_budget_levels - 1)
            for index in range(n_budget_levels)
        )
    else:
        budget_levels = (0.0,)
    core_splits = _core_splits(tenants, cores)

    problem = PlanningProblem(
        tenants=tenants,
        cloud_budget_per_day=cloud_budget_per_day,
        cores=cores,
        segment_seconds=segment_seconds,
        utilization=utilization,
        quality_model=quality_model,
        demands={},
        budget_levels=budget_levels,
        core_splits=core_splits,
    )
    for spec in tenants:
        demand = TenantDemand(spec=spec)
        seen_points = set()
        for split in core_splits.values():
            tenant_cores = split[spec.tenant_id]
            for dollars in budget_levels:
                point = (round(tenant_cores, 9), round(dollars, 9))
                if point in seen_points:
                    continue
                seen_points.add(point)
                option = problem.option_at(spec, tenant_cores, dollars)
                if option is not None:
                    demand.options.append(option)
        problem.demands[spec.tenant_id] = demand
    return problem


def build_problem_from_skyscraper(
    skyscraper,
    tenants: Sequence[TenantSpec],
    cloud_budget_per_day: float,
    cores: float,
    segment_seconds: float,
    utilization: float = 0.95,
    n_budget_levels: int = 5,
) -> PlanningProblem:
    """A :class:`PlanningProblem` priced by a fitted Skyscraper's planner."""
    return build_problem(
        tenants,
        PlannerQualityModel.from_skyscraper(skyscraper),
        cloud_budget_per_day=cloud_budget_per_day,
        cores=cores,
        segment_seconds=segment_seconds,
        utilization=utilization,
        n_budget_levels=n_budget_levels,
    )


def derive_tenant_specs(
    stream_counts: Mapping[str, int],
    overrides: Optional[Mapping[str, TenantSpec]] = None,
) -> List[TenantSpec]:
    """Tenant specs from observed per-tenant stream counts.

    ``overrides`` (keyed by tenant id) contribute weight/SLO/cost-ratio/
    forecast; stream counts always come from the observed fleet, so a spec
    can never disagree with the scenario it governs.
    """
    overrides = dict(overrides or {})
    specs: List[TenantSpec] = []
    for tenant_id in sorted(stream_counts):
        count = stream_counts[tenant_id]
        base = overrides.get(tenant_id)
        if base is None:
            specs.append(TenantSpec(tenant_id=tenant_id, n_streams=count))
        else:
            specs.append(
                TenantSpec(
                    tenant_id=tenant_id,
                    n_streams=count,
                    weight=base.weight,
                    min_quality=base.min_quality,
                    cost_ratio=base.cost_ratio,
                    forecast=base.forecast,
                )
            )
    return specs
