"""Plan outputs and their runtime deployment as per-tenant sub-budgets.

A fleet planner returns a :class:`FleetPlan` — one :class:`BudgetAllocation`
per admitted tenant.  Deploying a plan means two things:

* the *cloud dollars* become hard caps, enforced by wrapping the fleet's
  shared daily ledger in one :class:`TenantSubLedger` per tenant: a charge
  must fit under both the tenant's cap and the fleet-wide budget, so no
  tenant can starve the others even when its streams misbehave;
* the *cores* stay a planning construct — the cluster is time-shared by the
  fleet scheduler, so a fractional core allocation expresses the share of
  on-premise compute the plan priced in, not a physical partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.fleet import BudgetLedger, DailyBudgetLedger
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BudgetAllocation:
    """One tenant's slice of the fleet resources.

    Attributes:
        tenant_id: the tenant this allocation belongs to.
        cores: on-premise core share (fractional; time-shared).
        cloud_dollars_per_day: daily cloud spending cap.
        budget_core_seconds_per_segment: the per-stream per-segment budget
            the allocation buys (what each stream's knob planner plans to).
        expected_quality: expected per-stream quality at that budget.
    """

    tenant_id: str
    cores: float
    cloud_dollars_per_day: float
    budget_core_seconds_per_segment: float
    expected_quality: float

    def __post_init__(self) -> None:
        if self.cores < 0 or self.cloud_dollars_per_day < 0:
            raise ConfigurationError(
                f"allocation for {self.tenant_id!r} must be non-negative"
            )


@dataclass
class FleetPlan:
    """The output of one fleet planner run.

    Attributes:
        planner: registry name of the planner that produced the plan.
        allocations: per-tenant allocations, keyed by tenant id.
        objective: stream-weighted mean expected quality over the admitted
            tenants (``sum(w_t * n_t * q_t) / sum(w_t * n_t)``) — the common
            yardstick across the solver ladder.
        cloud_budget_per_day: the budget the plan was solved against.
        cores: the core capacity the plan was solved against.
        rejected: tenants refused at admission, mapped to the reason.
    """

    planner: str
    allocations: Dict[str, BudgetAllocation]
    objective: float
    cloud_budget_per_day: float
    cores: float
    rejected: Dict[str, str] = field(default_factory=dict)

    @property
    def total_cloud_dollars(self) -> float:
        """Daily cloud dollars committed across all allocations."""
        return sum(a.cloud_dollars_per_day for a in self.allocations.values())

    @property
    def total_cores(self) -> float:
        """On-premise cores committed across all allocations."""
        return sum(a.cores for a in self.allocations.values())

    def allocation(self, tenant_id: str) -> BudgetAllocation:
        """The tenant's allocation, raising if the plan does not cover it."""
        allocation = self.allocations.get(tenant_id)
        if allocation is None:
            raise ConfigurationError(f"plan has no allocation for {tenant_id!r}")
        return allocation

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary (reports, BENCH payloads, figures)."""
        return {
            "planner": self.planner,
            "objective": self.objective,
            "cloud_budget_per_day": self.cloud_budget_per_day,
            "cores": self.cores,
            "total_cloud_dollars": self.total_cloud_dollars,
            "total_cores": self.total_cores,
            "allocations": {
                tenant_id: {
                    "cores": allocation.cores,
                    "cloud_dollars_per_day": allocation.cloud_dollars_per_day,
                    "budget_core_seconds_per_segment": (
                        allocation.budget_core_seconds_per_segment
                    ),
                    "expected_quality": allocation.expected_quality,
                }
                for tenant_id, allocation in sorted(self.allocations.items())
            },
            "rejected": dict(sorted(self.rejected.items())),
        }


class TenantSubLedger:
    """A tenant-capped view of the fleet's shared daily budget ledger.

    A :class:`repro.core.fleet.BudgetLedger` itself, so it drops straight
    into ``FleetStream.ledger``.  ``remaining`` is the minimum of
    the tenant's unspent cap and the parent's unspent budget; ``charge``
    records the spend in both, so per-tenant accounting and the fleet-wide
    total stay consistent.

    The per-tenant tracker defaults to a process-local
    :class:`DailyBudgetLedger`; pass a
    :class:`repro.service.ledger.SharedDailyLedger` as ``tracker`` when the
    tenant's streams drain on several worker processes.
    """

    def __init__(
        self,
        parent: BudgetLedger,
        daily_cap_dollars: float,
        tracker: Optional[BudgetLedger] = None,
    ):
        if daily_cap_dollars < 0:
            raise ConfigurationError("daily_cap_dollars must be non-negative")
        self.parent = parent
        self.daily_cap_dollars = daily_cap_dollars
        self.tracker: BudgetLedger = (
            tracker if tracker is not None else DailyBudgetLedger(daily_cap_dollars)
        )

    def remaining(self, time: float) -> float:
        """Unspent dollars at ``time``: min of the tenant cap and the parent."""
        return min(self.tracker.remaining(time), self.parent.remaining(time))

    def charge(self, time: float, dollars: float) -> None:
        """Record a spend against both the parent and the tenant tracker."""
        # Reject before either ledger is touched, so a bad charge never
        # lands in one and not the other.  The parent goes first: a shared
        # parent also rejects a day outside its horizon, which the default
        # process-local tracker would accept.
        if dollars < 0:
            raise ConfigurationError("cannot charge negative dollars")
        self.parent.charge(time, dollars)
        self.tracker.charge(time, dollars)

    def spent_on(self, time: float) -> float:
        """The tenant's spend on the day containing ``time``."""
        return self.tracker.spent_on(time)

    @property
    def spend_by_day(self) -> Dict[int, float]:
        """The tenant's spend per day index (from the tenant tracker)."""
        return self.tracker.spend_by_day

    @property
    def total_dollars(self) -> float:
        """The tenant's total spend across all days."""
        return self.tracker.total_dollars


def build_tenant_ledgers(
    plan: FleetPlan,
    parent: BudgetLedger,
    tracker_factory: Optional[Callable[[float], BudgetLedger]] = None,
) -> Dict[str, TenantSubLedger]:
    """One :class:`TenantSubLedger` per allocation in ``plan``.

    ``tracker_factory`` builds the per-tenant spend tracker from the
    tenant's daily cap (defaults to a process-local
    :class:`DailyBudgetLedger`; the ingestion service passes a factory that
    builds shared-memory ledgers instead).
    """
    ledgers: Dict[str, TenantSubLedger] = {}
    for tenant_id, allocation in plan.allocations.items():
        tracker = (
            tracker_factory(allocation.cloud_dollars_per_day)
            if tracker_factory is not None
            else None
        )
        ledgers[tenant_id] = TenantSubLedger(
            parent, allocation.cloud_dollars_per_day, tracker=tracker
        )
    return ledgers


def allocations_from_choices(
    planner: str,
    problem,
    chosen: Dict[str, Any],
) -> FleetPlan:
    """Assemble a :class:`FleetPlan` from per-tenant chosen options.

    ``chosen`` maps tenant id to an object with ``cores``,
    ``cloud_dollars_per_day``, ``budget_core_seconds_per_segment`` and
    ``quality`` attributes (an :class:`repro.planning.demand.AllocationOption`).
    """
    allocations: Dict[str, BudgetAllocation] = {}
    objective_mass = 0.0
    for spec in problem.tenants:
        option = chosen.get(spec.tenant_id)
        if option is None:
            raise ConfigurationError(
                f"planner {planner!r} produced no allocation for "
                f"{spec.tenant_id!r}"
            )
        allocations[spec.tenant_id] = BudgetAllocation(
            tenant_id=spec.tenant_id,
            cores=option.cores,
            cloud_dollars_per_day=option.cloud_dollars_per_day,
            budget_core_seconds_per_segment=(
                option.budget_core_seconds_per_segment
            ),
            expected_quality=option.quality,
        )
        objective_mass += spec.total_weight * option.quality
    objective = objective_mass / problem.total_weight
    return FleetPlan(
        planner=planner,
        allocations=allocations,
        objective=objective,
        cloud_budget_per_day=problem.cloud_budget_per_day,
        cores=problem.cores,
    )
