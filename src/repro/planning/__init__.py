"""Fleet-level joint planning: one budget, one cluster, many tenants.

The paper's knob planner (Section 4.1) optimizes each stream in isolation
against a fixed per-stream budget.  This package lifts that decision one
level up: given heterogeneous *tenants* — different stream counts, quality
weights, cloud cost ratios, forecasts and quality SLOs — it partitions the
shared daily cloud budget and the on-premise cores across them so the
fleet-wide weighted quality is maximized, the multi-tenant analogue of the
Appendix D joint plan.

The pieces, bottom to top:

* :mod:`repro.planning.tenants` — :class:`TenantSpec`, the declarative
  description of one tenant;
* :mod:`repro.planning.demand` — per-tenant quality-vs-budget demand curves
  probed through the Section 4.1 knob planner, assembled into a
  :class:`PlanningProblem`;
* :mod:`repro.planning.solvers` — the :class:`FleetPlanner` protocol and the
  solver ladder (``per_stream`` baseline → ``greedy`` marginal utility →
  ``knapsack`` → joint ``lp``), each rung at least as good as the one below;
* :mod:`repro.planning.allocation` — :class:`BudgetAllocation` /
  :class:`FleetPlan` outputs and the :class:`TenantSubLedger` that deploys a
  tenant's allocation as a capped sub-budget of the fleet's shared ledger;
* :mod:`repro.planning.admission` — SLO admission control: a tenant whose
  SLO is unreachable at *any* feasible allocation is rejected at submit
  time with a classified, non-retryable error.
"""

from repro.planning.admission import AdmissionController, SloAdmissionError
from repro.planning.allocation import (
    BudgetAllocation,
    FleetPlan,
    TenantSubLedger,
    build_tenant_ledgers,
)
from repro.planning.demand import (
    AllocationOption,
    PlannerQualityModel,
    PlanningProblem,
    TenantDemand,
    build_problem,
    build_problem_from_skyscraper,
    per_stream_budget,
)
from repro.planning.solvers import (
    FleetPlanner,
    make_planner,
    plan_fleet,
    planner_names,
    register_planner,
    solve_ladder,
)
from repro.planning.tenants import TenantSpec

__all__ = [
    "AdmissionController",
    "AllocationOption",
    "BudgetAllocation",
    "FleetPlan",
    "FleetPlanner",
    "PlannerQualityModel",
    "PlanningProblem",
    "SloAdmissionError",
    "TenantDemand",
    "TenantSpec",
    "TenantSubLedger",
    "build_problem",
    "build_problem_from_skyscraper",
    "build_tenant_ledgers",
    "make_planner",
    "per_stream_budget",
    "plan_fleet",
    "planner_names",
    "register_planner",
    "solve_ladder",
]
