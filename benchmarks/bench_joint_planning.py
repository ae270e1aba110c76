"""Joint fleet-planning ladder at an arbitrary tenant count.

``--tenants N`` runs the planning ladder (per-stream split -> greedy ->
knapsack -> LP) directly at an arbitrary tenant count: it times every rung,
verifies the ladder stays monotone, and measures the *budget saving* — the
largest budget cut (in 5% steps) at which the joint LP still matches the
per-stream split at the full budget.  ``--append-trajectory`` records the
result as one point in the cross-PR trajectory file
``benchmarks/BENCH_joint_planning.json``.

Run standalone::

    PYTHONPATH=src:. python -m benchmarks.bench_joint_planning \
        --tenants 12 [--append-trajectory --label pr7]

The figure-scale ladder, with admission control over a heterogeneous
roster, is the registered spec ``fleet_joint_planning``::

    PYTHONPATH=src python -m repro.figures run --only fleet_joint_planning
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.common import append_trajectory, emit_bench, print_header

from repro.errors import PlanningError
from repro.experiments.results import ExperimentTable
from repro.figures.context import BundleProvider
from repro.planning import (
    AdmissionController,
    TenantSpec,
    build_problem_from_skyscraper,
    make_planner,
    plan_fleet,
)

#: Cross-PR trajectory: one point appended per measured milestone.
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_joint_planning.json"

#: Budget cuts probed for the saving measurement, in ascending severity.
SAVING_STEPS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def make_roster(n_tenants: int) -> List[TenantSpec]:
    """A heterogeneous tenant roster of ``n_tenants`` (no SLO rejects).

    Weights, stream counts and cloud cost ratios cycle so the mix stays
    heterogeneous at every size — the regime where joint planning beats a
    proportional per-stream split.
    """
    weights = (4.0, 1.0, 0.25)
    streams = (2, 3)
    ratios = (1.8, 2.5)
    return [
        TenantSpec(
            f"tenant-{index:02d}",
            n_streams=streams[index % len(streams)],
            weight=weights[index % len(weights)],
            cost_ratio=ratios[index % len(ratios)],
        )
        for index in range(n_tenants)
    ]


def run_planning_bench(
    n_tenants: int,
    budget: Optional[float] = None,
    cores: Optional[int] = None,
    smoke: bool = False,
) -> Dict[str, Any]:
    """The direct (non-figure) ladder run at an arbitrary tenant count.

    Budget and cores default to the figure's per-stream density ($1/day
    and half a core per stream) so the problem stays comparably tight at
    every fleet size instead of starving large rosters.
    """
    provider = BundleProvider(smoke=smoke)
    bundle = provider.bundle("ev")
    segment_seconds = bundle.setup.source.segment_seconds
    tenants = make_roster(n_tenants)
    total_streams = sum(spec.n_streams for spec in tenants)
    if budget is None:
        budget = float(total_streams)
    if cores is None:
        cores = max(1, total_streams // 2)

    # Budget levels span the *shared* budget, so the grid must refine with
    # the roster or per-tenant shares fall between candidate levels.
    n_levels = max(9, 2 * n_tenants + 1)

    def build(cloud_budget: float):
        return build_problem_from_skyscraper(
            bundle.skyscraper,
            tenants,
            cloud_budget_per_day=cloud_budget,
            cores=cores,
            segment_seconds=segment_seconds,
            n_budget_levels=n_levels,
        )

    problem = build(budget)
    admitted = AdmissionController(problem).admitted()
    sub = problem.restricted([spec.tenant_id for spec in admitted])
    rows: List[Dict[str, Any]] = []
    objectives: Dict[str, float] = {}
    for name in ("per_stream", "greedy", "knapsack", "lp"):
        started = time.perf_counter()
        plan = make_planner(name).plan(sub)
        solve_ms = (time.perf_counter() - started) * 1000.0
        objectives[name] = plan.objective
        rows.append(
            {
                "planner": name,
                "tenants": len(admitted),
                "objective": round(plan.objective, 6),
                "cloud_dollars_per_day": round(plan.total_cloud_dollars, 4),
                "solve_ms": round(solve_ms, 2),
            }
        )

    # The saving: deepest probed cut at which lp still matches per_stream@B.
    saving = 0.0
    for cut in SAVING_STEPS:
        try:
            reduced = plan_fleet(build((1.0 - cut) * budget), "lp")
        except PlanningError:
            break
        if reduced.objective + 1e-6 < objectives["per_stream"]:
            break
        saving = cut
    monotone = (
        objectives["greedy"] <= objectives["knapsack"] + 1e-9
        and objectives["knapsack"] <= objectives["lp"] + 1e-9
    )
    return {
        "tenants": n_tenants,
        "budget": budget,
        "cores": cores,
        "rows": rows,
        "budget_saving_pct": round(100.0 * saving, 1),
        "ladder_monotone": monotone,
    }


def print_planning_bench(result: Dict[str, Any]) -> None:
    """Human-readable tables for one direct ladder run."""
    print_header(
        f"Joint fleet planning: {result['tenants']} tenants, "
        f"${result['budget']:.2f}/day, {result['cores']} cores",
        "Section 4.1 planner, multi-tenant (beyond the paper)",
    )
    table = ExperimentTable("solver ladder")
    for row in result["rows"]:
        table.add_row(**row)
    table.add_note(
        f"joint LP matches per-stream quality at "
        f"{result['budget_saving_pct']:.0f}% less budget"
    )
    print(table.render())


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--tenants", type=int, required=True, help="tenant count of the ladder run"
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="shared daily cloud budget (default: $1/day per stream)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="shared on-prem cores (default: half a core per stream)",
    )
    parser.add_argument(
        "--append-trajectory",
        action="store_true",
        help="record the run in benchmarks/BENCH_joint_planning.json",
    )
    parser.add_argument("--label", default="local", help="trajectory point label")
    parser.add_argument("--date", default="", help="trajectory point date")
    args = parser.parse_args(argv)
    result = run_planning_bench(
        args.tenants, budget=args.budget, cores=args.cores, smoke=args.smoke
    )
    print_planning_bench(result)
    ok = result["ladder_monotone"] and result["budget_saving_pct"] >= 10.0
    emit_bench(
        {
            "benchmark": "fleet_joint_planning_direct",
            "mode": "smoke" if args.smoke else "full",
            "status": "ok" if ok else "error",
            **result,
        }
    )
    if args.append_trajectory:
        point = {"label": args.label, "date": args.date, **result}
        append_trajectory(TRAJECTORY_PATH, "fleet_joint_planning", point)
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
