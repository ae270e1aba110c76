"""The direct joint-planning benchmark's budget-saving probe."""

from __future__ import annotations

import pytest

import benchmarks.bench_joint_planning as bench
from repro.errors import PlanningError


def test_probe_propagates_unexpected_errors(monkeypatch):
    def broken(problem, planner="lp"):
        raise RuntimeError("bug in the planner")

    monkeypatch.setattr(bench, "plan_fleet", broken)
    with pytest.raises(RuntimeError, match="bug in the planner"):
        bench.run_planning_bench(2, smoke=True)


def test_infeasible_first_cut_means_no_saving(monkeypatch):
    calls = []

    def infeasible(problem, planner="lp"):
        calls.append(problem)
        raise PlanningError("no feasible plan at this budget")

    monkeypatch.setattr(bench, "plan_fleet", infeasible)
    result = bench.run_planning_bench(2, smoke=True)
    assert len(calls) == 1
    assert result["budget_saving_pct"] == 0.0
