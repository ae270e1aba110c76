"""Tests of plan outputs and per-tenant sub-ledgers."""

from __future__ import annotations

import pytest

from repro.core.fleet import DailyBudgetLedger
from repro.errors import ConfigurationError
from repro.planning import (
    BudgetAllocation,
    FleetPlan,
    TenantSubLedger,
    build_tenant_ledgers,
)
from repro.service.ledger import SharedDailyLedger

DAY = 86400.0


def make_plan(caps):
    allocations = {
        tenant_id: BudgetAllocation(
            tenant_id=tenant_id,
            cores=1.0,
            cloud_dollars_per_day=cap,
            budget_core_seconds_per_segment=4.0,
            expected_quality=0.9,
        )
        for tenant_id, cap in caps.items()
    }
    return FleetPlan(
        planner="lp",
        allocations=allocations,
        objective=0.9,
        cloud_budget_per_day=sum(caps.values()),
        cores=float(len(caps)),
    )


def test_sub_ledger_caps_at_the_tenant_and_the_parent():
    parent = DailyBudgetLedger(3.0)
    sub = TenantSubLedger(parent, daily_cap_dollars=2.0)
    assert sub.remaining(0.0) == pytest.approx(2.0)
    sub.charge(0.0, 1.5)
    assert sub.remaining(0.0) == pytest.approx(0.5)
    # A sibling's spend shrinks the parent; the min() must reflect it.
    parent.charge(0.0, 1.4)
    assert sub.remaining(0.0) == pytest.approx(0.1)
    assert sub.total_dollars == pytest.approx(1.5)
    assert parent.total_dollars == pytest.approx(2.9)


def test_sub_ledger_resets_with_the_day():
    parent = DailyBudgetLedger(10.0)
    sub = TenantSubLedger(parent, daily_cap_dollars=1.0)
    sub.charge(0.0, 1.0)
    assert sub.remaining(0.0) == pytest.approx(0.0)
    assert sub.remaining(DAY + 1.0) == pytest.approx(1.0)
    assert sub.spent_on(0.0) == pytest.approx(1.0)
    assert sub.spend_by_day == {0: pytest.approx(1.0)}


def test_charge_outside_the_parent_horizon_changes_neither_ledger():
    parent = SharedDailyLedger(10.0, base_day=0, horizon_days=2)
    sub = TenantSubLedger(parent, daily_cap_dollars=2.0)
    with pytest.raises(ConfigurationError, match="horizon"):
        sub.charge(5 * DAY, 1.0)
    assert sub.spend_by_day == {}
    assert parent.spend_by_day == {}


def test_negative_cap_is_rejected():
    with pytest.raises(ConfigurationError):
        TenantSubLedger(DailyBudgetLedger(1.0), daily_cap_dollars=-0.1)
    with pytest.raises(ConfigurationError):
        BudgetAllocation(
            tenant_id="x",
            cores=-1.0,
            cloud_dollars_per_day=0.0,
            budget_core_seconds_per_segment=1.0,
            expected_quality=0.5,
        )


def test_build_tenant_ledgers_share_one_parent():
    parent = DailyBudgetLedger(3.0)
    ledgers = build_tenant_ledgers(make_plan({"a": 2.0, "b": 1.0}), parent)
    assert set(ledgers) == {"a", "b"}
    ledgers["a"].charge(0.0, 2.0)
    # Tenant b still has its own cap, but the parent limits it further.
    assert ledgers["b"].remaining(0.0) == pytest.approx(1.0)
    ledgers["b"].charge(0.0, 1.0)
    assert parent.remaining(0.0) == pytest.approx(0.0)
    assert ledgers["a"].total_dollars == pytest.approx(2.0)
    assert ledgers["b"].total_dollars == pytest.approx(1.0)


def test_build_tenant_ledgers_accepts_a_tracker_factory():
    parent = DailyBudgetLedger(4.0)
    made = []

    def factory(cap):
        tracker = DailyBudgetLedger(cap)
        made.append((cap, tracker))
        return tracker

    ledgers = build_tenant_ledgers(
        make_plan({"a": 3.0, "b": 1.0}), parent, tracker_factory=factory
    )
    assert sorted(cap for cap, _ in made) == [1.0, 3.0]
    assert ledgers["a"].tracker is dict(made)[3.0]


def test_fleet_plan_accessors_and_dict():
    plan = make_plan({"a": 2.0, "b": 1.0})
    plan.rejected = {"c": "SLO unreachable"}
    assert plan.total_cloud_dollars == pytest.approx(3.0)
    assert plan.total_cores == pytest.approx(2.0)
    assert plan.allocation("a").cloud_dollars_per_day == pytest.approx(2.0)
    with pytest.raises(ConfigurationError):
        plan.allocation("nope")
    summary = plan.as_dict()
    assert summary["planner"] == "lp"
    assert summary["rejected"] == {"c": "SLO unreachable"}
    assert set(summary["allocations"]) == {"a", "b"}
