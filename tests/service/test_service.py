"""End-to-end tests of the sharded fleet ingestion service.

These spawn real worker processes against the tiny session bundle: the
happy path, the retry/dead-letter lifecycle (via injected faults), operator
requeueing, and SIGKILL crash recovery with budget conservation.
"""

from __future__ import annotations

import multiprocessing
import time
from unittest.mock import ANY

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    FleetIngestionService,
    RetryPolicy,
    ServiceConfig,
    SharedDailyLedger,
)
from repro.service.jobs import DEAD_LETTER, QUEUED, RUNNING, SUCCESS
from repro.workloads.fleet import make_fleet_scenario

FAST_RETRY = RetryPolicy(max_retries=2, base_delay_seconds=0.01)


def make_service(bundle, n_shards=2, **config_overrides) -> FleetIngestionService:
    config = ServiceConfig(
        n_shards=n_shards,
        retry=config_overrides.pop("retry", FAST_RETRY),
        **config_overrides,
    )
    return FleetIngestionService(bundle, config)


def stream_ids(service, count):
    return service.scenario.stream_ids()[:count]


# --------------------------------------------------------------------- #
# Happy path
# --------------------------------------------------------------------- #
def test_fleet_drains_to_success_across_shards(service_bundle):
    service = make_service(service_bundle, n_shards=2, collect_lags=True)
    jobs = service.submit_fleet(n_streams=6, tenants=["acme", "globex"])
    assert len(jobs) == 6
    assert {job.tenant_id for job in jobs} == {"acme", "globex"}

    report = service.run()
    assert report.counts[SUCCESS] == 6
    assert report.counts[DEAD_LETTER] == 0
    assert report.segments_total > 0
    assert report.drop_rate == 0.0
    assert 0.0 < report.jain_fairness <= 1.0
    assert len(report.shard_stats) == 2
    # Both shards actually worked: the ring splits 6 streams across 2 shards.
    assert all(stats.batches >= 1 for stats in report.shard_stats)
    for job in service.store.list():
        assert job.status == SUCCESS
        assert job.metrics["segments_total"] > 0
        assert [entry[1] for entry in job.history][:2] == [QUEUED, RUNNING]


def test_retry_policy_backoff_grows_and_jitters():
    policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=1.0)
    d1 = policy.backoff_seconds(1, key="job-a")
    d2 = policy.backoff_seconds(2, key="job-a")
    d4 = policy.backoff_seconds(4, key="job-a")
    assert 0.1 <= d1 <= 0.125
    assert 0.2 <= d2 <= 0.25
    assert d4 <= 1.0 * 1.25  # capped
    # Deterministic per (job, retry); different jobs de-synchronize.
    assert d1 == policy.backoff_seconds(1, key="job-a")
    assert d1 != policy.backoff_seconds(1, key="job-b")
    with pytest.raises(ConfigurationError, match="1-based"):
        policy.backoff_seconds(0)


# --------------------------------------------------------------------- #
# Retries and the dead-letter queue
# --------------------------------------------------------------------- #
def test_injected_fault_is_retried_to_success(service_bundle):
    service = make_service(service_bundle, n_shards=1)
    scenario = make_fleet_scenario(service_bundle.setup, 3)
    flaky = scenario.stream_ids()[0]
    service.submit_fleet(scenario=scenario, inject_failures={flaky: 1})
    report = service.run()
    assert report.counts[SUCCESS] == 3
    job = next(j for j in service.store.list() if j.stream_id == flaky)
    assert job.retry_count == 1
    assert job.attempts == 2
    assert job.error_code is None  # cleared on success


def test_retry_exhaustion_dead_letters_with_classification(service_bundle):
    service = make_service(service_bundle, n_shards=1)
    scenario = make_fleet_scenario(service_bundle.setup, 2)
    doomed = scenario.stream_ids()[1]
    service.submit_fleet(scenario=scenario, inject_failures={doomed: 99})
    report = service.run()
    assert report.counts[SUCCESS] == 1
    assert report.counts[DEAD_LETTER] == 1
    assert report.dead_letter[0]["stream_id"] == doomed
    assert report.dead_letter[0]["error_code"] == "injected"
    job = next(j for j in service.store.list() if j.stream_id == doomed)
    assert job.status == DEAD_LETTER
    assert job.retry_count == FAST_RETRY.max_retries
    assert job.attempts == FAST_RETRY.max_retries + 1  # first try + retries


def test_requeue_from_dlq_resets_and_redrains(service_bundle):
    service = make_service(service_bundle, n_shards=1)
    scenario = make_fleet_scenario(service_bundle.setup, 2)
    doomed = scenario.stream_ids()[0]
    service.submit_fleet(scenario=scenario, inject_failures={doomed: 99})
    report = service.run()
    assert report.counts[DEAD_LETTER] == 1

    job_id = report.dead_letter[0]["job_id"]
    job = service.store.get(job_id)
    job.inject_failures = 0  # the operator fixed the cause
    service.store.update(job)
    requeued = service.dispatcher.requeue_from_dlq(job_id, now=time.time())
    assert requeued.retry_count == 0 and requeued.status == QUEUED

    report2 = service.run()
    assert report2.counts[SUCCESS] == 2
    assert report2.counts[DEAD_LETTER] == 0


def test_submission_validation(service_bundle):
    service = make_service(service_bundle)
    with pytest.raises(ConfigurationError, match="exactly one"):
        service.submit_fleet()
    with pytest.raises(ConfigurationError, match="unknown streams"):
        service.submit_fleet(n_streams=2, inject_failures={"no-such-stream": 1})
    service2 = make_service(service_bundle)
    empty = service2.run()  # nothing submitted: an empty report, not an error
    assert empty.counts[SUCCESS] == 0 and empty.wall_seconds == 0.0
    service2.dispatcher.submit(stream_id="cam-00")
    with pytest.raises(ConfigurationError, match="scenario"):
        service2.run()  # jobs exist but no scenario was attached


@pytest.mark.parametrize(
    "attempt,message",
    [
        pytest.param(lambda s: s.run(crash_shard=2), "not a shard", id="crash_shard_past_last"),
        pytest.param(lambda s: s.run(crash_shard=-1), "not a shard", id="negative_crash_shard"),
        pytest.param(
            lambda s: s.run(crash_shard=1, crash_on_batch=0), "1-based", id="crash_on_batch_0"
        ),
        pytest.param(
            lambda s: RetryPolicy(max_retries=-1), "max_retries", id="negative_policy_retries"
        ),
        pytest.param(
            lambda s: s.submit_fleet(n_streams=2, max_retries=-1),
            "max_retries",
            id="negative_job_retries",
        ),
    ],
)
def test_inputs_that_cannot_take_effect_are_rejected(service_bundle, attempt, message):
    """A crash that could never be injected, or a negative retry bound, is a
    configuration error raised before any worker starts or job changes."""
    service = make_service(service_bundle, n_shards=2)
    service.submit_fleet(n_streams=2)
    children = multiprocessing.active_children()
    with pytest.raises(ConfigurationError, match=message):
        attempt(service)
    assert multiprocessing.active_children() == children
    assert [job.history for job in service.store.list()] == [[[ANY, QUEUED, "submitted"]]] * 2


# --------------------------------------------------------------------- #
# Crash recovery (SIGKILL fault injection)
# --------------------------------------------------------------------- #
def test_killed_worker_jobs_recover_on_survivors(service_bundle):
    service = make_service(
        service_bundle,
        n_shards=2,
        retry=RetryPolicy(max_retries=3, base_delay_seconds=0.01),
    )
    service.submit_fleet(n_streams=8)
    report = service.run(crash_shard=0, crash_on_batch=1)

    assert report.crashed_shards == [0]
    # worker_crash is retryable: every job still drains to success.
    assert report.counts[SUCCESS] == 8
    assert report.counts[DEAD_LETTER] == 0
    crashed_jobs = [
        job
        for job in service.store.list()
        if any("worker_crash" in (entry[2] or "") for entry in job.history)
    ]
    assert crashed_jobs, "the killed shard had jobs in flight"
    for job in crashed_jobs:
        assert job.status == SUCCESS
        assert job.retry_count >= 1
    # Budget accounting survived the crash: the ledger is parent-owned
    # shared memory, so the day buckets still sum to the recorded total.
    assert sum(service.ledger.spend_by_day.values()) == pytest.approx(
        service.ledger.total_dollars
    )


def test_crash_with_exhausted_retries_dead_letters(service_bundle):
    # max_retries=0: the first worker_crash failure dead-letters the job.
    service = make_service(
        service_bundle,
        n_shards=2,
        retry=RetryPolicy(max_retries=0, base_delay_seconds=0.01),
    )
    service.submit_fleet(n_streams=8)
    report = service.run(crash_shard=1, crash_on_batch=1)
    assert report.crashed_shards == [1]
    assert report.counts[SUCCESS] + report.counts[DEAD_LETTER] == 8
    assert report.counts[DEAD_LETTER] >= 1
    for entry in report.dead_letter:
        assert entry["error_code"] == "worker_crash"


def test_stale_running_jobs_get_a_fresh_lease(service_bundle):
    # Simulate a previous service process that died mid-flight: the store
    # holds RUNNING jobs nobody is executing.
    service = make_service(service_bundle, n_shards=1)
    service.submit_fleet(n_streams=2)
    stale = service.store.list()[0]
    stale.transition(RUNNING, time.time(), detail="orphaned by a dead run")
    service.store.update(stale)

    report = service.run()
    assert report.counts[SUCCESS] == 2
    recovered = service.store.get(stale.job_id)
    assert any("recovered stale state" in (entry[2] or "") for entry in recovered.history)


# --------------------------------------------------------------------- #
# The shared ledger plugs into the engine
# --------------------------------------------------------------------- #
def test_service_ledger_is_shared_across_runs(service_bundle):
    service = make_service(service_bundle, n_shards=1)
    assert isinstance(service.ledger, SharedDailyLedger)
    base_day = SharedDailyLedger.day_of(service_bundle.config.online_start)
    assert service.ledger.base_day == base_day
    assert service.ledger.daily_budget_dollars == (
        service_bundle.config.cloud_budget_per_day
    )
