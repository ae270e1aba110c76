"""Tests for job admission, dispatch ordering, and DLQ requeueing."""

from __future__ import annotations

import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.service.dispatcher import JobDispatcher, TenantQuota
from repro.service.jobs import (
    DEAD_LETTER,
    FAILED,
    QUEUED,
    RUNNING,
    InMemoryJobStore,
)


@pytest.fixture
def dispatcher() -> JobDispatcher:
    return JobDispatcher(InMemoryJobStore())


# --------------------------------------------------------------------- #
# Admission
# --------------------------------------------------------------------- #
def test_default_quota_is_unlimited(dispatcher):
    for index in range(50):
        dispatcher.submit(stream_id=f"cam-{index:02d}", stream_index=index)
    assert len(dispatcher.list_jobs(status=QUEUED)) == 50


def test_max_queued_rejects_the_flooding_tenant_only():
    dispatcher = JobDispatcher(
        InMemoryJobStore(), quotas={"acme": TenantQuota(max_queued=2)}
    )
    dispatcher.submit(stream_id="cam-00", tenant_id="acme")
    dispatcher.submit(stream_id="cam-01", tenant_id="acme")
    with pytest.raises(AdmissionError, match="max_queued=2"):
        dispatcher.submit(stream_id="cam-02", tenant_id="acme")
    # Another tenant is unaffected by acme's cap.
    dispatcher.submit(stream_id="cam-03", tenant_id="globex")
    assert len(dispatcher.list_jobs(status=QUEUED)) == 3


# --------------------------------------------------------------------- #
# Dispatch ordering
# --------------------------------------------------------------------- #
def test_ready_jobs_respects_backoff_timestamps(dispatcher):
    early = dispatcher.submit(stream_id="cam-00")
    late = dispatcher.submit(stream_id="cam-01")
    late.next_retry_at = 100.0
    dispatcher.store.update(late)
    assert [job.job_id for job in dispatcher.ready_jobs(now=50.0)] == [early.job_id]
    assert len(dispatcher.ready_jobs(now=100.0)) == 2
    assert dispatcher.next_retry_time() == 0.0  # the earliest queued job


def test_max_running_counts_running_and_earlier_selections():
    dispatcher = JobDispatcher(
        InMemoryJobStore(), default_quota=TenantQuota(max_running=2)
    )
    jobs = [dispatcher.submit(stream_id=f"cam-{i}") for i in range(4)]
    running = jobs[0]
    running.transition(RUNNING, 1.0)
    dispatcher.store.update(running)
    # One slot is taken by the running job; only one more may dispatch.
    ready = dispatcher.ready_jobs(now=2.0)
    assert [job.job_id for job in ready] == [jobs[1].job_id]


def test_per_tenant_running_caps_are_independent():
    dispatcher = JobDispatcher(
        InMemoryJobStore(),
        quotas={"acme": TenantQuota(max_running=1)},
    )
    a0 = dispatcher.submit(stream_id="cam-00", tenant_id="acme")
    dispatcher.submit(stream_id="cam-01", tenant_id="acme")
    g0 = dispatcher.submit(stream_id="cam-02", tenant_id="globex")
    ready = dispatcher.ready_jobs(now=1.0)
    assert [job.job_id for job in ready] == [a0.job_id, g0.job_id]


# --------------------------------------------------------------------- #
# Dead-letter queue
# --------------------------------------------------------------------- #
def dead_letter(dispatcher, job) -> None:
    job.transition(RUNNING, 1.0)
    job.transition(FAILED, 2.0)
    job.retry_count = 3
    job.error_code = "injected"
    job.error_message = "boom"
    job.transition(DEAD_LETTER, 3.0)
    dispatcher.store.update(job)


def test_requeue_from_dlq_resets_the_retry_budget(dispatcher):
    job = dispatcher.submit(stream_id="cam-00")
    dead_letter(dispatcher, job)
    assert [j.job_id for j in dispatcher.dead_letter_jobs()] == [job.job_id]

    requeued = dispatcher.requeue_from_dlq(job.job_id, now=10.0)
    assert requeued.status == QUEUED
    assert requeued.retry_count == 0
    assert requeued.next_retry_at == 0.0
    assert requeued.error_code is None and requeued.error_message is None
    assert requeued.finished_at is None
    assert dispatcher.dead_letter_jobs() == []
    # The audit trail keeps the dead-letter episode.
    assert DEAD_LETTER in [entry[1] for entry in requeued.history]


def test_requeue_refuses_jobs_not_in_the_dlq(dispatcher):
    job = dispatcher.submit(stream_id="cam-00")
    with pytest.raises(ConfigurationError, match="only\\s+dead-lettered"):
        dispatcher.requeue_from_dlq(job.job_id)
