"""Tests for the ingestion-job model, error taxonomy, and job stores."""

from __future__ import annotations

import pytest

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    NotFittedError,
    PlanningError,
)
from repro.service.jobs import (
    DEAD_LETTER,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    SUCCESS,
    IngestionJob,
    InjectedFaultError,
    InMemoryJobStore,
    JsonFileJobStore,
    classify_error,
    is_retryable,
)


def make_job(**overrides) -> IngestionJob:
    defaults = dict(stream_id="cam-00", stream_index=0, now=100.0)
    defaults.update(overrides)
    return IngestionJob.create(**defaults)


# --------------------------------------------------------------------- #
# The state machine
# --------------------------------------------------------------------- #
def test_job_walks_the_happy_path():
    job = make_job()
    assert job.status == QUEUED and not job.terminal
    job.transition(RUNNING, 101.0)
    job.transition(SUCCESS, 102.0)
    assert job.terminal
    assert job.finished_at == 102.0
    assert [entry[1] for entry in job.history] == [QUEUED, RUNNING, SUCCESS]


def test_failed_job_can_retry_or_dead_letter():
    job = make_job()
    job.transition(RUNNING, 1.0)
    job.transition(FAILED, 2.0)
    job.transition(QUEUED, 3.0)  # retry
    job.transition(RUNNING, 4.0)
    job.transition(FAILED, 5.0)
    job.transition(DEAD_LETTER, 6.0)
    assert job.terminal
    # The DLQ is not a dead end: an operator may requeue.
    job.transition(QUEUED, 7.0)
    assert not job.terminal


@pytest.mark.parametrize(
    "start,bad",
    [
        (QUEUED, SUCCESS),
        (QUEUED, FAILED),
        (RUNNING, QUEUED),
        (SUCCESS, QUEUED),
        (FAILED, SUCCESS),
    ],
)
def test_illegal_transitions_raise(start, bad):
    job = make_job()
    job.status = start
    with pytest.raises(ConfigurationError, match="illegal transition"):
        job.transition(bad, 1.0)


def test_unknown_state_raises():
    job = make_job()
    with pytest.raises(ConfigurationError, match="unknown job state"):
        job.transition("paused", 1.0)


def test_job_round_trips_through_dict():
    job = make_job(tenant_id="acme", inject_failures=2, max_retries=5)
    job.transition(RUNNING, 1.0, detail="shard 0")
    clone = IngestionJob.from_dict(job.as_dict())
    assert clone == job


# --------------------------------------------------------------------- #
# Error classification
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "error,code,retryable",
    [
        pytest.param(InjectedFaultError("boom"), "injected", True, id="error0-injected-True"),
        pytest.param(MemoryError("oom"), "resource", True, id="error2-resource-True"),
        pytest.param(RuntimeError("???"), "runtime", True, id="error3-runtime-True"),
        pytest.param(
            NotFittedError("fit first"), "not_fitted", False, id="error4-not_fitted-False"
        ),
        pytest.param(PlanningError("no plan"), "planning", False, id="error5-planning-False"),
        pytest.param(BudgetExceededError("over"), "planning", False, id="error6-planning-False"),
        pytest.param(ConfigurationError("bad knob"), "config", False, id="error7-config-False"),
    ],
)
def test_error_taxonomy(error, code, retryable):
    assert classify_error(error) == code
    assert is_retryable(code) is retryable


def test_worker_crash_is_retryable():
    assert is_retryable("worker_crash")


# --------------------------------------------------------------------- #
# Stores
# --------------------------------------------------------------------- #
def test_in_memory_store_counts_and_filters():
    store = InMemoryJobStore()
    a = store.add(make_job(stream_id="cam-00", tenant_id="acme"))
    b = store.add(make_job(stream_id="cam-01", tenant_id="globex"))
    a.transition(RUNNING, 1.0)
    store.update(a)
    assert store.counts() == {
        QUEUED: 1,
        RUNNING: 1,
        FAILED: 0,
        DEAD_LETTER: 0,
        SUCCESS: 0,
    }
    assert [job.job_id for job in store.list(tenant_id="globex")] == [b.job_id]
    assert store.list(status=RUNNING)[0].job_id == a.job_id
    with pytest.raises(ConfigurationError, match="unknown"):
        store.list(status="resting")


def test_duplicate_job_id_raises():
    store = InMemoryJobStore()
    job = store.add(make_job())
    with pytest.raises(ConfigurationError, match="duplicate"):
        store.add(make_job(job_id=job.job_id))


def test_json_store_persists_jobs_and_meta(tmp_path):
    path = tmp_path / "jobs.json"
    store = JsonFileJobStore(path)
    job = store.add(make_job(tenant_id="acme"))
    job.transition(RUNNING, 1.0)
    job.transition(SUCCESS, 2.0)
    store.update(job)
    store.set_meta(workload="ev", streams=1)

    reloaded = JsonFileJobStore(path)
    assert reloaded.meta == {"workload": "ev", "streams": 1}
    clone = reloaded.get(job.job_id)
    assert clone == job
    assert reloaded.counts()[SUCCESS] == 1


def test_all_states_are_enumerated():
    assert set(JOB_STATES) == {QUEUED, RUNNING, FAILED, DEAD_LETTER, SUCCESS}
