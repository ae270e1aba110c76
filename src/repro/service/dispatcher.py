"""Job admission, dispatch ordering, and dead-letter-queue management.

The :class:`JobDispatcher` owns the queue discipline in front of the shard
workers: ``submit`` admits jobs against per-tenant quotas, ``ready_jobs``
selects what may run *now* (backoff timestamps and per-tenant running caps
respected, submission order preserved), and ``requeue_from_dlq`` is the
operator's lever to give a dead-lettered job a fresh set of retries.  The
dispatcher never talks to workers — the service maps ready jobs to shards
and transitions their state; the dispatcher decides *which* jobs are
eligible, keeping admission policy in one testable place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import AdmissionError, ConfigurationError
from repro.service.jobs import (
    DEAD_LETTER,
    QUEUED,
    RUNNING,
    IngestionJob,
    JobStore,
)

__all__ = ["JobDispatcher", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant isolation caps (``None`` means unlimited).

    ``max_queued`` bounds admission — submissions beyond it are rejected
    with :class:`AdmissionError` so one tenant cannot flood the queue;
    ``max_running`` bounds concurrency — the dispatcher never marks more
    than this many of the tenant's jobs ready at once, so a tenant's burst
    cannot monopolize the shard workers.
    """

    max_queued: Optional[int] = None
    max_running: Optional[int] = None


class JobDispatcher:
    """Admits, orders, and requeues ingestion jobs through a :class:`JobStore`.

    Args:
        store: the job store shared with the service.
        quotas: per-tenant quota overrides, by tenant id.
        default_quota: quota applied to tenants without an override.
        admission: optional hook called with the tenant id before quota
            checks; raising :class:`AdmissionError` (or a subclass, e.g.
            the planner's SLO check) vetoes the submission.  The service
            installs :meth:`repro.planning.admission.AdmissionController.check`
            here when a fleet planner is configured.
    """

    def __init__(
        self,
        store: JobStore,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: TenantQuota = TenantQuota(),
        admission: Optional[Callable[[str], None]] = None,
    ):
        self.store = store
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.admission = admission

    def quota_for(self, tenant_id: str) -> TenantQuota:
        """The quota governing ``tenant_id``."""
        return self.quotas.get(tenant_id, self.default_quota)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        stream_id: str,
        stream_index: int = 0,
        tenant_id: str = "default",
        system: Optional[str] = None,
        max_retries: int = 3,
        inject_failures: int = 0,
        now: float = 0.0,
        job_id: Optional[str] = None,
    ) -> IngestionJob:
        """Admit one stream-ingestion job, enforcing admission and queue caps."""
        if self.admission is not None:
            self.admission(tenant_id)
        quota = self.quota_for(tenant_id)
        if quota.max_queued is not None:
            queued = len(self.store.list(status=QUEUED, tenant_id=tenant_id))
            if queued >= quota.max_queued:
                raise AdmissionError(
                    f"tenant {tenant_id!r} has {queued} queued jobs, at its "
                    f"max_queued={quota.max_queued} cap"
                )
        job = IngestionJob.create(
            stream_id=stream_id,
            stream_index=stream_index,
            tenant_id=tenant_id,
            system=system,
            max_retries=max_retries,
            inject_failures=inject_failures,
            now=now,
            job_id=job_id,
        )
        return self.store.add(job)

    # ------------------------------------------------------------------ #
    # Dispatch ordering
    # ------------------------------------------------------------------ #
    def ready_jobs(self, now: float) -> List[IngestionJob]:
        """Queued jobs eligible to run at ``now``, in submission order.

        A job is eligible when its retry backoff has elapsed
        (``next_retry_at <= now``) and dispatching it would not push its
        tenant past ``max_running`` (jobs already running count against the
        cap, and earlier selections of this call do too).
        """
        running_per_tenant: Dict[str, int] = {}
        for job in self.store.list(status=RUNNING):
            running_per_tenant[job.tenant_id] = running_per_tenant.get(job.tenant_id, 0) + 1
        ready: List[IngestionJob] = []
        for job in self.store.list(status=QUEUED):
            if job.next_retry_at > now:
                continue
            cap = self.quota_for(job.tenant_id).max_running
            if cap is not None and running_per_tenant.get(job.tenant_id, 0) >= cap:
                continue
            running_per_tenant[job.tenant_id] = running_per_tenant.get(job.tenant_id, 0) + 1
            ready.append(job)
        return ready

    def next_retry_time(self) -> Optional[float]:
        """Earliest ``next_retry_at`` among queued jobs (``None`` if none)."""
        times = [job.next_retry_at for job in self.store.list(status=QUEUED)]
        return min(times) if times else None

    # ------------------------------------------------------------------ #
    # Dead-letter queue
    # ------------------------------------------------------------------ #
    def dead_letter_jobs(self) -> List[IngestionJob]:
        """The dead-letter queue, in submission order."""
        return self.store.list(status=DEAD_LETTER)

    def requeue_from_dlq(self, job_id: str, now: float = 0.0) -> IngestionJob:
        """Give a dead-lettered job a fresh lease: requeue with zero retries.

        The retry budget and backoff clock reset (the operator presumably
        fixed the underlying cause); the error classification of the last
        failure stays in the history rows for the audit trail.
        """
        job = self.store.get(job_id)
        if job.status != DEAD_LETTER:
            raise ConfigurationError(
                f"job {job_id} is {job.status!r}, not {DEAD_LETTER!r}; only "
                "dead-lettered jobs can be requeued"
            )
        job.transition(QUEUED, now, detail="requeued from DLQ")
        job.retry_count = 0
        job.next_retry_at = 0.0
        job.error_code = None
        job.error_message = None
        job.finished_at = None
        self.store.update(job)
        return job

    def list_jobs(
        self, status: Optional[str] = None, tenant_id: Optional[str] = None
    ) -> List[IngestionJob]:
        """Jobs in submission order, optionally filtered (CLI ``status``)."""
        return self.store.list(status=status, tenant_id=tenant_id)
