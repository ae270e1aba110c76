"""The ingestion job model: states, error classification, pluggable stores.

One :class:`IngestionJob` is the request to ingest one stream of a fleet
over the service's online window.  Jobs move through a small, explicit state
machine (mirroring the dispatcher/runner/DLQ design of production ingestion
orchestrators)::

                 submit                dispatch
    (created) ──────────▶  queued  ──────────────▶  running
                             ▲ ▲                   │      │
               retry w/      │ │ requeue_from_dlq  │      │
               backoff       │ └───────────┐       ▼      ▼
                             └── failed ◀──┼──── (error) success
                                   │       │
                   retries exhausted│       │
                   or non-retryable ▼       │
                               dead_letter ─┘

Every transition is validated and timestamped into the job's ``history``.
Errors are classified into stable codes (:func:`classify_error`); only
retryable codes re-enter the queue, and only until ``max_retries`` is
exhausted.  Jobs are persisted through a pluggable :class:`JobStore` — an
in-memory dict for programmatic/bench use, a JSON file for the CLI so
``submit``/``run``/``status`` invocations compose across processes.
"""

from __future__ import annotations

import json
import threading
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    NotFittedError,
    PlacementError,
    PlanningError,
    ReproError,
)

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
FAILED = "failed"
DEAD_LETTER = "dead_letter"
SUCCESS = "success"

#: Every state, in rough lifecycle order.
JOB_STATES = (QUEUED, RUNNING, FAILED, DEAD_LETTER, SUCCESS)

#: Legal state transitions (``from -> {to, ...}``).
VALID_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    QUEUED: (RUNNING,),
    RUNNING: (SUCCESS, FAILED),
    FAILED: (QUEUED, DEAD_LETTER),
    DEAD_LETTER: (QUEUED,),  # operator requeue only
    SUCCESS: (),
}

#: Error codes that re-enter the queue (until retries are exhausted).
RETRYABLE_CODES = ("worker_crash", "injected", "runtime", "resource")

#: Error codes that go straight to the dead-letter queue.
NON_RETRYABLE_CODES = ("config", "not_fitted", "planning", "slo_infeasible")


class InjectedFaultError(ReproError):
    """A deliberately injected job failure (fault-injection tests and CI)."""


def classify_error(error: BaseException) -> str:
    """Map an exception to a stable error code for the job record.

    Configuration-shaped errors are permanent — retrying an invalid request
    can never succeed, so they classify as non-retryable codes; everything
    else is assumed transient.

    An exception may carry its own classification via a string
    ``error_code`` attribute (e.g. the fleet planner's SLO admission error,
    which cannot be imported here without a cycle); that self-classification
    wins over the type-based mapping below.
    """
    own_code = getattr(error, "error_code", None)
    if isinstance(own_code, str) and own_code:
        return own_code
    if isinstance(error, InjectedFaultError):
        return "injected"
    if isinstance(error, NotFittedError):
        return "not_fitted"
    if isinstance(error, (PlanningError, PlacementError, BudgetExceededError)):
        return "planning"
    if isinstance(error, ConfigurationError):
        return "config"
    if isinstance(error, (MemoryError, OSError)):
        return "resource"
    return "runtime"


def is_retryable(error_code: str) -> bool:
    """Whether a failure with ``error_code`` may re-enter the queue."""
    return error_code not in NON_RETRYABLE_CODES


@dataclass
class IngestionJob:
    """One stream-ingestion request moving through the service lifecycle.

    Attributes:
        job_id: unique id (UUID hex unless caller-assigned).
        stream_id: id of the fleet stream this job ingests.
        stream_index: index of the stream within the service's fleet
            scenario (how a JSON-persisted job is re-bound to its source).
        tenant_id: owner used for admission control and isolation caps.
        system: optional per-job policy-registry override (``None`` means
            the service's default system).
        status: current lifecycle state (one of :data:`JOB_STATES`).
        retry_count: retries consumed so far (0 on first attempt).
        max_retries: bound on retries before the job dead-letters.
        attempts: dispatch count (first attempt included, unlike retries).
        error_code: classification of the most recent failure.
        error_message: human-readable detail of the most recent failure.
        next_retry_at: wall-clock time (``time.time()``) before which the
            dispatcher must not re-dispatch the job.
        shard: shard the job last ran on.
        inject_failures: fail the first N attempts with an injected fault
            (fault-injection hooks for tests and the CI smoke job).
        submitted_at: wall-clock submission time.
        finished_at: wall-clock time of the terminal transition.
        metrics: flat result metrics of the successful attempt.
        history: ``[time, state, detail]`` rows, one per transition.
    """

    job_id: str
    stream_id: str
    stream_index: int = 0
    tenant_id: str = "default"
    system: Optional[str] = None
    status: str = QUEUED
    retry_count: int = 0
    max_retries: int = 3
    attempts: int = 0
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    next_retry_at: float = 0.0
    shard: Optional[int] = None
    inject_failures: int = 0
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    history: List[List[Any]] = field(default_factory=list)

    @classmethod
    def create(
        cls,
        stream_id: str,
        stream_index: int = 0,
        tenant_id: str = "default",
        system: Optional[str] = None,
        max_retries: int = 3,
        inject_failures: int = 0,
        now: float = 0.0,
        job_id: Optional[str] = None,
    ) -> "IngestionJob":
        """A fresh ``queued`` job with a generated id and submit timestamp."""
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        job = cls(
            job_id=job_id or uuid.uuid4().hex,
            stream_id=stream_id,
            stream_index=stream_index,
            tenant_id=tenant_id,
            system=system,
            max_retries=max_retries,
            inject_failures=inject_failures,
            submitted_at=now,
        )
        job.history.append([now, QUEUED, "submitted"])
        return job

    @property
    def terminal(self) -> bool:
        """Whether the job reached ``success`` or ``dead_letter``."""
        return self.status in (SUCCESS, DEAD_LETTER)

    def transition(self, new_status: str, now: float, detail: str = "") -> None:
        """Move to ``new_status``, validating against the state machine."""
        if new_status not in JOB_STATES:
            raise ConfigurationError(f"unknown job state {new_status!r}")
        if new_status not in VALID_TRANSITIONS[self.status]:
            raise ConfigurationError(
                f"job {self.job_id}: illegal transition {self.status!r} -> "
                f"{new_status!r}"
            )
        self.status = new_status
        self.history.append([now, new_status, detail])
        if new_status in (SUCCESS, DEAD_LETTER):
            self.finished_at = now

    def as_dict(self) -> Dict[str, Any]:
        """The job as a JSON-serializable dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IngestionJob":
        """Rebuild a job from :meth:`as_dict` output."""
        return cls(**payload)


class JobStore:
    """Pluggable persistence for ingestion jobs (in-memory base class).

    The store is the service's source of truth for job state: the
    dispatcher admits and lists through it, and the service writes every
    lifecycle transition back through :meth:`update`.  Subclasses override
    :meth:`_persist` to durably record mutations; the base class keeps
    everything in one process-local dict guarded by a lock (the service
    mutates the store only from the parent process — shard workers are
    stateless executors, which is what keeps the store this simple).
    """

    def __init__(self) -> None:
        self._jobs: Dict[str, IngestionJob] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()

    def add(self, job: IngestionJob) -> IngestionJob:
        """Insert a new job; duplicate ids are configuration errors."""
        with self._lock:
            if job.job_id in self._jobs:
                raise ConfigurationError(f"duplicate job_id {job.job_id!r}")
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._persist()
        return job

    def get(self, job_id: str) -> IngestionJob:
        """The job with ``job_id`` (raises if unknown)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job_id {job_id!r}")
        return job

    def update(self, job: IngestionJob) -> None:
        """Persist a mutation of an already-added job."""
        with self._lock:
            if job.job_id not in self._jobs:
                raise ConfigurationError(f"unknown job_id {job.job_id!r}")
            self._jobs[job.job_id] = job
            self._persist()

    def list(
        self,
        status: Optional[str] = None,
        tenant_id: Optional[str] = None,
    ) -> List[IngestionJob]:
        """Jobs in submission order, optionally filtered by state/tenant."""
        if status is not None and status not in JOB_STATES:
            raise ConfigurationError(f"unknown job state {status!r}")
        with self._lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        if status is not None:
            jobs = [job for job in jobs if job.status == status]
        if tenant_id is not None:
            jobs = [job for job in jobs if job.tenant_id == tenant_id]
        return jobs

    def counts(self) -> Dict[str, int]:
        """Number of jobs per state (every state present, zeros included)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.list():
            counts[job.status] += 1
        return counts

    def _persist(self) -> None:
        """Durably record the current state (no-op in memory)."""


class InMemoryJobStore(JobStore):
    """The default, process-local store (alias of the base class)."""


class JsonFileJobStore(JobStore):
    """A job store persisted to one JSON file after every mutation.

    This is what makes the CLI compose across invocations: ``submit``
    appends queued jobs to the file, ``run`` drains them, ``status`` and
    ``requeue`` inspect and repair afterwards.  The file also carries a
    free-form ``meta`` dict (workload name, window sizes, fleet shape) so a
    later ``run`` can rebuild the exact fleet scenario the jobs refer to.
    The whole file is rewritten per mutation — the right trade-off for a
    CLI-scale queue, and trivially inspectable.
    """

    def __init__(self, path: Union[str, Path]):
        super().__init__()
        self.path = Path(path)
        self.meta: Dict[str, Any] = {}
        if self.path.exists():
            self._load()

    def set_meta(self, **meta: Any) -> None:
        """Merge ``meta`` into the file's metadata and persist."""
        with self._lock:
            self.meta.update(meta)
            self._persist()

    def _load(self) -> None:
        document = json.loads(self.path.read_text())
        self.meta = dict(document.get("meta", {}))
        for payload in document.get("jobs", []):
            job = IngestionJob.from_dict(payload)
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)

    def _persist(self) -> None:
        document = {
            "meta": self.meta,
            "jobs": [self._jobs[job_id].as_dict() for job_id in self._order],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True))
        tmp.replace(self.path)
