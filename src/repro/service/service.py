"""The fleet ingestion service: sharded workers over one job lifecycle.

:class:`FleetIngestionService` is the parent orchestrator that ties the
subsystem together: jobs submitted through the :class:`~repro.service
.dispatcher.JobDispatcher` are consistent-hashed onto shard worker
processes (:mod:`repro.service.shards`), each worker runs its batch jointly
through one :class:`~repro.core.fleet.FleetEngine` on its own cluster
(:mod:`repro.service.worker`), and every shard charges the one
multiprocessing-safe :class:`~repro.service.ledger.SharedDailyLedger`.

The parent is the single writer of job state: it marks jobs ``running`` at
dispatch, applies worker outcomes (``success`` / ``failed`` with bounded
exponential-backoff-and-jitter retries / ``dead_letter``), and — the crash
path — detects a dead worker process, requeues its in-flight jobs with a
``worker_crash`` classification, removes the shard from the hash ring, and
lets the surviving shards drain the fleet.  Budget accounting survives the
crash for free: spend lives in the parent-owned shared ledger, so whatever
a killed worker charged before dying stays recorded.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.experiments.results import jain_fairness_index
from repro.experiments.runner import SystemBundle
from repro.planning.admission import AdmissionController
from repro.planning.allocation import FleetPlan, TenantSubLedger, build_tenant_ledgers
from repro.planning.demand import build_problem_from_skyscraper, derive_tenant_specs
from repro.planning.solvers import make_planner
from repro.planning.tenants import TenantSpec
from repro.service.dispatcher import JobDispatcher, TenantQuota
from repro.service.jobs import (
    DEAD_LETTER,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCESS,
    IngestionJob,
    InMemoryJobStore,
    JobStore,
    is_retryable,
)
from repro.service.ledger import SharedDailyLedger
from repro.service.shards import ShardRing
from repro.service.worker import (
    MSG_BATCH,
    MSG_BATCH_DONE,
    MSG_STOP,
    JobAssignment,
    JobOutcome,
    WorkerConfig,
    worker_main,
)
from repro.workloads.fleet import FleetScenario, make_fleet_scenario

#: How long the drain loop sleeps when a pass neither received results nor
#: dispatched a batch.
POLL_SECONDS = 0.01


class ServiceError(ReproError):
    """Raised when the service cannot make progress (e.g. all workers died)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    The delay for retry *k* (1-based) is ``base · 2^(k-1)`` capped at
    ``max_delay``, stretched by up to ``jitter_fraction`` using a PRNG
    seeded from the job id and retry count — retries of a burst of failed
    jobs de-synchronize, but every schedule is reproducible.
    """

    max_retries: int = 3
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")

    def backoff_seconds(self, retry_count: int, key: str = "") -> float:
        """Delay before retry number ``retry_count`` of job ``key``."""
        if retry_count < 1:
            raise ConfigurationError("retry_count is 1-based")
        delay = min(
            self.base_delay_seconds * (2 ** (retry_count - 1)),
            self.max_delay_seconds,
        )
        rng = random.Random(f"{key}:{retry_count}")
        return delay * (1.0 + self.jitter_fraction * rng.random())


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs: shard count, per-shard hardware, retry policy.

    ``planner`` names a registered fleet planner
    (:func:`repro.planning.planner_names`); when set, ``submit_fleet``
    solves a joint budget/core allocation over the scenario's tenants,
    rejects SLO-infeasible tenants at admission, and ``run`` enforces the
    resulting per-tenant sub-budgets on every shard.
    """

    n_shards: int = 2
    system: str = "static"
    scheduler: str = "fifo"
    cores_per_shard: int = 8
    buffer_bytes: Optional[int] = None
    cloud_budget_per_day: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    collect_lags: bool = False
    planner: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be positive")
        if self.cores_per_shard < 1:
            raise ConfigurationError("cores_per_shard must be positive")


@dataclass
class ShardStats:
    """Per-shard accounting for the service report."""

    shard: int
    batches: int = 0
    jobs_succeeded: int = 0
    jobs_failed: int = 0
    segments_total: int = 0
    segments_dropped: int = 0
    crashed: bool = False
    served_fractions: List[float] = field(default_factory=list)

    @property
    def jain_fairness(self) -> float:
        """Jain's index over the served fractions of this shard's streams."""
        return jain_fairness_index(self.served_fractions)

    def as_dict(self) -> Dict[str, Any]:
        """Flat row for tables and the BENCH json."""
        return {
            "shard": self.shard,
            "batches": self.batches,
            "jobs_succeeded": self.jobs_succeeded,
            "jobs_failed": self.jobs_failed,
            "segments": self.segments_total,
            "dropped": self.segments_dropped,
            "jain_fairness": round(self.jain_fairness, 4),
            "crashed": self.crashed,
        }


@dataclass
class ServiceReport:
    """Aggregate outcome of one service drain (the ``run()`` return value)."""

    wall_seconds: float
    counts: Dict[str, int]
    segments_total: int
    segments_dropped: int
    cloud_total_dollars: float
    cloud_spend_by_day: Dict[int, float]
    shard_stats: List[ShardStats]
    crashed_shards: List[int]
    dead_letter: List[Dict[str, Any]]
    lag_samples: List[float] = field(default_factory=list)
    jain_fairness: float = 1.0
    planner: Optional[str] = None
    plan: Optional[Dict[str, Any]] = None
    rejected_tenants: List[Dict[str, str]] = field(default_factory=list)
    tenant_spend: Dict[str, float] = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        """Dropped segments as a fraction of all arrived segments."""
        if self.segments_total == 0:
            return 0.0
        return self.segments_dropped / self.segments_total

    def lag_percentile(self, fraction: float) -> float:
        """Lag at ``fraction`` (e.g. 0.99) of the pooled per-segment lags."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("percentile fraction must be in [0, 1]")
        if not self.lag_samples:
            return 0.0
        ordered = sorted(self.lag_samples)
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]

    @property
    def p99_lag_seconds(self) -> float:
        """99th-percentile ingestion lag across every processed segment."""
        return self.lag_percentile(0.99)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (CLI ``--json`` and BENCH payloads)."""
        return {
            "wall_seconds": round(self.wall_seconds, 3),
            "counts": dict(self.counts),
            "segments_total": self.segments_total,
            "segments_dropped": self.segments_dropped,
            "drop_rate": round(self.drop_rate, 4),
            "p99_lag_s": round(self.p99_lag_seconds, 3),
            "jain_fairness": round(self.jain_fairness, 4),
            "cloud_total_dollars": round(self.cloud_total_dollars, 6),
            "cloud_spend_by_day": {
                str(day): round(value, 6)
                for day, value in sorted(self.cloud_spend_by_day.items())
            },
            "shards": [stats.as_dict() for stats in self.shard_stats],
            "crashed_shards": list(self.crashed_shards),
            "dead_letter": list(self.dead_letter),
            "planner": self.planner,
            "plan": self.plan,
            "rejected_tenants": list(self.rejected_tenants),
            "tenant_spend": {
                tenant: round(dollars, 6)
                for tenant, dollars in sorted(self.tenant_spend.items())
            },
        }


@dataclass
class _WorkerHandle:
    process: multiprocessing.Process
    inbox: Any
    alive: bool = True
    batches_sent: int = 0


class FleetIngestionService:
    """Sharded, fault-tolerant ingestion of a fleet scenario.

    Args:
        bundle: the fitted workload bundle every shard executes against.
        config: service knobs (:class:`ServiceConfig`).
        store: job persistence (defaults to in-memory; pass a
            :class:`~repro.service.jobs.JsonFileJobStore` to compose with
            the CLI across processes).
        quotas: per-tenant admission/isolation caps.
        tenant_specs: per-tenant planning overrides (weight, ``min_quality``
            SLO, cost ratio, forecast), keyed by tenant id — consulted when
            ``config.planner`` is set; stream counts always come from the
            submitted scenario.

    Typical use::

        service = FleetIngestionService(bundle, ServiceConfig(n_shards=4))
        service.submit_fleet(n_streams=64)
        report = service.run()
    """

    def __init__(
        self,
        bundle: SystemBundle,
        config: ServiceConfig = ServiceConfig(),
        store: Optional[JobStore] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        tenant_specs: Optional[Dict[str, TenantSpec]] = None,
    ):
        self.bundle = bundle
        self.config = config
        self.store = store if store is not None else InMemoryJobStore()
        self.dispatcher = JobDispatcher(self.store, quotas=quotas)
        self.scenario: Optional[FleetScenario] = None
        self.tenant_specs = dict(tenant_specs or {})
        self.fleet_plan: Optional[FleetPlan] = None
        self.tenant_ledgers: Optional[Dict[str, TenantSubLedger]] = None
        budget = (
            config.cloud_budget_per_day
            if config.cloud_budget_per_day is not None
            else bundle.config.cloud_budget_per_day
        )
        self.ledger = SharedDailyLedger(
            budget,
            base_day=SharedDailyLedger.day_of(bundle.config.online_start),
        )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def attach_scenario(self, scenario: FleetScenario) -> None:
        """Bind the fleet scenario jobs refer to (validated at ``run``)."""
        if scenario.base.workload is not self.bundle.setup.workload:
            raise ConfigurationError(
                "the scenario was built from a different workload setup than "
                "this service's bundle; build it with "
                "make_fleet_scenario(bundle.setup, ...)"
            )
        self.scenario = scenario

    def submit_fleet(
        self,
        n_streams: Optional[int] = None,
        scenario: Optional[FleetScenario] = None,
        phase_shift_seconds: float = 60.0,
        heterogeneous: bool = False,
        tenants: Optional[List[str]] = None,
        max_retries: Optional[int] = None,
        inject_failures: Optional[Dict[str, int]] = None,
        now: Optional[float] = None,
    ) -> List[IngestionJob]:
        """Submit one job per stream of a fleet (building the scenario if needed).

        Args:
            n_streams: size of the generated scenario (exclusive with
                ``scenario``).
            scenario: an explicit fleet scenario to ingest.
            phase_shift_seconds: per-camera content offset of the generated
                scenario.
            heterogeneous: re-seed every generated camera.
            tenants: tenant ids assigned round-robin to generated streams.
            max_retries: per-job retry bound (defaults to the retry policy's).
            inject_failures: ``stream_id -> N`` fault injection — fail the
                first N attempts of those jobs (tests and the CI smoke).
            now: submission timestamp (defaults to ``time.time()``).
        """
        if (n_streams is None) == (scenario is None):
            raise ConfigurationError("pass exactly one of n_streams= or scenario=")
        if scenario is None:
            scenario = make_fleet_scenario(
                self.bundle.setup,
                n_streams,
                phase_shift_seconds=phase_shift_seconds,
                heterogeneous=heterogeneous,
                tenants=tenants,
            )
        self.attach_scenario(scenario)
        if self.config.planner is not None:
            self._plan_fleet(scenario)
        submitted_at = time.time() if now is None else now
        retries = self.config.retry.max_retries if max_retries is None else max_retries
        injections = inject_failures or {}
        unknown = set(injections) - set(scenario.stream_ids())
        if unknown:
            raise ConfigurationError(
                f"inject_failures names unknown streams: {sorted(unknown)}"
            )
        rejected = self.fleet_plan.rejected if self.fleet_plan is not None else {}
        jobs = []
        for index, spec in enumerate(scenario.streams):
            if spec.tenant in rejected:
                # The admission hook would raise; rejected tenants simply
                # get no jobs, and the rejection (with reason) lands in the
                # service report.
                continue
            jobs.append(
                self.dispatcher.submit(
                    stream_id=spec.stream_id,
                    stream_index=index,
                    tenant_id=spec.tenant,
                    system=spec.system,
                    max_retries=retries,
                    inject_failures=injections.get(spec.stream_id, 0),
                    now=submitted_at,
                )
            )
        return jobs

    # ------------------------------------------------------------------ #
    # Joint planning and admission
    # ------------------------------------------------------------------ #
    def _plan_fleet(self, scenario: FleetScenario) -> None:
        """Solve the joint allocation over the scenario's tenants.

        Builds the planning problem from the bundle's fitted system (stream
        counts observed from the scenario, weights/SLOs/cost-ratios from
        ``tenant_specs``), rejects SLO-infeasible tenants, installs the
        admission hook on the dispatcher, and keeps the winning plan for
        ``run`` to deploy as per-tenant sub-budgets.
        """
        budget = self.ledger.daily_budget_dollars
        if budget is None:
            raise ConfigurationError(
                "a fleet planner needs a finite cloud budget; set "
                "cloud_budget_per_day on the service or bundle config"
            )
        counts: Dict[str, int] = {}
        for spec in scenario.streams:
            counts[spec.tenant] = counts.get(spec.tenant, 0) + 1
        tenants = derive_tenant_specs(counts, overrides=self.tenant_specs)
        problem = build_problem_from_skyscraper(
            self.bundle.skyscraper,
            tenants,
            cloud_budget_per_day=budget,
            cores=self.config.cores_per_shard * self.config.n_shards,
            segment_seconds=self.bundle.setup.source.segment_seconds,
        )
        controller = AdmissionController(problem)
        rejected = controller.rejections()
        self.dispatcher.admission = controller.check
        admitted = [
            spec.tenant_id
            for spec in problem.tenants
            if spec.tenant_id not in rejected
        ]
        if not admitted:
            raise ConfigurationError(
                "admission control rejected every tenant: "
                + "; ".join(f"{k}: {v}" for k, v in sorted(rejected.items()))
            )
        admitted_problem = (
            problem if not rejected else problem.restricted(admitted)
        )
        plan = make_planner(self.config.planner).plan(admitted_problem)
        plan.rejected = dict(rejected)
        self.fleet_plan = plan
        self.tenant_ledgers = build_tenant_ledgers(
            plan,
            self.ledger,
            tracker_factory=lambda cap: SharedDailyLedger(
                cap,
                base_day=self.ledger.base_day,
                horizon_days=self.ledger.horizon_days,
            ),
        )

    # ------------------------------------------------------------------ #
    # The drain loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        crash_shard: Optional[int] = None,
        crash_on_batch: int = 1,
        timeout_seconds: float = 600.0,
    ) -> ServiceReport:
        """Drain every pending job to ``success`` or ``dead_letter``.

        Spawns ``n_shards`` worker processes, dispatches ready jobs in
        shard-grouped batches, applies outcomes (with retry backoff), and
        recovers from worker deaths by requeueing their in-flight jobs onto
        the surviving shards.  Returns the aggregate :class:`ServiceReport`.

        Args:
            crash_shard: fault injection — SIGKILL this shard's worker
                (``0 <= crash_shard < n_shards``) right after its
                ``crash_on_batch``-th batch is dispatched, exercising the
                crash-recovery path deterministically.
            crash_on_batch: which dispatch to kill on (1-based).
            timeout_seconds: hard wall-clock bound on the drain.
        """
        if crash_shard is not None and not 0 <= crash_shard < self.config.n_shards:
            raise ConfigurationError(
                f"crash_shard {crash_shard} is not a shard; shards are "
                f"0..{self.config.n_shards - 1}"
            )
        if crash_on_batch < 1:
            raise ConfigurationError("crash_on_batch is 1-based")
        pending = [job for job in self.store.list() if not job.terminal]
        # Wall-clock ``started`` stamps job history; the drain itself is timed
        # with the monotonic clock.
        started = time.time()
        drain_started = time.perf_counter()
        if not pending:
            return self._report(wall_seconds=0.0, stats={}, crashed=[], lags=[])
        if self.scenario is None:
            raise ConfigurationError(
                "no fleet scenario attached; call submit_fleet() or "
                "attach_scenario() before run()"
            )
        known = set(self.scenario.stream_ids())
        for job in pending:
            if job.stream_id not in known:
                raise ConfigurationError(
                    f"job {job.job_id} refers to stream {job.stream_id!r} "
                    "which is not in the attached scenario"
                )
        stuck = [job for job in pending if job.status in (RUNNING, FAILED)]
        for job in stuck:  # a previous run died mid-flight; give a fresh lease
            if job.status == RUNNING:
                job.transition(FAILED, started, detail="stale lease")
            job.transition(QUEUED, started, detail="recovered stale state")
            self.store.update(job)

        context = multiprocessing.get_context()
        results: Any = context.Queue()
        workers: Dict[int, _WorkerHandle] = {}
        for shard in range(self.config.n_shards):
            inbox = context.Queue()
            worker_config = WorkerConfig(
                shard_id=shard,
                system=self.config.system,
                scheduler=self.config.scheduler,
                cores=self.config.cores_per_shard,
                buffer_bytes=self.config.buffer_bytes,
                cloud_budget_per_day=self.config.cloud_budget_per_day,
                collect_lags=self.config.collect_lags,
            )
            process = context.Process(
                target=worker_main,
                args=(
                    worker_config,
                    self.bundle,
                    self.scenario,
                    self.ledger,
                    inbox,
                    results,
                    self.tenant_ledgers,
                ),
                daemon=True,
                name=f"fleet-shard-{shard}",
            )
            process.start()
            workers[shard] = _WorkerHandle(process=process, inbox=inbox)

        ring = ShardRing(list(workers))
        in_flight: Dict[int, List[str]] = {}
        stats = {shard: ShardStats(shard=shard) for shard in workers}
        lags: List[float] = []
        batch_seq = 0

        try:
            while True:
                progressed = self._apply_results(results, in_flight, stats, lags)
                ring, recovered = self._recover_crashes(workers, in_flight, ring, stats)
                progressed |= recovered
                if not any(not job.terminal for job in self.store.list()):
                    break
                now = time.time()
                if time.perf_counter() - drain_started > timeout_seconds:
                    raise ServiceError(
                        f"service did not drain within {timeout_seconds:.0f}s "
                        f"({self.store.counts()})"
                    )
                dispatched = self._dispatch_wave(
                    workers, ring, in_flight, stats, now, crash_shard, crash_on_batch,
                    batch_seq,
                )
                batch_seq += dispatched
                if not progressed and not dispatched:
                    time.sleep(POLL_SECONDS)
        finally:
            for handle in workers.values():
                if handle.alive and handle.process.is_alive():
                    try:
                        handle.inbox.put((MSG_STOP,))
                    except (OSError, ValueError):
                        pass
            for handle in workers.values():
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)

        crashed = [shard for shard, s in stats.items() if s.crashed]
        return self._report(
            wall_seconds=time.perf_counter() - drain_started,
            stats=stats,
            crashed=crashed,
            lags=lags,
        )

    # ------------------------------------------------------------------ #
    # Drain-loop helpers (parent is the single writer of job state)
    # ------------------------------------------------------------------ #
    def _apply_results(
        self,
        results: Any,
        in_flight: Dict[int, List[str]],
        stats: Dict[int, ShardStats],
        lags: List[float],
    ) -> bool:
        """Drain the results queue; returns whether anything was applied."""
        progressed = False
        while True:
            try:
                message = results.get_nowait()
            except queue.Empty:
                return progressed
            kind, shard, _batch_id, outcomes = message
            assert kind == MSG_BATCH_DONE, kind
            in_flight.pop(shard, None)
            now = time.time()
            for outcome in outcomes:
                self._apply_outcome(outcome, shard, stats, lags, now)
            progressed = True

    def _apply_outcome(
        self,
        outcome: JobOutcome,
        shard: int,
        stats: Dict[int, ShardStats],
        lags: List[float],
        now: float,
    ) -> None:
        job = self.store.get(outcome.job_id)
        shard_stats = stats[shard]
        if outcome.ok:
            job.transition(SUCCESS, now, detail=f"shard {shard}")
            job.metrics = dict(outcome.metrics)
            job.error_code = None
            job.error_message = None
            self.store.update(job)
            shard_stats.jobs_succeeded += 1
            total = int(outcome.metrics.get("segments_total", 0))
            dropped = int(outcome.metrics.get("segments_dropped", 0))
            shard_stats.segments_total += total
            shard_stats.segments_dropped += dropped
            shard_stats.served_fractions.append(
                (total - dropped) / total if total else 0.0
            )
            if outcome.lags:
                lags.extend(outcome.lags)
        else:
            shard_stats.jobs_failed += 1
            self._fail_job(
                job, outcome.error_code or "runtime", outcome.error_message or "", now
            )

    def _fail_job(self, job: IngestionJob, code: str, message: str, now: float) -> None:
        """Apply one failure: retry with backoff or dead-letter."""
        job.transition(FAILED, now, detail=f"{code}: {message[:160]}")
        job.error_code = code
        job.error_message = message
        if not is_retryable(code):
            job.transition(DEAD_LETTER, now, detail=f"non-retryable {code!r}")
        elif job.retry_count >= job.max_retries:
            job.transition(
                DEAD_LETTER, now, detail=f"retries exhausted ({job.max_retries})"
            )
        else:
            job.retry_count += 1
            delay = self.config.retry.backoff_seconds(job.retry_count, key=job.job_id)
            job.next_retry_at = now + delay
            job.transition(
                QUEUED, now, detail=f"retry {job.retry_count}/{job.max_retries} in {delay:.3f}s"
            )
        self.store.update(job)

    def _recover_crashes(
        self,
        workers: Dict[int, _WorkerHandle],
        in_flight: Dict[int, List[str]],
        ring: ShardRing,
        stats: Dict[int, ShardStats],
    ) -> "Tuple[ShardRing, bool]":
        """Detect dead workers, requeue their running jobs, shrink the ring.

        Returns the (possibly rebuilt) ring and whether anything happened.
        """
        progressed = False
        for shard, handle in workers.items():
            if not handle.alive or handle.process.is_alive():
                continue
            handle.alive = False
            stats[shard].crashed = True
            job_ids = in_flight.pop(shard, [])
            now = time.time()
            for job_id in job_ids:
                job = self.store.get(job_id)
                stats[shard].jobs_failed += 1
                self._fail_job(
                    job,
                    "worker_crash",
                    f"shard {shard} worker died with jobs in flight",
                    now,
                )
            survivors = [s for s, h in workers.items() if h.alive]
            if not survivors:
                if any(not job.terminal for job in self.store.list()):
                    raise ServiceError(
                        "every shard worker died with jobs still pending"
                    )
            elif shard in ring:
                ring = ring.without(shard)
            progressed = True
        return ring, progressed

    def _dispatch_wave(
        self,
        workers: Dict[int, _WorkerHandle],
        ring: ShardRing,
        in_flight: Dict[int, List[str]],
        stats: Dict[int, ShardStats],
        now: float,
        crash_shard: Optional[int],
        crash_on_batch: int,
        batch_seq: int,
    ) -> int:
        """Send one batch per idle shard from the ready queue; returns #batches."""
        ready = self.dispatcher.ready_jobs(now)
        if not ready:
            return 0
        by_shard: Dict[int, List[IngestionJob]] = {}
        for job in ready:
            shard = ring.assign(job.stream_id)
            if not workers[shard].alive or shard in in_flight:
                continue  # shard busy or dead: the job waits for the next wave
            by_shard.setdefault(shard, []).append(job)
        dispatched = 0
        for shard, jobs in by_shard.items():
            handle = workers[shard]
            assignments = []
            for job in jobs:
                job.attempts += 1
                job.shard = shard
                job.transition(
                    RUNNING, now, detail=f"shard {shard}, attempt {job.attempts}"
                )
                self.store.update(job)
                assignments.append(
                    JobAssignment(
                        job_id=job.job_id,
                        stream_id=job.stream_id,
                        attempt=job.attempts,
                        inject_failures=job.inject_failures,
                        system=job.system,
                    )
                )
            dispatched += 1
            handle.inbox.put((MSG_BATCH, batch_seq + dispatched, assignments))
            handle.batches_sent += 1
            stats[shard].batches += 1
            in_flight[shard] = [assignment.job_id for assignment in assignments]
            if crash_shard == shard and handle.batches_sent == crash_on_batch:
                # Fault injection: the worker dies with the batch in flight.
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=5.0)
        return dispatched

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _report(
        self,
        wall_seconds: float,
        stats: Dict[int, ShardStats],
        crashed: List[int],
        lags: List[float],
    ) -> ServiceReport:
        shard_stats = [stats[shard] for shard in sorted(stats)]
        served = [
            fraction for s in shard_stats for fraction in s.served_fractions
        ]
        return ServiceReport(
            wall_seconds=wall_seconds,
            counts=self.store.counts(),
            segments_total=sum(s.segments_total for s in shard_stats),
            segments_dropped=sum(s.segments_dropped for s in shard_stats),
            cloud_total_dollars=self.ledger.total_dollars,
            cloud_spend_by_day=self.ledger.spend_by_day,
            shard_stats=shard_stats,
            crashed_shards=crashed,
            dead_letter=[
                {
                    "job_id": job.job_id,
                    "stream_id": job.stream_id,
                    "tenant_id": job.tenant_id,
                    "error_code": job.error_code,
                    "retry_count": job.retry_count,
                }
                for job in self.dispatcher.dead_letter_jobs()
            ],
            lag_samples=lags,
            jain_fairness=jain_fairness_index(served),
            planner=self.config.planner,
            plan=(
                self.fleet_plan.as_dict() if self.fleet_plan is not None else None
            ),
            rejected_tenants=(
                [
                    {"tenant_id": tenant, "reason": reason}
                    for tenant, reason in sorted(self.fleet_plan.rejected.items())
                ]
                if self.fleet_plan is not None
                else []
            ),
            tenant_spend=(
                {
                    tenant: ledger.total_dollars
                    for tenant, ledger in self.tenant_ledgers.items()
                }
                if self.tenant_ledgers is not None
                else {}
            ),
        )
