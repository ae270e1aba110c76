"""The shard worker: one fleet engine per process, batches in, outcomes out.

A worker owns one shard of the fleet.  The parent service sends it batches
of job assignments over an inbox queue; for each batch the worker builds the
sub-scenario of exactly those streams, runs them jointly through **one**
:class:`~repro.core.fleet.FleetEngine` on the shard's own cluster (sharding
scales capacity out: N shards = N clusters), charges the shared cross-shard
ledger, and reports one :class:`JobOutcome` per job on the results queue.

Workers are deliberately *stateless executors*: all job lifecycle state
lives in the parent's job store, so a SIGKILLed worker loses nothing but
the batch in flight — which the parent detects and requeues onto the
surviving shards.  Failure isolation inside a batch: per-job injected
faults and per-job construction errors fail only that job; an engine-level
error fails the whole batch (the streams ran jointly), classified for the
retry policy.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.fleet import BudgetLedger
from repro.experiments.runner import ExperimentRunner, SystemBundle
from repro.service.jobs import InjectedFaultError, classify_error
from repro.service.ledger import SharedDailyLedger
from repro.workloads.fleet import FleetScenario

#: Message kinds on the worker inbox / results queues.
MSG_BATCH = "batch"
MSG_STOP = "stop"
MSG_BATCH_DONE = "batch_done"


@dataclass(frozen=True)
class JobAssignment:
    """What a worker needs to run one job of a batch (picklable, tiny)."""

    job_id: str
    stream_id: str
    attempt: int  # 1-based dispatch count, drives injected faults
    inject_failures: int = 0
    system: Optional[str] = None


@dataclass
class JobOutcome:
    """One job's result reported back to the parent service."""

    job_id: str
    ok: bool
    error_code: Optional[str] = None
    error_message: Optional[str] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    lags: Optional[List[float]] = None


@dataclass(frozen=True)
class WorkerConfig:
    """Per-shard execution knobs, fixed at worker spawn."""

    shard_id: int
    system: str = "static"
    scheduler: str = "fifo"
    cores: int = 8
    buffer_bytes: Optional[int] = None
    cloud_budget_per_day: Optional[float] = None
    collect_lags: bool = False


def run_batch(
    runner: ExperimentRunner,
    scenario: FleetScenario,
    ledger: SharedDailyLedger,
    config: WorkerConfig,
    batch: List[JobAssignment],
    tenant_ledgers: Optional[Dict[str, BudgetLedger]] = None,
) -> List[JobOutcome]:
    """Execute one batch of assignments through one joint fleet run.

    ``tenant_ledgers`` maps tenant ids to per-tenant budget ledgers (the
    deployed fleet plan's sub-budgets); streams of mapped tenants charge
    their tenant's capped ledger instead of the shard-wide shared one.
    """
    outcomes: List[JobOutcome] = []
    live: List[JobAssignment] = []
    for assignment in batch:
        if assignment.attempt <= assignment.inject_failures:
            error = InjectedFaultError(
                f"injected fault on attempt {assignment.attempt} of "
                f"{assignment.inject_failures}"
            )
            outcomes.append(
                JobOutcome(
                    job_id=assignment.job_id,
                    ok=False,
                    error_code=classify_error(error),
                    error_message=str(error),
                )
            )
        else:
            live.append(assignment)
    if not live:
        return outcomes

    sub = scenario.subset([assignment.stream_id for assignment in live])
    # A job-level system override wins over the scenario spec's.
    overrides = {a.stream_id: a.system for a in live if a.system is not None}
    if overrides:
        sub.streams = [
            replace(spec, system=overrides.get(spec.stream_id, spec.system))
            for spec in sub.streams
        ]
    try:
        result = runner.run_fleet(
            config.system,
            scenario=sub,
            scheduler=config.scheduler,
            cores=config.cores,
            buffer_bytes=config.buffer_bytes,
            cloud_budget_per_day=config.cloud_budget_per_day,
            keep_traces=config.collect_lags,
            ledger=ledger,
            tenant_ledgers=tenant_ledgers,
        )
    except Exception as error:  # engine-level failure fails the whole batch
        code = classify_error(error)
        message = f"{type(error).__name__}: {error}"
        for assignment in live:
            outcomes.append(
                JobOutcome(
                    job_id=assignment.job_id,
                    ok=False,
                    error_code=code,
                    error_message=message,
                )
            )
        return outcomes

    for assignment in live:
        stream_result = result.stream_results[assignment.stream_id]
        processed = stream_result.segments_total - stream_result.segments_dropped
        metrics = {
            "segments_total": float(stream_result.segments_total),
            "segments_dropped": float(stream_result.segments_dropped),
            "quality": (
                stream_result.total_true_quality / stream_result.segments_total
                if stream_result.segments_total
                else 0.0
            ),
            "cloud_dollars": stream_result.cloud_dollars,
            "mean_lag_s": (
                stream_result.total_lag_seconds / processed if processed else 0.0
            ),
            "max_lag_s": stream_result.max_lag_seconds,
        }
        lags = None
        if config.collect_lags:
            lags = [
                trace.start_time - trace.arrival_time
                for trace in stream_result.traces
                if not trace.dropped
            ]
        outcomes.append(
            JobOutcome(
                job_id=assignment.job_id, ok=True, metrics=metrics, lags=lags
            )
        )
    return outcomes


def worker_main(
    config: WorkerConfig,
    bundle: SystemBundle,
    scenario: FleetScenario,
    ledger: SharedDailyLedger,
    inbox: "queue.Queue",
    results: "queue.Queue",
    tenant_ledgers: Optional[Dict[str, BudgetLedger]] = None,
) -> None:
    """Worker process entry point: serve batches until ``stop`` (or EOF).

    ``tenant_ledgers`` (per-tenant capped sub-ledgers of ``ledger``, built
    from a fleet plan) must be picklable shared-memory ledgers — every
    shard enforces the same tenant caps.
    """
    runner = ExperimentRunner(bundle)
    while True:
        try:
            message = inbox.get()
        except (EOFError, OSError):  # parent went away
            return
        if message[0] == MSG_STOP:
            return
        _, batch_id, batch = message
        outcomes = run_batch(
            runner, scenario, ledger, config, batch, tenant_ledgers=tenant_ledgers
        )
        results.put((MSG_BATCH_DONE, config.shard_id, batch_id, outcomes))
