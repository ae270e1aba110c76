"""Command-line front end of the fleet ingestion service.

Subcommands (``python -m repro.service <cmd>``):

* ``run`` — drain a fleet through sharded workers, either ephemerally
  (``--workload/--streams``) or from a JSON job store (``--store``);
  prints the job table, the shard table, and a machine-readable
  ``BENCH {...}`` line.  ``--inject-crash-shard`` SIGKILLs one worker
  mid-run to exercise crash recovery (the CI smoke job uses this).
* ``submit`` — append queued jobs to a JSON store for a later ``run``.
* ``status`` — job counts, per-tenant breakdown, and the dead-letter queue.
* ``requeue`` — give dead-lettered jobs a fresh lease (``--job-id``/``--all``).
* ``schedulers`` — list the registered fleet schedulers.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

from repro.core.fleet import scheduler_names
from repro.errors import ConfigurationError
from repro.experiments.results import ExperimentTable
from repro.figures.context import BundleProvider, make_setup
from repro.planning.solvers import planner_names
from repro.service.dispatcher import JobDispatcher
from repro.service.jobs import DEAD_LETTER, JOB_STATES, JsonFileJobStore
from repro.service.service import (
    FleetIngestionService,
    RetryPolicy,
    ServiceConfig,
    ServiceReport,
)
from repro.workloads.fleet import make_fleet_scenario


def _parse_injections(spec: Optional[str]) -> Dict[str, int]:
    """Parse ``stream-id=N,stream-id=N`` fault-injection specs."""
    if not spec:
        return {}
    injections: Dict[str, int] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ConfigurationError(
                f"bad --inject-failures entry {part!r}; expected stream-id=N"
            )
        stream_id, _, count = part.partition("=")
        injections[stream_id.strip()] = int(count)
    return injections


def _print_report(report: ServiceReport, store_counts: Dict[str, int]) -> None:
    """Human-readable run summary: shard table, counts, DLQ."""
    table = ExperimentTable("shards")
    for stats in report.shard_stats:
        table.add_row(**stats.as_dict())
    print(table.render())
    summary = ExperimentTable("service run")
    summary.add_row(
        wall_s=round(report.wall_seconds, 3),
        segments=report.segments_total,
        drop_rate=round(report.drop_rate, 4),
        p99_lag_s=round(report.p99_lag_seconds, 3),
        jain_fairness=round(report.jain_fairness, 4),
        cloud_usd=round(report.cloud_total_dollars, 4),
        **store_counts,
    )
    print(summary.render())
    if report.dead_letter:
        dlq = ExperimentTable("dead-letter queue")
        for entry in report.dead_letter:
            dlq.add_row(**entry)
        print(dlq.render())


def _bundle_for(workload: str, smoke: bool):
    """A fitted bundle at the suite's standard windows for the mode."""
    return BundleProvider(smoke=smoke).bundle(workload)


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: drain jobs through the sharded service and report."""
    config = ServiceConfig(
        n_shards=args.shards,
        system=args.system,
        scheduler=args.scheduler,
        cores_per_shard=args.cores,
        buffer_bytes=args.buffer_bytes,
        retry=RetryPolicy(max_retries=args.max_retries),
        collect_lags=True,
        planner=args.planner,
    )
    if args.store:
        store = JsonFileJobStore(args.store)
        if not store.meta:
            raise ConfigurationError(
                f"store {args.store} is empty; submit jobs first"
            )
        workload = store.meta["workload"]
        smoke = bool(store.meta.get("smoke", False))
        bundle = _bundle_for(workload, smoke)
        scenario = make_fleet_scenario(
            bundle.setup,
            int(store.meta["streams"]),
            phase_shift_seconds=float(store.meta.get("phase_shift_seconds", 60.0)),
            heterogeneous=bool(store.meta.get("heterogeneous", False)),
        )
        service = FleetIngestionService(bundle, config, store=store)
        service.attach_scenario(scenario)
    else:
        smoke = bool(args.smoke)
        bundle = _bundle_for(args.workload, smoke)
        service = FleetIngestionService(bundle, config)
        service.submit_fleet(
            n_streams=args.streams,
            phase_shift_seconds=args.phase_shift_seconds,
            tenants=args.tenants.split(",") if args.tenants else None,
            inject_failures=_parse_injections(args.inject_failures),
        )
    report = service.run(
        crash_shard=args.inject_crash_shard,
        crash_on_batch=args.crash_on_batch,
        timeout_seconds=args.timeout,
    )
    counts = service.store.counts()
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True))
    else:
        _print_report(report, counts)
    mode = "smoke" if smoke else "full"
    all_terminal = counts["success"] + counts["dead_letter"] == sum(counts.values())
    print(
        "BENCH "
        + json.dumps(
            {
                "benchmark": "fleet_service",
                "mode": mode,
                "status": "ok" if all_terminal else "error",
                **report.as_dict(),
            },
            sort_keys=True,
        )
    )
    return 0 if all_terminal else 1


def cmd_submit(args: argparse.Namespace) -> int:
    """``submit``: append queued jobs to a JSON store for a later run."""
    store = JsonFileJobStore(args.store)
    if store.meta and store.meta["workload"] != args.workload:
        raise ConfigurationError(
            f"store already holds {store.meta['workload']!r} jobs; one "
            "workload per store"
        )
    start = int(store.meta.get("streams", 0))
    total = start + args.streams
    # Building the scenario (no offline fit involved) yields the exact
    # stream ids a later `run` will rebuild for these indexes.
    provider = BundleProvider(smoke=args.smoke)
    setup = make_setup(args.workload, provider.history_days, provider.online_days)
    scenario = make_fleet_scenario(
        setup,
        total,
        phase_shift_seconds=args.phase_shift_seconds,
        tenants=args.tenants.split(",") if args.tenants else None,
    )
    dispatcher = JobDispatcher(store)
    now = time.time()
    for index in range(start, total):
        spec = scenario.streams[index]
        dispatcher.submit(
            stream_id=spec.stream_id,
            stream_index=index,
            tenant_id=args.tenant or spec.tenant,
            max_retries=args.max_retries,
            now=now,
        )
    store.set_meta(
        workload=args.workload,
        smoke=bool(args.smoke),
        streams=total,
        phase_shift_seconds=args.phase_shift_seconds,
        heterogeneous=False,
    )
    print(f"submitted {args.streams} jobs (store now {total} streams): {args.store}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """``status``: job counts, tenants, and the dead-letter queue."""
    store = JsonFileJobStore(args.store)
    counts = store.counts()
    if args.json:
        print(json.dumps({"meta": store.meta, "counts": counts}, sort_keys=True))
        return 0
    table = ExperimentTable("job counts")
    table.add_row(**counts)
    print(table.render())
    tenants = sorted({job.tenant_id for job in store.list()})
    if len(tenants) > 1:
        tenant_table = ExperimentTable("per tenant")
        for tenant in tenants:
            row = {state: 0 for state in JOB_STATES}
            for job in store.list(tenant_id=tenant):
                row[job.status] += 1
            tenant_table.add_row(tenant=tenant, **row)
        print(tenant_table.render())
    dlq = store.list(status=DEAD_LETTER)
    if dlq:
        dlq_table = ExperimentTable("dead-letter queue")
        for job in dlq:
            dlq_table.add_row(
                job_id=job.job_id,
                stream_id=job.stream_id,
                tenant=job.tenant_id,
                error_code=job.error_code,
                retries=job.retry_count,
            )
        print(dlq_table.render())
    return 0


def cmd_requeue(args: argparse.Namespace) -> int:
    """``requeue``: move dead-lettered jobs back to the queue."""
    store = JsonFileJobStore(args.store)
    dispatcher = JobDispatcher(store)
    now = time.time()
    if args.all:
        job_ids = [job.job_id for job in store.list(status=DEAD_LETTER)]
    elif args.job_id:
        job_ids = [args.job_id]
    else:
        raise ConfigurationError("pass --job-id or --all")
    for job_id in job_ids:
        dispatcher.requeue_from_dlq(job_id, now=now)
    print(f"requeued {len(job_ids)} job(s) from the dead-letter queue")
    return 0


def cmd_schedulers(args: argparse.Namespace) -> int:
    """``schedulers``: list the registered fleet schedulers."""
    for name in scheduler_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.service`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Sharded fleet ingestion service over the fleet engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="drain jobs through sharded workers")
    run.add_argument("--workload", default="ev", help="workload for ephemeral runs")
    run.add_argument("--streams", type=int, default=8, help="fleet size (ephemeral)")
    run.add_argument("--store", default=None, help="JSON job store to drain instead")
    run.add_argument("--shards", type=int, default=2)
    run.add_argument("--system", default="static")
    run.add_argument("--scheduler", default="fifo")
    run.add_argument("--cores", type=int, default=8, help="cores per shard cluster")
    run.add_argument("--buffer-bytes", type=int, default=256_000_000)
    run.add_argument("--max-retries", type=int, default=3)
    run.add_argument("--phase-shift-seconds", type=float, default=60.0)
    run.add_argument("--tenants", default=None, help="comma list, round-robin")
    run.add_argument(
        "--planner",
        default=None,
        choices=planner_names(),
        help="joint fleet planner: allocate the shared budget/cores across "
        "tenants and enforce per-tenant sub-budgets",
    )
    run.add_argument("--smoke", action="store_true", help="CI-sized windows")
    run.add_argument("--timeout", type=float, default=600.0)
    run.add_argument("--json", action="store_true", help="machine-readable report")
    run.add_argument(
        "--inject-failures",
        default=None,
        help="stream-id=N,...: fail the first N attempts of those jobs",
    )
    run.add_argument(
        "--inject-crash-shard",
        type=int,
        default=None,
        help="SIGKILL this shard's worker mid-run (crash-recovery smoke)",
    )
    run.add_argument("--crash-on-batch", type=int, default=1)
    run.set_defaults(func=cmd_run)

    submit = sub.add_parser("submit", help="queue jobs into a JSON store")
    submit.add_argument("--store", required=True)
    submit.add_argument("--workload", default="ev")
    submit.add_argument("--streams", type=int, required=True)
    submit.add_argument("--tenant", default=None, help="single tenant for all jobs")
    submit.add_argument("--tenants", default=None, help="comma list, round-robin")
    submit.add_argument("--max-retries", type=int, default=3)
    submit.add_argument("--phase-shift-seconds", type=float, default=60.0)
    submit.add_argument("--smoke", action="store_true")
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser("status", help="job counts and the DLQ")
    status.add_argument("--store", required=True)
    status.add_argument("--json", action="store_true")
    status.set_defaults(func=cmd_status)

    requeue = sub.add_parser("requeue", help="requeue dead-lettered jobs")
    requeue.add_argument("--store", required=True)
    requeue.add_argument("--job-id", default=None)
    requeue.add_argument("--all", action="store_true")
    requeue.set_defaults(func=cmd_requeue)

    schedulers = sub.add_parser("schedulers", help="list registered schedulers")
    schedulers.set_defaults(func=cmd_schedulers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)
