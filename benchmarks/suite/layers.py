"""Outside-in layer tracing: wrap each layer's public functions, then restore.

The benchmark edits nothing under ``src/``.  For the one traced op of a
run, :func:`installed` replaces a fixed set of public functions (a *site*
each) with wrappers that record a span — name, start, end, parent — in a
:class:`Tracer`, and puts the originals back afterwards.  Wrappers pass
arguments and results through untouched, so tracing cannot change outputs;
the benchmark checks that the traced op's outputs equal the untraced ones.

A layer's *self* time is its span durations minus the time covered by its
child spans; summed over every span of an op it attributes each traced
second to exactly one layer.
"""

from __future__ import annotations

import json
import multiprocessing.process
import multiprocessing.queues
import os
import pickle
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.core.filtering
import repro.core.offline
import repro.experiments.runner
import repro.service.service
import repro.service.worker
from repro.baselines.static import StaticPolicy
from repro.core.categorizer import ContentCategorizer
from repro.core.columnar import SessionColumns
from repro.core.events import StreamSession
from repro.core.fleet import (
    DailyBudgetLedger,
    FifoScheduler,
    FleetEngine,
    LagAwareScheduler,
    RoundRobinScheduler,
)
from repro.core.forecaster import ContentForecaster
from repro.core.planner import KnobPlanner
from repro.core.policy import SkyscraperPolicy
from repro.core.switcher import KnobSwitcher
from repro.experiments.runner import ExperimentRunner
from repro.service.dispatcher import JobDispatcher
from repro.service.jobs import JobStore
from repro.service.ledger import SharedDailyLedger
from repro.service.service import FleetIngestionService
from repro.video.content import ContentModel
from repro.workloads.base import BaseWorkload
from repro.workloads.ev import EVCountingWorkload


class Tracer:
    """Nestable ``perf_counter`` spans kept in memory, with per-name totals.

    A forked child process inherits the parent's tracer mid-span; the first
    span it opens resets the copy, so a child records only its own spans.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> every span duration, for percentiles
        self.durations: Dict[str, List[float]] = {}
        #: name -> accumulated amount (bytes, pairs, ...)
        self.amounts: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # [span index, child seconds]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        amount: Optional[Callable[[tuple, Any], float]] = None,
        after: Optional[Callable[["Tracer"], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call.

        ``amount(args, result)`` adds to :attr:`amounts`; ``after`` runs once
        the span is closed (a shard uses it to flush its spans to disk).
        """
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._reset()
            stack = tracer._stack
            spans = tracer.spans
            index = len(spans)
            parent = int(stack[-1][0]) if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent)
                entry = tracer.totals.get(name)
                if entry is None:
                    entry = tracer.totals[name] = [0, 0.0, 0.0]
                    tracer.durations[name] = []
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                tracer.durations[name].append(duration)
                if amount is not None:
                    tracer.amounts[name] = tracer.amounts.get(name, 0.0) + amount(
                        args, result
                    )
                if after is not None:
                    after(tracer)

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def percentile(self, name: str, fraction: float) -> float:
        """Span duration at ``fraction`` of the sorted durations (0 if none)."""
        ordered = sorted(self.durations.get(name, ()))
        if not ordered:
            return 0.0
        return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]

    def span_records(self, **fields: Any) -> Iterator[Dict[str, Any]]:
        """Every closed span as a JSON-ready record tagged with ``fields``."""
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent = span
            yield {
                **fields,
                "pid": self.pid,
                "span": index,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
            }


@dataclass(frozen=True)
class Site:
    """One patched attribute: ``owner.attr`` becomes a span named ``span``."""

    owner: Any
    attr: str
    span: str
    amount: Optional[Callable[[tuple, Any], float]] = None


def _pairs(args: tuple, result: Any) -> float:
    return float(len(args[1]))


def _pickled_argument(args: tuple, result: Any) -> float:
    return float(len(pickle.dumps(args[1])))


def _pickled_result(args: tuple, result: Any) -> float:
    return float(len(pickle.dumps(result))) if result is not None else 0.0


#: The in-process layers: fleet engine and online policy, offline fit.
ENGINE_SITES: Tuple[Site, ...] = (
    Site(ExperimentRunner, "context_for", "experiments.runner.policy_build"),
    Site(repro.experiments.runner, "create_policy", "experiments.runner.policy_build"),
    Site(FleetEngine, "run", "core.fleet.run"),
    Site(FifoScheduler, "select", "core.fleet.scheduler_select"),
    Site(RoundRobinScheduler, "select", "core.fleet.scheduler_select"),
    Site(LagAwareScheduler, "select", "core.fleet.scheduler_select"),
    Site(DailyBudgetLedger, "remaining", "core.fleet.ledger"),
    Site(DailyBudgetLedger, "charge", "core.fleet.ledger"),
    Site(StreamSession, "on_arrival", "core.events.admit"),
    Site(StreamSession, "execute", "core.events.execute"),
    Site(SessionColumns, "__init__", "core.columnar.session_columns"),
    Site(SessionColumns, "segment", "core.columnar.materialize"),
    Site(ContentModel, "states_at", "video.content.states"),
    Site(SkyscraperPolicy, "decide", "core.policy.decide"),
    Site(StaticPolicy, "decide", "core.policy.decide"),
    Site(KnobSwitcher, "decide", "core.switcher.decide"),
    Site(KnobPlanner, "plan", "core.planner.plan"),
    Site(EVCountingWorkload, "evaluate", "workloads.evaluate"),
    Site(BaseWorkload, "evaluate_many", "workloads.evaluate_many", _pairs),
    Site(repro.core.filtering, "hill_climb", "ml.hillclimb.hill_climb"),
    Site(repro.core.offline, "build_profiles", "core.profiles.build_profiles"),
    Site(ContentCategorizer, "fit", "core.categorizer.fit"),
    Site(ContentCategorizer, "classify_many", "core.categorizer.classify_many"),
    Site(ContentCategorizer, "classify_partial_many", "core.categorizer.classify_many"),
    Site(ContentForecaster, "fit", "core.forecaster.fit"),
)

#: The service layers.  Parent-side sites time the orchestrator; the worker
#: sites are installed before the fork, so the shard processes inherit them.
SERVICE_SITES: Tuple[Site, ...] = (
    Site(FleetIngestionService, "submit_fleet", "service.submit"),
    Site(FleetIngestionService, "run", "service.drain"),
    Site(multiprocessing.process.BaseProcess, "start", "service.spawn"),
    Site(JobDispatcher, "ready_jobs", "service.dispatch"),
    Site(JobStore, "list", "service.dispatch"),
    Site(JobStore, "get", "service.dispatch"),
    Site(JobStore, "update", "service.dispatch"),
    Site(JobStore, "counts", "service.dispatch"),
    Site(multiprocessing.queues.Queue, "put", "service.ipc", _pickled_argument),
    Site(multiprocessing.queues.Queue, "get_nowait", "service.ipc", _pickled_result),
    Site(SharedDailyLedger, "remaining", "service.worker.ledger"),
    Site(SharedDailyLedger, "charge", "service.worker.ledger"),
)


class _SleepProxy:
    """Stands in for the ``time`` module inside one module: only ``sleep`` is traced."""

    def __init__(self, module: Any, sleep: Callable[[float], None]):
        self._module = module
        self.sleep = sleep

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


#: Name of the span file of one shard process.
_SHARD_FILE = "{workload}.shard-{pid}.jsonl"


def collect_shard_files(directory: Path, workload: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Read and remove every shard span file: (per-shard summaries, span lines)."""
    summaries: List[Dict[str, Any]] = []
    span_lines: List[str] = []
    for path in sorted(directory.glob(_SHARD_FILE.format(workload=workload, pid="*"))):
        lines = path.read_text().splitlines()
        summaries.append(json.loads(lines[0]))
        span_lines.extend(lines[1:])
        path.unlink()
    return summaries, span_lines


def _shard_flusher(directory: Path, workload: str) -> Callable[[Tracer], None]:
    """Writes a shard's totals and spans after every batch it runs.

    A shard process ends with ``os._exit``, so nothing written at exit
    would survive; rewriting the file per batch leaves the latest state.
    """

    def flush(tracer: Tracer) -> None:
        summary = {
            "pid": tracer.pid,
            "totals": tracer.totals,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        path = directory / _SHARD_FILE.format(workload=workload, pid=tracer.pid)
        with open(path, "w") as handle:
            handle.write(json.dumps(summary) + "\n")
            for record in tracer.span_records(workload=workload, op="traced"):
                handle.write(json.dumps(record) + "\n")

    return flush


def _replace(owner: Any, attr: str, value: Any) -> Callable[[], None]:
    """Set ``owner.attr`` and return the function that undoes it."""
    had_own = attr in vars(owner)
    original = vars(owner)[attr] if had_own else None
    setattr(owner, attr, value)

    def undo() -> None:
        if had_own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    return undo


@contextmanager
def installed(
    tracer: Tracer,
    sites: Sequence[Site],
    shard_directory: Optional[Path] = None,
    workload: str = "",
) -> Iterator[List[str]]:
    """Wrap every site for the duration of the block; yields the missing sites.

    A site whose attribute no longer exists is skipped and reported (its
    metrics read 0), so a refactor that moves a layer degrades the trace
    instead of failing the run.  ``shard_directory`` enables the service's
    shard-side recording.
    """
    undo: List[Callable[[], None]] = []
    missing: List[str] = []
    try:
        for site in sites:
            original = getattr(site.owner, site.attr, None)
            if not callable(original):
                missing.append(f"{getattr(site.owner, '__name__', site.owner)}.{site.attr}")
                continue
            undo.append(
                _replace(site.owner, site.attr, tracer.wrap(site.span, original, site.amount))
            )
        if shard_directory is not None:
            undo.append(
                _replace(
                    repro.service.worker,
                    "run_batch",
                    tracer.wrap(
                        "service.worker.batch",
                        repro.service.worker.run_batch,
                        after=_shard_flusher(shard_directory, workload),
                    ),
                )
            )
            undo.append(
                _replace(
                    repro.service.service,
                    "time",
                    _SleepProxy(time, tracer.wrap("service.poll_idle", time.sleep)),
                )
            )
        if missing:
            print(f"warning: trace sites not found: {missing}", file=sys.stderr)
        yield missing
    finally:
        for step in reversed(undo):
            step()
