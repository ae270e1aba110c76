"""The multi-stream fleet engine: N streams on one shared cluster.

One :class:`FleetEngine` ingests a fleet of streams concurrently on a single
:class:`~repro.cluster.resources.ClusterSpec`: arrivals and finishes from all
streams interleave on one event loop (:mod:`repro.core.events`), the cloud's
daily budget is a shared ledger across the fleet, and whenever the cluster
frees up a pluggable :class:`Scheduler` decides which stream's pending
segment gets the cores next.

Built-in schedulers:

* ``"fifo"`` — globally oldest pending segment first (arrival order across
  the whole fleet);
* ``"round-robin"`` — cycle through the streams in fleet order, skipping
  streams with nothing pending;
* ``"lag-aware"`` — serve the stream at greatest risk of violating its
  buffer bound first: highest buffer-fill fraction, ties broken by lag.

The single-stream :class:`~repro.core.engine.IngestionEngine` is a thin
wrapper over a one-stream fleet, with bit-for-bit identical results.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.engine import IngestionResult, Policy, SECONDS_PER_DAY
from repro.core.events import ARRIVAL, FINISH, EventLoop, StreamSession
from repro.core.interfaces import VETLWorkload
from repro.errors import ConfigurationError
from repro.video.stream import SyntheticVideoSource


# --------------------------------------------------------------------- #
# Shared daily cloud-budget ledger
# --------------------------------------------------------------------- #
class BudgetLedger(Protocol):
    """A daily cloud budget that fleet streams charge their spend to.

    :class:`DailyBudgetLedger` keeps one in process;
    :class:`repro.service.ledger.SharedDailyLedger` shares one across worker
    processes; :class:`repro.planning.allocation.TenantSubLedger` caps one
    tenant's spend inside another ledger.
    """

    def remaining(self, time: float) -> float:
        """Budget left for the day containing ``time`` (``inf`` if unlimited)."""
        ...

    def charge(self, time: float, dollars: float) -> None:
        """Charge ``dollars`` against the day containing ``time``.

        ``dollars`` must be non-negative: a negative charge raises
        :class:`~repro.errors.ConfigurationError`, and a rejected charge
        changes no ledger.
        """
        ...

    def spent_on(self, time: float) -> float:
        """Dollars already spent during the day containing ``time``."""
        ...

    @property
    def spend_by_day(self) -> Dict[int, float]:
        """Spend per day index."""
        ...

    @property
    def total_dollars(self) -> float:
        """Spend across every day."""
        ...


class DailyBudgetLedger:
    """Cloud spend charged against a daily budget shared by a whole fleet.

    The budget resets at every day boundary (``time // 86_400``): spend is
    bucketed by day index, and the remaining budget at any instant is the
    daily allowance minus what the fleet already spent that day.  A ``None``
    budget means unlimited cloud.
    """

    def __init__(self, daily_budget_dollars: Optional[float]):
        if daily_budget_dollars is not None and daily_budget_dollars < 0:
            raise ConfigurationError("daily_budget_dollars must be non-negative")
        self.daily_budget_dollars = daily_budget_dollars
        self.spend_by_day: Dict[int, float] = {}
        # Current-day bucket cache: ``remaining``/``charge`` run per segment
        # and almost always hit the same day, so the day index and its spend
        # are kept hot between consecutive same-day calls.
        self._cached_day: Optional[int] = None
        self._cached_spend = 0.0

    @staticmethod
    def day_of(time: float) -> int:
        return int(time // SECONDS_PER_DAY)

    def _day_spend(self, day: int) -> float:
        if day != self._cached_day:
            self._cached_day = day
            self._cached_spend = self.spend_by_day.get(day, 0.0)
        return self._cached_spend

    def spent_on(self, time: float) -> float:
        """Dollars already spent during the day containing ``time``."""
        return self._day_spend(self.day_of(time))

    def remaining(self, time: float) -> float:
        """Budget left for the day containing ``time`` (``inf`` if unlimited)."""
        if self.daily_budget_dollars is None:
            return float("inf")
        return max(self.daily_budget_dollars - self.spent_on(time), 0.0)

    def charge(self, time: float, dollars: float) -> None:
        """Charge ``dollars`` against the day containing ``time``."""
        if dollars < 0:
            raise ConfigurationError("cannot charge negative dollars")
        day = self.day_of(time)
        spend = self._day_spend(day) + dollars
        self.spend_by_day[day] = spend
        self._cached_spend = spend

    @property
    def total_dollars(self) -> float:
        return sum(self.spend_by_day.values())


# --------------------------------------------------------------------- #
# Pluggable schedulers
# --------------------------------------------------------------------- #
class Scheduler(Protocol):
    """Decides which ready stream's pending segment gets the cluster next.

    A scheduler implements three methods, each called by the fleet engine:

    * ``reset()`` once at the start of every run, so an instance reused
      across runs starts clean;
    * ``update(session)`` after every admitted arrival and every finish of
      ``session`` — the only events that change a session's buffer fill or
      make an empty queue non-empty;
    * ``select(ready, now)`` once per serve: ``ready`` holds the sessions
      with at least one pending segment, in fleet order; it returns one.

    A scheduler that only scans ``ready`` makes ``update`` a no-op.  The
    fleet engine builds a fresh instance per run when given a name.
    """

    name: str

    def reset(self) -> None:
        ...

    def update(self, session: StreamSession) -> None:
        ...

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        ...


_SCHEDULERS: Dict[str, Callable[[], "Scheduler"]] = {}


def register_scheduler(name: str) -> Callable[[Callable[[], "Scheduler"]], Callable[[], "Scheduler"]]:
    """Register a scheduler factory under ``name`` (used by ``scheduler=`` strings)."""
    if not name:
        raise ConfigurationError("scheduler name must be non-empty")

    def decorate(factory: Callable[[], "Scheduler"]) -> Callable[[], "Scheduler"]:
        if name in _SCHEDULERS:
            raise ConfigurationError(f"scheduler {name!r} is already registered")
        _SCHEDULERS[name] = factory
        return factory

    return decorate


def scheduler_names() -> List[str]:
    """Names of every registered scheduler, sorted."""
    return sorted(_SCHEDULERS)


def make_scheduler(scheduler: Union[str, "Scheduler"]) -> "Scheduler":
    """Resolve ``scheduler``: a registered name builds a fresh instance."""
    if isinstance(scheduler, str):
        if scheduler not in _SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {scheduler!r}; registered: {scheduler_names()}"
            )
        return _SCHEDULERS[scheduler]()
    return scheduler


@register_scheduler("fifo")
class FifoScheduler:
    """Globally oldest pending segment first (fleet-wide arrival order)."""

    name = "fifo"

    def reset(self) -> None:
        pass

    def update(self, session: StreamSession) -> None:
        pass

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        return min(ready, key=lambda session: session.pending[0].arrival_time)


@register_scheduler("round-robin")
class RoundRobinScheduler:
    """Cycle through the streams in fleet order, skipping idle streams."""

    name = "round-robin"

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._cursor = 0

    def update(self, session: StreamSession) -> None:
        pass

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        chosen = next(
            (session for session in ready if session.index >= self._cursor), ready[0]
        )
        self._cursor = chosen.index + 1
        return chosen


#: A lag-aware heap entry: ``(-fill, stream index, version, session)``.
_FillEntry = Tuple[float, int, int, StreamSession]


@register_scheduler("lag-aware")
class LagAwareScheduler:
    """Overflow-risk priority: fullest buffer first, ties broken by lag.

    A stream whose buffer is nearly full is about to drop segments no matter
    how patient the others are, so it gets the cores first; among equally
    endangered streams the one that has waited longest wins.

    A stream's fill only changes on an admitted arrival or a finish, so the
    ready streams sit in a lazy heap keyed ``(-fill, index, version)`` that
    ``update`` pushes to.  ``select`` drops stale entries (an older version,
    or a queue the engine has emptied) and compares lags only within the
    group sharing the top fill, in fleet order: the stream a ``(fill, lag)``
    max over every ready stream picks, ties included.  Once the heap holds
    more than twice as many entries as there are streams it is rebuilt from
    its live entries.
    """

    name = "lag-aware"

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._heap: List[_FillEntry] = []
        self._versions: Dict[int, int] = {}

    def update(self, session: StreamSession) -> None:
        index = session.index
        version = self._versions.get(index, 0) + 1
        self._versions[index] = version
        if not session.pending:
            return
        capacity = session.buffer_capacity_bytes
        fill = session.buffer_bytes / capacity if capacity > 0 else 1.0
        heappush(self._heap, (-fill, index, version, session))
        if len(self._heap) > 2 * len(self._versions):
            self._heap = [entry for entry in self._heap if self._live(entry)]
            heapify(self._heap)

    def _live(self, entry: _FillEntry) -> bool:
        return entry[2] == self._versions[entry[1]] and bool(entry[3].pending)

    def select(self, ready: Sequence[StreamSession], now: float) -> StreamSession:
        heap = self._heap
        top = heappop(heap)
        while not self._live(top):
            top = heappop(heap)
        group = [top]
        while heap and heap[0][0] == top[0]:
            entry = heappop(heap)
            if self._live(entry):
                group.append(entry)
        for entry in group:
            heappush(heap, entry)
        if len(group) == 1:
            return top[3]
        # Equal fills: the first longest-waiting stream in fleet order.
        return max(
            (entry[3] for entry in group),
            key=lambda session: now - session.pending[0].arrival_time,
        )


# --------------------------------------------------------------------- #
# Fleet streams and results
# --------------------------------------------------------------------- #
@dataclass
class FleetStream:
    """One member stream of a fleet ingestion.

    Attributes:
        workload: the stream's V-ETL job.
        source: the stream's video source.
        policy: the stream's decision policy (one instance per stream —
            policies are stateful and must not be shared).
        stream_id: identifier used in results; defaults to the source's.
        buffer_capacity_bytes: the stream's video-buffer size.
        ledger: optional per-stream budget ledger overriding the engine's
            shared one — how a fleet plan's per-tenant sub-budgets deploy
            (see :class:`repro.planning.allocation.TenantSubLedger`, whose
            charges forward to the shared ledger so fleet-wide accounting
            stays intact).
    """

    workload: VETLWorkload
    source: SyntheticVideoSource
    policy: Policy
    stream_id: Optional[str] = None
    buffer_capacity_bytes: int = 4_000_000_000
    ledger: Optional[BudgetLedger] = None


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet ingestion.

    Per-stream :class:`IngestionResult` objects carry the detailed telemetry;
    the aggregate properties fold them into fleet-level metrics.  See
    :func:`repro.experiments.results.fleet_point` for the flattened record
    used by sweeps and benchmarks.
    """

    scheduler: str
    start_time: float
    end_time: float
    stream_results: Dict[str, IngestionResult] = field(default_factory=dict)
    cloud_spend_by_day: Dict[int, float] = field(default_factory=dict)

    @property
    def n_streams(self) -> int:
        return len(self.stream_results)

    @property
    def results(self) -> List[IngestionResult]:
        return list(self.stream_results.values())

    @property
    def segments_total(self) -> int:
        return sum(result.segments_total for result in self.results)

    @property
    def segments_dropped(self) -> int:
        return sum(result.segments_dropped for result in self.results)

    @property
    def overflow_count(self) -> int:
        return sum(result.overflow_count for result in self.results)

    @property
    def overflowed(self) -> bool:
        return any(result.overflowed for result in self.results)

    @property
    def cloud_dollars(self) -> float:
        return sum(result.cloud_dollars for result in self.results)

    @property
    def on_prem_core_seconds(self) -> float:
        return sum(result.on_prem_core_seconds for result in self.results)

    @property
    def cloud_core_seconds(self) -> float:
        return sum(result.cloud_core_seconds for result in self.results)

    @property
    def total_work_core_seconds(self) -> float:
        return self.on_prem_core_seconds + self.cloud_core_seconds

    @property
    def peak_buffer_bytes(self) -> int:
        return max((result.peak_buffer_bytes for result in self.results), default=0)

    @property
    def weighted_quality(self) -> float:
        """Entity-weighted quality pooled across the whole fleet."""
        weight = sum(result.total_quality_weight for result in self.results)
        if weight <= 0:
            return self.mean_true_quality
        return sum(result.total_weighted_quality for result in self.results) / weight

    @property
    def mean_true_quality(self) -> float:
        total = self.segments_total
        if total == 0:
            return 0.0
        return sum(result.total_true_quality for result in self.results) / total

    @property
    def max_lag_seconds(self) -> float:
        return max((result.max_lag_seconds for result in self.results), default=0.0)

    @property
    def mean_lag_seconds(self) -> float:
        processed = self.segments_total - self.segments_dropped
        if processed <= 0:
            return 0.0
        return sum(result.total_lag_seconds for result in self.results) / processed


# --------------------------------------------------------------------- #
# The fleet engine
# --------------------------------------------------------------------- #
class FleetEngine:
    """Ingests N streams concurrently on one shared cluster.

    The engine serializes segment processing on the shared cluster — at most
    one segment is on the cores at a time, exactly as in the single-stream
    reference model — and interleaves the streams' arrivals, decisions and
    finishes on an event loop.  Which pending segment runs next is the
    scheduler's call.

    Args:
        cluster: the shared on-premise hardware.
        cloud: shared cloud specification; its ``daily_budget_dollars`` funds
            the whole fleet through one :class:`DailyBudgetLedger`.
        scheduler: a registered scheduler name (``"fifo"``,
            ``"round-robin"``, ``"lag-aware"``) or a :class:`Scheduler`
            instance.  Names build a fresh instance per run; an instance
            is ``reset`` at the start of every run.
        keep_traces: whether sessions record per-segment traces.
        ledger: an external budget ledger to charge instead of a fresh
            per-run :class:`DailyBudgetLedger` — how sharded fleets spend
            one shared daily budget across engines (see
            :class:`repro.service.ledger.SharedDailyLedger`).  With an
            external ledger the result's ``cloud_spend_by_day`` reflects
            the *shared* ledger, not just this engine's charges.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        cloud: Optional[CloudSpec] = None,
        scheduler: Union[str, Scheduler] = "fifo",
        keep_traces: bool = True,
        ledger: Optional[BudgetLedger] = None,
    ):
        self.cluster = cluster
        self.cloud = cloud or CloudSpec()
        self.scheduler = scheduler
        self.keep_traces = keep_traces
        self.ledger = ledger

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        streams: Sequence[FleetStream],
        start_time: float,
        end_time: float,
    ) -> FleetResult:
        """Ingest every stream over ``[start_time, end_time)`` concurrently."""
        if end_time <= start_time:
            raise ConfigurationError("end_time must be after start_time")
        if not streams:
            raise ConfigurationError("a fleet needs at least one stream")

        sessions: List[StreamSession] = []
        seen_ids: Dict[str, int] = {}
        for index, stream in enumerate(streams):
            session = StreamSession(
                workload=stream.workload,
                source=stream.source,
                policy=stream.policy,
                buffer_capacity_bytes=stream.buffer_capacity_bytes,
                stream_id=stream.stream_id,
                keep_traces=self.keep_traces,
            )
            if session.stream_id in seen_ids:
                raise ConfigurationError(
                    f"duplicate stream_id {session.stream_id!r} in fleet "
                    f"(streams {seen_ids[session.stream_id]} and {index}); "
                    "give each stream a unique stream_id"
                )
            seen_ids[session.stream_id] = index
            session.index = index
            sessions.append(session)

        scheduler = make_scheduler(self.scheduler)
        scheduler.reset()
        ledger: BudgetLedger = (
            self.ledger
            if self.ledger is not None
            else DailyBudgetLedger(self.cloud.daily_budget_dollars)
        )
        # Streams with their own ledger (per-tenant sub-budgets) charge it
        # instead of the shared one; sub-ledgers forward to the shared
        # ledger themselves, so the fleet total stays consistent.
        stream_ledgers = [
            stream.ledger if stream.ledger is not None else ledger
            for stream in streams
        ]
        loop = EventLoop()
        for session in sessions:
            session.start(start_time, end_time)
            self._schedule_next_arrival(loop, session)

        busy_until = start_time
        # ``ready`` holds the sessions with pending segments, in fleet order:
        # a session enters when an arrival lands in its empty queue and
        # leaves when its last pending segment is served.  The scheduler
        # hears of every admitted arrival and finish through ``update``,
        # which keeps an index of its own (lag-aware's fill heap) current.
        ready: List[StreamSession] = []
        while len(loop):
            now = loop.next_time()
            # Drain every event at this timestamp (finishes before arrivals)
            # so the scheduler sees a consistent snapshot of the fleet.
            while len(loop) and loop.next_time() == now:
                _, kind, session, payload = loop.pop()
                if kind == FINISH:
                    session.on_finish(payload)
                    scheduler.update(session)
                elif kind == ARRIVAL:
                    if session.on_arrival(payload):
                        if len(session.pending) == 1:
                            insort(ready, session, key=lambda entry: entry.index)
                        scheduler.update(session)
                    self._schedule_next_arrival(loop, session)
            # Hand the cluster to pending segments while it is idle; each
            # decision advances the shared clock, so at most one segment is
            # in flight at any instant.
            while busy_until <= now and ready:
                # Always consult the scheduler, even with one candidate:
                # stateful schedulers (round-robin's cursor) must observe
                # every serve to keep their documented order.
                chosen = scheduler.select(ready, now)
                stream_ledger = stream_ledgers[chosen.index]
                entry = chosen.pending.popleft()
                if not chosen.pending:
                    ready.remove(chosen)
                finish, cloud_dollars = chosen.execute(
                    entry, now, self.cluster, stream_ledger.remaining(now)
                )
                # Zero charges are skipped so cloud-free fleets never pay
                # for a (possibly cross-process) ledger round trip.
                if cloud_dollars:
                    stream_ledger.charge(now, cloud_dollars)
                busy_until = finish
                loop.schedule(finish, FINISH, chosen, entry.encoded_bytes)

        return FleetResult(
            scheduler=scheduler.name,
            start_time=start_time,
            end_time=end_time,
            stream_results={session.stream_id: session.finalize() for session in sessions},
            cloud_spend_by_day=dict(ledger.spend_by_day),
        )

    @staticmethod
    def _schedule_next_arrival(loop: EventLoop, session: StreamSession) -> None:
        arrival = session.next_arrival()
        if arrival is not None:
            arrival_time, position = arrival
            loop.schedule(arrival_time, ARRIVAL, session, position)
