"""The lag-aware scheduler's fill heap against the frozen linear scan.

``LagAwareScheduler`` keeps the ready streams in a lazy heap that the fleet
engine updates after every admitted arrival and finish.  A seeded random
walk replays the engine's event protocol over fake sessions — admitted
arrivals, finishes and serves — and after every step checks that
``select`` picks the stream the frozen scan in :mod:`repro.core.reference`
picks, and that stale entries never grow the heap past its compaction
bound.
"""

import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.baselines.static import StaticPolicy, best_static_configuration
from repro.cluster.resources import CloudSpec, ClusterSpec
from repro.core.fleet import FleetEngine, FleetStream, LagAwareScheduler, make_scheduler
from repro.core.reference import frozen_scheduler_rule
from repro.workloads.base import WorkloadSetup
from repro.workloads.fleet import make_fleet_scenario

ONLINE_START = 0.25 * 86_400.0

#: Few distinct sizes, capacities and arrival steps, so fills and lags tie
#: often; capacity 0 pins the fill at 1.0.
SIZES = (100, 200, 300)
CAPACITIES = (0, 600, 1_000, 1_000)
ARRIVAL_STEPS = (0.0, 0.0, 0.01, 0.5, 3.0)


def _drive(seed: int) -> int:
    """One random event sequence; returns the number of select checks."""
    rng = random.Random(seed)
    n_streams = rng.randint(1, 40)
    # At 1e15 the float spacing is 0.125, so lags of arrivals 0.01 s apart
    # round to the same value and the scan falls back to fleet order.
    huge_now = rng.random() < 0.25
    sessions = [
        SimpleNamespace(
            index=index,
            pending=deque(),
            buffer_bytes=0,
            buffer_capacity_bytes=rng.choice(CAPACITIES),
        )
        for index in range(n_streams)
    ]
    in_flight = []  # (session, bytes) served but not yet finished
    scheduler = LagAwareScheduler()
    frozen = frozen_scheduler_rule("lag-aware")
    clock = 0.0
    checks = 0
    for _ in range(rng.randint(50, 400)):
        clock += rng.choice(ARRIVAL_STEPS)
        now = 1e15 if huge_now else clock
        roll = rng.random()
        if roll < 0.45:
            session = rng.choice(sessions)
            size = rng.choice(SIZES)
            session.pending.append(SimpleNamespace(arrival_time=clock, size=size))
            session.buffer_bytes += size
            scheduler.update(session)
        elif roll < 0.7 and in_flight:
            session, size = in_flight.pop(rng.randrange(len(in_flight)))
            session.buffer_bytes -= size
            scheduler.update(session)
        else:
            ready = [session for session in sessions if session.pending]
            if ready:
                chosen = scheduler.select(ready, now)
                in_flight.append((chosen, chosen.pending.popleft().size))
        ready = [session for session in sessions if session.pending]
        if ready:
            expected = frozen.select(ready, now)
            actual = scheduler.select(ready, now)
            assert actual is expected, (seed, actual.index, expected.index)
            checks += 1
        assert len(scheduler._heap) <= 2 * n_streams, seed
    return checks


def test_heap_select_matches_frozen_scan():
    checks = sum(_drive(seed) for seed in range(300))
    assert checks > 60_000


def _static_fleet(sky, workload, source, n_streams):
    setup = WorkloadSetup(workload=workload, source=source, history_days=0.25, online_days=0.01)
    scenario = make_fleet_scenario(setup, n_streams, phase_shift_seconds=0.0)
    profile = best_static_configuration(sky.profiles, source.segment_seconds, cores=8)
    return [
        FleetStream(
            workload=workload,
            source=spec.source,
            policy=StaticPolicy(sky.profiles, profile),
            stream_id=spec.stream_id,
            buffer_capacity_bytes=1_000_000,
        )
        for spec in scenario.streams
    ]


@pytest.mark.parametrize("name", ["round-robin", "lag-aware"])
def test_reused_scheduler_instance_repeats_its_run(
    name, fitted_skyscraper, covid_workload, covid_source
):
    """``reset`` at the start of every run: one instance, two equal runs
    (round-robin's cursor would otherwise carry over)."""
    scheduler = make_scheduler(name)
    engine = FleetEngine(
        cluster=ClusterSpec(cores=8),
        cloud=CloudSpec(daily_budget_dollars=2.0),
        scheduler=scheduler,
        keep_traces=True,
    )
    runs = [
        engine.run(
            _static_fleet(fitted_skyscraper, covid_workload, covid_source, 12),
            ONLINE_START,
            ONLINE_START + 300.0,
        )
        for _ in range(2)
    ]
    assert runs[0].stream_results == runs[1].stream_results
    assert runs[0].segments_dropped > 0
