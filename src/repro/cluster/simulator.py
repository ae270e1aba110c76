"""Appendix-M placement simulator.

Given a task graph, a placement (which tasks run on premises, which on the
cloud), the number of on-premise cores and a cloud specification, the
simulator estimates the makespan of executing the graph, the cloud spend and
the bytes pushed through the uplink.  The algorithm follows Appendix M.1:

* on-premise tasks are greedily assigned to the core that frees up earliest;
* cloud tasks occupy the uplink for the time needed to upload their payload,
  then run for their measured round-trip time;
* a task becomes ready when all its parents have finished;
* the simulated runtime is the time the last task finishes.

The graph is first compiled into index arrays (tasks numbered by topological
rank), then each placement is simulated with three heaps: ready tasks keyed
``(ready time, topological rank)``, cores keyed ``(free at, core index)`` and
cloud slots keyed ``(free at, slot index)``.  Ties therefore go to the lowest
topological rank, core index and slot index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.cluster.resources import CloudSpec
from repro.vision.dag import TaskGraph


@dataclass
class SimulatedExecution:
    """Outcome of simulating one task graph under one placement.

    Attributes:
        makespan_seconds: estimated wall-clock time to finish every task.
        on_prem_core_seconds: total busy time summed over on-premise cores.
        cloud_core_seconds: total cloud compute time (excluding network).
        cloud_dollars: estimated cloud spend.
        upload_bytes: total payload pushed through the uplink.
        task_finish_times: per-task estimated completion times, in the order
            the simulator scheduled the tasks.
    """

    makespan_seconds: float
    on_prem_core_seconds: float
    cloud_core_seconds: float
    cloud_dollars: float
    upload_bytes: int
    task_finish_times: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _CompiledGraph:
    """A task graph as index arrays for one cloud spec.

    Task ``i`` is the ``i``-th task of the topological order.  The cloud
    columns hold exactly the values the Appendix-M model adds up, so the
    simulation does no per-task division or lookup by name.
    """

    graph: TaskGraph
    names: Tuple[str, ...]
    children: Tuple[Tuple[int, ...], ...]
    parent_counts: Tuple[int, ...]
    roots: Tuple[Tuple[float, int], ...]
    on_prem_seconds: Tuple[float, ...]
    upload_seconds: Tuple[float, ...]
    download_seconds: Tuple[float, ...]
    cloud_seconds: Tuple[float, ...]
    cloud_compute_seconds: Tuple[float, ...]
    cloud_dollars: Tuple[float, ...]
    upload_bytes: Tuple[int, ...]


class PlacementSimulator:
    """Estimates the runtime of a placed task graph (Appendix M.1).

    Args:
        cores: number of on-premise cores available to the graph.
        cloud: cloud specification (bandwidth, latency, concurrency).
    """

    def __init__(self, cores: int, cloud: Optional[CloudSpec] = None):
        if cores < 1:
            raise ConfigurationError("the simulator needs at least one core")
        self.cores = cores
        self.cloud = cloud or CloudSpec()
        self._idle_cores = tuple((0.0, index) for index in range(cores))
        self._idle_slots = tuple((0.0, index) for index in range(self.cloud.max_concurrency))

    def simulate(self, graph: TaskGraph, placement: Mapping[str, str]) -> SimulatedExecution:
        """Simulate the execution of ``graph`` under ``placement``."""
        return self._run(self._compile(graph), placement)

    def simulate_each(
        self, graph: TaskGraph, placements: Iterable[Mapping[str, str]]
    ) -> Iterator[SimulatedExecution]:
        """Simulate ``graph`` under each placement in turn, compiling it once."""
        compiled = self._compile(graph)
        for placement in placements:
            yield self._run(compiled, placement)

    def _compile(self, graph: TaskGraph) -> _CompiledGraph:
        names = graph.topological_order()
        rank = {name: index for index, name in enumerate(names)}
        costs = [graph.task(name).cost for name in names]
        parent_counts = tuple(len(graph.parents(name)) for name in names)
        cloud = self.cloud
        per_request = cloud.pricing.dollars_per_request
        return _CompiledGraph(
            graph=graph,
            names=tuple(names),
            children=tuple(
                tuple(sorted(rank[child] for child in graph.children(name))) for name in names
            ),
            parent_counts=parent_counts,
            roots=tuple((0.0, index) for index, count in enumerate(parent_counts) if not count),
            on_prem_seconds=tuple(cost.on_prem_seconds for cost in costs),
            upload_seconds=tuple(cloud.upload_seconds(cost.upload_bytes) for cost in costs),
            download_seconds=tuple(cloud.download_seconds(cost.download_bytes) for cost in costs),
            cloud_seconds=tuple(cost.cloud_seconds for cost in costs),
            cloud_compute_seconds=tuple(
                max(cost.cloud_seconds - cloud.round_trip_seconds, 0.0) for cost in costs
            ),
            cloud_dollars=tuple(cost.cloud_dollars + per_request for cost in costs),
            upload_bytes=tuple(cost.upload_bytes for cost in costs),
        )

    def _run(self, compiled: _CompiledGraph, placement: Mapping[str, str]) -> SimulatedExecution:
        compiled.graph.validate_placement(placement)
        names = compiled.names
        on_cloud = [placement[name] == "cloud" for name in names]
        children = compiled.children
        on_prem_seconds = compiled.on_prem_seconds
        upload_seconds = compiled.upload_seconds
        download_seconds = compiled.download_seconds
        cloud_seconds = compiled.cloud_seconds

        waiting = list(compiled.parent_counts)
        ready_at = [0.0] * len(names)
        finish_times: Dict[str, float] = {}
        # Sorted lists of distinct tuples are valid heaps.
        ready = list(compiled.roots)
        cores = list(self._idle_cores)
        slots = list(self._idle_slots)
        uplink_free_at = 0.0
        on_prem_core_seconds = 0.0
        cloud_core_seconds = 0.0
        cloud_dollars = 0.0
        upload_bytes = 0

        # Appendix M: "chooses the task whose dependencies are resolved at the
        # earliest time", ties broken by topological rank.  The conditional
        # expressions below are max() without the call; every time is >= 0.0,
        # so which of two equal operands they return does not matter.
        while ready:
            ready_time, task = heappop(ready)
            if on_cloud[task]:
                # Upload occupies the (shared) uplink fully for its duration.
                upload_done = (
                    ready_time if ready_time > uplink_free_at else uplink_free_at
                ) + upload_seconds[task]
                uplink_free_at = upload_done
                slot_free_at, slot = slots[0]
                finish_time = (
                    (upload_done if upload_done > slot_free_at else slot_free_at)
                    + cloud_seconds[task]
                    + download_seconds[task]
                )
                heapreplace(slots, (finish_time, slot))
                cloud_core_seconds += compiled.cloud_compute_seconds[task]
                cloud_dollars += compiled.cloud_dollars[task]
                upload_bytes += compiled.upload_bytes[task]
            else:
                core_free_at, core = cores[0]
                finish_time = (
                    core_free_at if core_free_at > ready_time else ready_time
                ) + on_prem_seconds[task]
                heapreplace(cores, (finish_time, core))
                on_prem_core_seconds += on_prem_seconds[task]
            finish_times[names[task]] = finish_time
            for child in children[task]:
                # A task is ready at the latest finish among its parents.
                if finish_time > ready_at[child]:
                    ready_at[child] = finish_time
                waiting[child] -= 1
                if not waiting[child]:
                    heappush(ready, (ready_at[child], child))

        return SimulatedExecution(
            makespan_seconds=max(finish_times.values(), default=0.0),
            on_prem_core_seconds=on_prem_core_seconds,
            cloud_core_seconds=cloud_core_seconds,
            cloud_dollars=cloud_dollars,
            upload_bytes=upload_bytes,
            task_finish_times=finish_times,
        )
