"""Placement profiling: Pareto-good placements of a knob configuration's DAG.

In the offline phase Skyscraper profiles, for every knob configuration, how
long different placements of its task graph take and how much cloud money
they spend, then keeps only the placements on the cost-runtime Pareto
frontier (Section 3.1, Appendix A.2).  The paper trains a GNN+RL placement
optimizer (PlaceTo); for the small DAGs of the evaluated workloads an
enumeration/heavy-suffix search over placements simulated with the Appendix-M
simulator finds the same frontier, which is the substitution documented in
ARCHITECTURE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.cluster.resources import CloudSpec
from repro.cluster.simulator import PlacementSimulator
from repro.ml.pareto import pareto_front
from repro.vision.dag import TaskGraph


@dataclass(frozen=True)
class PlacementProfile:
    """Profiled behaviour of one placement of one knob configuration's DAG.

    Attributes:
        placement: mapping from task name to ``"on_prem"`` or ``"cloud"``.
        runtime_seconds: steady-state time the placement needs per segment
            when segments are processed back to back (the throughput bound:
            the busiest resource — on-premise cores, the uplink, or the cloud
            concurrency — dictates the sustainable rate).  This is the number
            the knob switcher compares against the segment duration.
        makespan_seconds: simulated makespan of one segment in isolation
            (the Appendix-M cold-start estimate, used by the simulator
            accuracy experiments).
        on_prem_core_seconds: on-premise work of one segment.
        cloud_core_seconds: cloud compute of one segment.
        cloud_dollars: cloud spend of one segment.
        upload_bytes: uplink bytes of one segment.
    """

    placement: Mapping[str, str]
    runtime_seconds: float
    makespan_seconds: float
    on_prem_core_seconds: float
    cloud_core_seconds: float
    cloud_dollars: float
    upload_bytes: int

    @property
    def cloud_task_count(self) -> int:
        return sum(1 for location in self.placement.values() if location == "cloud")

    @property
    def is_fully_on_prem(self) -> bool:
        return self.cloud_task_count == 0


def profile_placements(
    graph: TaskGraph,
    cores: int,
    cloud: Optional[CloudSpec] = None,
    keep_pareto_only: bool = True,
    max_tasks_for_full_enumeration: int = 12,
) -> List[PlacementProfile]:
    """Profile candidate placements of ``graph`` and keep the Pareto-good ones.

    Args:
        graph: the knob configuration's task graph for one segment.
        cores: on-premise cores available for the graph.
        cloud: cloud specification; if its daily budget is zero only the
            fully on-premise placement is profiled.
        keep_pareto_only: drop placements not on the (cloud cost, -runtime)
            Pareto frontier, as the offline phase does.
        max_tasks_for_full_enumeration: forwarded to
            :meth:`TaskGraph.enumerate_placements`.

    Returns:
        Profiles sorted by increasing cloud cost (the fully on-premise
        placement first), which is the order the knob switcher walks when it
        looks for the cheapest placement that does not overflow the buffer.
    """
    if cores < 1:
        raise ConfigurationError("cores must be positive")
    cloud = cloud or CloudSpec()
    simulator = PlacementSimulator(cores=cores, cloud=cloud)

    cloud_disabled = cloud.daily_budget_dollars is not None and cloud.daily_budget_dollars <= 0
    if cloud_disabled:
        candidate_placements = [graph.all_on_prem_placement()]
    else:
        candidate_placements = graph.enumerate_placements(max_tasks_for_full_enumeration)

    # PlacementProfile's numeric fields, in field order, for every candidate;
    # profiles are built only for the placements that are kept.
    rows = []
    for execution in simulator.simulate_each(graph, candidate_placements):
        # Ingestion processes segments back to back, so the sustainable time
        # per segment is bounded by the busiest resource rather than by the
        # cold-start makespan of a single segment.
        throughput_seconds = max(
            execution.on_prem_core_seconds / cores,
            execution.upload_bytes / cloud.uplink_bytes_per_second,
            (execution.cloud_core_seconds + cloud.round_trip_seconds)
            / cloud.max_concurrency
            if execution.cloud_core_seconds > 0
            else 0.0,
        )
        rows.append((
            max(throughput_seconds, 1e-9),
            execution.makespan_seconds,
            execution.on_prem_core_seconds,
            execution.cloud_core_seconds,
            execution.cloud_dollars,
            execution.upload_bytes,
        ))

    kept = range(len(rows))
    if keep_pareto_only and len(rows) > 1:
        # Pareto criterion: minimize cloud dollars, minimize runtime.  The
        # pareto_front helper minimizes cost and maximizes value, so use the
        # negative runtime as the value.
        points = {
            index: (dollars, -runtime_seconds)
            for index, (runtime_seconds, _, _, _, dollars, _) in enumerate(rows)
        }
        kept = sorted(pareto_front(points))

    # The candidate dicts are fresh and private to this call, so the
    # profiles can own them without a copy.
    profiles = [PlacementProfile(candidate_placements[index], *rows[index]) for index in kept]
    profiles.sort(key=lambda profile: (profile.cloud_dollars, profile.runtime_seconds))
    return profiles
