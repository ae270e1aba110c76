"""Task graphs: the DAG of UDF invocations produced by a knob configuration.

Each knob configuration corresponds to a directed acyclic graph of tasks
(Section 2, Appendix A.2).  A task bundles the invocations of one UDF over one
video segment (e.g. "run the detector on every 5th frame of this segment") and
carries the profiled resource costs.  The placement of a task graph assigns
every task to the on-premise cluster or to the cloud.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Set

from repro.errors import ConfigurationError, PlacementError
from repro.vision.udf import OperatorCost

_LOCATIONS = frozenset(("on_prem", "cloud"))


@dataclass(frozen=True)
class Task:
    """One node of a task graph.

    Attributes:
        name: unique task name within its graph.
        operator: name of the UDF the task runs.
        cost: aggregate resource cost of the task (all its invocations).
        invocations: number of underlying operator invocations folded into
            the task (useful for reporting and for fine-grained replay).
    """

    name: str
    operator: str
    cost: OperatorCost
    invocations: int = 1

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("task name must be non-empty")
        if self.invocations < 0:
            raise ConfigurationError("invocations must be non-negative")


class TaskGraph:
    """A DAG of :class:`Task` nodes with explicit dependencies.

    The graph is built incrementally::

        graph = TaskGraph()
        decode = graph.add_task(Task("decode", "decoder", cost_decode))
        detect = graph.add_task(Task("detect", "yolo", cost_detect), depends_on=["decode"])
    """

    def __init__(self):
        self._tasks: Dict[str, Task] = {}
        self._parents: Dict[str, Set[str]] = {}
        self._children: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task, depends_on: Iterable[str] = ()) -> Task:
        """Add a task, optionally depending on previously added tasks."""
        if task.name in self._tasks:
            raise ConfigurationError(f"task {task.name!r} added twice")
        dependencies = list(depends_on)
        for parent in dependencies:
            if parent not in self._tasks:
                raise ConfigurationError(
                    f"task {task.name!r} depends on unknown task {parent!r}"
                )
        self._tasks[task.name] = task
        self._parents[task.name] = set(dependencies)
        self._children[task.name] = set()
        for parent in dependencies:
            self._children[parent].add(task.name)
        return task

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    @property
    def task_names(self) -> List[str]:
        return list(self._tasks)

    def task(self, name: str) -> Task:
        if name not in self._tasks:
            raise ConfigurationError(f"unknown task {name!r}")
        return self._tasks[name]

    def parents(self, name: str) -> Set[str]:
        return set(self._parents[self.task(name).name])

    def children(self, name: str) -> Set[str]:
        return set(self._children[self.task(name).name])

    def roots(self) -> List[str]:
        """Tasks with no dependencies."""
        return [name for name, parents in self._parents.items() if not parents]

    def topological_order(self) -> List[str]:
        """Task names in a valid execution order; raises on cycles."""
        names = list(self._tasks)
        position = {name: index for index, name in enumerate(names)}
        in_degree = [len(self._parents[name]) for name in names]
        # Stable ordering: among ready tasks, the earliest inserted goes first.
        ready = [index for index, degree in enumerate(in_degree) if degree == 0]
        order: List[str] = []
        while ready:
            current = names[heapq.heappop(ready)]
            order.append(current)
            for child in self._children[current]:
                index = position[child]
                in_degree[index] -= 1
                if in_degree[index] == 0:
                    heapq.heappush(ready, index)
        if len(order) != len(self._tasks):
            raise ConfigurationError("task graph contains a cycle")
        return order

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_on_prem_seconds(self) -> float:
        """Total single-core work of the graph when run fully on premises."""
        return sum(task.cost.on_prem_seconds for task in self._tasks.values())

    def total_cloud_dollars(self, placement: Mapping[str, str]) -> float:
        """Cloud spend of the graph under a placement."""
        self.validate_placement(placement)
        return sum(
            self._tasks[name].cost.cloud_dollars
            for name, location in placement.items()
            if location == "cloud"
        )

    def total_upload_bytes(self, placement: Mapping[str, str]) -> int:
        """Bytes uploaded to the cloud under a placement."""
        self.validate_placement(placement)
        return sum(
            self._tasks[name].cost.upload_bytes
            for name, location in placement.items()
            if location == "cloud"
        )

    def critical_path_seconds(self) -> float:
        """Length of the longest dependency chain when run fully on premises."""
        finish: Dict[str, float] = {}
        for name in self.topological_order():
            parents = self._parents[name]
            start = max((finish[parent] for parent in parents), default=0.0)
            finish[name] = start + self._tasks[name].cost.on_prem_seconds
        return max(finish.values(), default=0.0)

    # ------------------------------------------------------------------ #
    # Placements
    # ------------------------------------------------------------------ #
    def all_on_prem_placement(self) -> Dict[str, str]:
        return {name: "on_prem" for name in self._tasks}

    def all_cloud_placement(self) -> Dict[str, str]:
        return {name: "cloud" for name in self._tasks}

    def validate_placement(self, placement: Mapping[str, str]) -> None:
        """Check that a placement covers every task with a valid location."""
        if self._tasks.keys() == placement.keys() and _LOCATIONS.issuperset(placement.values()):
            return
        # Invalid: name the offending tasks.
        missing = [name for name in self._tasks if name not in placement]
        if missing:
            raise PlacementError(f"placement misses tasks: {missing}")
        invalid = [
            name for name, location in placement.items() if location not in ("on_prem", "cloud")
        ]
        if invalid:
            raise PlacementError(f"placement has invalid locations for: {invalid}")
        unknown = [name for name in placement if name not in self._tasks]
        if unknown:
            raise PlacementError(f"placement references unknown tasks: {unknown}")

    def enumerate_placements(self, max_tasks_for_full_enumeration: int = 12) -> List[Dict[str, str]]:
        """All 2^n placements for small graphs, a heuristic subset otherwise.

        For graphs with more tasks than ``max_tasks_for_full_enumeration`` the
        method returns the all-on-prem placement, the all-cloud placement, and
        every placement that offloads a single "heavy suffix" of the
        topological order (heaviest tasks first), which is the family of
        placements the paper's pipelines actually benefit from.
        """
        names = self.topological_order()
        if len(names) <= max_tasks_for_full_enumeration:
            placements: List[Dict[str, str]] = []
            for mask in range(2 ** len(names)):
                placement = {
                    name: ("cloud" if (mask >> index) & 1 else "on_prem")
                    for index, name in enumerate(names)
                }
                placements.append(placement)
            return placements
        placements = [self.all_on_prem_placement(), self.all_cloud_placement()]
        by_weight = sorted(
            names, key=lambda name: self._tasks[name].cost.on_prem_seconds, reverse=True
        )
        for count in range(1, len(names)):
            offloaded = set(by_weight[:count])
            placements.append(
                {name: ("cloud" if name in offloaded else "on_prem") for name in names}
            )
        return placements
