"""Golden parity of the placement profiler.

``placement_golden.json`` pins, bit for bit, what ``profile_placements``
keeps for a fixed set of task graphs: every field of every kept
:class:`PlacementProfile`, floats as their exact ``repr``, in output order.
It also pins the full :class:`SimulatedExecution` (``task_finish_times``
included, in insertion order) of the all-on-prem and all-cloud placements.

The graphs are every EV configuration, a few MOT configurations of each
graph size, the COVID configurations large enough to take the heavy-suffix
enumeration path, and 30 seeded random DAGs whose task costs are drawn from
a few exact binary fractions, so that equal ready times occur and the
``(ready time, topological rank)`` tie-break decides the schedule.  (Equal
core and cloud-slot free times occur too, but cores and slots are
interchangeable: which of several equally free ones is taken changes no
output.)  Each graph runs on 1, 2, 4 and 8 cores against four cloud specs:
the default, a $2/day budget, cloud disabled and two cloud slots.

The digest was recorded from the linear-scan simulator and the quadratic
Pareto filter.  Regenerate it only when profiler outputs are meant to change:

    PYTHONPATH=src python tests/cluster/test_placement_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.cluster.profiler import profile_placements
from repro.cluster.resources import CloudSpec
from repro.cluster.simulator import PlacementSimulator
from repro.vision.dag import Task, TaskGraph
from repro.vision.udf import OperatorCost
from repro.workloads.covid import CovidWorkload
from repro.workloads.ev import EVCountingWorkload
from repro.workloads.mot import MotWorkload

GOLDEN_PATH = Path(__file__).with_name("placement_golden.json")

CORES = (1, 2, 4, 8)
CLOUDS = {
    "default": CloudSpec(),
    "budget2": CloudSpec(daily_budget_dollars=2.0),
    "disabled": CloudSpec(daily_budget_dollars=0.0),
    "slots2": CloudSpec(max_concurrency=2),
}
FAMILIES = ("ev", "mot", "covid", "random")
RANDOM_SEEDS = range(30)
MOT_PER_SIZE = 2


def _workload_graphs(workload, keep) -> Iterator[Tuple[str, TaskGraph]]:
    segment = workload.representative_segment()
    for index, configuration in enumerate(workload.knob_space.all_configurations()):
        graph = workload.build_task_graph(configuration, segment)
        if keep(graph):
            yield f"{workload.name}/{index}:{configuration.short_label()}", graph


def _mot_graphs() -> Iterator[Tuple[str, TaskGraph]]:
    taken: Dict[int, int] = {}

    def keep(graph: TaskGraph) -> bool:
        taken[len(graph)] = taken.get(len(graph), 0) + 1
        return taken[len(graph)] <= MOT_PER_SIZE

    return _workload_graphs(MotWorkload(seed=11), keep)


def _random_graph(seed: int) -> TaskGraph:
    """A random DAG with tie-heavy costs; every third seed is large enough
    (13-15 tasks) for the heavy-suffix enumeration."""
    rng = random.Random(seed)
    size = rng.randint(13, 15) if seed % 3 == 2 else rng.randint(2, 8)
    # Insertion order differs from name order, so a sort by name shows.
    names = [f"t{label}" for label in rng.sample(range(size), size)]
    graph = TaskGraph()
    for position, name in enumerate(names):
        parents = [parent for parent in names[:position] if rng.random() < 0.35]
        cost = OperatorCost(
            on_prem_seconds=rng.choice((0.5, 1.0, 1.0, 2.0)),
            cloud_seconds=rng.choice((0.25, 0.5, 1.0)),
            cloud_dollars=rng.choice((1e-4, 2e-4)),
            # 0, 0.25 s and 0.5 s on the default 60 MB/s uplink.
            upload_bytes=rng.choice((0, 15_000_000, 30_000_000)),
            # 0 and 1 s on the default 25 MB/s downlink.
            download_bytes=rng.choice((0, 25_000_000)),
        )
        graph.add_task(Task(name, "op", cost), depends_on=parents)
    return graph


def _graphs(family: str) -> Iterator[Tuple[str, TaskGraph]]:
    if family == "ev":
        return _workload_graphs(EVCountingWorkload(seed=3), lambda graph: True)
    if family == "mot":
        return _mot_graphs()
    if family == "covid":
        return _workload_graphs(CovidWorkload(seed=7), lambda graph: len(graph) > 12)
    return ((f"random/{seed}", _random_graph(seed)) for seed in RANDOM_SEEDS)


def _graph_lines(graph: TaskGraph) -> Iterator[str]:
    extremes = (graph.all_on_prem_placement(), graph.all_cloud_placement())
    for cores in CORES:
        for cloud_name, cloud in CLOUDS.items():
            yield f"cores={cores} cloud={cloud_name}"
            for profile in profile_placements(graph, cores=cores, cloud=cloud):
                # Task names, then locations, in the placement's key order.
                yield " ".join(profile.placement) + " " + " ".join(profile.placement.values())
                yield repr((
                    profile.runtime_seconds,
                    profile.makespan_seconds,
                    profile.on_prem_core_seconds,
                    profile.cloud_core_seconds,
                    profile.cloud_dollars,
                    profile.upload_bytes,
                ))
            simulator = PlacementSimulator(cores=cores, cloud=cloud)
            for placement in extremes:
                execution = simulator.simulate(graph, placement)
                yield repr((
                    execution.makespan_seconds,
                    execution.on_prem_core_seconds,
                    execution.cloud_core_seconds,
                    execution.cloud_dollars,
                    execution.upload_bytes,
                    list(execution.task_finish_times.items()),
                ))


def family_digests(family: str) -> Dict[str, str]:
    """SHA-256 over every profiled line of each graph of ``family``."""
    digests: Dict[str, str] = {}
    for graph_id, graph in _graphs(family):
        lines: List[str] = list(_graph_lines(graph))
        digests[graph_id] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("family", FAMILIES)
def test_profiles_match_golden_digest(family, golden):
    digests = family_digests(family)
    expected = golden[family]
    assert set(digests) == set(expected)
    changed = sorted(graph_id for graph_id in digests if digests[graph_id] != expected[graph_id])
    assert not changed, f"profiler outputs changed for {changed}"


def test_random_graphs_exercise_both_enumeration_paths():
    sizes = [len(_random_graph(seed)) for seed in RANDOM_SEEDS]
    assert min(sizes) <= 12 < max(sizes)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_placement_golden.py --write")
    document = {family: family_digests(family) for family in FAMILIES}
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, document.values()))} graph digests to {GOLDEN_PATH}")
