"""Offline knob-configuration filtering (Appendix A.1).

The number of knob configurations is exponential in the number of registered
knobs.  Skyscraper filters them down to a small set lying on an approximated
work-quality Pareto frontier:

1. find the cheapest configuration ``k-`` and the most qualitative one ``k+``;
2. sample ``n_search`` segments with widely different content dynamics by a
   greedy max-min selection over the 2-D quality vectors ``(qual(k-), qual(k+))``;
3. for every sampled segment, run greedy hill climbing over the knob lattice
   and keep the visited configurations on that segment's work-quality Pareto
   frontier;
4. the filtered set K is the union over the sampled segments.

Every function takes an optional ``evaluator`` (a
:class:`~repro.core.offline.EvaluationCache`): evaluations are then batched
and deduplicated against the other offline stages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.interfaces import VETLWorkload, evaluate_pairs
from repro.core.knobs import KnobConfiguration
from repro.ml.hillclimb import hill_climb
from repro.ml.pareto import pareto_front
from repro.video.frame import VideoSegment

if TYPE_CHECKING:
    from repro.core.offline import EvaluationCache


def configuration_work(
    workload: VETLWorkload, configuration: KnobConfiguration, segment: VideoSegment
) -> float:
    """Single-core work (core-seconds) of processing ``segment`` with ``configuration``."""
    graph = workload.build_task_graph(configuration, segment)
    return graph.total_on_prem_seconds()


def find_extreme_configurations(
    workload: VETLWorkload,
    labeled_segments: Sequence[VideoSegment],
    evaluator: Optional["EvaluationCache"] = None,
) -> Tuple[KnobConfiguration, KnobConfiguration]:
    """The cheapest configuration ``k-`` and the most qualitative ``k+``.

    ``k-`` minimizes profiled work on a representative segment; ``k+``
    maximizes the average quality on the small labeled sample (Appendix A.1).
    The quality scoring runs as one evaluation batch.
    """
    if not labeled_segments:
        raise ConfigurationError("labeled_segments must not be empty")
    representative = workload.representative_segment()
    configurations = list(workload.knob_space.all_configurations())
    if not configurations:
        raise ConfigurationError("the workload has no knob configurations")

    cheapest = min(
        configurations,
        key=lambda config: configuration_work(workload, config, representative),
    )
    pairs = [
        (configuration, segment)
        for configuration in configurations
        for segment in labeled_segments
    ]
    outcomes = evaluate_pairs(workload, pairs, evaluator)
    qualities = np.array(
        [outcome.reported_quality for outcome in outcomes], dtype=float
    ).reshape(len(configurations), len(labeled_segments))
    best = configurations[int(np.argmax(qualities.mean(axis=1)))]
    return cheapest, best


def sample_diverse_segments(
    workload: VETLWorkload,
    candidate_segments: Sequence[VideoSegment],
    n_search: int,
    cheapest: Optional[KnobConfiguration] = None,
    best: Optional[KnobConfiguration] = None,
    n_pre: Optional[int] = None,
    seed: int = 0,
    evaluator: Optional["EvaluationCache"] = None,
) -> List[VideoSegment]:
    """Greedy max-min sampling of segments with diverse content dynamics.

    Each candidate segment is represented by the 2-D vector of qualities that
    ``k-`` and ``k+`` achieve on it; the first picked segment is the one with
    the smallest norm and every further pick maximizes the distance to the
    closest already-picked segment (Appendix A.1).  The per-segment
    evaluations run as one batch, deduplicated against anything the shared
    ``evaluator`` already measured (e.g. :func:`find_extreme_configurations`).
    """
    if n_search < 1:
        raise ConfigurationError("n_search must be at least 1")
    if not candidate_segments:
        raise ConfigurationError("candidate_segments must not be empty")
    if cheapest is None or best is None:
        cheapest, best = find_extreme_configurations(
            workload, list(candidate_segments)[:3], evaluator=evaluator
        )

    rng = np.random.default_rng(seed)
    pool = list(candidate_segments)
    if n_pre is not None and n_pre < len(pool):
        indices = rng.choice(len(pool), size=n_pre, replace=False)
        pool = [pool[index] for index in indices]

    pairs = [(cheapest, segment) for segment in pool] + [
        (best, segment) for segment in pool
    ]
    outcomes = evaluate_pairs(workload, pairs, evaluator)
    qualities = np.array(
        [outcome.reported_quality for outcome in outcomes], dtype=float
    )
    vectors = np.stack([qualities[: len(pool)], qualities[len(pool) :]], axis=1)
    selected: List[int] = [int(np.argmin(np.linalg.norm(vectors, axis=1)))]
    while len(selected) < min(n_search, len(pool)):
        selected_vectors = vectors[selected]
        distances = np.linalg.norm(
            vectors[:, np.newaxis, :] - selected_vectors[np.newaxis, :, :], axis=2
        )
        min_distances = distances.min(axis=1)
        min_distances[selected] = -1.0
        selected.append(int(np.argmax(min_distances)))
    return [pool[index] for index in selected]


def _segment_frontier(
    workload: VETLWorkload,
    segment: VideoSegment,
    work_of: Callable[[KnobConfiguration], float],
    work_weight: float,
    max_work: float,
    evaluator: Optional["EvaluationCache"],
) -> Tuple[List[KnobConfiguration], Dict[KnobConfiguration, float]]:
    """Hill-climb one search segment.

    Returns the segment's Pareto frontier and the visited configurations
    with their qualities.  ``work_of`` is the caller's memoized work of a
    configuration, shared across segments.
    """
    knob_space = workload.knob_space
    domains = knob_space.domains_in_order()
    quality_cache: Dict[KnobConfiguration, float] = {}

    def quality_of(values: Tuple) -> float:
        configuration = knob_space.configuration_from_tuple(values)
        if configuration not in quality_cache:
            (outcome,) = evaluate_pairs(workload, [(configuration, segment)], evaluator)
            quality_cache[configuration] = outcome.reported_quality
        return quality_cache[configuration]

    def objective(values: Tuple) -> float:
        configuration = knob_space.configuration_from_tuple(values)
        return quality_of(values) - work_weight * work_of(configuration) / max_work

    # Two starts: the cheapest corner and the most expensive corner.
    starts = [
        tuple(domain[0] for domain in domains),
        tuple(domain[-1] for domain in domains),
    ]
    visited: Dict[KnobConfiguration, float] = {}
    for start in starts:
        _, _, path = hill_climb(domains, objective, start=start)
        for values in path:
            configuration = knob_space.configuration_from_tuple(values)
            visited[configuration] = quality_of(values)

    # Per-segment work-quality Pareto frontier over the visited set.
    points = {
        configuration: (work_of(configuration), quality)
        for configuration, quality in visited.items()
    }
    return list(pareto_front(points)), visited


def filter_knob_configurations(
    workload: VETLWorkload,
    search_segments: Sequence[VideoSegment],
    work_weight: float = 0.5,
    max_configurations: Optional[int] = None,
    evaluator: Optional["EvaluationCache"] = None,
) -> Tuple[List[KnobConfiguration], Dict[KnobConfiguration, float]]:
    """Filter the knob space down to an approximate work-quality Pareto set.

    Args:
        workload: the user's V-ETL job.
        search_segments: segments with diverse content dynamics (output of
            :func:`sample_diverse_segments`).
        work_weight: weight of the (normalized) work term in the hill-climbing
            objective ``quality - work_weight * work/max_work``.
        max_configurations: optional cap on the size of the returned set; if
            the union frontier is larger, the configurations with the best
            quality-per-work spread are kept.
        evaluator: optional shared evaluation cache.

    Returns:
        ``(configurations, mean_quality)`` where ``configurations`` is ordered
        by increasing work and ``mean_quality`` maps every kept configuration
        to its average reported quality over ``search_segments``.
    """
    if not search_segments:
        raise ConfigurationError("search_segments must not be empty")
    knob_space = workload.knob_space
    domains = knob_space.domains_in_order()
    representative = workload.representative_segment()

    work_cache: Dict[KnobConfiguration, float] = {}

    def work_of(configuration: KnobConfiguration) -> float:
        if configuration not in work_cache:
            work_cache[configuration] = configuration_work(
                workload, configuration, representative
            )
        return work_cache[configuration]

    max_work = max(
        work_of(knob_space.configuration_from_tuple(tuple(domain[-1] for domain in domains))),
        1e-9,
    )

    union: Dict[KnobConfiguration, List[float]] = {}
    for segment in search_segments:
        frontier, visited = _segment_frontier(
            workload, segment, work_of, work_weight, max_work, evaluator
        )
        for configuration in frontier:
            union.setdefault(configuration, []).append(visited[configuration])

    mean_quality = {
        configuration: float(np.mean(qualities)) for configuration, qualities in union.items()
    }
    configurations = sorted(union, key=work_of)

    if max_configurations is not None and len(configurations) > max_configurations:
        # Keep the cheapest, the most qualitative, and an even spread in between.
        ordered = configurations
        keep_indices = np.linspace(0, len(ordered) - 1, max_configurations).round().astype(int)
        configurations = [ordered[index] for index in sorted(set(keep_indices.tolist()))]

    return configurations, mean_quality
