"""Micro-benchmark helpers: Figures 3, 13-23 and Tables 3-6.

Each helper returns plain data (lists / dicts) that the corresponding
benchmark file prints; keeping the logic here makes it unit-testable and keeps
the ``benchmarks/`` directory thin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.executor import ReferenceExecutor
from repro.cluster.profiler import PlacementProfile
from repro.cluster.resources import CloudSpec
from repro.cluster.simulator import PlacementSimulator
from repro.core.categorizer import ContentCategorizer
from repro.core.forecaster import ContentForecaster, ForecastDataset
from repro.core.planner import KnobPlanner
from repro.core.profiles import ConfigurationProfile, ProfileSet
from repro.core.switcher import KnobSwitcher
from repro.core.knobs import KnobConfiguration
from repro.core.offline import label_segments
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentRunner, SystemBundle
from repro.vision.dag import Task, TaskGraph
from repro.vision.udf import OperatorCost

SECONDS_PER_DAY = 86_400.0


# --------------------------------------------------------------------- #
# Figure 3: the EV walk-through trace
# --------------------------------------------------------------------- #
@dataclass
class Figure3Trace:
    """Hourly series reproduced from Figure 3."""

    hours: List[float]
    quality_by_configuration: Dict[str, List[float]]
    workload_core_seconds_per_second: List[float]
    buffer_gigabytes: List[float]
    cloud_spend_fraction: List[float]
    switch_count: int


def figure3_trace(
    bundle: SystemBundle,
    cores: int = 4,
    bucket_seconds: float = 3_600.0,
) -> Figure3Trace:
    """Run Skyscraper over the bundle's online window and bucket the telemetry."""
    result = ExperimentRunner(bundle).run("skyscraper", cores=cores, keep_traces=True)
    workload = bundle.setup.workload
    source = bundle.setup.source
    start = bundle.config.online_start
    end = bundle.config.online_end

    named = getattr(workload, "named_configurations", None)
    named_configs = named() if named is not None else {}

    n_buckets = max(int(np.ceil((end - start) / bucket_seconds)), 1)
    hours = [(start + (index + 0.5) * bucket_seconds) / 3_600.0 for index in range(n_buckets)]
    quality_by_configuration: Dict[str, List[float]] = {
        name: [0.0] * n_buckets for name in named_configs
    }
    counts = [0] * n_buckets
    quality_samples = [0] * n_buckets
    work = [0.0] * n_buckets
    buffer_bytes = [0.0] * n_buckets
    cloud = [0.0] * n_buckets

    sample_stride = max(int(300.0 / source.segment_seconds), 1)
    for trace in result.traces:
        bucket = min(int((trace.arrival_time - start) / bucket_seconds), n_buckets - 1)
        counts[bucket] += 1
        work[bucket] += trace.work_core_seconds
        buffer_bytes[bucket] = max(buffer_bytes[bucket], trace.buffer_bytes)
        cloud[bucket] += trace.cloud_dollars
        if named_configs and trace.segment_index % sample_stride == 0:
            quality_samples[bucket] += 1
            segment = source.segment_at(trace.segment_index)
            for name, configuration in named_configs.items():
                quality_by_configuration[name][bucket] += workload.evaluate(
                    configuration, segment
                ).true_quality

    for name in quality_by_configuration:
        quality_by_configuration[name] = [
            value / max(samples, 1)
            for value, samples in zip(quality_by_configuration[name], quality_samples)
        ]
    daily_budget = bundle.config.cloud_budget_per_day or 1.0
    return Figure3Trace(
        hours=hours,
        quality_by_configuration=quality_by_configuration,
        workload_core_seconds_per_second=[
            bucket_work / bucket_seconds for bucket_work in work
        ],
        buffer_gigabytes=[value / 1e9 for value in buffer_bytes],
        cloud_spend_fraction=[value / daily_budget for value in cloud],
        switch_count=result.switch_count,
    )


# --------------------------------------------------------------------- #
# Figure 13: decision overheads
# --------------------------------------------------------------------- #
def _synthetic_profiles(n_configurations: int, placements_per_config: int) -> ProfileSet:
    profiles = []
    for config_index in range(n_configurations):
        placements = []
        for placement_index in range(placements_per_config):
            placements.append(
                PlacementProfile(
                    placement={"task": "on_prem"},
                    runtime_seconds=1.0 + 0.5 * config_index - 0.01 * placement_index,
                    makespan_seconds=1.0 + 0.5 * config_index,
                    on_prem_core_seconds=1.0 + 0.5 * config_index,
                    cloud_core_seconds=0.1 * placement_index,
                    cloud_dollars=0.0001 * placement_index,
                    upload_bytes=10_000 * placement_index,
                )
            )
        profile = ConfigurationProfile(
            configuration=KnobConfiguration.from_dict({"index": config_index}),
            placements=placements,
            mean_quality=0.5 + 0.5 * config_index / max(n_configurations - 1, 1),
        )
        profiles.append(profile)
    return ProfileSet(profiles)


def switcher_overhead_seconds(
    total_placements: int,
    n_configurations: int = 10,
    n_categories: int = 4,
    repetitions: int = 200,
    worst_case: bool = False,
) -> float:
    """Average runtime of one knob-switcher decision (left plot of Figure 13).

    The synthetic placements of a configuration get faster as they get
    costlier, so none is dominated and the switcher's pruned table keeps all
    ``total_placements`` of them.  ``worst_case`` makes the buffer too small
    for any placement, so the switcher walks every configuration and falls
    back to the fastest placement within budget.
    """
    placements_per_config = max(total_placements // n_configurations, 1)
    profiles = _synthetic_profiles(n_configurations, placements_per_config)
    centers = np.linspace(0.2, 0.95, n_categories)[:, np.newaxis] * np.ones(
        (n_categories, n_configurations)
    )
    categorizer = ContentCategorizer(n_categories=n_categories, seed=0)
    categorizer.fit(np.repeat(centers, 5, axis=0))
    planner = KnobPlanner(profiles, categorizer.actual_categories)
    for config_index, profile in enumerate(profiles):
        for category in range(categorizer.actual_categories):
            profile.category_quality[category] = categorizer.category_quality(
                config_index, category
            )
    plan = planner.plan(
        np.full(categorizer.actual_categories, 1.0 / categorizer.actual_categories),
        budget_core_seconds_per_segment=10.0,
    )
    buffer_bytes = 10 if worst_case else 10**9
    switcher = KnobSwitcher(
        profiles=profiles,
        categorizer=categorizer,
        plan=plan,
        segment_duration=2.0,
        buffer_capacity_bytes=buffer_bytes,
    )
    started = time.perf_counter()
    for repetition in range(repetitions):
        switcher.decide(
            observed_quality=0.5 + 0.4 * (repetition % 2),
            current_configuration_index=repetition % n_configurations,
            backlog_bytes=0,
            bytes_per_second=1_000_000.0,
            cloud_budget_remaining=1.0,
            timestamp=float(repetition),
        )
    return (time.perf_counter() - started) / repetitions


def planner_overhead_seconds(
    n_categories: int,
    n_configurations: int,
    repetitions: int = 3,
) -> float:
    """Runtime of one knob-planning pass (right plot of Figure 13)."""
    profiles = _synthetic_profiles(n_configurations, placements_per_config=2)
    for profile in profiles:
        for category in range(n_categories):
            profile.category_quality[category] = min(
                0.3 + 0.1 * category + 0.05 * profile.mean_quality, 1.0
            )
    planner = KnobPlanner(profiles, n_categories)
    forecast = np.full(n_categories, 1.0 / n_categories)
    started = time.perf_counter()
    for _ in range(repetitions):
        planner.plan(forecast, budget_core_seconds_per_segment=10.0)
    return (time.perf_counter() - started) / repetitions


# --------------------------------------------------------------------- #
# Figures 14/18, Tables 5/6: forecaster studies
# --------------------------------------------------------------------- #
def category_label_series(
    bundle: SystemBundle,
    start_day: float,
    end_day: float,
    period_seconds: float = 120.0,
) -> List[int]:
    """Ground-truth content-category labels of the bundle's stream over a window."""
    skyscraper = bundle.skyscraper
    workload = bundle.setup.workload
    source = bundle.setup.source
    profiles = skyscraper.profiles
    categorizer = skyscraper.categorizer
    labels: List[int] = []
    for segment in label_segments(
        source, start_day * SECONDS_PER_DAY, end_day * SECONDS_PER_DAY, period_seconds
    ):
        vector = [
            workload.evaluate(profile.configuration, segment).reported_quality
            for profile in profiles
        ]
        labels.append(categorizer.classify(vector))
    return labels


def forecaster_horizon_mae(
    labels: Sequence[int],
    n_categories: int,
    label_period_seconds: float,
    horizons_days: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    input_days: float = 1.0,
    n_splits: int = 8,
) -> Dict[float, float]:
    """MAE of the forecaster for different planned-interval lengths (Table 5)."""
    results: Dict[float, float] = {}
    for horizon in horizons_days:
        dataset = ForecastDataset.from_labels(
            labels,
            n_categories=n_categories,
            label_period_seconds=label_period_seconds,
            input_seconds=input_days * SECONDS_PER_DAY,
            output_seconds=horizon * SECONDS_PER_DAY,
            n_splits=n_splits,
            stride_seconds=label_period_seconds * 4,
        )
        train, test = dataset.split(0.7)
        forecaster = ContentForecaster(n_categories=n_categories, n_splits=n_splits)
        forecaster.fit(train)
        results[horizon] = forecaster.evaluate_mae(test)
    return results


def forecaster_input_mae(
    labels: Sequence[int],
    n_categories: int,
    label_period_seconds: float,
    input_days_options: Sequence[float] = (0.25, 0.5, 1.0),
    splits_options: Sequence[int] = (1, 2, 4, 8),
    output_days: float = 0.5,
) -> Dict[Tuple[float, int], float]:
    """MAE for different input lengths and split counts (Table 6)."""
    results: Dict[Tuple[float, int], float] = {}
    for input_days in input_days_options:
        for n_splits in splits_options:
            dataset = ForecastDataset.from_labels(
                labels,
                n_categories=n_categories,
                label_period_seconds=label_period_seconds,
                input_seconds=input_days * SECONDS_PER_DAY,
                output_seconds=output_days * SECONDS_PER_DAY,
                n_splits=n_splits,
                stride_seconds=label_period_seconds * 4,
            )
            train, test = dataset.split(0.7)
            forecaster = ContentForecaster(n_categories=n_categories, n_splits=n_splits)
            forecaster.fit(train)
            results[(input_days, n_splits)] = forecaster.evaluate_mae(test)
    return results


def forecaster_training_size_mae(
    labels: Sequence[int],
    n_categories: int,
    label_period_seconds: float,
    sample_counts: Sequence[int] = (50, 100, 200, 400),
    input_days: float = 0.5,
    output_days: float = 0.25,
    n_splits: int = 4,
) -> Dict[int, float]:
    """MAE as a function of the number of training samples (Figure 18)."""
    dataset = ForecastDataset.from_labels(
        labels,
        n_categories=n_categories,
        label_period_seconds=label_period_seconds,
        input_seconds=input_days * SECONDS_PER_DAY,
        output_seconds=output_days * SECONDS_PER_DAY,
        n_splits=n_splits,
        stride_seconds=label_period_seconds,
    )
    train, test = dataset.split(0.7)
    results: Dict[int, float] = {}
    for count in sample_counts:
        subset = replace(
            train, inputs=train.inputs[: max(count, 2)], targets=train.targets[: max(count, 2)]
        )
        forecaster = ContentForecaster(n_categories=n_categories, n_splits=n_splits)
        forecaster.fit(subset)
        results[count] = forecaster.evaluate_mae(test)
    return results


# --------------------------------------------------------------------- #
# Figure 15 / Table 4: knob switcher classification errors
# --------------------------------------------------------------------- #
@dataclass
class SwitcherErrorReport:
    """Classification accuracy of the single-dimension content classifier."""

    misclassification_rate: float
    type_a_rate: float
    type_b_rate: float
    samples: int


def switcher_error_analysis(
    bundle: SystemBundle,
    n_samples: int = 400,
    configuration_index: int = 0,
) -> SwitcherErrorReport:
    """Quantify Type-A (partial classification) and Type-B (timing) errors.

    For ``n_samples`` consecutive segment pairs (t, t+1): the ground-truth
    category of segment t+1 comes from its full quality vector; the *standard*
    switcher classifies from the single observed quality of segment t
    (both error types); the *no-Type-B* variant classifies from the single
    quality of segment t+1 itself (only Type-A errors remain).
    """
    workload = bundle.setup.workload
    source = bundle.setup.source
    skyscraper = bundle.skyscraper
    profiles = skyscraper.profiles
    categorizer = skyscraper.categorizer

    start_index = int(bundle.config.online_start / source.segment_seconds)
    stride = 7
    standard_errors = 0
    type_a_errors = 0
    samples = 0
    for sample in range(n_samples):
        index = start_index + sample * stride
        current_segment = source.segment_at(index)
        next_segment = source.segment_at(index + 1)
        truth_vector = [
            workload.evaluate(profile.configuration, next_segment).reported_quality
            for profile in profiles
        ]
        true_category = categorizer.classify(truth_vector)
        observed_now = workload.evaluate(
            profiles[configuration_index].configuration, current_segment
        ).reported_quality
        observed_next = truth_vector[configuration_index]
        standard = categorizer.classify_partial(configuration_index, observed_now)
        no_type_b = categorizer.classify_partial(configuration_index, observed_next)
        samples += 1
        if standard != true_category:
            standard_errors += 1
        if no_type_b != true_category:
            type_a_errors += 1
    return SwitcherErrorReport(
        misclassification_rate=standard_errors / samples,
        type_a_rate=type_a_errors / samples,
        type_b_rate=max(standard_errors - type_a_errors, 0) / samples,
        samples=samples,
    )


# --------------------------------------------------------------------- #
# Figures 22/23: simulator accuracy
# --------------------------------------------------------------------- #
def _micro_graph(kind: str, n_tasks: int = 60) -> TaskGraph:
    yolo_cost = OperatorCost(0.086, 0.17, 5e-6, 220_000, 4_096)
    kcf_cost = OperatorCost(0.048, 0.15, 3e-6, 24_000, 2_048)
    graph = TaskGraph()
    if kind == "yolo":
        for index in range(n_tasks):
            graph.add_task(Task(f"yolo{index}", "yolo", yolo_cost))
    elif kind == "kcf":
        for index in range(n_tasks):
            graph.add_task(Task(f"kcf{index}", "kcf", kcf_cost))
    elif kind == "combined":
        for index in range(n_tasks):
            graph.add_task(Task(f"yolo{index}", "yolo", yolo_cost))
            graph.add_task(Task(f"kcf{index}", "kcf", kcf_cost), depends_on=[f"yolo{index}"])
    else:
        raise ConfigurationError(f"unknown micro DAG kind {kind!r}")
    return graph


def simulator_microbenchmark(
    core_counts: Sequence[int] = (2, 4, 8, 16),
    kinds: Sequence[str] = ("yolo", "kcf", "combined"),
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Figure 22 (left): simulation error of the on-premise micro DAGs."""
    rows: List[Dict[str, float]] = []
    for kind in kinds:
        graph = _micro_graph(kind)
        placement = graph.all_on_prem_placement()
        for cores in core_counts:
            simulated = PlacementSimulator(cores=cores).simulate(graph, placement)
            executed = ReferenceExecutor(cores=cores, seed=seed).execute(graph, placement)
            error = (
                simulated.makespan_seconds - executed.makespan_seconds
            ) / executed.makespan_seconds
            rows.append(
                {
                    "dag": kind,
                    "cores": cores,
                    "simulated_s": simulated.makespan_seconds,
                    "measured_s": executed.makespan_seconds,
                    "error": error,
                }
            )
    return rows


def simulator_cloud_benchmark(
    n_invocations: int = 200, seed: int = 1
) -> Dict[str, float]:
    """Figure 22 (right): simulation error for a stream of cloud invocations.

    The paper measures when each cloud invocation returns over hours of
    traffic; occasional latency spikes exist but are too rare to matter for
    provisioning.  We therefore compare the *average* completion time of the
    invocations rather than the batch makespan (which a single spike on the
    last invocation would dominate).
    """
    graph = _micro_graph("yolo", n_tasks=n_invocations)
    placement = graph.all_cloud_placement()
    cloud = CloudSpec()
    simulated = PlacementSimulator(cores=1, cloud=cloud).simulate(graph, placement)
    executed = ReferenceExecutor(cores=1, cloud=cloud, seed=seed).execute(graph, placement)
    simulated_mean = float(np.mean(list(simulated.task_finish_times.values())))
    executed_mean = float(
        np.mean([completion.finish_seconds for completion in executed.completions])
    )
    return {
        "invocations": float(n_invocations),
        "simulated_s": simulated_mean,
        "measured_s": executed_mean,
        "error": (simulated_mean - executed_mean) / executed_mean,
    }


def simulator_end_to_end_accuracy(
    bundle: SystemBundle, cores: int = 8, max_segments: int = 200
) -> Dict[str, float]:
    """Figure 23: simulator vs reference executor on real Skyscraper DAGs."""
    workload = bundle.setup.workload
    source = bundle.setup.source
    profiles = bundle.skyscraper.profiles
    start_index = int(bundle.config.online_start / source.segment_seconds)
    simulator = PlacementSimulator(cores=cores)
    executor = ReferenceExecutor(cores=cores, seed=0)
    errors: List[float] = []
    for offset in range(0, max_segments, 5):
        segment = source.segment_at(start_index + offset)
        profile = profiles[offset % len(profiles)]
        graph = workload.build_task_graph(profile.configuration, segment)
        placement = graph.all_on_prem_placement()
        simulated = simulator.simulate(graph, placement)
        executed = executor.execute(graph, placement)
        errors.append(
            (simulated.makespan_seconds - executed.makespan_seconds) / executed.makespan_seconds
        )
    return {
        "mean_error": float(np.mean(errors)),
        "max_error": float(np.max(errors)),
        "min_error": float(np.min(errors)),
        "samples": float(len(errors)),
    }
