"""Tests for the micro-benchmark helpers behind Figures 13-23."""

import pytest

from repro.experiments.runner import ExperimentConfig, prepare_bundle
from repro.experiments.microbench import (
    category_label_series,
    figure3_trace,
    forecaster_horizon_mae,
    planner_overhead_seconds,
    simulator_cloud_benchmark,
    simulator_end_to_end_accuracy,
    simulator_microbenchmark,
    switcher_error_analysis,
    switcher_overhead_seconds,
)
from repro.workloads.ev import make_ev_setup


@pytest.fixture(scope="module")
def ev_bundle():
    setup = make_ev_setup(history_days=0.25, online_days=0.02)
    config = ExperimentConfig(
        history_days=0.25,
        online_days=0.02,
        max_configurations=4,
        n_categories=3,
        train_forecaster=False,
        cloud_budget_per_day=1.0,
    )
    return prepare_bundle(setup, config)


def test_switcher_overhead_is_sub_millisecond():
    average = switcher_overhead_seconds(total_placements=500, repetitions=50)
    assert 0.0 < average < 0.002


def test_planner_overhead_is_sub_second():
    seconds = planner_overhead_seconds(n_categories=10, n_configurations=6, repetitions=2)
    assert 0.0 < seconds < 1.5


def test_simulator_microbenchmark_overestimates_slightly():
    rows = simulator_microbenchmark(core_counts=(2, 8), kinds=("yolo", "combined"))
    assert len(rows) == 4
    for row in rows:
        assert -0.03 < row["error"] < 0.15


def test_simulator_cloud_benchmark_error_small():
    result = simulator_cloud_benchmark(n_invocations=60)
    assert abs(result["error"]) < 0.2


def test_simulator_end_to_end_accuracy(ev_bundle):
    stats = simulator_end_to_end_accuracy(ev_bundle, cores=4, max_segments=30)
    assert stats["samples"] > 0
    assert stats["mean_error"] < 0.15


def test_switcher_error_analysis_rates_are_consistent(ev_bundle):
    report = switcher_error_analysis(ev_bundle, n_samples=60)
    assert report.samples == 60
    assert 0.0 <= report.type_a_rate <= 1.0
    assert report.type_a_rate + report.type_b_rate == pytest.approx(
        report.misclassification_rate, abs=0.05
    ) or report.type_a_rate <= report.misclassification_rate + 0.05


def test_category_label_series_and_horizon_mae(ev_bundle):
    labels = category_label_series(ev_bundle, 0.0, 0.2, period_seconds=300.0)
    assert len(labels) > 20
    categorizer = ev_bundle.skyscraper.categorizer
    assert max(labels) < categorizer.actual_categories
    maes = forecaster_horizon_mae(
        labels,
        n_categories=categorizer.actual_categories,
        label_period_seconds=300.0,
        horizons_days=(0.01, 0.02),
        input_days=0.03,
        n_splits=2,
    )
    assert set(maes) == {0.01, 0.02}
    assert all(0.0 <= value <= 1.0 for value in maes.values())


def test_figure3_trace_structure(ev_bundle):
    trace = figure3_trace(ev_bundle, cores=4, bucket_seconds=600.0)
    assert len(trace.hours) == len(trace.workload_core_seconds_per_second)
    assert len(trace.hours) == len(trace.buffer_gigabytes)
    assert set(trace.quality_by_configuration) == {"cheap", "medium", "expensive"}
    for series in trace.quality_by_configuration.values():
        assert all(0.0 <= value <= 1.05 for value in series)
    assert all(value >= 0.0 for value in trace.cloud_spend_fraction)
