"""Tests for the experiment runner, hardware tiers and result formatting."""

import pytest

from repro.cluster.cost import GCP_MACHINES
from repro.errors import ConfigurationError
from repro.experiments.ablation import AblationVariant, ABLATION_VARIANTS
from repro.experiments.hardware import MACHINE_TIERS, cluster_for, machine_for
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    cost_reduction_factor,
    prepare_bundle,
    provisioned_cost_dollars,
)
from repro.experiments.results import (
    CostQualityPoint,
    ExperimentTable,
    format_table,
    jain_fairness_index,
    normalize_series,
)
from repro.workloads.covid import make_covid_setup


@pytest.fixture(scope="module")
def small_bundle():
    """A deliberately tiny bundle so runner tests stay fast."""
    setup = make_covid_setup(history_days=0.5, online_days=0.05)
    config = ExperimentConfig(
        history_days=0.5,
        online_days=0.05,
        max_configurations=5,
        train_forecaster=False,
        cloud_budget_per_day=1.0,
        n_categories=3,
    )
    return prepare_bundle(setup, config)


def test_hardware_tiers_match_machine_catalogue():
    assert MACHINE_TIERS[0] == "e2-standard-4"
    assert MACHINE_TIERS[-1] == "c2-standard-60"
    for tier in MACHINE_TIERS:
        assert machine_for(tier) is GCP_MACHINES[tier]
        assert cluster_for(tier).cores == GCP_MACHINES[tier].vcpus
    with pytest.raises(ConfigurationError):
        machine_for("m5.large")


def test_experiment_config_windows():
    config = ExperimentConfig(history_days=2.0, online_days=0.5)
    assert config.online_start == pytest.approx(2.0 * 86_400.0)
    assert config.online_end == pytest.approx(2.5 * 86_400.0)
    assert config.online_hours == pytest.approx(12.0)


def test_single_runs_produce_sane_results(small_bundle):
    runner = ExperimentRunner(small_bundle)
    static = runner.run("static", cores=4)
    sky = runner.run("skyscraper", cores=4)
    chameleon = runner.run("chameleon*", cores=4)
    videostorm = runner.run("videostorm", cores=4)
    for result in (static, sky, chameleon, videostorm):
        assert result.segments_total > 0
        assert 0.0 <= result.weighted_quality <= 1.0
    assert not sky.overflowed
    assert sky.weighted_quality >= static.weighted_quality - 0.05


def test_cost_quality_sweep_shapes(small_bundle):
    points = ExperimentRunner(small_bundle).sweep(
        tiers=["e2-standard-4", "e2-standard-16"],
        systems=("static", "skyscraper"),
        skyscraper_tiers=["e2-standard-4"],
    )
    systems = {point.system for point in points}
    assert systems == {"static", "skyscraper"}
    static_points = [point for point in points if point.system == "static"]
    assert len(static_points) == 2
    assert static_points[0].total_dollars < static_points[1].total_dollars
    rows = [point.as_row() for point in points]
    rendered = format_table("figure 4", rows)
    assert "figure 4" in rendered and "skyscraper" in rendered


def test_cost_reduction_factor_logic():
    points = [
        CostQualityPoint("skyscraper", "e2-standard-4", 4, quality=0.9, cloud_dollars=1.0,
                         total_dollars=10.0),
        CostQualityPoint("static", "e2-standard-4", 4, quality=0.6, cloud_dollars=0.0,
                         total_dollars=10.0),
        CostQualityPoint("static", "e2-standard-32", 32, quality=0.92, cloud_dollars=0.0,
                         total_dollars=60.0),
    ]
    assert cost_reduction_factor(points) == pytest.approx(6.0)
    # No baseline reaches the quality: no factor.
    assert cost_reduction_factor(points[:2]) is None


def test_provisioned_cost_matches_table2():
    machine = machine_for("e2-standard-8")
    total = provisioned_cost_dollars(machine, hours=8 * 24, cloud_dollars=3.3)
    assert total == pytest.approx(32.1, abs=0.2)


def test_ablation_variants():
    assert set(ABLATION_VARIANTS) == {
        "no_buffering_no_cloud",
        "only_buffering",
        "only_cloud",
        "buffering_and_cloud",
    }
    variant = AblationVariant.from_name("only_cloud")
    assert variant.use_cloud and not variant.use_buffer
    both = AblationVariant.from_name("buffering_and_cloud")
    assert both.use_cloud and both.use_buffer
    with pytest.raises(ConfigurationError):
        AblationVariant.from_name("nothing")


def test_results_formatting_helpers():
    table = ExperimentTable("demo")
    table.add_row(system="a", value=1.234)
    table.add_row(system="b", value=2.0, extra="x")
    table.add_note("normalized to the best static configuration")
    text = table.render()
    assert "demo" in text and "1.234" in text and "note:" in text
    assert normalize_series([1.0, 2.0, 4.0]) == [0.25, 0.5, 1.0]
    assert normalize_series([1.0, 2.0], reference=10.0) == [0.1, 0.2]
    with pytest.raises(ConfigurationError):
        normalize_series([0.0, 0.0])
    assert format_table("empty", []) .endswith("(no rows)")


def test_jain_fairness_index_edge_cases():
    # Degenerate allocations are perfectly fair by convention: nobody was
    # served, nobody was favoured.
    assert jain_fairness_index([]) == 1.0
    assert jain_fairness_index([0.0, 0.0, 0.0]) == 1.0
    # Equal shares are perfectly fair; one-winner allocations score 1/n.
    assert jain_fairness_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)
    assert jain_fairness_index([1.0]) == pytest.approx(1.0)
    assert jain_fairness_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    # Mixed allocations land strictly between the extremes.
    mixed = jain_fairness_index([1.0, 2.0, 3.0])
    assert 1.0 / 3.0 < mixed < 1.0
    with pytest.raises(ConfigurationError):
        jain_fairness_index([1.0, -0.5])
