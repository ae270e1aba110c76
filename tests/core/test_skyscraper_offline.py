"""Tests for the offline phase, the public Skyscraper API and filtering."""

import numpy as np
import pytest

import repro.core.skyscraper
from repro.cluster.resources import CloudSpec
from repro.core.filtering import (
    configuration_work,
    filter_knob_configurations,
    find_extreme_configurations,
    sample_diverse_segments,
)
from repro.core.offline import profile_configurations
from repro.core.profiles import build_profiles
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.errors import ConfigurationError, NotFittedError


def test_offline_report_contains_all_steps(fitted_skyscraper):
    report = fitted_skyscraper.report
    assert set(report.step_runtimes_seconds) == {
        "filter_knob_configurations",
        "filter_task_placements",
        "compute_content_categories",
        "create_forecast_training_data",
        "train_forecast_model",
    }
    assert report.total_runtime_seconds > 0.0
    assert 2 <= len(report.kept_configurations) <= 5
    assert report.n_categories == fitted_skyscraper.categorizer.actual_categories
    assert report.initial_forecast is not None
    assert report.initial_forecast.sum() == pytest.approx(1.0)


def test_kept_configurations_span_the_work_quality_frontier(fitted_skyscraper):
    profiles = fitted_skyscraper.profiles
    works = [profile.work_core_seconds for profile in profiles]
    qualities = [profile.mean_quality for profile in profiles]
    # Configurations are profiled and the set spans a wide work range.
    assert max(works) > 5 * min(works)
    assert max(qualities) > min(qualities)
    # Every profile has at least the fully on-premise placement.
    for profile in profiles:
        assert profile.on_prem_placement.cloud_dollars == 0.0
        for category in range(fitted_skyscraper.categorizer.actual_categories):
            assert 0.0 <= profile.quality_for_category(category) <= 1.0


def test_category_quality_decreases_for_cheap_configs_on_hard_content(fitted_skyscraper):
    profiles = fitted_skyscraper.profiles
    categorizer = fitted_skyscraper.categorizer
    cheapest_index = profiles.index_of(profiles.cheapest().configuration)
    easiest, hardest = 0, categorizer.actual_categories - 1
    assert categorizer.category_quality(cheapest_index, easiest) > categorizer.category_quality(
        cheapest_index, hardest
    )


def test_with_resources_reprofiles_but_shares_models(fitted_skyscraper):
    clone = fitted_skyscraper.with_resources(
        SkyscraperResources(cores=32, buffer_bytes=1_000_000_000, cloud_budget_per_day=0.0)
    )
    assert clone.categorizer is fitted_skyscraper.categorizer
    assert clone.profiles is not fitted_skyscraper.profiles
    assert clone.resources.cores == 32
    # More cores means the on-prem runtime per segment shrinks.
    original_runtime = fitted_skyscraper.profiles.most_expensive().on_prem_placement.runtime_seconds
    clone_runtime = clone.profiles.most_expensive().on_prem_placement.runtime_seconds
    assert clone_runtime < original_runtime


def test_with_resources_on_the_fitted_hardware_reuses_placements(
    fitted_skyscraper, monkeypatch
):
    """Same cores and cloud: profiles equal to a re-profile, without one."""
    sky = fitted_skyscraper
    report = sky.report
    expected = profile_configurations(
        sky.workload,
        report.kept_configurations,
        cores=sky.resources.cores,
        cloud=sky.cloud,
        mean_qualities=report.mean_qualities,
        categorizer=sky.categorizer,
    )
    reprofiles = []
    real_profile_configurations = repro.core.skyscraper.profile_configurations

    def counting_profile_configurations(*args, **kwargs):
        reprofiles.append(kwargs["cores"])
        return real_profile_configurations(*args, **kwargs)

    monkeypatch.setattr(
        repro.core.skyscraper, "profile_configurations", counting_profile_configurations
    )
    clone = sky.with_resources(
        SkyscraperResources(
            cores=sky.resources.cores,
            buffer_bytes=1_000_000,
            cloud_budget_per_day=sky.resources.cloud_budget_per_day,
        )
    )
    assert reprofiles == []
    assert list(clone.profiles) == list(expected)
    for fresh, fitted in zip(clone.profiles, sky.profiles):
        assert fresh is not fitted
        assert all(a is b for a, b in zip(fresh.placements, fitted.placements))

    before = [dict(profile.category_quality) for profile in sky.profiles]
    clone.profiles.set_category_qualities(
        np.zeros((len(clone.profiles), sky.categorizer.actual_categories))
    )
    assert [profile.category_quality for profile in sky.profiles] == before

    sky.with_resources(SkyscraperResources(cores=4, cloud_budget_per_day=2.0))
    sky.with_resources(SkyscraperResources(cores=sky.resources.cores))
    assert reprofiles == [4, sky.resources.cores]


def test_with_resources_preserves_custom_cloud(covid_workload, covid_source):
    """Re-provisioning keeps non-default cloud pricing/uplink settings."""
    custom = CloudSpec(uplink_bytes_per_second=1_000_000.0, round_trip_seconds=0.5)
    sky = Skyscraper(
        covid_workload,
        SkyscraperResources(cores=8, cloud_budget_per_day=2.0),
        n_categories=3,
        cloud=custom,
    )
    sky.fit(
        covid_source,
        unlabeled_days=0.25,
        labeled_minutes=10.0,
        n_presample_segments=30,
        n_category_samples=40,
        forecast_label_period_seconds=240.0,
        max_configurations=4,
        train_forecaster=False,
    )
    assert sky.cloud.uplink_bytes_per_second == 1_000_000.0

    clone = sky.with_resources(
        SkyscraperResources(cores=16, buffer_bytes=1_000_000_000, cloud_budget_per_day=3.0)
    )
    assert clone.cloud.uplink_bytes_per_second == 1_000_000.0
    assert clone.cloud.round_trip_seconds == 0.5
    assert clone.cloud.daily_budget_dollars == 3.0


def test_budget_conversion_includes_cloud_credits(fitted_skyscraper):
    without_cloud = Skyscraper(
        fitted_skyscraper.workload,
        SkyscraperResources(cores=8, buffer_bytes=1, cloud_budget_per_day=0.0),
    ).budget_core_seconds_per_segment(2.0)
    with_cloud = Skyscraper(
        fitted_skyscraper.workload,
        SkyscraperResources(cores=8, buffer_bytes=1, cloud_budget_per_day=5.0),
    ).budget_core_seconds_per_segment(2.0)
    assert with_cloud > without_cloud
    assert without_cloud == pytest.approx(8 * 2.0 * 0.95)


def test_ingest_requires_fit(covid_workload, covid_source):
    sky = Skyscraper(covid_workload, SkyscraperResources(cores=4))
    with pytest.raises(NotFittedError):
        sky.ingest(covid_source, start_time=0.0, duration=60.0)
    with pytest.raises(NotFittedError):
        sky.build_policy(2.0)
    with pytest.raises(NotFittedError):
        sky.with_resources(SkyscraperResources(cores=8))


def test_resources_validation():
    with pytest.raises(ConfigurationError):
        SkyscraperResources(cores=0)
    with pytest.raises(ConfigurationError):
        SkyscraperResources(cores=4, cloud_budget_per_day=-1.0)
    with pytest.raises(ConfigurationError):
        SkyscraperResources(cores=4, utilization=0.0)
    resources = SkyscraperResources(cores=4, cloud_budget_per_day=3.0)
    assert resources.cluster_spec().cores == 4
    assert resources.cloud_spec().daily_budget_dollars == 3.0


# --------------------------------------------------------------------- #
# Filtering (Appendix A.1)
# --------------------------------------------------------------------- #
def test_extreme_configurations_are_cheapest_and_best(ev_workload):
    source = ev_workload.make_source()
    labeled = source.record(8 * 3600.0, 8 * 3600.0 + 60.0)
    cheapest, best = find_extreme_configurations(ev_workload, labeled)
    representative = ev_workload.representative_segment()
    all_configs = list(ev_workload.knob_space.all_configurations())
    works = [configuration_work(ev_workload, config, representative) for config in all_configs]
    assert configuration_work(ev_workload, cheapest, representative) == pytest.approx(min(works))
    assert best["yolo_size"] == "large"
    assert best["det_interval"] == 1


def test_sample_diverse_segments_picks_spread_content(ev_workload):
    source = ev_workload.make_source()
    candidates = [source.segment_at(index) for index in range(0, 40_000, 400)]
    selected = sample_diverse_segments(ev_workload, candidates, n_search=4, seed=0)
    assert len(selected) == 4
    activities = [segment.content.activity for segment in selected]
    assert max(activities) - min(activities) > 0.3
    with pytest.raises(ConfigurationError):
        sample_diverse_segments(ev_workload, [], n_search=3)


def test_filter_knob_configurations_returns_pareto_spread(ev_workload):
    source = ev_workload.make_source()
    segments = [source.segment_at(index) for index in (1_000, 15_000, 16_000)]
    configurations, qualities = filter_knob_configurations(
        ev_workload, segments, max_configurations=5
    )
    assert 2 <= len(configurations) <= 5
    representative = ev_workload.representative_segment()
    works = [configuration_work(ev_workload, config, representative) for config in configurations]
    assert works == sorted(works)
    assert set(configurations) <= set(qualities)
    assert all(0.0 <= quality <= 1.0 for quality in qualities.values())


def test_build_profiles_requires_configurations(ev_workload):
    with pytest.raises(ConfigurationError):
        build_profiles(ev_workload, [], cores=4)


def test_set_category_qualities_one_pass_round_trip(fitted_skyscraper, covid_workload):
    configurations = fitted_skyscraper.report.kept_configurations[:2]
    profiles = build_profiles(covid_workload, configurations, cores=4)
    with pytest.raises(NotFittedError):
        profiles.quality_matrix(2)
    matrix = np.array([[0.1, 0.9], [0.4, 0.6]])
    profiles.set_category_qualities(matrix)
    assert np.array_equal(profiles.quality_matrix(2), matrix)
    assert profiles[0].quality_for_category(1) == 0.9
    # Asking for more categories than were attached still raises.
    with pytest.raises(NotFittedError):
        profiles.quality_matrix(3)
    # Shape mismatches are rejected before any profile is touched.
    with pytest.raises(ConfigurationError):
        profiles.set_category_qualities(np.ones((5, 2)))
    with pytest.raises(ConfigurationError):
        profiles.set_category_qualities(np.ones(4))


def test_attach_category_qualities_matches_centers(fitted_skyscraper):
    centers = fitted_skyscraper.categorizer.centers
    matrix = fitted_skyscraper.profiles.quality_matrix(
        fitted_skyscraper.categorizer.actual_categories
    )
    assert np.array_equal(matrix, centers.T)
