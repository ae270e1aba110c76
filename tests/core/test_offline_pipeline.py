"""Parity and behaviour tests for the staged offline pipeline.

The oracle below is the pre-refactor monolithic ``Skyscraper.fit`` (serial
Python loops, no memoization, no batching), kept verbatim except for two
deliberate changes that this PR's issue orders and the pipeline implements
identically:

* candidate segments are presampled *without* replacement (the old
  ``rng.integers`` + ``sorted(set(...))`` silently shrank the pool), and
* every sampling stage draws from ``default_rng((seed, stage ordinal))``
  instead of one shared sequential stream (so stage-cache hits cannot shift
  downstream sampling).

Everything else — the hill climbs, the Pareto filtering, clustering, history
labeling and forecaster training — is the original code, so the parity tests
prove that the pipeline's caching and batching leave the learned artifacts
bit-for-bit unchanged.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.categorizer import ContentCategorizer
from repro.core.filtering import configuration_work
from repro.core.forecaster import ContentForecaster, ForecastDataset
from repro.core.knobs import KnobConfiguration
from repro.core.offline import (
    EvaluationCache,
    OfflineFitParams,
    OfflinePipeline,
    label_quality_series,
    label_segments,
)
from repro.core.profiles import build_profiles
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.errors import ConfigurationError, NotFittedError
from repro.ml.hillclimb import hill_climb
from repro.ml.pareto import pareto_front
from repro.video.content import ContentModel
from repro.video.stream import SyntheticVideoSource
from repro.workloads.ev import make_ev_setup

SECONDS_PER_DAY = 86_400.0

#: Small but complete offline run (forecaster included) used across the tests.
FIT_KWARGS = dict(
    unlabeled_days=0.5,
    labeled_minutes=10.0,
    n_search_segments=4,
    n_presample_segments=50,
    n_category_samples=60,
    forecast_label_period_seconds=120.0,
    forecast_input_days=0.1,
    max_configurations=5,
    train_forecaster=True,
)
SKY_KWARGS = dict(
    n_categories=3,
    planned_interval_seconds=0.1 * SECONDS_PER_DAY,
    forecaster_splits=4,
    seed=0,
)
RESOURCES = SkyscraperResources(
    cores=8, buffer_bytes=2_000_000_000, cloud_budget_per_day=2.0
)


# --------------------------------------------------------------------- #
# The pre-refactor oracle
# --------------------------------------------------------------------- #
def _legacy_find_extremes(workload, labeled_segments):
    representative = workload.representative_segment()
    configurations = list(workload.knob_space.all_configurations())
    cheapest = min(
        configurations,
        key=lambda config: configuration_work(workload, config, representative),
    )
    best = max(
        configurations,
        key=lambda config: float(
            np.mean(
                [
                    workload.evaluate(config, segment).reported_quality
                    for segment in labeled_segments
                ]
            )
        ),
    )
    return cheapest, best


def _legacy_sample_diverse(workload, candidates, n_search, cheapest, best):
    pool = list(candidates)
    vectors = np.array(
        [
            [
                workload.evaluate(cheapest, segment).reported_quality,
                workload.evaluate(best, segment).reported_quality,
            ]
            for segment in pool
        ]
    )
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


def _legacy_filter_knob_configurations(
    workload, search_segments, work_weight=0.5, max_configurations=None
):
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
        work_of(
            knob_space.configuration_from_tuple(tuple(domain[-1] for domain in domains))
        ),
        1e-9,
    )

    union: Dict[KnobConfiguration, List[float]] = {}
    for segment in search_segments:
        quality_cache: Dict[KnobConfiguration, float] = {}

        def quality_of(values: Tuple) -> float:
            configuration = knob_space.configuration_from_tuple(values)
            if configuration not in quality_cache:
                quality_cache[configuration] = workload.evaluate(
                    configuration, segment
                ).reported_quality
            return quality_cache[configuration]

        def objective(values: Tuple) -> float:
            configuration = knob_space.configuration_from_tuple(values)
            return quality_of(values) - work_weight * work_of(configuration) / max_work

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

        points = {
            configuration: (work_of(configuration), quality)
            for configuration, quality in visited.items()
        }
        for configuration in pareto_front(points):
            union.setdefault(configuration, []).append(visited[configuration])

    mean_quality = {
        configuration: float(np.mean(qualities))
        for configuration, qualities in union.items()
    }
    configurations = sorted(union, key=work_of)

    if max_configurations is not None and len(configurations) > max_configurations:
        ordered = configurations
        keep_indices = (
            np.linspace(0, len(ordered) - 1, max_configurations).round().astype(int)
        )
        configurations = [ordered[index] for index in sorted(set(keep_indices.tolist()))]

    return configurations, mean_quality


def _reference_offline_fit(workload, source, resources, cloud):
    """The pre-refactor serial offline phase, end to end."""
    n_categories = SKY_KWARGS["n_categories"]
    seed = SKY_KWARGS["seed"]
    planned_interval_seconds = SKY_KWARGS["planned_interval_seconds"]
    forecaster_splits = SKY_KWARGS["forecaster_splits"]
    params = FIT_KWARGS

    segment_seconds = source.segment_seconds
    unlabeled_end = params["unlabeled_days"] * SECONDS_PER_DAY
    total = max(int(unlabeled_end / segment_seconds), 1)

    # Step 1: filter knob configurations.
    rng = np.random.default_rng((seed, 0))
    labeled_segments = source.record(0.0, params["labeled_minutes"] * 60.0)
    size = min(params["n_presample_segments"], total)
    candidate_indices = np.sort(rng.choice(total, size=size, replace=False))
    candidates = [source.segment_at(int(index)) for index in candidate_indices]
    cheapest, best = _legacy_find_extremes(workload, labeled_segments[:5])
    search_segments = _legacy_sample_diverse(
        workload, candidates, params["n_search_segments"], cheapest, best
    )
    configurations, mean_quality = _legacy_filter_knob_configurations(
        workload, search_segments, max_configurations=params["max_configurations"]
    )

    # Step 2: profile placements.
    profiles = build_profiles(
        workload,
        configurations,
        cores=resources.cores,
        cloud=cloud,
        mean_qualities=mean_quality,
    )

    # Step 3: content categories.
    rng_categories = np.random.default_rng((seed, 3))
    sample_indices = rng_categories.integers(
        0, total, size=params["n_category_samples"]
    )
    quality_vectors = []
    for index in sample_indices:
        segment = source.segment_at(int(index))
        quality_vectors.append(
            [
                workload.evaluate(profile.configuration, segment).reported_quality
                for profile in profiles
            ]
        )
    categorizer = ContentCategorizer(n_categories=n_categories, seed=seed)
    categorizer.fit(np.array(quality_vectors))
    for config_index, profile in enumerate(profiles):
        for category in range(categorizer.actual_categories):
            profile.category_quality[category] = categorizer.category_quality(
                config_index, category
            )

    # Step 4: label the history with the cheapest configuration.
    cheapest_profile = profiles.cheapest()
    cheapest_index = profiles.index_of(cheapest_profile.configuration)
    labels: List[int] = []
    timestamp = 0.0
    while timestamp < unlabeled_end:
        segment = source.segment_at(int(timestamp / segment_seconds))
        outcome = workload.evaluate(cheapest_profile.configuration, segment)
        labels.append(
            categorizer.classify_partial(cheapest_index, outcome.reported_quality)
        )
        timestamp += params["forecast_label_period_seconds"]

    # Step 5: train the forecaster.
    initial_forecast = categorizer.category_histogram(labels)
    dataset = ForecastDataset.from_labels(
        labels=labels,
        n_categories=categorizer.actual_categories,
        label_period_seconds=params["forecast_label_period_seconds"],
        input_seconds=params["forecast_input_days"] * SECONDS_PER_DAY,
        output_seconds=planned_interval_seconds,
        n_splits=forecaster_splits,
    )
    train_set, validation_set = dataset.split(0.8)
    forecaster = ContentForecaster(
        n_categories=categorizer.actual_categories, n_splits=forecaster_splits
    )
    forecaster.fit(train_set)
    return {
        "configurations": configurations,
        "mean_quality": mean_quality,
        "centers": categorizer.centers.copy(),
        "labels": labels,
        "initial_forecast": initial_forecast,
        "parameters": forecaster.get_parameters(),
        "mae": forecaster.evaluate_mae(validation_set),
    }


def _fit_skyscraper(covid_workload, covid_source, **fit_overrides) -> Skyscraper:
    sky = Skyscraper(covid_workload, RESOURCES, **SKY_KWARGS)
    sky.fit(covid_source, **{**FIT_KWARGS, **fit_overrides})
    return sky


def _assert_matches_reference(sky: Skyscraper, reference) -> None:
    report = sky.report
    assert report.kept_configurations == reference["configurations"]
    assert report.mean_qualities == reference["mean_quality"]
    assert np.array_equal(sky.categorizer.centers, reference["centers"])
    assert np.array_equal(report.initial_forecast, reference["initial_forecast"])
    assert report.forecast_validation_mae == pytest.approx(
        reference["mae"], abs=0.0, nan_ok=True
    )
    for ours, theirs in zip(
        sky.forecaster.get_parameters(), reference["parameters"], strict=True
    ):
        assert np.array_equal(ours, theirs)


@pytest.fixture(scope="module")
def reference_fit(covid_workload, covid_source):
    sky = Skyscraper(covid_workload, RESOURCES, **SKY_KWARGS)
    return _reference_offline_fit(covid_workload, covid_source, RESOURCES, sky.cloud)


@pytest.fixture(scope="module")
def trained_skyscraper(covid_workload, covid_source) -> Skyscraper:
    """A serial pipeline fit with a trained forecaster (parity configuration)."""
    return _fit_skyscraper(covid_workload, covid_source)


# --------------------------------------------------------------------- #
# Parity: pipeline == pre-refactor monolith
# --------------------------------------------------------------------- #
def test_serial_pipeline_matches_pre_refactor_fit(trained_skyscraper, reference_fit):
    _assert_matches_reference(trained_skyscraper, reference_fit)
    # The labels feeding the forecaster are recoverable through _label_history
    # and must match the monolith's loop too.
    source = trained_skyscraper.workload.make_source()
    labels = trained_skyscraper._label_history(
        source,
        0.0,
        FIT_KWARGS["unlabeled_days"] * SECONDS_PER_DAY,
        FIT_KWARGS["forecast_label_period_seconds"],
    )
    assert labels == reference_fit["labels"]


def test_ev_content_categories_match_segment_major_scalar_evaluate(ev_workload):
    """Configuration-major sampling gives the segment-major scalar quality vectors.

    EV's ``evaluate_config_batch`` vectorizes over segments, so each
    configuration's 120 samples (repeats included) arrive as one batch; the
    oracle evaluates segment by segment with the scalar ``evaluate``.
    """
    source = ev_workload.make_source()
    params = OfflineFitParams(
        unlabeled_days=0.02,
        labeled_minutes=5.0,
        n_search_segments=3,
        n_presample_segments=30,
        n_category_samples=120,
        forecast_label_period_seconds=60.0,
        max_configurations=5,
        train_forecaster=False,
    )
    pipeline = OfflinePipeline(ev_workload, source, cores=8, seed=2, params=params)
    pipeline.run()
    quality_vectors = pipeline.context["quality_vectors"]

    rng = np.random.default_rng((2, 3))
    indices = rng.integers(0, pipeline.total_history_segments, size=120)
    assert len(set(indices.tolist())) < len(indices)
    profiles = pipeline.context["profiles"]
    expected = np.array(
        [
            [
                ev_workload.evaluate(profile.configuration, source.segment_at(int(index)))
                .reported_quality
                for profile in profiles
            ]
            for index in indices
        ]
    )
    assert len(profiles) > 1
    assert quality_vectors.shape == expected.shape
    assert quality_vectors.flags.c_contiguous
    assert quality_vectors.tobytes() == expected.tobytes()


def test_report_keeps_table3_step_names(trained_skyscraper):
    report = trained_skyscraper.report
    assert set(report.step_runtimes_seconds) == {
        "filter_knob_configurations",
        "filter_task_placements",
        "compute_content_categories",
        "create_forecast_training_data",
        "train_forecast_model",
    }
    assert set(report.stage_runtimes_seconds) == {
        "sample_segments",
        "filter_configurations",
        "profile_placements",
        "content_categories",
        "label_history",
        "train_forecaster",
    }
    # Stage times roll up into the legacy steps without losing any time.
    assert report.total_runtime_seconds == pytest.approx(
        sum(report.stage_runtimes_seconds.values())
    )


# --------------------------------------------------------------------- #
# Stage cache: resumable per-stage artifacts
# --------------------------------------------------------------------- #
def test_stage_cache_resumes_bit_for_bit(
    covid_workload, covid_source, reference_fit, tmp_path
):
    cache_dir = tmp_path / "stages"
    first = _fit_skyscraper(covid_workload, covid_source, stage_cache_dir=cache_dir)
    assert not any(first.report.stage_cache_hits.values())
    _assert_matches_reference(first, reference_fit)

    second = _fit_skyscraper(covid_workload, covid_source, stage_cache_dir=cache_dir)
    assert second.report.stage_cache_hits == {
        "sample_segments": True,
        "filter_configurations": True,
        "profile_placements": False,  # hardware dependent, always re-derived
        "content_categories": True,
        "label_history": True,
        "train_forecaster": True,
    }
    _assert_matches_reference(second, reference_fit)
    # The resumed run evaluates nothing new.
    assert second.report.evaluation_cache_misses == 0
    # ... and ingests exactly as the cold fit does, traces included.
    start = FIT_KWARGS["unlabeled_days"] * SECONDS_PER_DAY
    resumed = second.ingest(covid_source, start_time=start, duration=1_800.0)
    cold = first.ingest(covid_source, start_time=start, duration=1_800.0)
    assert asdict(resumed) == asdict(cold)


def test_changing_n_categories_reuses_expensive_stages(
    covid_workload, covid_source, tmp_path
):
    """The Table-3-dominant labeling stage survives a category-count change."""
    cache_dir = tmp_path / "stages"
    first = _fit_skyscraper(covid_workload, covid_source, stage_cache_dir=cache_dir)

    sky = Skyscraper(covid_workload, RESOURCES, **{**SKY_KWARGS, "n_categories": 4})
    report = sky.fit(
        covid_source, **{**FIT_KWARGS, "stage_cache_dir": cache_dir}
    )
    hits = report.stage_cache_hits
    assert hits["sample_segments"] and hits["filter_configurations"]
    assert hits["content_categories"] and hits["label_history"]
    # Different categorizer -> different labels -> the forecaster retrains.
    assert not hits["train_forecaster"]
    assert report.n_categories == 4
    assert report.kept_configurations == first.report.kept_configurations
    # Nothing was re-evaluated: the quality vectors and the label series came
    # from the cache, and the clustering re-ran on top of them.
    assert report.evaluation_cache_misses == 0


# --------------------------------------------------------------------- #
# Shared evaluation cache
# --------------------------------------------------------------------- #
def test_shared_evaluation_cache_across_fits(covid_workload, covid_source):
    cache = EvaluationCache(covid_workload)
    first = _fit_skyscraper(covid_workload, covid_source, evaluation_cache=cache)
    assert first.report.evaluation_cache_misses > 0
    # Stages already deduplicate against each other within one fit.
    assert first.report.evaluation_cache_hits > 0

    second = _fit_skyscraper(covid_workload, covid_source, evaluation_cache=cache)
    assert second.report.evaluation_cache_misses == 0
    assert second.report.evaluation_cache_hits > 0
    assert second.report.evaluation_cache_hit_ratio == 1.0
    assert np.array_equal(second.categorizer.centers, first.categorizer.centers)


def test_evaluation_cache_deduplicates_within_a_batch(covid_workload, covid_source):
    cache = EvaluationCache(covid_workload)
    configuration = next(covid_workload.knob_space.all_configurations())
    segment = covid_source.segment_at(10)
    outcomes = cache.evaluate_many([(configuration, segment)] * 3)
    assert cache.misses == 1 and cache.hits == 2
    assert outcomes[0] is outcomes[1] is outcomes[2]
    assert (
        outcomes[0].reported_quality
        == covid_workload.evaluate(configuration, segment).reported_quality
    )


def test_evaluation_cache_is_bound_to_workload_and_stream(
    covid_workload, covid_source, ev_workload
):
    cache = EvaluationCache(covid_workload)
    OfflinePipeline(covid_workload, covid_source, cores=4, evaluation_cache=cache)
    # Re-binding to the same (workload, stream) is fine ...
    OfflinePipeline(covid_workload, covid_source, cores=4, evaluation_cache=cache)
    # ... but a different workload object or a different stream fails loudly
    # instead of silently serving the wrong cached outcomes.
    with pytest.raises(ConfigurationError):
        OfflinePipeline(
            ev_workload, ev_workload.make_source(), cores=4, evaluation_cache=cache
        )
    shifted = SyntheticVideoSource(
        ContentModel(seed=99), covid_workload.stream_config
    )
    with pytest.raises(ConfigurationError):
        OfflinePipeline(covid_workload, shifted, cores=4, evaluation_cache=cache)


def test_stage_keys_fingerprint_the_full_content_model(covid_workload, covid_source):
    """Same content seed but different dynamics must not share cache entries."""
    baseline = _sample_pipeline(covid_workload, covid_source)
    drifting_source = SyntheticVideoSource(
        ContentModel(seed=covid_source.content_model.seed, trend_per_day=0.5),
        covid_source.config,
    )
    drifting = _sample_pipeline(covid_workload, drifting_source)
    assert baseline._base_payload() != drifting._base_payload()


def test_fit_report_counts_every_row_the_workload_scores(monkeypatch):
    """Every evaluation of a fit goes through its one evaluation cache, so
    the report's misses are exactly the rows the workload scored."""
    setup = make_ev_setup(history_days=FIT_KWARGS["unlabeled_days"], online_days=0.01)
    workload = setup.workload
    scored: List[int] = []
    score = workload._score

    def counting_score(configuration, segment_indices, *columns):
        scored.append(len(segment_indices))
        return score(configuration, segment_indices, *columns)

    monkeypatch.setattr(workload, "_score", counting_score)
    report = Skyscraper(workload, RESOURCES, **SKY_KWARGS).fit(setup.source, **FIT_KWARGS)
    assert sum(scored) > 0
    assert report.evaluation_cache_misses == sum(scored)


def test_fit_rejects_an_executor(covid_workload, covid_source):
    sky = Skyscraper(covid_workload, RESOURCES, **SKY_KWARGS)
    with pytest.raises(ConfigurationError, match="executor must be None"):
        sky.fit(covid_source, executor=2, **FIT_KWARGS)
    assert sky.report is None


# --------------------------------------------------------------------- #
# Presample fix: the candidate pool really has the requested size
# --------------------------------------------------------------------- #
def _sample_pipeline(covid_workload, covid_source, **param_overrides):
    params = OfflineFitParams(**{**FIT_KWARGS, **param_overrides})
    return OfflinePipeline(
        workload=covid_workload,
        source=covid_source,
        cores=RESOURCES.cores,
        params=params,
        seed=SKY_KWARGS["seed"],
        n_categories=SKY_KWARGS["n_categories"],
    )


def test_presample_yields_requested_unique_candidates(covid_workload, covid_source):
    pipeline = _sample_pipeline(
        covid_workload, covid_source, n_presample_segments=120
    )
    context = {}
    pipeline._run_sample_segments(context)
    indices = context["candidate_indices"]
    assert len(indices) == 120
    assert len(set(indices)) == 120
    assert indices == sorted(indices)


def test_presample_caps_at_history_length(covid_workload, covid_source):
    # 0.01 days of 2-second segments = 432 segments < 1000 requested.
    pipeline = _sample_pipeline(
        covid_workload,
        covid_source,
        unlabeled_days=0.01,
        n_presample_segments=1000,
    )
    context = {}
    pipeline._run_sample_segments(context)
    total = int(0.01 * SECONDS_PER_DAY / covid_source.segment_seconds)
    assert len(context["candidate_indices"]) == total
    assert len(set(context["candidate_indices"])) == total


# --------------------------------------------------------------------- #
# _label_history boundaries
# --------------------------------------------------------------------- #
def test_label_history_empty_window(fitted_skyscraper, covid_source):
    assert fitted_skyscraper._label_history(covid_source, 500.0, 500.0, 60.0) == []
    assert fitted_skyscraper._label_history(covid_source, 500.0, 100.0, 60.0) == []


def test_label_history_boundary_timestamps(fitted_skyscraper, covid_source):
    # The end timestamp is exclusive: [0, 240) at a 120 s period samples 0 and 120.
    two = fitted_skyscraper._label_history(covid_source, 0.0, 240.0, 120.0)
    assert len(two) == 2
    # A partial trailing period still gets sampled: 0, 120, 240.
    three = fitted_skyscraper._label_history(covid_source, 0.0, 300.0, 120.0)
    assert len(three) == 3
    assert three[:2] == two
    categories = fitted_skyscraper.categorizer.actual_categories
    assert all(0 <= label < categories for label in three)
    # Label k sits at 0.3 * k, and 0.3 * 10 rounds to the excluded end 3.0.
    # A running sum of the period reaches 2.9999999999999996 there instead.
    assert len(fitted_skyscraper._label_history(covid_source, 0.0, 3.0, 0.3)) == 10
    segments = label_segments(covid_source, 0.0, 3.0, 0.3)
    assert [segment.segment_index for segment in segments] == [
        int(0.3 * k / covid_source.segment_seconds) for k in range(10)
    ]


def test_label_history_requires_fit(covid_workload, covid_source):
    sky = Skyscraper(covid_workload, SkyscraperResources(cores=4))
    with pytest.raises(NotFittedError):
        sky._label_history(covid_source, 0.0, 100.0, 60.0)


def test_label_quality_series_rejects_bad_period(
    covid_workload, covid_source, fitted_skyscraper
):
    configuration = fitted_skyscraper.profiles.cheapest().configuration
    for period in (0.0, -60.0):
        for evaluator in (None, EvaluationCache(covid_workload)):
            with pytest.raises(ConfigurationError):
                label_quality_series(
                    covid_workload,
                    covid_source,
                    configuration,
                    0.0,
                    100.0,
                    period,
                    evaluator=evaluator,
                )


# --------------------------------------------------------------------- #
# with_resources: shared video artifacts, re-profiled hardware
# --------------------------------------------------------------------- #
def test_with_resources_shares_categorizer_and_forecaster(trained_skyscraper):
    clone = trained_skyscraper.with_resources(
        SkyscraperResources(cores=32, buffer_bytes=1_000_000_000, cloud_budget_per_day=0.0)
    )
    assert clone.categorizer is trained_skyscraper.categorizer
    assert clone.forecaster is trained_skyscraper.forecaster
    assert clone.report is trained_skyscraper.report
    assert clone.profiles is not trained_skyscraper.profiles
    assert clone.profiles.configurations == trained_skyscraper.profiles.configurations
    # The clone's cloud budget comes from the new resources.
    assert clone.cloud.daily_budget_dollars == 0.0


def test_with_resources_reattaches_category_qualities(trained_skyscraper):
    clone = trained_skyscraper.with_resources(SkyscraperResources(cores=16))
    centers = trained_skyscraper.categorizer.centers
    for config_index, profile in enumerate(clone.profiles):
        for category in range(trained_skyscraper.categorizer.actual_categories):
            assert profile.category_quality[category] == centers[category, config_index]
    # Hardware-dependent placement state was genuinely re-measured: doubling
    # the cores (8 -> 16) shrinks the on-premise runtime per segment.
    original = trained_skyscraper.profiles.most_expensive().on_prem_placement
    cloned = clone.profiles.most_expensive().on_prem_placement
    assert cloned.runtime_seconds < original.runtime_seconds


# --------------------------------------------------------------------- #
# The online forecast reads the window the forecaster was trained on
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("resumed", [False, True], ids=["fitted", "resumed"])
def test_policy_forecasts_from_the_trained_window(
    trained_skyscraper, covid_workload, covid_source, tmp_path, monkeypatch, resumed
):
    """``forecast_input_days=0.1`` trains on 8,640 s of labels, so the policy
    splits the last 8,640 s of category history into the forecaster's inputs,
    also after a second fit resumes the forecaster from a warm stage cache."""
    sky = trained_skyscraper
    if resumed:
        _fit_skyscraper(covid_workload, covid_source, stage_cache_dir=tmp_path)
        sky = _fit_skyscraper(covid_workload, covid_source, stage_cache_dir=tmp_path)
        assert sky.report.stage_cache_hits["train_forecaster"]
    policy = sky.build_policy(covid_source.segment_seconds)
    assert policy.forecaster.input_seconds == 8_640.0
    # Make the forecast return its input histograms.
    monkeypatch.setattr(policy.forecaster, "predict", np.asarray)
    n_categories = sky.categorizer.actual_categories
    uniform = np.full(n_categories, 1.0 / n_categories)
    now = 10 * SECONDS_PER_DAY

    def inputs_with_one_label(age_seconds: float) -> np.ndarray:
        policy.switcher.category_history[:] = [(now - age_seconds, 0)]
        return policy._forecast(now)

    # A label inside the window lands in the oldest split ...
    inside = inputs_with_one_label(8_600.0)
    assert inside[0][0] == 1.0
    np.testing.assert_array_equal(inside[1:], np.tile(uniform, (len(inside) - 1, 1)))
    # ... and one just outside it is not read at all.
    np.testing.assert_array_equal(
        inputs_with_one_label(8_700.0), np.tile(uniform, (len(inside), 1))
    )
