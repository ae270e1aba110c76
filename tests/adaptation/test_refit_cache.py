"""Stage-cache reuse contract of the staged incremental re-fit.

A drift-triggered re-fit with unchanged profiles must re-run *only* the
history-labeling and forecaster-training stages: sampling, configuration
filtering and clustering see identical key material and come back from the
content-addressed stage cache, and ``profile_placements`` is re-derived
(hardware-dependent, never cached).  The warm-started forecaster fine-tune
must land near a cold fit on the same (stationary) labels.
"""

import numpy as np
import pytest

from repro.adaptation import StagedRefitter
from repro.adaptation.refit import REFIT_STAGES, REUSED_STAGES
from repro.errors import ConfigurationError, NotFittedError

SECONDS_PER_DAY = 86_400.0

#: Warm fine-tunes and cold fits optimize the same loss on the same labels,
#: but from different initializations: per-category forecast probabilities
#: agree within this absolute tolerance (measured headroom ~2x).
WARM_COLD_TOLERANCE = 0.2


@pytest.fixture()
def refitter(regime_bundle) -> StagedRefitter:
    return StagedRefitter.from_skyscraper(regime_bundle.skyscraper)


def test_refit_reruns_only_labeling_and_forecaster(regime_bundle, refitter):
    """The tentpole contract: 3 cached stages, labeling + training re-run."""
    result = refitter.refit(
        regime_bundle.config.online_end, warm_start=regime_bundle.skyscraper.forecaster
    )
    report = refitter.reports[-1]
    for stage in REUSED_STAGES:
        assert report.stage_cache_hits[stage], f"{stage} must be a cache hit"
    for stage in REFIT_STAGES:
        assert not report.stage_cache_hits[stage], f"{stage} must re-run"
    assert not report.stage_cache_hits["profile_placements"]
    assert report.cache_hit_count == len(REUSED_STAGES) == 3
    # Runtimes are recorded for every stage.
    assert set(report.stage_runtimes_seconds) == set(report.stage_cache_hits)
    # Unchanged profiles really means unchanged: same clustering, bitwise.
    assert np.array_equal(
        result.categorizer.centers, regime_bundle.skyscraper.categorizer.centers
    )
    assert report.warm_started
    assert report.label_window_end_days == pytest.approx(
        regime_bundle.config.online_end / SECONDS_PER_DAY
    )


def test_extended_window_labels_are_cached_for_the_next_refit(
    regime_bundle, refitter
):
    """A second re-fit at the same ``now`` finds the extended label series in
    the cache; its cold forecaster key differs from the warm one, so the
    trainings never collide.  (A distinct ``now`` keeps this test's cache
    entries independent of the other tests'.)"""
    now = regime_bundle.config.online_end - 600.0
    refitter.refit(now, warm_start=regime_bundle.skyscraper.forecaster)
    other = StagedRefitter.from_skyscraper(regime_bundle.skyscraper)
    other.refit(now, warm_start=None)
    report = other.reports[-1]
    assert report.stage_cache_hits["label_history"], (
        "the first re-fit's extended label series must be reusable"
    )
    assert not report.stage_cache_hits["train_forecaster"], (
        "a cold fit must not be served the warm fine-tune's cached weights"
    )
    assert not report.warm_started


def test_warm_start_matches_cold_fit_on_stationary_labels(regime_bundle):
    """At ``now`` = end of history the label window is unchanged (purely
    pre-shift, stationary): warm fine-tune and cold fit see identical labels
    and must produce nearby forecasts."""
    sky = regime_bundle.skyscraper
    now = regime_bundle.config.history_days * SECONDS_PER_DAY
    warm = StagedRefitter.from_skyscraper(sky).refit(now, warm_start=sky.forecaster)
    cold = StagedRefitter.from_skyscraper(sky).refit(now, warm_start=None)
    assert warm.labels == cold.labels
    histogram = warm.categorizer.category_histogram(warm.labels)
    inputs = [histogram] * sky.forecaster_splits
    warm_prediction = warm.forecaster.predict(inputs)
    cold_prediction = cold.forecaster.predict(inputs)
    for prediction in (warm_prediction, cold_prediction):
        assert np.all(prediction >= 0.0)
        assert float(np.sum(prediction)) == pytest.approx(1.0)
    assert float(np.max(np.abs(warm_prediction - cold_prediction))) < WARM_COLD_TOLERANCE


def test_shared_evaluation_cache_across_repeated_refits(regime_bundle, refitter):
    """One refitter's evaluation cache carries across its re-fits."""
    now = regime_bundle.config.online_end
    refitter.refit(now, warm_start=None)
    evaluations_before = len(refitter.evaluations)
    refitter.refit(now + 1_800.0, warm_start=None)
    assert len(refitter.reports) == 2
    # The second re-fit labels a slightly longer window: the shared cache
    # already holds every earlier evaluation, so it only grows.
    assert len(refitter.evaluations) >= evaluations_before


def test_from_skyscraper_rejects_artifact_restores(regime_bundle):
    """A Skyscraper without recorded fit provenance cannot be re-fitted."""
    sky = regime_bundle.skyscraper
    original = sky.fit_params
    try:
        sky.fit_params = None
        with pytest.raises(NotFittedError):
            StagedRefitter.from_skyscraper(sky)
    finally:
        sky.fit_params = original


def test_fine_tune_epochs_validated(regime_bundle):
    with pytest.raises(ConfigurationError):
        StagedRefitter.from_skyscraper(regime_bundle.skyscraper, fine_tune_epochs=0)
