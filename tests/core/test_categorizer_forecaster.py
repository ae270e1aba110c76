"""Tests for content categorization (Section 3.2) and forecasting (Section 3.3)."""

import numpy as np
import pytest

from repro.core.categorizer import ContentCategorizer
from repro.core.forecaster import ContentForecaster, ForecastDataset
from repro.errors import ConfigurationError, NotFittedError


def _quality_vectors(seed=0, n_per_group=50):
    """Quality vectors of 3 configurations under easy / medium / hard content."""
    rng = np.random.default_rng(seed)
    easy = rng.normal([0.95, 0.97, 0.99], 0.02, size=(n_per_group, 3))
    medium = rng.normal([0.55, 0.8, 0.95], 0.03, size=(n_per_group, 3))
    hard = rng.normal([0.2, 0.5, 0.9], 0.03, size=(n_per_group, 3))
    return np.clip(np.concatenate([easy, medium, hard]), 0.0, 1.0)


# --------------------------------------------------------------------- #
# Categorizer
# --------------------------------------------------------------------- #
def test_categorizer_recovers_difficulty_groups():
    vectors = _quality_vectors()
    categorizer = ContentCategorizer(n_categories=3, seed=0).fit(vectors)
    assert categorizer.actual_categories == 3
    labels = categorizer.classify_many(vectors)
    # Categories are ordered easiest first; the easy block must map to 0 and
    # the hard block to 2.
    assert np.bincount(labels[:50]).argmax() == 0
    assert np.bincount(labels[100:]).argmax() == 2


def test_category_centers_expose_per_configuration_quality():
    categorizer = ContentCategorizer(n_categories=3, seed=0).fit(_quality_vectors())
    # The most expensive configuration (last column) stays good everywhere.
    for category in range(3):
        assert categorizer.category_quality(2, category) > 0.85
    # The cheapest configuration degrades sharply on the hard category.
    assert categorizer.category_quality(0, 2) < 0.4


def test_classify_partial_matches_full_classification_most_of_the_time():
    """Equation 5: one observable dimension is usually enough (Section 5.6)."""
    vectors = _quality_vectors(seed=1)
    categorizer = ContentCategorizer(n_categories=3, seed=1).fit(vectors)
    full = categorizer.classify_many(vectors)
    partial = np.array(
        [categorizer.classify_partial(0, vector[0]) for vector in vectors]
    )
    agreement = float(np.mean(full == partial))
    assert agreement > 0.9


def test_gmm_method_matches_kmeans_structure():
    vectors = _quality_vectors(seed=2)
    kmeans = ContentCategorizer(n_categories=3, method="kmeans", seed=2).fit(vectors)
    gmm = ContentCategorizer(n_categories=3, method="gmm", seed=2).fit(vectors)
    assert kmeans.centers.shape == gmm.centers.shape
    # Both categorize the easy block into their easiest category.
    assert np.bincount(gmm.classify_many(vectors[:50])).argmax() == 0


def test_category_histogram():
    categorizer = ContentCategorizer(n_categories=3, seed=0).fit(_quality_vectors())
    histogram = categorizer.category_histogram([0, 0, 1, 2])
    assert histogram.sum() == pytest.approx(1.0)
    assert histogram[0] == pytest.approx(0.5)
    empty = categorizer.category_histogram([])
    assert np.allclose(empty, 1.0 / 3.0)


def test_categorizer_validation():
    with pytest.raises(ConfigurationError):
        ContentCategorizer(n_categories=0)
    with pytest.raises(ConfigurationError):
        ContentCategorizer(method="dbscan")
    categorizer = ContentCategorizer(n_categories=2)
    with pytest.raises(NotFittedError):
        _ = categorizer.centers
    with pytest.raises(ConfigurationError):
        categorizer.fit(np.empty((0, 2)))
    categorizer.fit(_quality_vectors())
    with pytest.raises(ConfigurationError):
        categorizer.classify([0.5])
    with pytest.raises(ConfigurationError):
        categorizer.classify_partial(10, 0.5)
    assert len(categorizer.describe()) == categorizer.actual_categories


# --------------------------------------------------------------------- #
# Forecast dataset
# --------------------------------------------------------------------- #
def _label_series(n_categories=3, periods=2000, seed=0):
    """A label series with a deterministic daily structure plus noise."""
    rng = np.random.default_rng(seed)
    labels = []
    for index in range(periods):
        phase = (index % 200) / 200.0
        base = 0 if phase < 0.5 else (1 if phase < 0.8 else 2)
        if rng.uniform() < 0.1:
            base = rng.integers(0, n_categories)
        labels.append(int(base))
    return labels


def test_forecast_dataset_shapes():
    labels = _label_series()
    dataset = ForecastDataset.from_labels(
        labels,
        n_categories=3,
        label_period_seconds=60.0,
        input_seconds=60.0 * 400,
        output_seconds=60.0 * 200,
        n_splits=4,
        stride_seconds=60.0 * 50,
    )
    assert dataset.inputs.shape[1] == 4 * 3
    assert dataset.targets.shape[1] == 3
    assert len(dataset) > 10
    # Targets are histograms.
    assert np.allclose(dataset.targets.sum(axis=1), 1.0)
    train, test = dataset.split(0.8)
    assert len(train) + len(test) == len(dataset)
    assert len(train) > len(test)


def test_forecast_dataset_validation():
    labels = [0, 1, 2] * 10
    with pytest.raises(ConfigurationError):
        ForecastDataset.from_labels(labels, 3, 60.0, 60.0 * 100, 60.0 * 100, 4)
    with pytest.raises(ConfigurationError):
        ForecastDataset.from_labels(labels, 3, 0.0, 60.0, 60.0, 1)
    dataset = ForecastDataset.from_labels(labels, 3, 60.0, 60.0 * 10, 60.0 * 5, 2)
    with pytest.raises(ConfigurationError):
        dataset.split(1.5)


def test_forecast_dataset_rejects_negative_labels_and_no_categories():
    labels = [0, 1, 2] * 10
    with pytest.raises(ConfigurationError, match="non-negative"):
        ForecastDataset.from_labels(labels + [-1], 3, 60.0, 60.0 * 4, 60.0 * 2, 2)
    # Even outside every window: a negative label is a caller bug.
    with pytest.raises(ConfigurationError, match="non-negative"):
        ForecastDataset.from_labels(
            labels + [-1], 3, 60.0, 60.0 * 4, 60.0 * 2, 2, stride_seconds=60.0 * 100
        )
    with pytest.raises(ConfigurationError, match="n_categories"):
        ForecastDataset.from_labels(labels, 0, 60.0, 60.0 * 4, 60.0 * 2, 2)


def _window_histogram(window, n_categories):
    """One window's histogram by definition: in-range counts over their total."""
    counts = np.bincount(window, minlength=n_categories)[:n_categories].astype(float)
    total = counts.sum()
    if total <= 0:
        return np.full(n_categories, 1.0 / n_categories)
    return counts / total


def _windowed_dataset(labels, n_categories, period, input_s, output_s, n_splits, stride_s):
    """The per-window loop ``from_labels`` must reproduce bit for bit."""
    label_array = np.asarray(labels, dtype=int)
    per_input = int(round(input_s / period))
    per_output = int(round(output_s / period))
    per_split = max(per_input // n_splits, 1)
    per_input = per_split * n_splits
    stride = max(int(round(stride_s / period)), 1)
    inputs, targets = [], []
    position = per_input
    while position + per_output <= label_array.size:
        window = label_array[position - per_input : position]
        inputs.append(
            np.concatenate(
                [
                    _window_histogram(window[start : start + per_split], n_categories)
                    for start in range(0, per_input, per_split)
                ]
            )
        )
        targets.append(
            _window_histogram(label_array[position : position + per_output], n_categories)
        )
        position += stride
    return np.array(inputs), np.array(targets)


def _forecast_cases():
    """(labels, n_categories, input labels, output labels, n_splits, stride labels)."""
    yield [5, 5, 0, 1, 5, 2, 2, 5], 3, 4, 2, 2, 1  # labels >= n_categories
    yield [0, 1, 2, 3, 4, 0, 1], 5, 5, 2, 1, 3  # smallest series with a sample
    yield list(range(4)) * 30, 4, 7, 3, 3, 5  # 3 splits do not divide 7
    yield [1, 0, 2] * 20, 3, 6, 4, 2, 50  # stride longer than the window
    yield [0] * 12, 1, 4, 0, 2, 1  # output rounds to 0 labels: uniform targets
    rng = np.random.default_rng(20_241_016)
    for _ in range(100):
        n_categories = int(rng.integers(1, 7))
        per_input = int(rng.integers(1, 40))
        per_output = int(rng.integers(0, 25))
        n_splits = int(rng.integers(1, 9))
        stride = int(rng.integers(1, 80))
        needed = max(per_input // n_splits, 1) * n_splits + per_output
        size = needed + int(rng.integers(0, 300))
        labels = rng.integers(0, n_categories + 3, size=size).tolist()
        yield labels, n_categories, per_input, per_output, n_splits, stride


def test_forecast_dataset_matches_per_window_histograms_bitwise():
    period = 60.0
    for index, case in enumerate(_forecast_cases()):
        labels, n_categories, per_input, per_output, n_splits, stride = case
        # Zero output labels still needs positive output seconds (rounds to 0).
        output_s = per_output * period if per_output else 10.0
        args = (n_categories, period, per_input * period, output_s, n_splits)
        dataset = ForecastDataset.from_labels(
            labels, *args, stride_seconds=stride * period
        )
        inputs, targets = _windowed_dataset(labels, *args, stride * period)
        assert dataset.inputs.shape == inputs.shape, index
        assert dataset.targets.shape == targets.shape, index
        assert dataset.inputs.tobytes() == inputs.tobytes(), index
        assert dataset.targets.tobytes() == targets.tobytes(), index


# --------------------------------------------------------------------- #
# Forecaster
# --------------------------------------------------------------------- #
def test_forecaster_learns_structured_series():
    labels = _label_series(periods=4000, seed=1)
    dataset = ForecastDataset.from_labels(
        labels,
        n_categories=3,
        label_period_seconds=60.0,
        input_seconds=60.0 * 400,
        output_seconds=60.0 * 200,
        n_splits=4,
        stride_seconds=60.0 * 20,
    )
    train, test = dataset.split(0.8)
    forecaster = ContentForecaster(n_categories=3, n_splits=4)
    forecaster.fit(train)
    mae = forecaster.evaluate_mae(test)
    # The series is highly structured; the network must beat a uniform guess.
    uniform_mae = float(np.mean(np.abs(test.targets - 1.0 / 3.0)))
    assert mae < uniform_mae
    assert mae < 0.2


def test_forecaster_prediction_is_a_distribution():
    labels = _label_series(periods=2000, seed=2)
    dataset = ForecastDataset.from_labels(
        labels, 3, 60.0, 60.0 * 200, 60.0 * 100, 4, stride_seconds=60.0 * 25
    )
    forecaster = ContentForecaster(n_categories=3, n_splits=4)
    forecaster.fit(dataset)
    recent = [[0.6, 0.3, 0.1]] * 4
    prediction = forecaster.predict(recent)
    assert prediction.shape == (3,)
    assert prediction.sum() == pytest.approx(1.0)
    assert np.all(prediction >= 0.0)


def test_forecaster_validation():
    forecaster = ContentForecaster(n_categories=3, n_splits=2)
    with pytest.raises(NotFittedError):
        forecaster.predict([[0.5, 0.3, 0.2]] * 2)
    with pytest.raises(ConfigurationError):
        ContentForecaster(n_categories=0)
    labels = [0, 1, 2] * 200
    dataset = ForecastDataset.from_labels(labels, 3, 60.0, 60.0 * 40, 60.0 * 20, 4)
    with pytest.raises(ConfigurationError):
        forecaster.fit(dataset)  # splits mismatch (2 vs 4)
    good = ContentForecaster(n_categories=3, n_splits=4)
    good.fit(dataset)
    with pytest.raises(ConfigurationError):
        good.predict([[0.5, 0.3, 0.2]] * 3)
