"""Tests for the simulated CV operators' cost models and the model zoo."""

import pytest

from repro.errors import ConfigurationError
from repro.video.content import ContentModel
from repro.vision.classifier import SimulatedClassifier
from repro.vision.detector import SimulatedObjectDetector
from repro.vision.embedding import SimulatedEmbedder
from repro.vision.homography import HomographyDistance
from repro.vision.model_zoo import MODEL_ZOO, get_model_variant
from repro.vision.tracker import SimulatedTracker, SimulatedTransMOT
from repro.vision.udf import OperatorCost


@pytest.fixture(scope="module")
def night_content():
    return ContentModel(seed=1).state_at(3 * 3600.0)


@pytest.fixture(scope="module")
def rush_content():
    return ContentModel(seed=1).state_at(8 * 3600.0)


# --------------------------------------------------------------------- #
# Model zoo
# --------------------------------------------------------------------- #
def test_model_zoo_covers_all_families():
    assert set(MODEL_ZOO) == {"yolo", "transmot", "sentiment", "mask_classifier"}
    for family, variants in MODEL_ZOO.items():
        assert {"small", "medium", "large"} <= set(variants)


def test_larger_models_are_slower_and_more_robust():
    for family in MODEL_ZOO:
        small = get_model_variant(family, "small")
        large = get_model_variant(family, "large")
        assert large.seconds_per_inference > small.seconds_per_inference
        assert large.accuracy(1.0) > small.accuracy(1.0)


def test_accuracy_degrades_with_difficulty():
    variant = get_model_variant("yolo", "medium")
    assert variant.accuracy(0.0) > variant.accuracy(0.5) > variant.accuracy(1.0)


def test_unknown_model_rejected():
    with pytest.raises(ConfigurationError):
        get_model_variant("yolo", "gigantic")
    with pytest.raises(ConfigurationError):
        get_model_variant("resnet", "small")


def test_yolo_medium_matches_paper_inference_time():
    """The paper measures ~86 ms per YOLOv5 HD inference (Appendix K.2)."""
    assert get_model_variant("yolo", "medium").seconds_per_inference == pytest.approx(0.086)


# --------------------------------------------------------------------- #
# Detector
# --------------------------------------------------------------------- #
def test_detector_cost_scales_with_tiles_and_model(night_content):
    detector = SimulatedObjectDetector()
    base = detector.invocation_cost(model_size="medium", tiles=1)
    tiled = detector.invocation_cost(model_size="medium", tiles=4)
    large = detector.invocation_cost(model_size="large", tiles=1)
    assert tiled.on_prem_seconds == pytest.approx(base.on_prem_seconds * 4)
    assert large.on_prem_seconds > base.on_prem_seconds
    assert tiled.upload_bytes > base.upload_bytes
    assert base.cloud_seconds > 0.1  # round trip dominates


def test_detector_recall_responds_to_content_and_knobs(night_content, rush_content):
    detector = SimulatedObjectDetector()
    midday = ContentModel(seed=1).state_at(13 * 3600.0)
    hard_cheap = detector.detection_recall(rush_content, model_size="small", tiles=1,
                                           sampling_fraction=0.1)
    hard_expensive = detector.detection_recall(rush_content, model_size="large", tiles=4)
    # Expensive knobs are much more robust on difficult content, and the same
    # expensive setting does at least as well on an easy mid-day scene.
    assert hard_expensive > hard_cheap + 0.3
    easy_expensive = detector.detection_recall(midday, model_size="large", tiles=4)
    assert easy_expensive >= hard_expensive - 0.05
    assert 0.0 <= hard_cheap <= 1.0


def test_detector_validation(rush_content):
    detector = SimulatedObjectDetector()
    with pytest.raises(ConfigurationError):
        detector.invocation_cost(tiles=0)
    with pytest.raises(ConfigurationError):
        detector.detection_recall(rush_content, sampling_fraction=0.0)
    with pytest.raises(ConfigurationError):
        SimulatedObjectDetector(noise_level=-0.01)


# --------------------------------------------------------------------- #
# Trackers
# --------------------------------------------------------------------- #
def test_kcf_tracker_cost_scales_with_objects_and_frames():
    tracker = SimulatedTracker()
    small = tracker.invocation_cost(objects=5, frames=10)
    big = tracker.invocation_cost(objects=20, frames=60)
    assert big.on_prem_seconds > small.on_prem_seconds
    assert big.on_prem_seconds == pytest.approx(20 * 60 * tracker.seconds_per_object_frame)


def test_transmot_cost_scaling():
    tracker = SimulatedTransMOT()
    cheap = tracker.invocation_cost(model_size="small", history=1, tiles=1)
    heavy = tracker.invocation_cost(model_size="large", history=5, tiles=4)
    assert heavy.on_prem_seconds > 5 * cheap.on_prem_seconds
    with pytest.raises(ConfigurationError):
        tracker.invocation_cost(history=0)


# --------------------------------------------------------------------- #
# Count-scaled cost models: classifier, homography, embedder, KCF tracker
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make_operator, count_knob",
    [
        (SimulatedTracker, "objects"),
        (lambda: SimulatedClassifier(family="mask_classifier"), "items"),
        (lambda: SimulatedClassifier(family="sentiment"), "items"),
        (SimulatedEmbedder, "items"),
        (HomographyDistance, "objects"),
    ],
    ids=["kcf-tracker", "mask-classifier", "sentiment-classifier", "embedder", "homography"],
)
def test_cost_grows_with_count_and_rejects_negative_counts(make_operator, count_knob):
    operator = make_operator()
    costs = [operator.invocation_cost(**{count_knob: count}) for count in (1, 4, 16)]
    for fewer, more in zip(costs, costs[1:]):
        assert more.on_prem_seconds > fewer.on_prem_seconds
        assert more.cloud_seconds > fewer.cloud_seconds
        assert more.cloud_dollars > fewer.cloud_dollars
        assert more.upload_bytes > fewer.upload_bytes
    with pytest.raises(ConfigurationError):
        operator.invocation_cost(**{count_knob: -1})


@pytest.mark.parametrize(
    "overrides",
    [{"seconds_per_item": 0.0}, {"dimension": 0}, {"cloud_speedup": 0.0}],
    ids=["seconds_per_item", "dimension", "cloud_speedup"],
)
def test_embedder_validation(overrides):
    with pytest.raises(ConfigurationError):
        SimulatedEmbedder(**overrides)


def test_operator_cost_scaled_and_validation():
    cost = OperatorCost(1.0, 2.0, 0.001, 100, 10)
    half = cost.scaled(0.5)
    assert half.on_prem_seconds == pytest.approx(0.5)
    assert half.upload_bytes == 50
    with pytest.raises(ConfigurationError):
        OperatorCost(-1.0, 0.0, 0.0, 0, 0)
    with pytest.raises(ConfigurationError):
        cost.scaled(-1.0)
