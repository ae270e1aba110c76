"""Tests for frames, segments, codec models and the synthetic sources."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.video.codec import BYTES_PER_DAY_HD, DecodeCostModel, H264SizeModel
from repro.video.content import ContentModel, SpikeSchedule
from repro.video.stream import StreamConfig, SyntheticVideoSource


@pytest.fixture(scope="module")
def source():
    return SyntheticVideoSource(ContentModel(seed=2), StreamConfig(stream_id="cam"))


def test_segment_basic_properties(source):
    segment = source.segment_at(100)
    assert segment.stream_id == "cam"
    assert segment.start_time == pytest.approx(200.0)
    assert segment.duration == pytest.approx(2.0)
    assert segment.frame_count == 60
    assert segment.encoded_bytes > 0
    assert segment.end_time == pytest.approx(202.0)
    assert "segment 100" in segment.describe()


def test_segments_iteration_covers_window(source):
    segments = list(source.segments(100.0, 120.0))
    assert [segment.segment_index for segment in segments] == list(range(50, 60))
    assert all(100.0 <= segment.start_time < 120.0 for segment in segments)


def test_segment_at_is_deterministic(source):
    first = source.segment_at(321)
    second = source.segment_at(321)
    assert first.encoded_bytes == second.encoded_bytes
    assert first.content == second.content


def test_busier_content_means_more_objects(source):
    night = source.segment_at(int(3 * 3600 / 2))
    rush = source.segment_at(int(8 * 3600 / 2))
    assert rush.ground_truth_objects >= night.ground_truth_objects


def test_invalid_segment_index(source):
    with pytest.raises(ConfigurationError):
        source.segment_at(-1)
    with pytest.raises(ConfigurationError):
        list(source.segments(10.0, 5.0))


# --------------------------------------------------------------------- #
# Codec models
# --------------------------------------------------------------------- #
def test_h264_size_matches_paper_daily_volume():
    """One HD camera should produce roughly 7.8 GB per day (footnote 2)."""
    model = H264SizeModel()
    content = ContentModel(seed=0).state_at(12 * 3600.0)
    per_segment = model.segment_bytes(2.0, 1280, 720, content)
    per_day = per_segment * 86_400.0 / 2.0
    assert per_day == pytest.approx(BYTES_PER_DAY_HD, rel=0.35)


def test_h264_size_scales_with_resolution_and_activity():
    model = H264SizeModel()
    quiet = ContentModel(seed=0).state_at(3 * 3600.0)
    busy = ContentModel(seed=0).state_at(8 * 3600.0)
    assert model.segment_bytes(2.0, 1280, 720, busy) > model.segment_bytes(2.0, 1280, 720, quiet)
    assert model.segment_bytes(2.0, 1920, 1080, busy) > model.segment_bytes(2.0, 1280, 720, busy)


def test_cloud_frame_payload_compression():
    model = H264SizeModel()
    payload = model.cloud_frame_payload(1280, 720)
    assert payload.encoded_bytes < payload.raw_bytes
    assert payload.compression_ratio > 5.0
    tiled = model.cloud_frame_payload(1280, 720, tiles=4)
    assert tiled.encoded_bytes == pytest.approx(payload.encoded_bytes * 4, rel=0.01)


def test_decode_cost_matches_paper_value():
    """Decoding an HD frame takes ~1.6 ms (Appendix K.2)."""
    model = DecodeCostModel()
    assert model.seconds_per_frame(1280, 720) == pytest.approx(0.0016, rel=1e-6)
    assert model.segment_decode_seconds(60, 1280, 720) == pytest.approx(0.096, rel=1e-6)


def test_decode_share_of_total_runtime_is_small():
    """Decode should be a small share (~5%) of an expensive configuration."""
    decode = DecodeCostModel().segment_decode_seconds(60, 1280, 720)
    yolo_segment = 60 * 0.086  # YOLO on every frame
    assert decode / (decode + yolo_segment) < 0.05


def test_codec_validation():
    with pytest.raises(ConfigurationError):
        H264SizeModel(base_bytes_per_second=0.0)
    with pytest.raises(ConfigurationError):
        H264SizeModel().segment_bytes(0.0, 1280, 720, ContentModel().state_at(0.0))
    with pytest.raises(ConfigurationError):
        H264SizeModel().cloud_frame_payload(1280, 720, tiles=0)
    with pytest.raises(ConfigurationError):
        DecodeCostModel(milliseconds_per_hd_frame=0.0)


@settings(max_examples=20, deadline=None)
@given(index=st.integers(min_value=0, max_value=100_000))
def test_property_segment_sizes_positive_and_bounded(index):
    source = SyntheticVideoSource(ContentModel(seed=3))
    segment = source.segment_at(index)
    assert segment.encoded_bytes > 0
    # No 2-second HD segment should exceed ~3 MB.
    assert segment.encoded_bytes < 3_000_000
    assert 0 <= segment.ground_truth_objects <= source.config.max_objects


def test_content_model_with_seed_copies_dynamics():
    from repro.video.content import ContentModel, SpikeSchedule

    base = ContentModel(
        seed=3,
        burst_rate_per_hour=12.0,
        noise_level=0.11,
        spikes=SpikeSchedule(period_seconds=600.0, duration_seconds=60.0, magnitude=0.4),
        trend_per_day=0.02,
    )
    clone = base.with_seed(9)
    assert clone.seed == 9
    assert clone.burst_rate_per_hour == base.burst_rate_per_hour
    assert clone.noise_level == base.noise_level
    assert clone.spikes is base.spikes
    assert clone.trend_per_day == base.trend_per_day
    # Different seed, different realization of the same process.
    times = [1_000.0, 20_000.0, 60_000.0]
    assert [clone.state_at(t).activity for t in times] != [
        base.state_at(t).activity for t in times
    ]
