"""Simulated object detector (YOLO-like).

The detector's cost grows with the number of tiles (each tile is a separate
inference, Section J "tiling for object detection") and with the model size.
Its recall degrades with occlusion, poor lighting, and small objects; tiling
recovers small objects, larger models recover occlusions.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.video.codec import H264SizeModel
from repro.video.content import ContentState
from repro.vision.model_zoo import get_model_variant
from repro.vision.udf import OperatorCost, VisionOperator, clip01

#: AWS-Lambda-like pricing used for per-invocation cloud cost: the paper
#: provisions 3 GB functions; at ~$0.0000167/GB-s this is ~$0.00005 per second.
_CLOUD_DOLLARS_PER_SECOND = 3.0 * 0.0000166667
_CLOUD_ROUND_TRIP_BASE = 0.12  # network round trip + invocation overhead (s)


class SimulatedObjectDetector(VisionOperator):
    """A YOLO-like detector with tiling and model-size knobs.

    Args:
        family: model family in the :mod:`model_zoo` (default ``"yolo"``).
        size_model: payload-size model for cloud offloading.
        noise_level: standard deviation of the recall noise a workload adds
            to :meth:`detection_recall` (COVID's detector confidence).
    """

    def __init__(
        self,
        family: str = "yolo",
        size_model: Optional[H264SizeModel] = None,
        noise_level: float = 0.02,
    ):
        super().__init__(name=f"{family}-detector")
        if noise_level < 0:
            raise ConfigurationError("noise_level must be non-negative")
        self.family = family
        self.size_model = size_model or H264SizeModel()
        self.noise_level = noise_level

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def invocation_cost(
        self,
        model_size: str = "medium",
        tiles: int = 1,
        width: int = 1280,
        height: int = 720,
    ) -> OperatorCost:
        """Cost of detecting objects in one frame under the given knobs."""
        if tiles < 1:
            raise ConfigurationError("tiles must be at least 1")
        variant = get_model_variant(self.family, model_size)
        resolution_scale = (width * height) / (1280 * 720)
        on_prem = variant.seconds_per_inference * tiles * max(resolution_scale, 0.1)
        cloud_compute = on_prem / variant.cloud_speedup
        payload = self.size_model.cloud_frame_payload(width, height, tiles=tiles)
        cloud_round_trip = _CLOUD_ROUND_TRIP_BASE + cloud_compute
        cloud_dollars = cloud_compute * _CLOUD_DOLLARS_PER_SECOND
        return OperatorCost(
            on_prem_seconds=on_prem,
            cloud_seconds=cloud_round_trip,
            cloud_dollars=cloud_dollars,
            upload_bytes=payload.encoded_bytes,
            download_bytes=4_096,
        )

    # ------------------------------------------------------------------ #
    # Recall model (COVID's detector confidence reads it)
    # ------------------------------------------------------------------ #
    def detection_recall(
        self,
        content: ContentState,
        model_size: str = "medium",
        tiles: int = 1,
        sampling_fraction: float = 1.0,
    ) -> float:
        """Expected recall on content of the given difficulty.

        The recall model encodes the paper's qualitative claims:

        * occlusion is the dominant difficulty driver (Figure 3 discussion);
        * poor lighting hurts, especially small models;
        * tiling recovers small objects (which are more common when density
          is high and the scene is far away);
        * sampling fewer frames misses short-lived objects, proportionally to
          the motion level.
        """
        if not 0.0 < sampling_fraction <= 1.0:
            raise ConfigurationError("sampling_fraction must be in (0, 1]")
        variant = get_model_variant(self.family, model_size)
        difficulty = clip01(
            0.65 * content.occlusion
            + 0.25 * (1.0 - content.lighting)
            + 0.10 * content.object_density
        )
        base = variant.accuracy(difficulty)
        # Small objects: without tiling a fraction of the objects is too small
        # to detect; that fraction grows with scene density.
        small_fraction = 0.25 * content.object_density
        tiling_gain = small_fraction * (1.0 - 1.0 / tiles) if tiles > 1 else 0.0
        tiling_loss = small_fraction if tiles == 1 else small_fraction / tiles
        # Temporal sampling: objects present for only part of the segment are
        # missed when few frames are sampled, proportional to motion.
        sampling_loss = (1.0 - sampling_fraction) * 0.35 * content.motion
        return clip01(base - tiling_loss + tiling_gain - sampling_loss)
