"""Simulated classifiers: mask classification and multimodal sentiment.

The COVID workload classifies whether detected pedestrians wear masks
(ResNet-50 backbone fine-tuned on MaskedFace-Net); the MOSEI workload
classifies the opinion sentiment of a speaker from audio, transcript, and
visual features.  Both are modelled by their cost, which depends on the model
size and on how many items are classified; their accuracy is part of the
quality model of the workload that uses them.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.vision.model_zoo import get_model_variant
from repro.vision.udf import OperatorCost, VisionOperator

_CLOUD_DOLLARS_PER_SECOND = 3.0 * 0.0000166667
_CLOUD_ROUND_TRIP_BASE = 0.12


class SimulatedClassifier(VisionOperator):
    """A classifier with a model-size knob.

    Args:
        family: model family in the zoo (``"mask_classifier"`` or
            ``"sentiment"``).
    """

    def __init__(self, family: str):
        super().__init__(name=f"{family}-classifier")
        self.family = family

    def invocation_cost(self, model_size: str = "medium", items: int = 1) -> OperatorCost:
        """Cost of classifying ``items`` items with the chosen model size."""
        if items < 0:
            raise ConfigurationError("items must be non-negative")
        variant = get_model_variant(self.family, model_size)
        on_prem = variant.seconds_per_inference * items
        cloud_compute = on_prem / variant.cloud_speedup
        return OperatorCost(
            on_prem_seconds=on_prem,
            cloud_seconds=_CLOUD_ROUND_TRIP_BASE + cloud_compute,
            cloud_dollars=cloud_compute * _CLOUD_DOLLARS_PER_SECOND,
            upload_bytes=int(60_000 * max(items, 1)),
            download_bytes=1_024,
        )
