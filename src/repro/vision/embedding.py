"""Simulated feature embedders (VGG-like appearance features, audio features).

TransMOT consumes per-object appearance embeddings produced by an off-the-shelf
image model (Section J), and the MOSEI pipeline extracts face embeddings,
GloVe word vectors and acoustic features before the sentiment classifier runs.
The embedder is modelled as a fixed-cost-per-item operator; downstream
operators only care about its cost and payload size.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.vision.udf import OperatorCost, VisionOperator

_CLOUD_DOLLARS_PER_SECOND = 3.0 * 0.0000166667
_CLOUD_ROUND_TRIP_BASE = 0.12


class SimulatedEmbedder(VisionOperator):
    """Embeds detected objects or audio chunks into fixed-size feature vectors.

    Args:
        name: operator name (e.g. ``"vgg-embedder"``, ``"audio-features"``).
        seconds_per_item: single-core seconds to embed one item.
        dimension: embedding dimensionality.
        cloud_speedup: relative speedup when running on a cloud worker.
    """

    def __init__(
        self,
        name: str = "vgg-embedder",
        seconds_per_item: float = 0.010,
        dimension: int = 128,
        cloud_speedup: float = 1.6,
    ):
        super().__init__(name=name)
        if seconds_per_item <= 0:
            raise ConfigurationError("seconds_per_item must be positive")
        if dimension < 1:
            raise ConfigurationError("dimension must be positive")
        if cloud_speedup <= 0:
            raise ConfigurationError("cloud_speedup must be positive")
        self.seconds_per_item = seconds_per_item
        self.dimension = dimension
        self.cloud_speedup = cloud_speedup

    def invocation_cost(self, items: int = 1) -> OperatorCost:
        if items < 0:
            raise ConfigurationError("items must be non-negative")
        on_prem = self.seconds_per_item * items
        cloud_compute = on_prem / self.cloud_speedup
        return OperatorCost(
            on_prem_seconds=on_prem,
            cloud_seconds=_CLOUD_ROUND_TRIP_BASE + cloud_compute,
            cloud_dollars=cloud_compute * _CLOUD_DOLLARS_PER_SECOND,
            upload_bytes=40_000 * max(items, 1),
            download_bytes=4 * self.dimension * max(items, 1),
        )
