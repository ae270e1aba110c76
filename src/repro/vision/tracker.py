"""Simulated object trackers (KCF-like and TransMOT-like): cost models.

In the detect-to-track pattern (COVID workload) a cheap tracker follows the
objects found by the detector on intermediary frames, at a cost per object
and frame.  The TransMOT-style tracker used by the MOT workload additionally
has a model size and a history-length knob: more history makes the tracker
robust to occlusions at a higher cost (Section J).  How well each tracker
tracks is part of the quality model of the workload that uses it.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.vision.model_zoo import get_model_variant
from repro.vision.udf import OperatorCost, VisionOperator

_CLOUD_DOLLARS_PER_SECOND = 3.0 * 0.0000166667
_CLOUD_ROUND_TRIP_BASE = 0.12


class SimulatedTracker(VisionOperator):
    """A KCF-like single-object tracker (cheap, per-object cost)."""

    def __init__(self):
        super().__init__(name="kcf-tracker")
        #: single-core seconds to track one object in one frame
        self.seconds_per_object_frame = 0.0016

    def invocation_cost(self, objects: int = 1, frames: int = 1) -> OperatorCost:
        """Cost of tracking ``objects`` objects over ``frames`` frames."""
        if objects < 0 or frames < 0:
            raise ConfigurationError("objects and frames must be non-negative")
        on_prem = self.seconds_per_object_frame * objects * frames
        cloud_compute = on_prem / 1.4
        return OperatorCost(
            on_prem_seconds=on_prem,
            cloud_seconds=_CLOUD_ROUND_TRIP_BASE + cloud_compute,
            cloud_dollars=cloud_compute * _CLOUD_DOLLARS_PER_SECOND,
            upload_bytes=int(24_000 * max(objects, 1)),
            download_bytes=2_048,
        )


class SimulatedTransMOT(VisionOperator):
    """A TransMOT-like graph-transformer tracker with size and history knobs."""

    def __init__(self):
        super().__init__(name="transmot")

    def invocation_cost(
        self,
        model_size: str = "medium",
        history: int = 1,
        tiles: int = 1,
        width: int = 1280,
        height: int = 720,
    ) -> OperatorCost:
        """Cost of one TransMOT inference over one frame (plus its history)."""
        if history < 1:
            raise ConfigurationError("history must be at least 1")
        if tiles < 1:
            raise ConfigurationError("tiles must be at least 1")
        variant = get_model_variant("transmot", model_size)
        resolution_scale = (width * height) / (1280 * 720)
        history_scale = 0.7 + 0.3 * history
        on_prem = variant.seconds_per_inference * tiles * history_scale * max(resolution_scale, 0.1)
        cloud_compute = on_prem / variant.cloud_speedup
        return OperatorCost(
            on_prem_seconds=on_prem,
            cloud_seconds=_CLOUD_ROUND_TRIP_BASE + cloud_compute,
            cloud_dollars=cloud_compute * _CLOUD_DOLLARS_PER_SECOND,
            upload_bytes=int(170_000 * tiles + 30_000 * history),
            download_bytes=8_192,
        )
