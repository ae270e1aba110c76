"""Homography-based distance measurement (COVID social-distancing step).

The COVID workload maps every detected pedestrian's image position onto the
ground plane with a homography [18] and measures pairwise distances.  This is
a cheap geometric computation whose cost scales with the number of
detections.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.vision.udf import OperatorCost, VisionOperator

_CLOUD_DOLLARS_PER_SECOND = 3.0 * 0.0000166667
_CLOUD_ROUND_TRIP_BASE = 0.12


class HomographyDistance(VisionOperator):
    """Plane-measuring device: image coordinates → ground-plane distances.

    Only its cost is modelled: linear in the number of detected objects, plus
    a small quadratic term for the pair checks.
    """

    def __init__(self):
        super().__init__(name="homography-distance")
        #: single-core seconds per detected object (projection + pair checks)
        self.seconds_per_object = 0.00008

    def invocation_cost(self, objects: int = 1) -> OperatorCost:
        if objects < 0:
            raise ConfigurationError("objects must be non-negative")
        # Pairwise distance checks are quadratic but tiny.
        on_prem = self.seconds_per_object * objects + 1e-6 * objects * objects
        return OperatorCost(
            on_prem_seconds=on_prem,
            cloud_seconds=_CLOUD_ROUND_TRIP_BASE + on_prem,
            cloud_dollars=on_prem * _CLOUD_DOLLARS_PER_SECOND,
            upload_bytes=256 * max(objects, 1),
            download_bytes=256,
        )
