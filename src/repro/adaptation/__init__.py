"""CUSUM drift detection with hysteresis (:mod:`repro.adaptation.drift`).

A standalone statistical component: no engine, policy or service path uses
it.  Skyscraper's offline phase is fit-once, and the online phase adapts
through the knob switcher and the re-solved knob plan only.
"""

from repro.adaptation.drift import (
    CusumDetector,
    DriftConfig,
    DriftMonitor,
    DriftTrigger,
)

__all__ = [
    "CusumDetector",
    "DriftConfig",
    "DriftMonitor",
    "DriftTrigger",
]
