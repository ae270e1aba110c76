"""Simulated computer-vision operators (the workload UDFs).

The paper's workloads are built from YOLOv5, KCF trackers, TransMOT, face and
sentiment classifiers.  We cannot run those models offline, and Skyscraper's
behaviour does not depend on their absolute accuracy — it depends on the
*shape* of the knob/quality/cost trade-off: expensive configurations are
robust on difficult content, cheap configurations are fast but fail when
occlusion is high, lighting is poor, objects are small, or motion is fast.

Each simulated operator therefore exposes a **cost model**: core-seconds per
invocation on premises, cloud round-trip time, cloud dollars and payload
bytes, parameterized by the knobs (tiling, model size, resolution), matching
the magnitudes reported in the paper (e.g. YOLOv5 ≈ 86 ms per HD inference on
a Xeon core, Appendix K.2).  The workloads own quality: each workload's
``evaluate`` models what its job reports for a (configuration, segment), as a
function of the knobs and the segment's content difficulty.
"""

from repro.vision.udf import OperatorCost, VisionOperator
from repro.vision.model_zoo import ModelVariant, MODEL_ZOO, get_model_variant
from repro.vision.detector import SimulatedObjectDetector
from repro.vision.tracker import SimulatedTracker, SimulatedTransMOT
from repro.vision.classifier import SimulatedClassifier
from repro.vision.homography import HomographyDistance
from repro.vision.embedding import SimulatedEmbedder
from repro.vision.dag import Task, TaskGraph

__all__ = [
    "OperatorCost",
    "VisionOperator",
    "ModelVariant",
    "MODEL_ZOO",
    "get_model_variant",
    "SimulatedObjectDetector",
    "SimulatedTracker",
    "SimulatedTransMOT",
    "SimulatedClassifier",
    "HomographyDistance",
    "SimulatedEmbedder",
    "Task",
    "TaskGraph",
]
