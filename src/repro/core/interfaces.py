"""Interfaces between Skyscraper's core and user-defined V-ETL jobs.

The paper keeps Skyscraper agnostic to the UDFs: the system only ever sees a
task graph to execute and a quality number reported back by the user code
(Section 2.2, Appendix F).  These protocol classes capture exactly that
boundary; every workload in :mod:`repro.workloads` implements
:class:`VETLWorkload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.knobs import KnobConfiguration, KnobSpace
from repro.video.frame import VideoSegment
from repro.video.stream import SegmentColumns
from repro.vision.dag import TaskGraph

if TYPE_CHECKING:
    from repro.core.offline import EvaluationCache


@dataclass
class SegmentOutcome:
    """What processing one segment with one configuration produced.

    Attributes:
        reported_quality: the quality metric computed and returned by the
            user code (certainties, tracking failures, ...) in [0, 1].  This
            is the only quality signal Skyscraper itself may observe.
        true_quality: ground-truth quality in [0, 1] used exclusively by the
            evaluation harness (the system never reads it).
        entities: number of entities extracted from the segment.

    The outcome carries no warehouse rows: the Transform step only needs
    the qualities.  The Load step asks the workload for the rows of a
    processed segment (``BaseWorkload.warehouse_rows``).
    """

    reported_quality: float
    true_quality: float
    entities: float = 0.0


@runtime_checkable
class VETLWorkload(Protocol):
    """A user-defined V-ETL job: knobs, a task graph per configuration, quality.

    Implementations must be deterministic given (configuration, segment) so
    offline profiling and online ingestion agree.  These are all the methods
    the ingestion engine and the offline pipeline call on a workload;
    :class:`~repro.workloads.base.BaseWorkload` gives every one but
    ``build_task_graph`` and ``evaluate`` a default.
    """

    name: str
    knob_space: KnobSpace

    def build_task_graph(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> TaskGraph:
        """The DAG of UDF invocations that processes ``segment`` with ``configuration``."""
        ...

    def evaluate(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> SegmentOutcome:
        """Process ``segment`` with ``configuration`` and report the outcome."""
        ...

    def evaluate_many(
        self, pairs: Sequence[Tuple[KnobConfiguration, VideoSegment]]
    ) -> List[SegmentOutcome]:
        """Batched :meth:`evaluate` over (configuration, segment) pairs.

        The offline pipeline funnels all of its evaluations through this hook
        so workloads may vectorize the batch; the default implementation in
        :class:`~repro.workloads.base.BaseWorkload` simply loops.
        """
        ...

    def evaluate_columns(
        self, configuration: KnobConfiguration, columns: SegmentColumns
    ) -> List[SegmentOutcome]:
        """:meth:`evaluate` of ``configuration`` on every row of ``columns``, in order.

        Row ``i`` must equal ``evaluate(configuration, columns.segment(i))``.
        History labeling scores its whole grid through this hook, so a
        workload may score the columns without building a segment per row;
        the default in :class:`~repro.workloads.base.BaseWorkload`
        materializes the rows.
        """
        ...

    def representative_segment(self) -> VideoSegment:
        """A typical segment used for profiling runtimes and placements."""
        ...

    def quality_weight_columns(self, columns: SegmentColumns) -> np.ndarray:
        """Each segment's weight in the entity-weighted quality, one per row."""
        ...

    def runtime_scale(
        self, configuration: KnobConfiguration, segment: VideoSegment
    ) -> float:
        """Factor on the profiled runtime and cost of processing ``segment``."""
        ...


def evaluate_pairs(
    workload: VETLWorkload,
    pairs: Sequence[Tuple[KnobConfiguration, VideoSegment]],
    evaluator: Optional["EvaluationCache"] = None,
) -> List[SegmentOutcome]:
    """Batched evaluation through an optional shared evaluation cache.

    Without ``evaluator`` the batch goes to the workload's own
    ``evaluate_many``.
    """
    pairs = list(pairs)
    if evaluator is not None:
        return evaluator.evaluate_many(pairs)
    return workload.evaluate_many(pairs)
