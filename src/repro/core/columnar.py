"""Columnar hot-path structures for the simulation core.

The per-object loops the engine grew up with (one ``state_at`` per segment,
one nested placement scan per switch decision, one attribute-chasing pass per
arrival) are replaced by structures built **once** from the existing object
model:

* :class:`PlacementTable` — the non-dominated placements of a
  :class:`~repro.core.profiles.ProfileSet`, one block of plain lists per
  configuration in the switcher's exact scan order.  Within a block,
  placements are sorted by ascending cloud cost, and one is kept only if it
  is strictly faster than every earlier one; the dropped placements can
  never be the scan's answer.  A kept block is cost-ascending and strictly
  runtime-descending, so
  :meth:`~repro.core.switcher.KnobSwitcher.decide` tests one placement per
  configuration instead of scanning every profiled placement (see the class
  docstring);
* :class:`SessionColumns` — one stream's whole ingestion window as columns
  (arrival times, encoded sizes, bitrates, quality weights), built from a
  single batched pass over the content model
  (:meth:`~repro.video.stream.SyntheticVideoSource.segment_columns`); the
  event loop reads plain Python lists (no ``np.int64`` leaks into results or
  JSON) and materializes a :class:`~repro.video.frame.VideoSegment` only
  when a segment is actually processed.

Parity contract: every consumer keeps its object API and is pinned against
the frozen implementations in :mod:`repro.core.reference` — bit-for-bit
where only loop structure changed (the table against the frozen switcher's
full scan included), and to a documented ~1 ulp tolerance where
``np.exp``/``np.power`` replaced ``math`` calls (see
``tests/core/test_hotpath_parity.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple

import numpy as np

from repro.cluster.profiler import PlacementProfile
from repro.core.interfaces import VETLWorkload
from repro.core.profiles import ProfileSet
from repro.video.stream import SegmentColumns, SyntheticVideoSource


class PlacementTable:
    """The switcher's feasibility scan over its non-dominated placements.

    The switcher walks configurations from the planned one through ever
    less qualitative ones and, per configuration, its placements cheapest
    cloud spend first.  It returns the first placement that is within
    budget and fits the buffer; when none fits, the first strictly fastest
    in-budget placement it saw (the "last resort"); when nothing is within
    budget, the planned configuration's on-premise placement.

    The table holds one block per configuration, in that walk order, so
    planning a less qualitative configuration just starts the walk at a
    later block.  A block keeps only the placements that are strictly
    faster than every earlier placement of the block.  The pruning is
    exact.  A dropped placement has an earlier one that costs no more and
    runs no slower.  The budget test and the buffer test are monotone in
    cost and runtime, so that earlier placement passes both whenever the
    dropped one does: the dropped one is never the first fit.  It is never
    the last resort either: the earlier placement is in budget whenever the
    dropped one is, and the strict-minimum rule sees it first.

    After pruning, a block's costs ascend and its runtimes strictly
    descend.  So the in-budget placements of a block are a prefix, and the
    last of them is the block's fastest in-budget placement: if it does not
    fit, no placement of the block fits, and it is the block's only
    last-resort candidate.  :meth:`select` therefore tests one placement per
    block until a block fits, then finds the first fitting placement of
    that block.  Every test is the full scan's IEEE operations in the same
    order, so it returns the very same placement object.
    """

    def __init__(
        self,
        profiles: ProfileSet,
        quality_order: List[int],
        segment_duration: float,
        buffer_capacity_bytes: int,
        safety_margin: float,
    ):
        #: per configuration, in walk order: ``(configuration index, costs,
        #: growths, runtimes, placements)`` of its kept placements, where a
        #: growth is the buffer growth while the placement runs, per produced
        #: byte/s (``max(runtime - segment_duration, 0)``).
        self.blocks: List[tuple] = []
        #: position of each configuration's block, by configuration index.
        self.block_of: List[int] = [0] * len(profiles)
        for config_index in quality_order:
            self.block_of[config_index] = len(self.blocks)
            kept: List[PlacementProfile] = []
            for placement in profiles[config_index].placements_by_cloud_cost():
                if not kept or placement.runtime_seconds < kept[-1].runtime_seconds:
                    kept.append(placement)
            runtimes = [placement.runtime_seconds for placement in kept]
            self.blocks.append(
                (
                    config_index,
                    [placement.cloud_dollars for placement in kept],
                    [max(runtime - segment_duration, 0.0) for runtime in runtimes],
                    runtimes,
                    kept,
                )
            )
        self.segment_duration = segment_duration
        #: the scan computes ``capacity * safety_margin`` afresh per call;
        #: the product is identical, so precomputing keeps parity.
        self.buffer_threshold = buffer_capacity_bytes * safety_margin
        self._on_prem = [profile.on_prem_placement for profile in profiles]

    def select(
        self,
        planned_choice: int,
        backlog_bytes: int,
        bytes_per_second: float,
        cloud_budget_remaining: float,
    ) -> Tuple[int, PlacementProfile, bool]:
        """The first placement from ``planned_choice`` on that is within
        budget and fits the buffer, as ``(configuration, placement,
        fell_back)``."""
        limit = cloud_budget_remaining + 1e-12
        rate = max(bytes_per_second, 0.0)
        headroom = self.segment_duration * rate
        threshold = self.buffer_threshold
        last_resort = None
        fastest = 0.0
        for config_index, costs, growths, runtimes, placements in self.blocks[
            self.block_of[planned_choice]:
        ]:
            # ``cost > limit`` fails exactly for the prefix bisect_right keeps.
            in_budget = bisect_right(costs, limit)
            if not in_budget:
                continue
            row = in_budget - 1
            if backlog_bytes + growths[row] * rate + headroom <= threshold:
                row = 0
                while not backlog_bytes + growths[row] * rate + headroom <= threshold:
                    row += 1
                return config_index, placements[row], config_index != planned_choice
            if last_resort is None or runtimes[row] < fastest:
                last_resort = (config_index, placements[row])
                fastest = runtimes[row]
        if last_resort is None:
            # Nothing is within budget: run the planned configuration on
            # premises.
            return planned_choice, self._on_prem[planned_choice], False
        # No placement avoids the overflow; take the first fastest in-budget one.
        return last_resort[0], last_resort[1], True


class SessionColumns:
    """One stream's ingestion window as columns plus lazy row materialization.

    All per-arrival values the event loop touches are Python-native lists
    (converted once via ``ndarray.tolist()``), so heap entries, buffer
    arithmetic and results stay free of numpy scalar types.  The value in
    every column is bit-for-bit what the scalar path computed:

    * ``arrival_times[i]`` — ``segment.end_time`` (``start + duration``);
    * ``encoded_bytes[i]`` — the H.264 model's segment size;
    * ``bytes_per_second[i]`` — ``encoded_bytes / segment_seconds``, which
      is exactly ``SyntheticVideoSource.bytes_per_second`` (the scalar path
      re-derived the same integer from the content state);
    * ``weights[i]`` — the workload's quality weight.
    """

    def __init__(
        self,
        source: SyntheticVideoSource,
        workload: VETLWorkload,
        start_time: float,
        end_time: float,
    ):
        columns = source.segment_columns(start_time, end_time)
        self.columns: SegmentColumns = columns
        duration = source.segment_seconds
        self.segment_indices: List[int] = columns.segment_index.tolist()
        self.arrival_times: List[float] = (columns.start_time + duration).tolist()
        self.encoded_bytes: List[int] = columns.encoded_bytes.tolist()
        self.bytes_per_second: List[float] = (columns.encoded_bytes / duration).tolist()
        self.weights: List[float] = np.asarray(
            workload.quality_weight_columns(columns), dtype=float
        ).tolist()

    def __len__(self) -> int:
        return len(self.segment_indices)

    def segment(self, position: int):
        """Materialize row ``position`` as a :class:`VideoSegment`."""
        return self.columns.segment(position)
