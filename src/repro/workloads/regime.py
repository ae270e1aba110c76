"""A regime-switching variant of the EV-counting workload.

The ``regime_shift`` figure needs a stream whose content statistics *change*
mid-run, so that models fitted on the recorded history face content they
never saw.  :class:`RegimeShiftWorkload` is the EV workload with a
:class:`~repro.video.content.RegimeSchedule` attached to its content model —
e.g. a construction site opening next to the intersection partway through
the online window: baseline activity jumps and traffic bursts become
heavier, so segments get harder (more occlusion, more objects) than anything
the offline phase saw.

:func:`make_regime_setup` places the regime boundary *inside* the online
window (30% in by default) so the offline fit is purely pre-shift.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.video.content import ContentModel, RegimeSchedule
from repro.video.stream import StreamConfig
from repro.workloads.base import WorkloadSetup
from repro.workloads.ev import EVCountingWorkload, _ev_content_model

SECONDS_PER_DAY = 86_400.0

#: Default post-shift regime: baseline activity up by 0.28, bursts 1.8x.
DEFAULT_ACTIVITY_SHIFT = 0.28
DEFAULT_BURST_SCALE = 1.8


class RegimeShiftWorkload(EVCountingWorkload):
    """EV counting on a stream whose content regime changes mid-run."""

    def __init__(
        self,
        regimes: RegimeSchedule,
        stream_config: Optional[StreamConfig] = None,
        seed: int = 3,
    ):
        base = _ev_content_model(seed)
        content_model = ContentModel(
            seed=base.seed,
            diurnal=base.diurnal,
            burst_rate_per_hour=base.burst_rate_per_hour,
            burst_duration_seconds=base.burst_duration_seconds,
            burst_magnitude=base.burst_magnitude,
            regimes=regimes,
        )
        super().__init__(
            content_model=content_model,
            stream_config=stream_config
            or StreamConfig(stream_id="ev-regime-cam", segment_seconds=2.0),
            seed=seed,
        )
        # Rename after the base constructor: the name seeds the evaluation
        # noise, so "ev-regime" is its own deterministic universe.
        self.name = "ev-regime"
        self.regimes = regimes


def make_regime_setup(
    history_days: float = 2.0,
    online_days: float = 1.0,
    segment_seconds: float = 2.0,
    seed: int = 3,
    shift_fraction: float = 0.3,
    activity_shift: float = DEFAULT_ACTIVITY_SHIFT,
    burst_scale: float = DEFAULT_BURST_SCALE,
    extra_boundaries: Sequence[Tuple[float, float, float]] = (),
) -> WorkloadSetup:
    """A regime-switching EV setup with the shift inside the online window.

    Args:
        history_days: recorded (pre-shift) history the offline phase fits on.
        online_days: online ingestion window length.
        segment_seconds: segment length.
        seed: content/evaluation seed.
        shift_fraction: where the regime boundary sits inside the online
            window, as a fraction of ``online_days`` (0.3 = 30% in).
        activity_shift: additive baseline-activity jump after the boundary.
        burst_scale: multiplicative burst-magnitude factor after the boundary.
        extra_boundaries: optional further ``(fraction, shift, scale)``
            regime changes inside the online window, after the first.
    """
    if not 0.0 < shift_fraction < 1.0:
        raise ConfigurationError("shift_fraction must be in (0, 1)")
    history_seconds = history_days * SECONDS_PER_DAY
    online_seconds = online_days * SECONDS_PER_DAY
    boundaries = [history_seconds + shift_fraction * online_seconds]
    shifts = [0.0, float(activity_shift)]
    scales = [1.0, float(burst_scale)]
    for fraction, shift, scale in extra_boundaries:
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError("extra boundary fractions must be in (0, 1)")
        boundaries.append(history_seconds + fraction * online_seconds)
        shifts.append(float(shift))
        scales.append(float(scale))
    schedule = RegimeSchedule(
        boundaries_seconds=tuple(boundaries),
        activity_shifts=tuple(shifts),
        burst_scales=tuple(scales),
    )
    workload = RegimeShiftWorkload(
        regimes=schedule,
        stream_config=StreamConfig(
            stream_id="ev-regime-cam", segment_seconds=segment_seconds
        ),
        seed=seed,
    )
    return WorkloadSetup(
        workload=workload,
        source=workload.make_source(),
        history_days=history_days,
        online_days=online_days,
    )
