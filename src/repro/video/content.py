"""Content dynamics model for synthetic video streams.

Skyscraper's behaviour is driven entirely by how the *difficulty* of the
streamed content evolves over time: rush hours produce many occlusions that
cheap knob configurations cannot handle, nights are easy, pedestrian groups
randomly pass by the camera for a few tens of seconds, and (for the MOSEI
workloads) the number of concurrent streams spikes.  This module provides a
deterministic, seedable model of those dynamics.

The model exposes :meth:`ContentModel.state_at`, a pure function of the
timestamp (given the seed), so the "recorded two weeks of history" used in the
offline phase and the "live stream" used in the online phase are guaranteed to
come from the same underlying process, exactly as in the paper's setup.

Since the columnar hot-path refactor the *batched*
:meth:`ContentModel.states_at` is the one implementation of the content
math: :meth:`state_at` evaluates a one-element batch, and every numpy ufunc
used here is size-invariant on this code path, so scalar and batched
queries of the same timestamp agree bit for bit.  Relative to the frozen
pre-vectorization scalar math (kept in :mod:`repro.core.reference`) values
may differ by a few ulps where ``np.exp``/``np.power`` and
``math.exp``/``math.pow`` disagree in the last bit; the parity tests pin
that tolerance.  Each camera-day's burst schedule is one seeded scalar
draw sequence, generated on first use and cached per model, and it equals
:func:`repro.core.reference.frozen_bursts_for_day` bit for bit.  A query
reads the previous day's schedule only before midnight plus a proven bound
on burst duration (``_BURST_SPILL_FACTOR``), so a window that starts later
in the day generates one schedule, not two; the burst column still equals
:func:`repro.core.reference.frozen_burst_intensity_at`, the two-day kernel,
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

SECONDS_PER_DAY = 86_400.0
SECONDS_PER_HOUR = 3_600.0

# Rows per chunk in the batched burst kernel: bounds the (rows x bursts)
# active mask while leaving per-row results chunk-invariant.
_BURST_BATCH_ROWS = 2_048

# Shortest burst: every drawn duration is floored here.
_MIN_BURST_SECONDS = 5.0

# Every burst of day d - 1 ends at or before d * 86_400 + spill, where
# spill = max(_BURST_SPILL_FACTOR * burst_duration_seconds, _MIN_BURST_SECONDS),
# so a query of day d at or after that instant reads no schedule of day d - 1.
# Proof: numpy's ``standard_exponential`` is a ziggurat
# (``random_standard_exponential`` and ``standard_exponential_unlikely`` in
# numpy/random/src/distributions/distributions.c).  Its main path returns
# x < r ~= 7.697; its tail returns r - log1p(-U) with U <= 1 - 2**-53, at
# most r + 53 * ln 2 < 44.44.  So mean * x <= 64 * mean in floating point
# (rounding is monotone and 64 * mean is exact), and with the floor every
# duration is at most spill.  A start of day d - 1 is (d - 1) * 86_400 plus
# 86_400 * u with u < 1, so it rounds to at most d * 86_400; the kernel's
# end = start + duration then rounds to at most the rounded d * 86_400 + spill,
# the threshold it compares against.  Both kernels read at most days d - 1
# and d, so a burst longer than a day stops counting at the next midnight.
_BURST_SPILL_FACTOR = 64.0


@dataclass(frozen=True)
class ContentState:
    """Summary of the video content during one segment.

    Attributes:
        timestamp: absolute stream time in seconds since ingestion start.
        object_density: expected number of relevant objects in frame,
            normalized to [0, 1] (1 means a packed rush-hour scene).
        occlusion: fraction of objects that overlap other objects, in [0, 1].
        lighting: scene illumination quality, in [0, 1] (1 is daylight).
        motion: average object speed, normalized to [0, 1]; fast motion makes
            sparse frame sampling lossier.
        activity: combined difficulty scalar in [0, 1] used by the
            workloads' cheaper-is-riskier quality models.
        stream_load: fraction of the maximum number of concurrent streams
            currently active (only meaningful for multi-stream workloads).
    """

    timestamp: float
    object_density: float
    occlusion: float
    lighting: float
    motion: float
    activity: float
    stream_load: float = 1.0

    def as_vector(self) -> np.ndarray:
        """Feature vector (density, occlusion, lighting, motion, load)."""
        return np.array(
            [self.object_density, self.occlusion, self.lighting, self.motion, self.stream_load]
        )


@dataclass(frozen=True)
class ContentStateColumns:
    """A batch of :class:`ContentState` values as parallel columns.

    The columnar hot path keeps content as arrays end to end; callers that
    need objects materialize individual rows with :meth:`state`.  Rows are
    bit-identical to what :meth:`ContentModel.state_at` returns for the same
    timestamp, because ``state_at`` *is* a one-row batch.
    """

    timestamp: np.ndarray
    object_density: np.ndarray
    occlusion: np.ndarray
    lighting: np.ndarray
    motion: np.ndarray
    activity: np.ndarray
    stream_load: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamp.size)

    def state(self, position: int) -> ContentState:
        """Materialize one row as a plain :class:`ContentState`."""
        return ContentState(
            timestamp=float(self.timestamp[position]),
            object_density=float(self.object_density[position]),
            occlusion=float(self.occlusion[position]),
            lighting=float(self.lighting[position]),
            motion=float(self.motion[position]),
            activity=float(self.activity[position]),
            stream_load=float(self.stream_load[position]),
        )


@dataclass(frozen=True)
class DiurnalProfile:
    """Smooth time-of-day activity profile with morning and evening peaks.

    The defaults produce the traffic-camera pattern described around Figure 3:
    quiet nights, a morning rush around 08:00, an evening rush around 17:30,
    and moderate activity in between.
    """

    night_level: float = 0.12
    day_level: float = 0.55
    morning_peak_hour: float = 8.0
    evening_peak_hour: float = 17.5
    peak_level: float = 0.95
    peak_width_hours: float = 1.6

    def activity(self, timestamp: float) -> float:
        """Baseline activity in [0, 1] at the given absolute time."""
        hour = (timestamp % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        # Smooth day/night envelope: low from ~22:00 to ~06:00.
        daylight = 0.5 * (1.0 + math.cos((hour - 13.0) / 24.0 * 2.0 * math.pi))
        base = self.night_level + (self.day_level - self.night_level) * daylight
        for peak_hour in (self.morning_peak_hour, self.evening_peak_hour):
            distance = min(abs(hour - peak_hour), 24.0 - abs(hour - peak_hour))
            bump = math.exp(-0.5 * (distance / self.peak_width_hours) ** 2)
            base += (self.peak_level - self.day_level) * bump
        return float(min(max(base, 0.0), 1.0))

    def lighting(self, timestamp: float) -> float:
        """Scene illumination in [0, 1]; dark between roughly 20:00 and 05:00."""
        hour = (timestamp % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        daylight = 0.5 * (1.0 + math.cos((hour - 13.0) / 24.0 * 2.0 * math.pi))
        return float(0.15 + 0.85 * daylight)

    def activity_at(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`activity` over a timestamp column."""
        hour = (np.asarray(timestamps, dtype=float) % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        daylight = 0.5 * (1.0 + np.cos((hour - 13.0) / 24.0 * 2.0 * math.pi))
        base = self.night_level + (self.day_level - self.night_level) * daylight
        for peak_hour in (self.morning_peak_hour, self.evening_peak_hour):
            offset = np.abs(hour - peak_hour)
            distance = np.minimum(offset, 24.0 - offset)
            bump = np.exp(-0.5 * (distance / self.peak_width_hours) ** 2)
            base = base + (self.peak_level - self.day_level) * bump
        return np.minimum(np.maximum(base, 0.0), 1.0)

    def lighting_at(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`lighting` over a timestamp column."""
        hour = (np.asarray(timestamps, dtype=float) % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        daylight = 0.5 * (1.0 + np.cos((hour - 13.0) / 24.0 * 2.0 * math.pi))
        return 0.15 + 0.85 * daylight


@dataclass(frozen=True)
class SpikeSchedule:
    """Deterministic workload spikes for the MOSEI-style synthetic workloads.

    Attributes:
        period_seconds: distance between consecutive spike starts.
        duration_seconds: length of each spike.
        magnitude: additional activity/stream load injected during a spike.
        start_offset_seconds: offset of the first spike from stream start.
    """

    period_seconds: float
    duration_seconds: float
    magnitude: float
    start_offset_seconds: float = 0.0

    def intensity(self, timestamp: float) -> float:
        """Spike contribution in [0, magnitude] at the given time."""
        if self.period_seconds <= 0:
            return 0.0
        phase = (timestamp - self.start_offset_seconds) % self.period_seconds
        if phase < 0 or phase >= self.duration_seconds:
            return 0.0
        # Smooth ramp up/down over 10% of the spike duration.
        ramp = max(self.duration_seconds * 0.1, 1.0)
        rise = min(phase / ramp, 1.0)
        fall = min((self.duration_seconds - phase) / ramp, 1.0)
        return float(self.magnitude * min(rise, fall))

    def intensity_at(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`intensity` over a timestamp column."""
        ts = np.asarray(timestamps, dtype=float)
        if self.period_seconds <= 0:
            return np.zeros(ts.shape, dtype=float)
        phase = (ts - self.start_offset_seconds) % self.period_seconds
        ramp = max(self.duration_seconds * 0.1, 1.0)
        rise = np.minimum(phase / ramp, 1.0)
        fall = np.minimum((self.duration_seconds - phase) / ramp, 1.0)
        value = self.magnitude * np.minimum(rise, fall)
        inactive = (phase < 0) | (phase >= self.duration_seconds)
        return np.where(inactive, 0.0, value)


@dataclass(frozen=True)
class RegimeSchedule:
    """A piecewise-constant content-regime schedule.

    Splits the timeline into ``len(boundaries_seconds) + 1`` regimes; regime
    ``r`` covers ``[boundaries_seconds[r-1], boundaries_seconds[r])``.  Each
    regime adds a constant shift to the diurnal activity baseline and scales
    the burst process, which is how the non-stationary workloads model e.g.
    a construction site opening next to a traffic camera: the same diurnal
    shape, but systematically busier and burstier content from one day on.

    Attributes:
        boundaries_seconds: sorted, strictly increasing regime-change times.
        activity_shifts: per-regime additive activity offset
            (``len(boundaries_seconds) + 1`` entries).
        burst_scales: per-regime multiplicative factor on burst intensity
            (``len(boundaries_seconds) + 1`` entries).
    """

    boundaries_seconds: Tuple[float, ...]
    activity_shifts: Tuple[float, ...]
    burst_scales: Tuple[float, ...]

    def __post_init__(self):
        boundaries = tuple(float(value) for value in self.boundaries_seconds)
        if not boundaries:
            raise ConfigurationError("a regime schedule needs at least one boundary")
        if any(b <= 0 for b in boundaries):
            raise ConfigurationError("regime boundaries must be positive")
        if any(b1 <= b0 for b0, b1 in zip(boundaries, boundaries[1:])):
            raise ConfigurationError("regime boundaries must be strictly increasing")
        n_regimes = len(boundaries) + 1
        if len(self.activity_shifts) != n_regimes:
            raise ConfigurationError(
                f"activity_shifts needs {n_regimes} entries (one per regime)"
            )
        if len(self.burst_scales) != n_regimes:
            raise ConfigurationError(
                f"burst_scales needs {n_regimes} entries (one per regime)"
            )
        if any(scale < 0 for scale in self.burst_scales):
            raise ConfigurationError("burst_scales must be non-negative")
        object.__setattr__(self, "boundaries_seconds", boundaries)
        object.__setattr__(
            self, "activity_shifts", tuple(float(v) for v in self.activity_shifts)
        )
        object.__setattr__(
            self, "burst_scales", tuple(float(v) for v in self.burst_scales)
        )

    def regime_at(self, timestamps: np.ndarray) -> np.ndarray:
        """Regime index per timestamp (elementwise, batch-invariant)."""
        ts = np.asarray(timestamps, dtype=float)
        return np.searchsorted(
            np.asarray(self.boundaries_seconds, dtype=float), ts, side="right"
        )


class ContentModel:
    """Deterministic generator of :class:`ContentState` values.

    Args:
        seed: base seed; two models with the same seed produce identical
            content, which is how the offline "historical recording" and the
            online "live stream" observe the same process.
        diurnal: time-of-day profile.
        burst_rate_per_hour: expected number of random bursts per hour
            (pedestrian groups, traffic jams).  The default yields content
            category changes roughly every 30-45 seconds during the day,
            matching the statistics reported in Section 5.3.
        burst_duration_seconds: mean burst duration.
        burst_magnitude: mean additional activity injected by a burst.
        noise_level: amplitude of smooth stochastic background variation.
        spikes: optional deterministic spike schedule (MOSEI workloads).
        trend_per_day: linear drift of baseline activity per day, used by the
            forecaster tests to model slowly changing traffic levels.
        regimes: optional piecewise-constant regime schedule; each regime
            shifts the activity baseline and scales the burst process (the
            ``ev-regime`` stream of the ``regime_shift`` figure).
    """

    def __init__(
        self,
        seed: int = 0,
        diurnal: Optional[DiurnalProfile] = None,
        burst_rate_per_hour: float = 40.0,
        burst_duration_seconds: float = 45.0,
        burst_magnitude: float = 0.35,
        noise_level: float = 0.05,
        spikes: Optional[SpikeSchedule] = None,
        trend_per_day: float = 0.0,
        regimes: Optional[RegimeSchedule] = None,
    ):
        if burst_rate_per_hour < 0:
            raise ConfigurationError("burst_rate_per_hour must be non-negative")
        if burst_duration_seconds <= 0:
            raise ConfigurationError("burst_duration_seconds must be positive")
        if burst_magnitude < 0:
            raise ConfigurationError("burst_magnitude must be non-negative")
        self.seed = seed
        self.diurnal = diurnal or DiurnalProfile()
        self.burst_rate_per_hour = burst_rate_per_hour
        self.burst_duration_seconds = burst_duration_seconds
        self.burst_magnitude = burst_magnitude
        self.noise_level = noise_level
        self.spikes = spikes
        self.trend_per_day = trend_per_day
        self.regimes = regimes
        self._burst_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Smooth background noise realized as a small sum of sinusoids with
        # seeded random phases; this keeps state_at a pure function of time.
        rng = np.random.default_rng(seed)
        self._noise_phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        self._noise_periods = rng.uniform(180.0, 2400.0, size=4)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def with_seed(self, seed: int) -> "ContentModel":
        """A copy of this model with a different seed, same dynamics.

        Kept next to the constructor so the parameter list lives in exactly
        one place (fleet scenarios re-seed cameras through this).
        """
        return ContentModel(
            seed=seed,
            diurnal=self.diurnal,
            burst_rate_per_hour=self.burst_rate_per_hour,
            burst_duration_seconds=self.burst_duration_seconds,
            burst_magnitude=self.burst_magnitude,
            noise_level=self.noise_level,
            spikes=self.spikes,
            trend_per_day=self.trend_per_day,
            regimes=self.regimes,
        )

    def state_at(self, timestamp: float, stream_load: Optional[float] = None) -> ContentState:
        """Content state at an absolute stream time (seconds).

        A one-row :meth:`states_at` batch: scalar and batched queries of the
        same timestamp therefore agree bit for bit.
        """
        if timestamp < 0:
            raise ConfigurationError("timestamp must be non-negative")
        columns = self.states_at(np.array([timestamp], dtype=float), stream_load=stream_load)
        return columns.state(0)

    def states_at(
        self,
        timestamps: np.ndarray,
        stream_load: Optional[float] = None,
    ) -> ContentStateColumns:
        """Content states for a whole timestamp column at once.

        This is *the* implementation of the content math; :meth:`state_at`
        and :meth:`states` delegate here.  All operations are elementwise
        (per-row burst sums accumulate sequentially in burst-start order via
        ``np.add.at``), so a row's values do not depend on the rest of the
        batch.
        """
        ts = np.ascontiguousarray(np.asarray(timestamps, dtype=float))
        if ts.ndim != 1:
            raise ConfigurationError("timestamps must be a one-dimensional array")
        if ts.size and float(ts.min()) < 0:
            raise ConfigurationError("timestamp must be non-negative")
        baseline = self.diurnal.activity_at(ts)
        baseline = baseline + self.trend_per_day * (ts / SECONDS_PER_DAY)
        burst = self._burst_intensity_at(ts)
        if self.regimes is not None:
            regime = self.regimes.regime_at(ts)
            baseline = baseline + np.asarray(self.regimes.activity_shifts, dtype=float)[regime]
            burst = burst * np.asarray(self.regimes.burst_scales, dtype=float)[regime]
        spike = (
            self.spikes.intensity_at(ts)
            if self.spikes is not None
            else np.zeros(ts.shape, dtype=float)
        )
        noise = self._smooth_noise_at(ts)
        activity = _clip01_array(baseline + burst + spike + noise)

        lighting = self.diurnal.lighting_at(ts)
        object_density = _clip01_array(activity * (0.85 + 0.3 * burst))
        occlusion = _clip01_array(activity**1.4 * (1.1 - 0.25 * lighting))
        motion = _clip01_array(0.25 + 0.6 * activity + 0.4 * burst)
        if stream_load is None:
            load = _clip01_array(0.3 + 0.7 * activity + spike)
        else:
            load = np.full(ts.shape, float(stream_load))
        return ContentStateColumns(
            timestamp=ts,
            object_density=object_density,
            occlusion=occlusion,
            lighting=lighting,
            motion=motion,
            activity=activity,
            stream_load=load,
        )

    def states(
        self, start: float, end: float, step_seconds: float
    ) -> List[ContentState]:
        """Content states sampled every ``step_seconds`` in ``[start, end)``."""
        if step_seconds <= 0:
            raise ConfigurationError("step_seconds must be positive")
        if end < start:
            raise ConfigurationError("end must not precede start")
        count = int(math.ceil((end - start) / step_seconds))
        grid = start + np.arange(count, dtype=float) * step_seconds
        columns = self.states_at(grid)
        return [columns.state(index) for index in range(count)]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _burst_intensity_at(self, ts: np.ndarray) -> np.ndarray:
        """Summed burst contributions per timestamp, batched.

        Per row the contributions accumulate sequentially in burst-start
        order (``np.add.at`` is unbuffered), so the value of a row never
        depends on how the batch is chunked or what else is in it.  A row
        of day ``d`` sums the bursts of days ``d - 1`` and ``d``; day
        ``d - 1`` is read only when a row falls within the spill bound
        after midnight, where one of its bursts can still be running.
        """
        total = np.zeros(ts.shape, dtype=float)
        if ts.size == 0:
            return total
        spill = max(_BURST_SPILL_FACTOR * self.burst_duration_seconds, _MIN_BURST_SECONDS)
        days = np.floor_divide(ts, SECONDS_PER_DAY).astype(np.int64)
        for day in np.unique(days).tolist():
            day_mask = days == day
            sub = ts[day_mask]
            acc = np.zeros(sub.shape, dtype=float)
            # A burst can straddle midnight, but every burst of the previous
            # day has ended by midnight + spill (see _BURST_SPILL_FACTOR).
            first_day = day - 1 if float(sub.min()) < day * SECONDS_PER_DAY + spill else day
            for candidate_day in range(max(first_day, 0), day + 1):
                starts, durations, magnitudes = self._bursts_for_day(candidate_day)
                if starts.size == 0:
                    continue
                ends = starts + durations
                max_duration = float(durations.max())
                for begin in range(0, sub.size, _BURST_BATCH_ROWS):
                    piece = sub[begin : begin + _BURST_BATCH_ROWS]
                    # Bursts are sorted by start, so only a window of them
                    # can be active anywhere inside this piece.
                    lo = int(np.searchsorted(starts, float(piece.min()) - max_duration))
                    hi = int(np.searchsorted(starts, float(piece.max()), side="right"))
                    if lo >= hi:
                        continue
                    t = piece[:, None]
                    active = (starts[None, lo:hi] <= t) & (t < ends[None, lo:hi])
                    rows, cols = np.nonzero(active)
                    if rows.size == 0:
                        continue
                    phase = (piece[rows] - starts[lo + cols]) / durations[lo + cols]
                    contributions = magnitudes[lo + cols] * np.sin(np.pi * phase)
                    np.add.at(acc, begin + rows, contributions)
            total[day_mask] = acc
        return total

    def _bursts_for_day(self, day: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._burst_cache.get(day)
        if cached is not None:
            return cached
        rng = np.random.default_rng((self.seed * 1_000_003 + day * 7_919) & 0xFFFFFFFF)
        expected = self.burst_rate_per_hour * 24.0
        count = int(rng.poisson(expected)) if expected > 0 else 0
        # One seeded scalar draw sequence per day: per burst a uniform start,
        # an exponential duration, a uniform acceptance test and, only for an
        # accepted burst, a normal magnitude.  Exponential and normal draws
        # consume a variable number of words, so no batched call reproduces
        # the sequence.  numpy computes ``uniform(0, D)`` and
        # ``exponential(s)`` as one rounded product of the ``random()`` and
        # ``standard_exponential()`` draws, so scaling those here is exact;
        # ``normal(loc, s)`` is a multiply-add numpy's C may fuse, so it stays.
        random = rng.random
        standard_exponential = rng.standard_exponential
        normal = rng.normal
        activity = self.diurnal.activity
        mean_duration = self.burst_duration_seconds
        min_duration = _MIN_BURST_SECONDS
        mean_magnitude = self.burst_magnitude
        spread = mean_magnitude * 0.4
        day_start = day * SECONDS_PER_DAY
        starts: List[float] = []
        durations: List[float] = []
        magnitudes: List[float] = []
        for _ in range(count):
            start = day_start + SECONDS_PER_DAY * random()
            duration = max(mean_duration * standard_exponential(), min_duration)
            # Bursts are more likely and stronger during active hours.  The
            # threshold 0.25 + 0.75 * activity is never below 0.25 (activity
            # is clipped to [0, 1] and draws nothing), so only a larger draw
            # needs the activity.
            draw = random()
            if draw > 0.25 and draw > 0.25 + 0.75 * activity(start):
                continue
            starts.append(start)
            durations.append(duration)
            magnitudes.append(max(normal(mean_magnitude, spread), 0.05))
        # A stable sort keeps equal starts in draw order, like list.sort.
        start_column = np.array(starts, dtype=float)
        order = np.argsort(start_column, kind="stable")
        arrays = (
            start_column[order],
            np.array(durations, dtype=float)[order],
            np.array(magnitudes, dtype=float)[order],
        )
        self._burst_cache[day] = arrays
        return arrays

    def _smooth_noise_at(self, ts: np.ndarray) -> np.ndarray:
        value = np.zeros(ts.shape, dtype=float)
        for phase, period in zip(self._noise_phases, self._noise_periods):
            value = value + np.sin(2.0 * math.pi * ts / period + phase)
        return self.noise_level * value / len(self._noise_phases)


def _clip01(value: float) -> float:
    return float(min(max(value, 0.0), 1.0))


def _clip01_array(values: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(values, 0.0), 1.0)
