"""CUSUM drift detection over signals an online phase can observe.

An online phase never sees ground-truth quality, so drift has to be read off
what the deployed models themselves expose:

* **classification confidence** — the categorizer's distance from each
  segment's partial quality vector to its nearest cluster center.  When
  content leaves the regime the categories were learned on, these residuals
  grow.
* **forecast error** — the mean absolute error between the content
  distribution the current plan was built from and the category histogram
  that actually arrived.  When the content mix shifts, the plan is optimizing
  for the wrong distribution even if individual segments still classify
  confidently.

Each signal feeds a :class:`CusumDetector`: a Welford warmup freezes a
baseline mean/std, then two one-sided standardized CUSUM scores track mean
shifts and (optionally) a folded-``|z|`` score tracks variance inflation.  A
score crossing the threshold fires a :class:`DriftTrigger`; hysteresis
(score reset, cooldown, and a re-arm level below the firing threshold)
prevents a single sustained shift from flapping into a trigger storm.

:class:`DriftMonitor` bundles one detector per signal.  No engine or policy
feeds it: plain Skyscraper adapts online only through the knob switcher and
the knob plan re-solved every planned interval, and the staged re-fit loop
this monitor once drove never beat that fit-once system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError

#: Mean and standard deviation of ``|Z|`` for a standard normal ``Z`` — the
#: folded-normal moments used to standardize the variance channel.
_FOLDED_MEAN = math.sqrt(2.0 / math.pi)
_FOLDED_STD = math.sqrt(1.0 - 2.0 / math.pi)


@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs for one :class:`CusumDetector`.

    Attributes:
        burn_in: observations discarded entirely before the warmup starts —
            lets a deployment's startup transient (plan settling, switcher
            cold start) pass before the baseline is estimated.
        warmup: observations used to estimate the baseline mean/std before
            any scoring happens.  No trigger can fire during warmup.
        drift_allowance: the CUSUM slack ``k`` in standard deviations; shifts
            smaller than ``k`` sigma are absorbed rather than accumulated.
        variance_allowance: the slack of the folded-``|z|`` variance score.
            Larger than ``drift_allowance`` by default: the folded increments
            have a heavy right tail (one 3-sigma draw contributes ~3.2), so
            the variance channel needs more slack than the mean channels to
            reach a comparable false-alarm rate.
        threshold: the CUSUM decision level ``h``; a score reaching it fires.
            Detection lag for a sustained ``delta``-sigma mean shift is about
            ``h / (delta - k)`` observations.
        std_inflation: multiplier applied to the warmup-estimated standard
            deviation when the baseline freezes.  An n-sample std estimate
            has ~``1/sqrt(2n)`` relative error; an underestimate inflates
            every z-score and turns stationary noise into false alarms, so
            the frozen baseline errs on the wide side.
        track_variance: also accumulate a folded-``|z|`` score so pure
            variance inflation (mean unchanged) is detected.
        rearm_fraction: after a trigger the detector re-arms only once its
            score has fallen back below ``rearm_fraction * threshold``.
        cooldown: minimum observations after a trigger before the detector
            may re-arm, regardless of score.
        min_std: floor for the baseline standard deviation, so a nearly
            constant warmup signal does not turn measurement noise into
            enormous z-scores.
    """

    burn_in: int = 0
    warmup: int = 128
    drift_allowance: float = 0.5
    variance_allowance: float = 1.0
    threshold: float = 12.0
    std_inflation: float = 1.15
    track_variance: bool = True
    rearm_fraction: float = 0.25
    cooldown: int = 128
    min_std: float = 1e-6

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ConfigurationError("burn_in must be non-negative")
        if self.warmup < 2:
            raise ConfigurationError("warmup must be at least 2 observations")
        if self.drift_allowance < 0:
            raise ConfigurationError("drift_allowance must be non-negative")
        if self.variance_allowance < 0:
            raise ConfigurationError("variance_allowance must be non-negative")
        if self.threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        if self.std_inflation < 1.0:
            raise ConfigurationError("std_inflation must be at least 1.0")
        if not 0.0 <= self.rearm_fraction <= 1.0:
            raise ConfigurationError("rearm_fraction must be in [0, 1]")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be non-negative")
        if self.min_std <= 0:
            raise ConfigurationError("min_std must be positive")


@dataclass(frozen=True)
class DriftTrigger:
    """A change-point alarm raised by one detector channel."""

    channel: str
    observation: int
    value: float
    score: float
    baseline_mean: float
    baseline_std: float


class CusumDetector:
    """Two-sided standardized CUSUM with warmup baseline and hysteresis.

    The detector is deliberately tiny and allocation-free per
    :meth:`observe` call.
    """

    def __init__(self, config: Optional[DriftConfig] = None, channel: str = "signal"):
        self.config = config or DriftConfig()
        self.channel = str(channel)
        self.reset()

    def reset(self) -> None:
        """Forget everything, including the warmup baseline."""
        self._burned = 0
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.baseline_mean = 0.0
        self.baseline_std = 0.0
        self.s_pos = 0.0
        self.s_neg = 0.0
        self.s_var = 0.0
        self.armed = True
        self._since_trigger = 0
        self.observations = 0
        self.triggers = 0

    # ------------------------------------------------------------------ #
    @property
    def warmed_up(self) -> bool:
        return self._count >= self.config.warmup

    @property
    def score(self) -> float:
        """Largest of the accumulated change scores."""
        return max(self.s_pos, self.s_neg, self.s_var)

    def observe(self, value: float) -> Optional[DriftTrigger]:
        """Feed one observation; returns a trigger if a change point fired."""
        value = float(value)
        self.observations += 1
        config = self.config
        if self._burned < config.burn_in:
            self._burned += 1
            return None
        if self._count < config.warmup:
            # Welford's online mean/variance over the warmup window.
            self._count += 1
            delta = value - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (value - self._mean)
            if self._count == config.warmup:
                variance = self._m2 / (self._count - 1)
                self.baseline_mean = self._mean
                self.baseline_std = max(
                    math.sqrt(max(variance, 0.0)) * config.std_inflation,
                    config.min_std,
                )
            return None

        z = (value - self.baseline_mean) / self.baseline_std
        k = config.drift_allowance
        self.s_pos = max(0.0, self.s_pos + z - k)
        self.s_neg = max(0.0, self.s_neg - z - k)
        if config.track_variance:
            folded = (abs(z) - _FOLDED_MEAN) / _FOLDED_STD
            self.s_var = max(0.0, self.s_var + folded - config.variance_allowance)
        self._since_trigger += 1

        if not self.armed:
            if (
                self._since_trigger >= config.cooldown
                and self.score <= config.rearm_fraction * config.threshold
            ):
                self.armed = True
            return None
        if self.score >= config.threshold:
            trigger = DriftTrigger(
                channel=self.channel,
                observation=self.observations,
                value=value,
                score=self.score,
                baseline_mean=self.baseline_mean,
                baseline_std=self.baseline_std,
            )
            self.triggers += 1
            self.s_pos = 0.0
            self.s_neg = 0.0
            self.s_var = 0.0
            self.armed = False
            self._since_trigger = 0
            return trigger
        return None


#: Detector defaults for the classification-confidence channel: one sample
#: per segment, so a generous warmup and cooldown are cheap.
DEFAULT_CONFIDENCE_CONFIG = DriftConfig()

#: Detector defaults for the reported-quality channel (also per-segment).
#: Reported quality is the paper's only always-available online quality
#: signal; a sustained drop below the warmup baseline means the deployed
#: knob plan no longer fits the content.
DEFAULT_QUALITY_CONFIG = DriftConfig()

#: Detector defaults for the forecast-error channel: samples arrive once per
#: check window (dozens of segments apart), so the warmup must be short and
#: ``min_std`` acts as an absolute MAE noise floor instead of the relative
#: one estimated from a handful of samples.
DEFAULT_FORECAST_CONFIG = DriftConfig(
    warmup=6,
    threshold=8.0,
    track_variance=False,
    cooldown=6,
    min_std=0.02,
)


class DriftMonitor:
    """One CUSUM detector per observable online signal.

    Args:
        confidence: config for the per-segment classification-residual
            channel (defaults to :data:`DEFAULT_CONFIDENCE_CONFIG`).
        forecast: config for the windowed forecast-MAE channel (defaults to
            :data:`DEFAULT_FORECAST_CONFIG`).
        quality: config for the per-segment reported-quality channel
            (defaults to :data:`DEFAULT_QUALITY_CONFIG`).
    """

    def __init__(
        self,
        confidence: Optional[DriftConfig] = None,
        forecast: Optional[DriftConfig] = None,
        quality: Optional[DriftConfig] = None,
    ):
        self._confidence_config = confidence or DEFAULT_CONFIDENCE_CONFIG
        self._forecast_config = forecast or DEFAULT_FORECAST_CONFIG
        self._quality_config = quality or DEFAULT_QUALITY_CONFIG
        self.confidence = CusumDetector(self._confidence_config, channel="confidence")
        self.forecast = CusumDetector(self._forecast_config, channel="forecast")
        self.quality = CusumDetector(self._quality_config, channel="quality")
        self.triggers: List[DriftTrigger] = []

    def observe_confidence(self, residual: float) -> Optional[DriftTrigger]:
        """Feed one classification residual; returns the trigger if fired."""
        trigger = self.confidence.observe(residual)
        if trigger is not None:
            self.triggers.append(trigger)
        return trigger

    def observe_quality(self, reported_quality: float) -> Optional[DriftTrigger]:
        """Feed one segment's reported quality; returns the trigger if fired."""
        trigger = self.quality.observe(reported_quality)
        if trigger is not None:
            self.triggers.append(trigger)
        return trigger

    def observe_forecast_error(self, mae: float) -> Optional[DriftTrigger]:
        """Feed one windowed forecast MAE; returns the trigger if fired."""
        trigger = self.forecast.observe(mae)
        if trigger is not None:
            self.triggers.append(trigger)
        return trigger

    def rebaseline(self) -> None:
        """Restart every channel's warmup (call after the watched models change)."""
        self.confidence.reset()
        self.forecast.reset()
        self.quality.reset()

    @property
    def trigger_count(self) -> int:
        return len(self.triggers)
