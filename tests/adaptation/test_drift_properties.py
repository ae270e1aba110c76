"""Randomized properties of the CUSUM drift detector.

Three families, each across 25+ seeds:

* **stationarity** — on streams drawn from the warmup distribution the
  detector stays silent at the default threshold;
* **bounded-lag detection** — a sustained mean or variance shift fires, and
  fires within a small multiple of the theoretical ``h / (delta - k)``
  detection lag;
* **hysteresis** — one sustained shift produces exactly one trigger: after
  firing the detector stays disarmed while the shifted regime keeps its
  score above the re-arm level, instead of flapping into a trigger storm
  (which a degenerate no-hysteresis config demonstrably produces).
"""

import numpy as np
import pytest

from repro.adaptation import CusumDetector, DriftConfig, DriftMonitor
from repro.errors import ConfigurationError

SEEDS = range(25)

#: The default config's theoretical detection lag for a sustained
#: ``delta``-sigma mean shift is ``threshold / (delta - drift_allowance)``
#: observations; the randomized tests allow this slack factor on top of it
#: (baseline mean/std are themselves noisy estimates).
LAG_SLACK = 6.0


def _config(**overrides) -> DriftConfig:
    return DriftConfig(**overrides)


def _feed(detector, values):
    """Feed every value; return the (detector-relative) trigger indexes."""
    fired = []
    for index, value in enumerate(values):
        if detector.observe(value) is not None:
            fired.append(index)
    return fired


# --------------------------------------------------------------------- #
# Stationarity: no false alarms at the default threshold
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_stationary_stream_never_triggers(seed):
    rng = np.random.default_rng(seed)
    config = _config()
    detector = CusumDetector(config)
    values = rng.normal(0.5, 0.1, size=config.warmup + 2_000)
    assert _feed(detector, values) == []
    assert detector.triggers == 0
    assert detector.armed


@pytest.mark.parametrize("seed", SEEDS)
def test_stationary_stream_with_burn_in_never_triggers(seed):
    """A startup transient discarded by ``burn_in`` cannot poison the
    baseline into firing on the settled stationary stream."""
    rng = np.random.default_rng(1_000 + seed)
    config = _config(burn_in=64)
    detector = CusumDetector(config)
    transient = rng.normal(2.0, 0.5, size=config.burn_in)
    settled = rng.normal(0.5, 0.1, size=config.warmup + 2_000)
    assert _feed(detector, np.concatenate([transient, settled])) == []


# --------------------------------------------------------------------- #
# Bounded-lag detection of sustained shifts
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("delta", [2.0, -2.0])
def test_mean_shift_detected_with_bounded_lag(seed, delta):
    rng = np.random.default_rng(2_000 + seed)
    config = _config()
    detector = CusumDetector(config)
    sigma = 0.1
    pre = rng.normal(0.5, sigma, size=config.warmup + 200)
    post = rng.normal(0.5 + delta * sigma, sigma, size=1_000)
    fired = _feed(detector, np.concatenate([pre, post]))
    assert fired, "a 2-sigma sustained mean shift must fire"
    lag = fired[0] - pre.size
    assert lag >= 0, "no trigger before the shift"
    expected = config.threshold / (abs(delta) - config.drift_allowance)
    assert lag <= LAG_SLACK * expected


@pytest.mark.parametrize("seed", SEEDS)
def test_variance_shift_detected_with_bounded_lag(seed):
    """Pure variance inflation (mean unchanged) fires the folded-|z| score."""
    rng = np.random.default_rng(3_000 + seed)
    config = _config()
    detector = CusumDetector(config)
    sigma = 0.1
    pre = rng.normal(0.5, sigma, size=config.warmup + 200)
    post = rng.normal(0.5, 3.0 * sigma, size=1_000)
    fired = _feed(detector, np.concatenate([pre, post]))
    assert fired, "a 3x variance inflation must fire"
    lag = fired[0] - pre.size
    assert lag >= 0
    # E[(|z| - mu_fold) / sigma_fold - k] for z ~ N(0, 3) is ~2.1 per
    # observation, so the same slack envelope applies with delta_eff = 2.6.
    assert lag <= LAG_SLACK * config.threshold / 2.1


# --------------------------------------------------------------------- #
# Hysteresis: one sustained shift, one trigger
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_sustained_shift_triggers_exactly_once(seed):
    """Post-trigger the score re-climbs during the cooldown (the shifted
    regime persists), so the re-arm level is never reached: no flapping."""
    rng = np.random.default_rng(4_000 + seed)
    config = _config()
    detector = CusumDetector(config)
    sigma = 0.1
    pre = rng.normal(0.5, sigma, size=config.warmup + 100)
    post = rng.normal(0.5 + 2.0 * sigma, sigma, size=3_000)
    fired = _feed(detector, np.concatenate([pre, post]))
    assert len(fired) == 1
    assert not detector.armed


@pytest.mark.parametrize("seed", SEEDS)
def test_no_hysteresis_config_flaps(seed):
    """The degenerate config (re-arm at the firing threshold, no cooldown)
    fires repeatedly on the same sustained shift — the behaviour the real
    hysteresis defaults exist to prevent."""
    rng = np.random.default_rng(5_000 + seed)
    config = _config(rearm_fraction=1.0, cooldown=0)
    detector = CusumDetector(config)
    sigma = 0.1
    pre = rng.normal(0.5, sigma, size=config.warmup + 100)
    post = rng.normal(0.5 + 2.0 * sigma, sigma, size=3_000)
    fired = _feed(detector, np.concatenate([pre, post]))
    assert len(fired) > 5


@pytest.mark.parametrize("seed", range(10))
def test_rebaselined_detector_rearms_on_new_regime(seed):
    """After ``reset`` (a rebaseline once the watched models change) the shifted
    regime becomes the new baseline: the detector warms up on it, stays
    silent, and fires again only on a *further* shift."""
    rng = np.random.default_rng(6_000 + seed)
    config = _config()
    detector = CusumDetector(config)
    sigma = 0.1
    _feed(detector, rng.normal(0.5, sigma, size=config.warmup + 100))
    fired = _feed(detector, rng.normal(0.7, sigma, size=500))
    assert len(fired) == 1
    detector.reset()
    assert _feed(detector, rng.normal(0.7, sigma, size=config.warmup + 1_000)) == []
    fired_again = _feed(detector, rng.normal(0.9, sigma, size=500))
    assert len(fired_again) == 1


# --------------------------------------------------------------------- #
# Monitor plumbing and config validation
# --------------------------------------------------------------------- #
def test_monitor_routes_triggers_per_channel():
    monitor = DriftMonitor(
        confidence=DriftConfig(warmup=8, cooldown=8),
        quality=DriftConfig(warmup=8, cooldown=8),
    )
    rng = np.random.default_rng(7)
    for value in rng.normal(0.1, 0.02, size=8):
        assert monitor.observe_confidence(value) is None
    trigger = None
    for value in rng.normal(0.5, 0.02, size=200):
        trigger = monitor.observe_confidence(value)
        if trigger is not None:
            break
    assert trigger is not None and trigger.channel == "confidence"
    assert monitor.trigger_count == 1
    monitor.rebaseline()
    assert monitor.confidence.observations == 0
    assert monitor.trigger_count == 1  # history survives a rebaseline


@pytest.mark.parametrize(
    "overrides",
    [
        {"burn_in": -1},
        {"warmup": 1},
        {"drift_allowance": -0.1},
        {"threshold": 0.0},
        {"rearm_fraction": 1.5},
        {"cooldown": -1},
        {"min_std": 0.0},
    ],
)
def test_invalid_configs_are_rejected(overrides):
    with pytest.raises(ConfigurationError):
        DriftConfig(**overrides)


def test_min_std_floors_constant_warmup():
    """A constant warmup signal must not turn noise into infinite z-scores."""
    config = _config(warmup=16, min_std=0.05)
    detector = CusumDetector(config)
    _feed(detector, [0.5] * 16)
    assert detector.baseline_std == 0.05
