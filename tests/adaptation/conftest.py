"""Shared fixtures for the online-adaptation tests.

One session-scoped fitted bundle on the regime-switching workload (with a
real on-disk stage cache and a trained forecaster) serves the re-fit, parity
and determinism tests, so the offline phase runs once per session.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentConfig, SystemBundle, prepare_bundle
from repro.workloads.regime import make_regime_setup

HISTORY_DAYS = 0.25
ONLINE_DAYS = 0.05


@pytest.fixture(scope="session")
def regime_config() -> ExperimentConfig:
    return ExperimentConfig(
        history_days=HISTORY_DAYS,
        online_days=ONLINE_DAYS,
        cloud_budget_per_day=2.0,
        max_configurations=6,
        train_forecaster=True,
        planned_interval_seconds=3_600.0,
        forecast_input_days=HISTORY_DAYS / 3.0,
        forecast_label_period_seconds=120.0,
    )


@pytest.fixture(scope="session")
def regime_bundle(regime_config, tmp_path_factory) -> SystemBundle:
    """A Skyscraper fitted pre-shift on the regime workload, stage cache on disk."""
    setup = make_regime_setup(history_days=HISTORY_DAYS, online_days=ONLINE_DAYS)
    return prepare_bundle(
        setup,
        regime_config,
        cache_dir=tmp_path_factory.mktemp("stage-cache"),
    )
