"""Serializable artifacts of the offline learning phase.

``Skyscraper.fit`` is by far the most expensive step of every experiment: it
filters knob configurations, profiles placements, clusters content categories
and (optionally) trains the forecaster.  All of that state is captured here in
an :class:`OfflineArtifacts` value that can be saved to disk (a small JSON
document plus one ``.npz`` file for the array state) and restored into a fully
fitted :class:`~repro.core.skyscraper.Skyscraper`, so a deployment fits once
and reloads thereafter.  (:func:`repro.experiments.runner.prepare_bundle`
caches per offline stage instead; see :class:`repro.core.offline.StageCache`.)

The restore path is exact: the categorizer centers, the initial forecast and
the forecaster weights round-trip bit-for-bit through ``.npz``, and the
placement profiles are re-derived deterministically from the kept
configurations, so an ingestion run from restored artifacts reproduces the
direct-fit run exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.cluster.cost import CostModel
from repro.cluster.resources import CloudSpec
from repro.core.categorizer import ContentCategorizer
from repro.core.forecaster import ContentForecaster
from repro.core.interfaces import VETLWorkload
from repro.core.knobs import KnobConfiguration
from repro.core.offline import OfflinePhaseReport
from repro.core.profiles import build_profiles
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.errors import ConfigurationError
from repro.ml.mlp import MLPConfig

#: Bumped whenever the on-disk layout changes incompatibly.
ARTIFACTS_FORMAT_VERSION = 2

_JSON_NAME = "artifacts.json"
_ARRAYS_NAME = "arrays.npz"


@dataclass
class ForecasterState:
    """Serialized state of a trained :class:`ContentForecaster`."""

    n_categories: int
    n_splits: int
    mlp_config: MLPConfig
    input_seconds: float
    parameters: List[np.ndarray] = field(default_factory=list)

    def build(self) -> ContentForecaster:
        forecaster = ContentForecaster(
            n_categories=self.n_categories,
            n_splits=self.n_splits,
            config=self.mlp_config,
        )
        forecaster.restore_parameters(self.parameters, self.input_seconds)
        return forecaster

    @staticmethod
    def from_forecaster(forecaster: ContentForecaster) -> "ForecasterState":
        return ForecasterState(
            n_categories=forecaster.n_categories,
            n_splits=forecaster.n_splits,
            mlp_config=forecaster.config,
            input_seconds=forecaster.input_seconds,
            parameters=forecaster.get_parameters(),
        )


@dataclass
class OfflineArtifacts:
    """Everything ``Skyscraper.fit`` learned, in a serializable form.

    The artifacts deliberately exclude hardware-dependent state (placement
    profiles): those are re-derived for the target resources on restore, the
    same way :meth:`Skyscraper.with_resources` re-profiles when sweeping
    machine tiers.
    """

    workload_name: str
    n_categories: int
    categorizer_method: str
    switch_period_seconds: float
    planned_interval_seconds: float
    forecaster_splits: int
    seed: int
    kept_configurations: List[KnobConfiguration]
    mean_qualities: Dict[KnobConfiguration, float]
    categorizer_centers: np.ndarray
    n_placements: int = 0
    forecast_validation_mae: float = float("nan")
    initial_forecast: Optional[np.ndarray] = None
    step_runtimes_seconds: Dict[str, float] = field(default_factory=dict)
    forecaster_state: Optional[ForecasterState] = None

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_skyscraper(skyscraper: Skyscraper) -> "OfflineArtifacts":
        """Capture the offline state of a fitted Skyscraper instance."""
        if skyscraper.report is None or skyscraper.categorizer is None:
            raise ConfigurationError(
                "Skyscraper.fit must run before exporting offline artifacts"
            )
        report = skyscraper.report
        forecaster_state = None
        if skyscraper.forecaster is not None:
            forecaster_state = ForecasterState.from_forecaster(skyscraper.forecaster)
        return OfflineArtifacts(
            workload_name=skyscraper.workload.name,
            n_categories=skyscraper.n_categories,
            categorizer_method=skyscraper.categorizer_method,
            switch_period_seconds=skyscraper.switch_period_seconds,
            planned_interval_seconds=skyscraper.planned_interval_seconds,
            forecaster_splits=skyscraper.forecaster_splits,
            seed=skyscraper.seed,
            kept_configurations=list(report.kept_configurations),
            mean_qualities=dict(report.mean_qualities),
            categorizer_centers=skyscraper.categorizer.centers.copy(),
            n_placements=report.n_placements,
            forecast_validation_mae=report.forecast_validation_mae,
            initial_forecast=(
                None
                if report.initial_forecast is None
                else np.asarray(report.initial_forecast, dtype=float).copy()
            ),
            step_runtimes_seconds=dict(report.step_runtimes_seconds),
            forecaster_state=forecaster_state,
        )

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifacts to ``path`` (a directory; created if missing).

        The layout is ``artifacts.json`` for all scalar/configuration state
        and ``arrays.npz`` for the exact float arrays (categorizer centers,
        initial forecast, forecaster weights).
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)

        arrays: Dict[str, np.ndarray] = {"categorizer_centers": self.categorizer_centers}
        if self.initial_forecast is not None:
            arrays["initial_forecast"] = self.initial_forecast
        document = {
            "format_version": ARTIFACTS_FORMAT_VERSION,
            "workload_name": self.workload_name,
            "n_categories": self.n_categories,
            "categorizer_method": self.categorizer_method,
            "switch_period_seconds": self.switch_period_seconds,
            "planned_interval_seconds": self.planned_interval_seconds,
            "forecaster_splits": self.forecaster_splits,
            "seed": self.seed,
            "kept_configurations": [
                configuration.as_dict() for configuration in self.kept_configurations
            ],
            "mean_qualities": [
                {"configuration": configuration.as_dict(), "quality": quality}
                for configuration, quality in self.mean_qualities.items()
            ],
            "n_placements": self.n_placements,
            # NaN (the "forecaster not trained" marker) is not valid JSON;
            # persist it as null so artifacts.json stays RFC-8259 clean.
            "forecast_validation_mae": (
                None
                if math.isnan(self.forecast_validation_mae)
                else self.forecast_validation_mae
            ),
            "step_runtimes_seconds": self.step_runtimes_seconds,
            "forecaster": None,
        }
        if self.forecaster_state is not None:
            state = self.forecaster_state
            document["forecaster"] = {
                "n_categories": state.n_categories,
                "n_splits": state.n_splits,
                "input_seconds": state.input_seconds,
                "n_parameters": len(state.parameters),
                "mlp_config": {
                    "hidden_sizes": list(state.mlp_config.hidden_sizes),
                    "output_activation": state.mlp_config.output_activation,
                    "learning_rate": state.mlp_config.learning_rate,
                    "epochs": state.mlp_config.epochs,
                    "batch_size": state.mlp_config.batch_size,
                    "validation_split": state.mlp_config.validation_split,
                    "weight_decay": state.mlp_config.weight_decay,
                    "seed": state.mlp_config.seed,
                },
            }
            for index, parameter in enumerate(state.parameters):
                arrays[f"forecaster_parameter_{index}"] = parameter

        (directory / _JSON_NAME).write_text(json.dumps(document, indent=2))
        np.savez(directory / _ARRAYS_NAME, **arrays)
        return directory

    @staticmethod
    def load(path: Union[str, Path]) -> "OfflineArtifacts":
        """Read artifacts previously written by :meth:`save`."""
        directory = Path(path)
        json_path = directory / _JSON_NAME
        arrays_path = directory / _ARRAYS_NAME
        if not json_path.exists() or not arrays_path.exists():
            raise ConfigurationError(
                f"no offline artifacts found under {directory} "
                f"(expected {_JSON_NAME} and {_ARRAYS_NAME})"
            )
        document = json.loads(json_path.read_text())
        version = document.get("format_version")
        if version != ARTIFACTS_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported artifacts format version {version!r} "
                f"(this build reads version {ARTIFACTS_FORMAT_VERSION})"
            )
        with np.load(arrays_path) as arrays:
            centers = arrays["categorizer_centers"]
            initial_forecast = (
                arrays["initial_forecast"] if "initial_forecast" in arrays else None
            )
            forecaster_state = None
            serialized = document.get("forecaster")
            if serialized is not None:
                config = serialized["mlp_config"]
                forecaster_state = ForecasterState(
                    n_categories=int(serialized["n_categories"]),
                    n_splits=int(serialized["n_splits"]),
                    mlp_config=MLPConfig(
                        hidden_sizes=tuple(config["hidden_sizes"]),
                        output_activation=config["output_activation"],
                        learning_rate=config["learning_rate"],
                        epochs=config["epochs"],
                        batch_size=config["batch_size"],
                        validation_split=config["validation_split"],
                        weight_decay=config["weight_decay"],
                        seed=config["seed"],
                    ),
                    input_seconds=float(serialized["input_seconds"]),
                    parameters=[
                        arrays[f"forecaster_parameter_{index}"]
                        for index in range(int(serialized["n_parameters"]))
                    ],
                )
        return OfflineArtifacts(
            workload_name=document["workload_name"],
            n_categories=int(document["n_categories"]),
            categorizer_method=document["categorizer_method"],
            switch_period_seconds=float(document["switch_period_seconds"]),
            planned_interval_seconds=float(document["planned_interval_seconds"]),
            forecaster_splits=int(document["forecaster_splits"]),
            seed=int(document["seed"]),
            kept_configurations=[
                KnobConfiguration.from_dict(values)
                for values in document["kept_configurations"]
            ],
            mean_qualities={
                KnobConfiguration.from_dict(entry["configuration"]): float(entry["quality"])
                for entry in document["mean_qualities"]
            },
            categorizer_centers=centers,
            n_placements=int(document["n_placements"]),
            forecast_validation_mae=(
                float("nan")
                if document["forecast_validation_mae"] is None
                else float(document["forecast_validation_mae"])
            ),
            initial_forecast=initial_forecast,
            step_runtimes_seconds={
                step: float(seconds)
                for step, seconds in document["step_runtimes_seconds"].items()
            },
            forecaster_state=forecaster_state,
        )

    # ------------------------------------------------------------------ #
    # Restore
    # ------------------------------------------------------------------ #
    def restore(
        self,
        workload: VETLWorkload,
        resources: SkyscraperResources,
        cost_model: Optional[CostModel] = None,
        cloud: Optional[CloudSpec] = None,
    ) -> Skyscraper:
        """Build a fully fitted Skyscraper instance from these artifacts.

        Placement profiles are re-derived for ``resources`` (they depend on
        the provisioned hardware), while the content categories, initial
        forecast and forecaster weights are restored exactly as saved.
        """
        if workload.name != self.workload_name:
            raise ConfigurationError(
                f"artifacts were fitted on workload {self.workload_name!r}, "
                f"cannot restore onto {workload.name!r}"
            )
        skyscraper = Skyscraper(
            workload,
            resources,
            n_categories=self.n_categories,
            switch_period_seconds=self.switch_period_seconds,
            planned_interval_seconds=self.planned_interval_seconds,
            forecaster_splits=self.forecaster_splits,
            categorizer_method=self.categorizer_method,
            cost_model=cost_model,
            cloud=cloud,
            seed=self.seed,
        )
        skyscraper.categorizer = ContentCategorizer.from_centers(
            self.categorizer_centers,
            method=self.categorizer_method,
            seed=self.seed,
            n_categories=self.n_categories,
        )
        if self.forecaster_state is not None:
            skyscraper.forecaster = self.forecaster_state.build()

        report = OfflinePhaseReport(
            kept_configurations=list(self.kept_configurations),
            mean_qualities=dict(self.mean_qualities),
            n_placements=self.n_placements,
            n_categories=skyscraper.categorizer.actual_categories,
            forecast_validation_mae=self.forecast_validation_mae,
            initial_forecast=(
                None if self.initial_forecast is None else self.initial_forecast.copy()
            ),
            step_runtimes_seconds=dict(self.step_runtimes_seconds),
        )
        skyscraper.report = report
        skyscraper.profiles = build_profiles(
            workload,
            self.kept_configurations,
            cores=resources.cores,
            cloud=skyscraper.cloud,
            mean_qualities=self.mean_qualities,
        )
        skyscraper.attach_category_qualities(skyscraper.profiles)
        return skyscraper
