"""Experiments: hardware tiers, the unified runner, sweeps, formatting.

The public experiment API is :class:`ExperimentRunner` plus the policy
registry (:mod:`repro.registry`).  The registered figure specs of
:mod:`repro.figures` build every table and figure of the paper's evaluation
section from the runs, sweeps and result records defined here.
"""

from repro.experiments.hardware import MACHINE_TIERS, cluster_for, machine_for
from repro.experiments.results import (
    CostQualityPoint,
    ExperimentTable,
    FleetPoint,
    fleet_point,
    format_table,
    normalize_series,
)
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    SystemBundle,
    cost_reduction_factor,
    prepare_bundle,
    provisioned_cost_dollars,
)
from repro.experiments.ablation import (
    AblationVariant,
    ablation_cost_sweep,
    work_quality_curves,
)

__all__ = [
    "MACHINE_TIERS",
    "cluster_for",
    "machine_for",
    "CostQualityPoint",
    "ExperimentTable",
    "FleetPoint",
    "fleet_point",
    "format_table",
    "normalize_series",
    "ExperimentConfig",
    "ExperimentRunner",
    "SystemBundle",
    "prepare_bundle",
    "provisioned_cost_dollars",
    "cost_reduction_factor",
    "AblationVariant",
    "ablation_cost_sweep",
    "work_quality_curves",
]
