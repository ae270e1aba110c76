"""Skyscraper: a reproduction of "Extract-Transform-Load for Video Streams".

The package is organized as:

* :mod:`repro.core` — Skyscraper itself (knob planning, switching, the
  offline learning phase, the ingestion engine and the public API);
* :mod:`repro.video`, :mod:`repro.vision`, :mod:`repro.cluster`,
  :mod:`repro.warehouse`, :mod:`repro.ml` — the substrates the system runs on
  (synthetic video, simulated CV operators, the execution/cost model, the
  Load-step warehouse, and from-scratch ML algorithms);
* :mod:`repro.workloads` — the paper's evaluation workloads (EV counting,
  COVID, MOT, MOSEI);
* :mod:`repro.baselines` — Static, Chameleon*, VideoStorm, Optimum and the
  idealized Appendix-B design;
* :mod:`repro.registry` — the pluggable policy registry every system
  registers with;
* :mod:`repro.experiments` — the unified experiment runner behind every
  figure and benchmark.
"""

from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.core.engine import IngestionEngine, IngestionResult
from repro.registry import (
    PolicySpec,
    RunContext,
    create_policy,
    policy_names,
    policy_spec,
    register_policy,
)
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    SystemBundle,
    prepare_bundle,
)
from repro.errors import (
    ReproError,
    ConfigurationError,
    BudgetExceededError,
    NotFittedError,
    PlanningError,
    PlacementError,
    QueryError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    "Skyscraper",
    "SkyscraperResources",
    "IngestionEngine",
    "IngestionResult",
    "PolicySpec",
    "RunContext",
    "create_policy",
    "policy_names",
    "policy_spec",
    "register_policy",
    "ExperimentConfig",
    "ExperimentRunner",
    "SystemBundle",
    "prepare_bundle",
    "ReproError",
    "ConfigurationError",
    "BudgetExceededError",
    "NotFittedError",
    "PlanningError",
    "PlacementError",
    "QueryError",
    "WorkloadError",
    "__version__",
]
