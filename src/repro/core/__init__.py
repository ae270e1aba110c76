"""Skyscraper core: the paper's primary contribution.

The core package implements content-adaptive knob tuning with throughput
guarantees:

* :mod:`repro.core.knobs` — user-registered knobs and knob configurations;
* :mod:`repro.core.profiles` — profiled runtime/cost/placement data of a
  knob configuration (offline phase, Section 3.1);
* :mod:`repro.core.filtering` — knob-configuration filtering by greedy hill
  climbing over diverse sampled segments (Appendix A.1);
* :mod:`repro.core.offline` — the staged offline pipeline: shared evaluation
  cache, batched evaluation, resumable per-stage artifacts (Section 3 end to
  end);
* :mod:`repro.core.categorizer` — content categories from KMeans over
  quality vectors (Section 3.2);
* :mod:`repro.core.forecaster` — the feed-forward forecasting model
  (Section 3.3, Appendix H/K);
* :mod:`repro.core.planner` — the LP-based knob planner (Section 4.1);
* :mod:`repro.core.switcher` — the reactive knob switcher (Section 4.2);
* :mod:`repro.core.engine` — the discrete-time ingestion engine enforcing
  the buffer and budget constraints (Equation 1);
* :mod:`repro.core.events` — the event loop (arrival/finish events on a
  heap clock) and per-stream :class:`StreamSession` state;
* :mod:`repro.core.fleet` — the multi-stream :class:`FleetEngine` with
  pluggable schedulers and a shared daily cloud-budget ledger;
* :mod:`repro.core.skyscraper` — the user-facing API mirroring Appendix F.
"""

from repro.core.knobs import Knob, KnobConfiguration, KnobSpace
from repro.core.profiles import ConfigurationProfile, ProfileSet
from repro.core.categorizer import ContentCategorizer
from repro.core.forecaster import ContentForecaster, ForecastDataset
from repro.core.planner import KnobPlan, KnobPlanner
from repro.core.switcher import KnobSwitcher, SwitchDecision
from repro.core.engine import IngestionEngine, IngestionResult, Policy, SegmentTrace
from repro.core.events import EventLoop, StreamSession
from repro.core.fleet import (
    BudgetLedger,
    DailyBudgetLedger,
    FifoScheduler,
    FleetEngine,
    FleetResult,
    FleetStream,
    LagAwareScheduler,
    RoundRobinScheduler,
    Scheduler,
    make_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.core.policy import SkyscraperPolicy
from repro.core.filtering import filter_knob_configurations, sample_diverse_segments
from repro.core.offline import (
    EvaluationCache,
    OfflineFitParams,
    OfflinePhaseReport,
    OfflinePipeline,
    StageCache,
    profile_configurations,
)
from repro.core.skyscraper import Skyscraper, SkyscraperResources

__all__ = [
    "Knob",
    "KnobConfiguration",
    "KnobSpace",
    "ConfigurationProfile",
    "ProfileSet",
    "ContentCategorizer",
    "ContentForecaster",
    "ForecastDataset",
    "KnobPlan",
    "KnobPlanner",
    "KnobSwitcher",
    "SwitchDecision",
    "IngestionEngine",
    "IngestionResult",
    "SegmentTrace",
    "EventLoop",
    "StreamSession",
    "BudgetLedger",
    "DailyBudgetLedger",
    "FleetEngine",
    "FleetResult",
    "FleetStream",
    "Scheduler",
    "FifoScheduler",
    "RoundRobinScheduler",
    "LagAwareScheduler",
    "make_scheduler",
    "register_scheduler",
    "scheduler_names",
    "Policy",
    "SkyscraperPolicy",
    "filter_knob_configurations",
    "sample_diverse_segments",
    "EvaluationCache",
    "OfflineFitParams",
    "OfflinePhaseReport",
    "OfflinePipeline",
    "StageCache",
    "profile_configurations",
    "Skyscraper",
    "SkyscraperResources",
]
