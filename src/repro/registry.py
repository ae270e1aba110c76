"""The pluggable policy registry.

Every system the evaluation compares — Skyscraper itself and each baseline —
is registered here as a *policy factory* under a stable name.  A factory
receives a :class:`RunContext` (the fitted bundle, the re-provisioned
Skyscraper instance, its profiles and resources, and the experiment seed) and
returns an engine policy.  The :class:`~repro.experiments.runner.ExperimentRunner`
looks systems up by name, so a new baseline becomes available to every
benchmark and sweep by registering a factory — no harness changes needed::

    from repro.registry import register_policy

    @register_policy("my-baseline", description="always the cheapest knobs")
    def _my_baseline(context):
        cheapest = context.profiles.cheapest()
        return StaticPolicy(context.profiles, cheapest)

The built-in names are ``"skyscraper"``, ``"static"``, ``"chameleon*"``
(alias ``"chameleon"``), ``"videostorm"``, ``"optimum"`` and ``"idealized"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.baselines.chameleon import ChameleonStarPolicy
from repro.baselines.idealized import time_of_day_forecast
from repro.baselines.optimum import optimum_assignment
from repro.baselines.static import StaticPolicy, best_static_configuration
from repro.baselines.videostorm import VideoStormPolicy
from repro.core.engine import DecisionContext, Policy, PolicyDecision
from repro.core.interfaces import SegmentOutcome, VETLWorkload
from repro.core.profiles import ProfileSet
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.errors import ConfigurationError
from repro.video.stream import SyntheticVideoSource

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.experiments.runner import SystemBundle

SECONDS_PER_DAY = 86_400.0

#: A policy factory: ``factory(context, **options) -> Policy``.
PolicyFactory = Callable[..., Policy]


@dataclass
class RunContext:
    """Everything a policy factory may use to build its policy.

    Attributes:
        bundle: the fitted workload bundle (setup, config, reference
            Skyscraper instance).
        skyscraper: the Skyscraper instance re-provisioned for this run's
            hardware (its profiles reflect the run's core count and cloud
            budget).
        resources: the provisioned resources of this run.
        seed: the experiment seed.
    """

    bundle: "SystemBundle"
    skyscraper: Skyscraper
    resources: SkyscraperResources
    seed: int

    # ------------------------------------------------------------------ #
    # Convenience accessors used by most factories
    # ------------------------------------------------------------------ #
    @property
    def workload(self) -> VETLWorkload:
        """The V-ETL workload the bundle was fitted on."""
        return self.bundle.setup.workload

    @property
    def source(self) -> SyntheticVideoSource:
        """The bundle's video source."""
        return self.bundle.setup.source

    @property
    def profiles(self) -> ProfileSet:
        """The fitted placement profiles, re-provisioned for this run."""
        if self.skyscraper.profiles is None:
            raise ConfigurationError("RunContext.skyscraper has no fitted profiles")
        return self.skyscraper.profiles

    @property
    def segment_seconds(self) -> float:
        """Length of one video segment in seconds."""
        return self.source.segment_seconds

    @property
    def online_start(self) -> float:
        """Start of the online window (seconds since stream start)."""
        return self.bundle.config.online_start

    @property
    def online_end(self) -> float:
        """End of the online window (seconds since stream start)."""
        return self.bundle.config.online_end


@dataclass(frozen=True)
class PolicySpec:
    """A registered policy: its canonical name, factory and capabilities.

    Attributes:
        name: canonical registry name (also used as the ``system`` label of
            result rows).
        factory: builds the policy from a :class:`RunContext`.
        uses_cloud: whether the system spends cloud credits; systems that do
            not are re-provisioned with a zero cloud budget so comparisons
            match the paper's setup.
        description: one-line human-readable description.
        aliases: alternative lookup names.
    """

    name: str
    factory: PolicyFactory
    uses_cloud: bool = False
    description: str = ""
    aliases: Tuple[str, ...] = ()


_REGISTRY: Dict[str, PolicySpec] = {}
_ALIASES: Dict[str, str] = {}


def register_policy(
    name: str,
    *,
    uses_cloud: bool = False,
    description: str = "",
    aliases: Tuple[str, ...] = (),
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator registering a policy factory under ``name``.

    Raises :class:`ConfigurationError` when the name (or an alias) is already
    taken, so typos do not silently shadow an existing system.
    """
    if not name:
        raise ConfigurationError("policy name must be non-empty")

    def decorate(factory: PolicyFactory) -> PolicyFactory:
        """Register ``factory`` under the decorator's name and aliases."""
        for candidate in (name, *aliases):
            if candidate in _REGISTRY or candidate in _ALIASES:
                raise ConfigurationError(
                    f"policy {candidate!r} is already registered"
                )
        spec = PolicySpec(
            name=name,
            factory=factory,
            uses_cloud=uses_cloud,
            description=description,
            aliases=tuple(aliases),
        )
        _REGISTRY[name] = spec
        for alias in aliases:
            _ALIASES[alias] = name
        return factory

    return decorate


def unregister_policy(name: str) -> None:
    """Remove a registered policy (mainly for tests of the registry itself)."""
    spec = policy_spec(name)
    del _REGISTRY[spec.name]
    for alias in spec.aliases:
        _ALIASES.pop(alias, None)


def policy_names() -> List[str]:
    """Canonical names of every registered policy, sorted."""
    return sorted(_REGISTRY)


def policy_spec(name: str) -> PolicySpec:
    """The :class:`PolicySpec` registered under ``name`` (or an alias)."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        raise ConfigurationError(
            f"unknown policy {name!r}; registered policies: {policy_names()}"
        )
    return _REGISTRY[canonical]


def create_policy(name: str, context: RunContext, **options) -> Policy:
    """Instantiate the policy registered under ``name`` for ``context``."""
    return policy_spec(name).factory(context, **options)


# --------------------------------------------------------------------- #
# Offline assignments replayed through the engine
# --------------------------------------------------------------------- #
class AssignmentReplayPolicy:
    """Replays a precomputed per-segment configuration assignment.

    The Optimum and the idealized Appendix-B design are offline constructs:
    they assign a configuration to every segment of the window ahead of time.
    Wrapping the assignment in an engine policy runs them through the same
    ingestion engine as every online system, so their results carry the same
    buffer/lag semantics.
    """

    def __init__(self, name: str, profiles: ProfileSet, assignment: Mapping[int, int]):
        """Wrap a ``segment_index -> configuration_index`` assignment."""
        self.name = name
        self.profiles = profiles
        self.assignment = dict(assignment)
        self._fallback = profiles.index_of(profiles.cheapest().configuration)

    def decide(self, context: DecisionContext) -> PolicyDecision:
        """The precomputed configuration for this segment (cheapest on gaps)."""
        index = self.assignment.get(context.segment.segment_index, self._fallback)
        profile = self.profiles[index]
        return PolicyDecision(
            configuration_index=index,
            profile=profile,
            placement=profile.on_prem_placement,
        )

    def observe(self, outcome: SegmentOutcome, decision: PolicyDecision) -> None:
        """Replay policies learn nothing online; observations are ignored."""
        return None


def _online_segments(context: RunContext) -> list:
    return list(context.source.segments(context.online_start, context.online_end))


def _default_budget(context: RunContext, n_segments: int) -> float:
    resources = context.resources
    return (
        resources.cores
        * context.segment_seconds
        * resources.utilization
        * n_segments
    )


# --------------------------------------------------------------------- #
# Built-in systems
# --------------------------------------------------------------------- #
@register_policy(
    "skyscraper",
    uses_cloud=True,
    description="content-adaptive knob tuning with throughput guarantees (the paper)",
)
def _skyscraper_factory(context: RunContext) -> Policy:
    """The paper's system: the fitted Skyscraper's engine policy."""
    return context.skyscraper.build_policy(context.segment_seconds)


@register_policy(
    "static",
    description="one fixed knob configuration: the best real-time one (Section 5.3)",
)
def _static_factory(
    context: RunContext, configuration_index: Optional[int] = None
) -> Policy:
    """The best real-time static configuration (or an explicit index)."""
    profiles = context.profiles
    if configuration_index is None:
        profile = best_static_configuration(
            profiles, context.segment_seconds, context.resources.cores
        )
    else:
        profile = profiles[configuration_index]
    return StaticPolicy(profiles, profile)


@register_policy(
    "chameleon*",
    aliases=("chameleon",),
    description="Chameleon adapted with a buffer: content adaptive, no throughput guarantee",
)
def _chameleon_factory(
    context: RunContext,
    profiling_period_seconds: float = 480.0,
    quality_tolerance: float = 0.9,
) -> Policy:
    """Chameleon* — content adaptive via periodic re-profiling, buffered."""
    return ChameleonStarPolicy(
        context.workload,
        context.profiles,
        profiling_period_seconds=profiling_period_seconds,
        quality_tolerance=quality_tolerance,
    )


@register_policy(
    "videostorm",
    description="query-load adaptive only; degenerates to the best real-time configuration",
)
def _videostorm_factory(context: RunContext, safety_margin: float = 0.9) -> Policy:
    """VideoStorm adapted — degenerates to the best real-time configuration."""
    return VideoStormPolicy(
        context.profiles, context.segment_seconds, safety_margin=safety_margin
    )


@register_policy(
    "optimum",
    description="ground-truth knapsack upper bound (Section 5.4), replayed through the engine",
)
def _optimum_factory(
    context: RunContext, budget_core_seconds: Optional[float] = None
) -> Policy:
    """Ground-truth knapsack assignment replayed through the engine."""
    segments = _online_segments(context)
    if budget_core_seconds is None:
        budget_core_seconds = _default_budget(context, len(segments))
    result = optimum_assignment(
        context.workload, context.profiles, segments, budget_core_seconds
    )
    return AssignmentReplayPolicy("optimum", context.profiles, result.choices)


@register_policy(
    "idealized",
    description="Appendix B.1 idealized per-slot forecasting design (time-of-day forecasts)",
)
def _idealized_factory(
    context: RunContext,
    budget_core_seconds: Optional[float] = None,
    history_days: float = 2.0,
    bucket_seconds: float = 900.0,
    history_stride_segments: int = 60,
) -> Policy:
    """Appendix B.1 idealized per-slot design replayed through the engine."""
    segments = _online_segments(context)
    if budget_core_seconds is None:
        budget_core_seconds = _default_budget(context, len(segments))
    source = context.source
    history_start = max(context.online_start - history_days * SECONDS_PER_DAY, 0.0)
    first = int(history_start / source.segment_seconds)
    last = int(context.online_start / source.segment_seconds)
    stride = max(int(history_stride_segments), 1)
    history = [source.segment_at(index) for index in range(first, last, stride)]
    forecast = time_of_day_forecast(
        context.workload, context.profiles, history, bucket_seconds
    )
    result = optimum_assignment(
        context.workload,
        context.profiles,
        segments,
        budget_core_seconds,
        quality_fn=forecast,
    )
    return AssignmentReplayPolicy("idealized", context.profiles, result.choices)
