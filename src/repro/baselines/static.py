"""The Static baseline: one knob configuration for the whole stream.

The Static baseline of Section 5.3 processes the video with the same knob
configuration throughout.  On a given machine it uses the most qualitative
configuration that still runs in real time (otherwise it would lag without
bound, violating the V-ETL constraint).
"""

from __future__ import annotations


from repro.errors import ConfigurationError
from repro.core.engine import DecisionContext, PolicyDecision
from repro.core.interfaces import SegmentOutcome
from repro.core.profiles import ConfigurationProfile, ProfileSet


class StaticPolicy:
    """Always use the same configuration and its cheapest feasible placement."""

    def __init__(self, profiles: ProfileSet, profile: ConfigurationProfile):
        self.profiles = profiles
        self.profile = profile
        self.configuration_index = profiles.index_of(profile.configuration)
        # The placement never changes; ``on_prem_placement`` scans the
        # profile's placements, so resolve it once, not per segment.
        self.placement = profile.on_prem_placement
        self.name = f"static[{profile.configuration.short_label()}]"

    def decide(self, context: DecisionContext) -> PolicyDecision:
        return PolicyDecision(
            configuration_index=self.configuration_index,
            profile=self.profile,
            placement=self.placement,
        )

    def observe(self, outcome: SegmentOutcome, decision: PolicyDecision) -> None:
        return None


def best_static_configuration(
    profiles: ProfileSet,
    segment_seconds: float,
    cores: int,
    utilization: float = 1.0,
) -> ConfigurationProfile:
    """The most qualitative configuration that runs in real time on ``cores``.

    A configuration runs in real time when its fully on-premise runtime for
    one segment does not exceed the segment duration.  If even the cheapest
    configuration is too slow, the cheapest one is returned (the run will lag
    and eventually overflow, which the engine reports).
    """
    if segment_seconds <= 0:
        raise ConfigurationError("segment_seconds must be positive")
    if cores < 1:
        raise ConfigurationError("cores must be at least 1")
    feasible = [
        profile
        for profile in profiles
        if profile.on_prem_placement.runtime_seconds <= segment_seconds * utilization
    ]
    if not feasible:
        return profiles.cheapest()
    return max(feasible, key=lambda profile: profile.mean_quality)
