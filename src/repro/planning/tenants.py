"""Tenant descriptions for fleet-level joint planning.

A :class:`TenantSpec` is the declarative unit the fleet planner allocates
to: a named group of streams that shares one workload mix, one quality
weight, one cloud cost ratio and (optionally) one quality SLO.  Tenants are
deliberately decoupled from the runtime fleet objects — the planner only
needs the handful of scalars below plus a demand curve, which keeps the
planning layer importable without a fitted system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cluster.cost import CLOUD_TO_ON_PREM_RATIO
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the shared fleet, as the joint planner sees it.

    Attributes:
        tenant_id: unique name (matches ``FleetStreamSpec.tenant``).
        n_streams: number of streams the tenant ingests; the tenant's
            allocation is divided evenly across them at deploy time.
        weight: relative importance of one unit of this tenant's quality in
            the fleet objective (per stream — a tenant with ``weight=2``
            counts each of its streams twice as much as a ``weight=1`` one).
        min_quality: quality SLO in expected-quality units (the Section 4.1
            LP objective, ``0..1``).  Admission control rejects the tenant
            when no feasible allocation reaches this floor; ``0.0`` disables
            the check.
        cost_ratio: the tenant's cloud-to-on-prem cost ratio (Section 2.1's
            1.8x by default) — tenants in pricier regions burn the shared
            budget faster for the same cloud work.
        forecast: optional per-category content forecast (fractions summing
            to 1) used when probing the tenant's demand curve; ``None``
            falls back to the problem-wide default forecast.
    """

    tenant_id: str
    n_streams: int
    weight: float = 1.0
    min_quality: float = 0.0
    cost_ratio: float = CLOUD_TO_ON_PREM_RATIO
    forecast: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if self.n_streams < 1:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: n_streams must be >= 1, "
                f"got {self.n_streams}"
            )
        if self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: weight must be > 0, "
                f"got {self.weight}"
            )
        if self.min_quality < 0:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: min_quality must be >= 0, "
                f"got {self.min_quality}"
            )
        if self.cost_ratio <= 0:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: cost_ratio must be > 0, "
                f"got {self.cost_ratio}"
            )
        if self.forecast is not None:
            forecast = np.asarray(self.forecast, dtype=float)
            if forecast.ndim != 1 or forecast.size == 0:
                raise ConfigurationError(
                    f"tenant {self.tenant_id!r}: forecast must be a "
                    "non-empty 1-d vector"
                )
            if np.any(forecast < 0):
                raise ConfigurationError(
                    f"tenant {self.tenant_id!r}: forecast must be "
                    "non-negative"
                )
            total = float(forecast.sum())
            if total <= 0:
                raise ConfigurationError(
                    f"tenant {self.tenant_id!r}: forecast must have "
                    "positive mass"
                )
            object.__setattr__(self, "forecast", forecast / total)

    @property
    def total_weight(self) -> float:
        """The tenant's total pull on the objective (``weight * n_streams``)."""
        return self.weight * self.n_streams
