"""Exception hierarchy shared by all Skyscraper reproduction subsystems.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors such as
``TypeError`` or ``KeyError`` coming from their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """Raised when a user supplies an invalid configuration value.

    Examples include registering a knob with an empty domain, provisioning a
    cluster with zero cores, or requesting a negative budget.
    """


class AdmissionError(ConfigurationError):
    """Raised when a submission is refused at admission.

    Covers per-tenant queue quotas (the service dispatcher) and joint-
    planning SLO rejections (:mod:`repro.planning.admission`).  Lives here
    rather than in the service layer so the planning subsystem can raise it
    without importing the service package.
    """


class BudgetExceededError(ReproError):
    """Raised when a processing plan would exceed the user's budget."""


class NotFittedError(ReproError):
    """Raised when an online component is used before the offline phase ran."""


class PlanningError(ReproError):
    """Raised when the knob planner cannot produce a feasible knob plan."""


class PlacementError(ReproError):
    """Raised when no task placement can ingest a configuration in time."""


class QueryError(ReproError):
    """Raised by the warehouse query layer for malformed queries."""


class WorkloadError(ReproError):
    """Raised when a workload definition is inconsistent."""
