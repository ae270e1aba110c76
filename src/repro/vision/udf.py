"""UDF base types shared by all simulated vision operators."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class OperatorCost:
    """Resource cost of a single operator invocation.

    Attributes:
        on_prem_seconds: single-core service time on the on-premise cluster.
        cloud_seconds: round-trip time when the invocation is offloaded to a
            cloud function (includes the cloud-side processing; the simulator
            adds queuing for bandwidth separately).
        cloud_dollars: monetary cost of one cloud invocation.
        upload_bytes: payload uploaded to the cloud (JPEG + Base64).
        download_bytes: payload downloaded from the cloud (detections, etc.).
    """

    on_prem_seconds: float
    cloud_seconds: float
    cloud_dollars: float
    upload_bytes: int
    download_bytes: int

    def __post_init__(self):
        if self.on_prem_seconds < 0 or self.cloud_seconds < 0:
            raise ConfigurationError("operator runtimes must be non-negative")
        if self.cloud_dollars < 0:
            raise ConfigurationError("cloud cost must be non-negative")
        if self.upload_bytes < 0 or self.download_bytes < 0:
            raise ConfigurationError("payload sizes must be non-negative")

    def scaled(self, factor: float) -> "OperatorCost":
        """Cost of ``factor`` back-to-back invocations folded into one task."""
        if factor < 0:
            raise ConfigurationError("scale factor must be non-negative")
        return OperatorCost(
            on_prem_seconds=self.on_prem_seconds * factor,
            cloud_seconds=self.cloud_seconds * factor,
            cloud_dollars=self.cloud_dollars * factor,
            upload_bytes=int(self.upload_bytes * factor),
            download_bytes=int(self.download_bytes * factor),
        )


class VisionOperator:
    """Base class for simulated CV operators.

    Subclasses implement :meth:`invocation_cost`, the resource cost of one
    invocation under the given knob settings.  The base class stores the
    operator name.
    """

    def __init__(self, name: str):
        if not name:
            raise ConfigurationError("operator name must be non-empty")
        self.name = name

    def invocation_cost(self, **knobs) -> OperatorCost:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


def clip01(value: float) -> float:
    """Clip a quality value into [0, 1]."""
    return float(min(max(value, 0.0), 1.0))
