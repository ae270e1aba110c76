"""The figure-suite runner: executes registered specs, writes JSON artifacts.

:class:`FigureSuite` is the one engine behind every reproduction entry point
— the ``python -m repro.figures`` CLI and the tests run specs through it.  It
owns one shared :class:`~repro.figures.context.BundleProvider` (so figures
sharing an offline phase pay for it once), snapshots the provider's cache
counters around every spec, converts spec failures into ``status="error"``
artifacts instead of aborting the suite, and optionally fans independent specs
out over a process pool — worker processes share the on-disk stage cache, so
parallel runs stay cache-coherent.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.figures.context import BundleProvider, FigureContext
from repro.figures.spec import figure_names, figure_spec

#: Bumped when the artifact JSON layout changes incompatibly.
ARTIFACT_FORMAT_VERSION = 1

#: Artifact statuses: the spec ran and all checks passed / ran but some
#: declarative checks failed / raised.
STATUS_OK = "ok"
STATUS_CHECK_FAILED = "check_failed"
STATUS_ERROR = "error"


@dataclass
class FigureArtifact:
    """The machine-readable outcome of one figure-spec run."""

    figure_id: str
    title: str
    paper_reference: str
    claim: str
    mode: str
    status: str
    payload: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the spec ran and every declarative check passed."""
        return self.status == STATUS_OK

    @property
    def failed_checks(self) -> List[Dict[str, Any]]:
        """The payload checks that did not pass."""
        return [c for c in self.payload.get("checks", []) if not c.get("passed")]

    def to_json_dict(self) -> Dict[str, Any]:
        """The artifact as the JSON document written to disk."""
        return {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "figure": self.figure_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "claim": self.claim,
            "mode": self.mode,
            "status": self.status,
            "error": self.error,
            "payload": self.payload,
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, document: Dict[str, Any]) -> "FigureArtifact":
        """Rebuild an artifact from a document produced by ``to_json_dict``."""
        return cls(
            figure_id=document["figure"],
            title=document.get("title", document["figure"]),
            paper_reference=document.get("paper_reference", ""),
            claim=document.get("claim", ""),
            mode=document.get("mode", "full"),
            status=document.get("status", STATUS_ERROR),
            payload=document.get("payload", {}),
            meta=document.get("meta", {}),
            error=document.get("error"),
        )


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain JSON types."""
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        return _json_safe(value.tolist())
    return value


class FigureSuite:
    """Runs figure specs with shared caches and writes their artifacts.

    Args:
        out_dir: where per-figure ``<figure_id>.json`` artifacts are written
            (``None`` keeps artifacts in memory only).
        cache_dir: on-disk offline-phase cache shared across specs, worker
            processes and suite runs; defaults to ``<out_dir>/.cache`` when
            an ``out_dir`` is given.
        smoke: CI-sized windows and sweep axes instead of benchmark scale.
    """

    def __init__(
        self,
        out_dir: Optional[Union[str, Path]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        smoke: bool = False,
    ):
        self.out_dir = Path(out_dir).expanduser() if out_dir else None
        if cache_dir is None and self.out_dir is not None:
            cache_dir = self.out_dir / ".cache"
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.smoke = bool(smoke)
        self.provider = BundleProvider(cache_dir=self.cache_dir, smoke=self.smoke)

    @property
    def mode(self) -> str:
        """``"smoke"`` or ``"full"``."""
        return "smoke" if self.smoke else "full"

    # ------------------------------------------------------------------ #
    # Running specs
    # ------------------------------------------------------------------ #
    def run_one(self, figure_id: str) -> FigureArtifact:
        """Run one registered spec and return (and persist) its artifact."""
        spec = figure_spec(figure_id)
        context = FigureContext(provider=self.provider, mode=self.mode)
        before = self.provider.counters.snapshot()
        started = time.perf_counter()
        payload: Dict[str, Any] = {}
        error: Optional[str] = None
        try:
            payload = _json_safe(spec.run(context))
            status = STATUS_OK
            if any(not c.get("passed") for c in payload.get("checks", [])):
                status = STATUS_CHECK_FAILED
        except Exception:
            status = STATUS_ERROR
            error = traceback.format_exc()
        wall_seconds = time.perf_counter() - started
        artifact = FigureArtifact(
            figure_id=spec.figure_id,
            title=spec.title,
            paper_reference=spec.paper_reference,
            claim=spec.claim,
            mode=self.mode,
            status=status,
            payload=payload,
            error=error,
            meta={
                "wall_seconds": round(wall_seconds, 3),
                "cache": self.provider.counters.delta(before),
                "workloads": list(spec.workloads),
                "systems": list(spec.systems),
                "sweep": {axis: list(values) for axis, values in spec.sweep.items()},
            },
        )
        self.write_artifact(artifact)
        return artifact

    def run(
        self,
        figure_ids: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> List[FigureArtifact]:
        """Run several specs (default: all), optionally process-parallel.

        With ``workers > 1`` each spec runs in a pool worker with its own
        provider; the on-disk stage cache keeps the offline-phase sharing.
        Artifact order always follows the requested id order.
        """
        ids = list(figure_ids) if figure_ids is not None else figure_names()
        unknown = [figure_id for figure_id in ids if figure_id not in figure_names()]
        if unknown:
            raise ConfigurationError(f"unknown figures requested: {unknown}")
        if workers is None or workers <= 1 or len(ids) <= 1:
            return [self.run_one(figure_id) for figure_id in ids]
        params = {
            "out_dir": str(self.out_dir) if self.out_dir else None,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "smoke": self.smoke,
        }
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(ids)),
            initializer=_init_suite_worker,
            initargs=(params,),
        ) as executor:
            return list(executor.map(_run_suite_task, ids))

    # ------------------------------------------------------------------ #
    # Artifact IO
    # ------------------------------------------------------------------ #
    def artifact_path(self, figure_id: str) -> Optional[Path]:
        """Where ``figure_id``'s JSON artifact lives (``None`` in-memory)."""
        if self.out_dir is None:
            return None
        return self.out_dir / f"{figure_id}.json"

    def write_artifact(self, artifact: FigureArtifact) -> Optional[Path]:
        """Persist one artifact as pretty-printed JSON; returns its path."""
        path = self.artifact_path(artifact.figure_id)
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(artifact.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path


def load_artifacts(artifacts_dir: Union[str, Path]) -> List[FigureArtifact]:
    """The registered figures' ``<id>.json`` artifacts under a directory, sorted by id.

    A file named after no registered figure (one a removed or renamed figure
    left behind) is not read; :func:`unregistered_artifact_paths` lists them.
    """
    registered = set(figure_names())
    directory = Path(artifacts_dir).expanduser()
    artifacts = []
    for path in sorted(directory.glob("*.json")):
        if path.stem in registered:
            artifacts.append(FigureArtifact.from_json_dict(json.loads(path.read_text())))
    return sorted(artifacts, key=lambda artifact: artifact.figure_id)


def unregistered_artifact_paths(artifacts_dir: Union[str, Path]) -> List[Path]:
    """The ``*.json`` files under a directory that :func:`load_artifacts` skips."""
    registered = set(figure_names())
    directory = Path(artifacts_dir).expanduser()
    return [path for path in sorted(directory.glob("*.json")) if path.stem not in registered]


#: Per-worker suite installed by :func:`_init_suite_worker`.
_WORKER_SUITE: Optional[FigureSuite] = None


def _init_suite_worker(params: Dict[str, Any]) -> None:
    """Pool initializer: import the catalog and build this worker's suite."""
    global _WORKER_SUITE
    import repro.figures.catalog  # noqa: F401  (registers the specs)

    _WORKER_SUITE = FigureSuite(**params)


def _run_suite_task(figure_id: str) -> FigureArtifact:
    """Module-level task so suite fan-out can run in a process pool."""
    assert _WORKER_SUITE is not None, "suite worker used before initialization"
    return _WORKER_SUITE.run_one(figure_id)
