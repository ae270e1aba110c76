"""The staged offline-phase pipeline (Section 3, Table 3).

``Skyscraper.fit`` used to run the offline learning phase as a monolith:
thousands of independent ``workload.evaluate`` calls in Python loops with no
memoization and all-or-nothing caching.  This module breaks the phase into an
explicit :class:`OfflinePipeline` of named stages::

    sample_segments -> filter_configurations -> profile_placements
        -> content_categories -> label_history -> train_forecaster

Each stage declares its inputs and outputs, times itself (the per-step
runtimes of the paper's Table 3 are preserved in :class:`OfflinePhaseReport`),
and — where its output is hardware independent — can persist that output under
a content-addressed key in a :class:`StageCache`, so re-running ``fit`` with a
changed downstream parameter (e.g. ``n_categories``) resumes from the cached
upstream artifacts instead of re-evaluating the history.

Underneath the stages sits one shared mechanism, :class:`EvaluationCache`: it
memoizes ``workload.evaluate`` outcomes keyed by ``(configuration,
segment_index)``, so the quality-vector sampling loop, the history labeling
pass, the diverse-segment sampling and the hill climbs stop re-evaluating the
same pair across stages.  The stages run in one process, so every evaluation
of a fit passes through that one cache and its hit/miss counts.

Deterministic sampling note: every sampling stage draws from its own RNG
seeded by ``(seed, stage ordinal)`` instead of sharing one sequential stream.
This keeps downstream sampling identical whether an upstream stage ran live or
was restored from the stage cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.resources import CloudSpec
from repro.core.categorizer import ContentCategorizer
from repro.core.filtering import (
    filter_knob_configurations,
    find_extreme_configurations,
    sample_diverse_segments,
)
from repro.core.forecaster import ContentForecaster, ForecastDataset
from repro.core.interfaces import SegmentOutcome, VETLWorkload
from repro.core.knobs import KnobConfiguration
from repro.core.profiles import ProfileSet, build_profiles
from repro.errors import ConfigurationError
from repro.video.frame import VideoSegment
from repro.video.stream import SegmentColumns, SyntheticVideoSource

SECONDS_PER_DAY = 86_400.0

#: Bumped whenever a stage's on-disk artifact layout changes incompatibly.
STAGE_CACHE_FORMAT_VERSION = 2


# --------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------- #
@dataclass
class OfflinePhaseReport:
    """Artifacts and runtimes of the offline learning phase (Table 3).

    ``step_runtimes_seconds`` keeps the paper's five step names (stages that
    share a step accumulate into it); ``stage_runtimes_seconds`` has the
    finer per-stage granularity of the pipeline, and ``stage_cache_hits``
    records which stages were restored from the stage cache instead of run.
    """

    kept_configurations: List[KnobConfiguration] = field(default_factory=list)
    mean_qualities: Dict[KnobConfiguration, float] = field(default_factory=dict)
    n_placements: int = 0
    n_categories: int = 0
    forecast_validation_mae: float = float("nan")
    initial_forecast: Optional[np.ndarray] = None
    step_runtimes_seconds: Dict[str, float] = field(default_factory=dict)
    stage_runtimes_seconds: Dict[str, float] = field(default_factory=dict)
    stage_cache_hits: Dict[str, bool] = field(default_factory=dict)
    evaluation_cache_hits: int = 0
    evaluation_cache_misses: int = 0

    @property
    def total_runtime_seconds(self) -> float:
        """Wall-clock of the whole offline phase (sum of the Table-3 steps)."""
        return sum(self.step_runtimes_seconds.values())

    @property
    def evaluation_cache_hit_ratio(self) -> float:
        """Deduplicated fraction of all quality evaluations in this fit."""
        total = self.evaluation_cache_hits + self.evaluation_cache_misses
        return self.evaluation_cache_hits / total if total else 0.0


# --------------------------------------------------------------------- #
# Shared evaluation cache
# --------------------------------------------------------------------- #
class _Batch:
    """One lookup batch of an :class:`EvaluationCache`, row by row.

    ``results`` holds each row's outcome once known; ``claims`` maps each
    configuration to ``{segment index: first row}`` of the indices this
    batch evaluates; ``misses`` lists those first rows as ``(row, the
    configuration's outcome dict, segment index)``; ``duplicates`` pairs
    every later row of such an index with its first row.
    """

    def __init__(self, size: int):
        """An empty batch of ``size`` rows."""
        self.results: List[Optional[SegmentOutcome]] = [None] * size
        self.claims: Dict[KnobConfiguration, Dict[int, int]] = {}
        self.misses: List[Tuple[int, Dict[int, SegmentOutcome], int]] = []
        self.duplicates: List[Tuple[int, int]] = []


class EvaluationCache:
    """Memoized ``workload.evaluate``: one dict per configuration, keyed by segment index.

    The cache is the pipeline's single funnel for quality evaluations: every
    stage asks it instead of the workload directly, so identical pairs
    requested by different stages (or by a later ``fit`` sharing the cache)
    are evaluated exactly once.  A batch looks each of its configurations up
    once and each row by its int segment index.  Batched misses are
    delegated to ``workload.evaluate_many`` (pairs) or
    ``workload.evaluate_columns`` (a column batch of one configuration).

    Workloads are deterministic given (configuration, segment) by contract
    (:class:`~repro.core.interfaces.VETLWorkload`), which is what makes the
    memoization bit-for-bit safe.
    """

    def __init__(self, workload: VETLWorkload):
        """An empty cache for ``workload``."""
        self.workload = workload
        self._outcomes: Dict[KnobConfiguration, Dict[int, SegmentOutcome]] = {}
        self._source_key: Optional[str] = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        """Number of memoized (configuration, segment) outcomes."""
        return sum(len(rows) for rows in self._outcomes.values())

    def bind(self, workload: VETLWorkload, source_key: str) -> None:
        """Pin the cache to one (workload, video stream) identity.

        Keys are only ``(configuration, segment_index)``, so serving a cache
        built for a different workload object or a different stream would
        silently return the wrong outcomes; pipelines bind before their first
        evaluation and a mismatch fails loudly instead.
        """
        if workload is not self.workload:
            raise ConfigurationError(
                "this EvaluationCache was built for workload "
                f"{self.workload.name!r} and cannot be "
                f"shared with a different workload object "
                f"({workload.name!r}): cached outcomes would "
                "answer for the wrong job"
            )
        if self._source_key is None:
            self._source_key = source_key
        elif source_key != self._source_key:
            raise ConfigurationError(
                "this EvaluationCache is already bound to a different video "
                "source; outcomes are keyed by segment index only, so sharing "
                "it across streams would serve the wrong segment evaluations — "
                "use one cache per (workload, stream)"
            )

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def evaluate_many(
        self, pairs: Sequence[Tuple[KnobConfiguration, VideoSegment]]
    ) -> List[SegmentOutcome]:
        """Outcomes for every pair, in order; each unique miss evaluated once.

        A cached pair and a repeat of a pair earlier in the batch count as
        hits and get the same outcome object.
        """
        pairs = list(pairs)
        batch = _Batch(len(pairs))
        start = 0
        while start < len(pairs):
            configuration = pairs[start][0]
            stop = start + 1
            while stop < len(pairs) and pairs[stop][0] is configuration:
                stop += 1
            indices = [segment.segment_index for _, segment in pairs[start:stop]]
            self._claim(batch, configuration, indices, start)
            start = stop
        outcomes: List[SegmentOutcome] = []
        if batch.misses:
            outcomes = self.workload.evaluate_many([pairs[row] for row, _, _ in batch.misses])
        return self._settle(batch, outcomes)

    def evaluate_columns(
        self, configuration: KnobConfiguration, columns: SegmentColumns
    ) -> List[SegmentOutcome]:
        """Outcomes of ``configuration`` on every row of ``columns``, in order.

        The accounting is :meth:`evaluate_many`'s over the pairs
        ``(configuration, columns.segment(i))``, and both entry points share
        one store.  The misses go to ``workload.evaluate_columns`` as one
        column subset, so no row is materialized here.
        """
        batch = _Batch(len(columns))
        self._claim(batch, configuration, columns.segment_index.tolist(), 0)
        outcomes: List[SegmentOutcome] = []
        if batch.misses:
            rows = np.array([row for row, _, _ in batch.misses], dtype=np.int64)
            outcomes = self.workload.evaluate_columns(configuration, columns.take(rows))
        return self._settle(batch, outcomes)

    def _claim(
        self,
        batch: _Batch,
        configuration: KnobConfiguration,
        indices: List[int],
        offset: int,
    ) -> None:
        """Sort the batch rows ``offset, offset + 1, ...``, all of one configuration.

        A cached row gets its outcome.  The first row of an uncached segment
        index is a miss; a later row of that index is a duplicate of it,
        also across runs of the configuration within the batch.
        """
        rows = self._outcomes.get(configuration)
        if rows is None:
            rows = self._outcomes[configuration] = {}
        claimed = batch.claims.setdefault(configuration, {})
        results, misses, duplicates = batch.results, batch.misses, batch.duplicates
        for row, index in enumerate(indices, offset):
            outcome = rows.get(index)
            if outcome is not None:
                results[row] = outcome
            elif index in claimed:
                duplicates.append((row, claimed[index]))
            else:
                claimed[index] = row
                misses.append((row, rows, index))

    def _settle(self, batch: _Batch, outcomes: List[SegmentOutcome]) -> List[SegmentOutcome]:
        """Store the evaluated misses, fill every row, and count hits and misses."""
        results = batch.results
        for (row, rows, index), outcome in zip(batch.misses, outcomes):
            rows[index] = outcome
            results[row] = outcome
        for row, first in batch.duplicates:
            results[row] = results[first]
        self.misses += len(batch.misses)
        self.hits += len(results) - len(batch.misses)
        return results  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# Stage cache (content-addressed per-stage artifacts)
# --------------------------------------------------------------------- #
class StageCache:
    """Per-stage artifact store: one ``<stage>-<digest>`` directory per entry.

    Each entry holds a small ``payload.json`` plus an optional ``arrays.npz``
    for exact float state.  Digests are content addressed over the workload
    identity, the stage's own parameters and the digests of its upstream
    stages, so a cached entry is valid exactly as long as everything that
    produced it is unchanged.
    """

    def __init__(self, directory: Union[str, Path]):
        """A cache rooted at ``directory`` (created lazily on first put)."""
        self.directory = Path(directory).expanduser()

    def _entry(self, stage: str, digest: str) -> Path:
        return self.directory / f"{stage}-{digest}"

    def get(
        self, stage: str, digest: str
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
        """The cached (document, arrays) for a stage digest, or ``None``."""
        entry = self._entry(stage, digest)
        json_path = entry / "payload.json"
        if not json_path.exists():
            return None
        document = json.loads(json_path.read_text())
        arrays: Dict[str, np.ndarray] = {}
        arrays_path = entry / "arrays.npz"
        if arrays_path.exists():
            with np.load(arrays_path) as loaded:
                arrays = {name: loaded[name] for name in loaded.files}
        return document, arrays

    def put(
        self,
        stage: str,
        digest: str,
        document: Dict[str, Any],
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> Path:
        """Persist one stage artifact atomically; returns its entry path."""
        entry = self._entry(stage, digest)
        entry.mkdir(parents=True, exist_ok=True)
        # Both files land via rename so readers never observe a torn entry:
        # the JSON payload goes last and atomically — its presence marks the
        # entry valid, even if this process dies mid-put or a process-parallel
        # sweep writes the same entry concurrently.
        if arrays:
            tmp_arrays = entry / "arrays.tmp.npz"  # np.savez demands a .npz suffix
            np.savez(tmp_arrays, **arrays)
            os.replace(tmp_arrays, entry / "arrays.npz")
        tmp_json = entry / "payload.json.tmp"
        tmp_json.write_text(json.dumps(document, sort_keys=True))
        os.replace(tmp_json, entry / "payload.json")
        return entry


def _digest_payload(payload: Any) -> str:
    encoded = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2b(encoded, digest_size=10).hexdigest()


def _content_payload(content_model: Any) -> Optional[Dict[str, Any]]:
    """Fingerprint of a :class:`~repro.video.content.ContentModel`.

    Every constructor parameter that shapes the generated content goes in —
    the seed alone is not an identity (two models with the same seed but
    different burst rates or trends produce different video).
    """
    if content_model is None:
        return None
    payload: Dict[str, Any] = {}
    for name in (
        "seed",
        "burst_rate_per_hour",
        "burst_duration_seconds",
        "burst_magnitude",
        "noise_level",
        "trend_per_day",
    ):
        payload[name] = getattr(content_model, name, None)
    for name in ("diurnal", "spikes"):
        value = getattr(content_model, name, None)
        if value is None:
            payload[name] = None
        elif is_dataclass(value) and not isinstance(value, type):
            payload[name] = asdict(value)
        else:
            payload[name] = repr(value)
    # Only fingerprint a regime schedule when one is present, so the digests
    # of every pre-existing (stationary) content model stay unchanged.
    regimes = getattr(content_model, "regimes", None)
    if regimes is not None:
        if is_dataclass(regimes) and not isinstance(regimes, type):
            payload["regimes"] = asdict(regimes)
        else:
            payload["regimes"] = repr(regimes)
    return payload


def _digest_array(array: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(array).tobytes(), digest_size=10
    ).hexdigest()


# --------------------------------------------------------------------- #
# Pipeline definition
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StageSpec:
    """One named stage: what it consumes, what it produces, how it reports.

    Attributes:
        name: pipeline-level stage name.
        report_step: Table-3 step of :class:`OfflinePhaseReport` the stage's
            runtime is accounted to (two stages may share one step).
        inputs: context keys the stage reads (produced by earlier stages).
        outputs: context keys the stage writes.
        cacheable: whether the stage's output may persist in the stage cache
            (hardware-dependent stages re-derive instead).
        upstream: names of the stages whose digests chain into this stage's
            cache key.
    """

    name: str
    report_step: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    cacheable: bool
    upstream: Tuple[str, ...] = ()


OFFLINE_STAGES: Tuple[StageSpec, ...] = (
    StageSpec(
        name="sample_segments",
        report_step="filter_knob_configurations",
        inputs=(),
        outputs=("cheapest", "best", "search_segments"),
        cacheable=True,
    ),
    StageSpec(
        name="filter_configurations",
        report_step="filter_knob_configurations",
        inputs=("cheapest", "best", "search_segments"),
        outputs=("configurations", "mean_quality"),
        cacheable=True,
        upstream=("sample_segments",),
    ),
    StageSpec(
        name="profile_placements",
        report_step="filter_task_placements",
        inputs=("configurations", "mean_quality"),
        outputs=("profiles",),
        cacheable=False,  # depends on the provisioned hardware; re-derived
    ),
    StageSpec(
        name="content_categories",
        report_step="compute_content_categories",
        inputs=("profiles",),
        outputs=("quality_vectors", "categorizer"),
        cacheable=True,
        upstream=("filter_configurations",),
    ),
    StageSpec(
        name="label_history",
        report_step="create_forecast_training_data",
        inputs=("profiles", "categorizer"),
        outputs=("label_qualities", "labels"),
        cacheable=True,
        upstream=("filter_configurations",),
    ),
    StageSpec(
        name="train_forecaster",
        report_step="train_forecast_model",
        inputs=("labels", "categorizer"),
        outputs=("initial_forecast", "forecaster", "forecast_validation_mae"),
        cacheable=True,
        upstream=("label_history",),
    ),
)

_STAGE_ORDINALS = {spec.name: ordinal for ordinal, spec in enumerate(OFFLINE_STAGES)}


@dataclass(frozen=True)
class OfflineFitParams:
    """The sampling and training knobs of the offline phase (``fit``'s kwargs)."""

    unlabeled_days: float = 14.0
    labeled_minutes: float = 20.0
    n_search_segments: int = 5
    n_presample_segments: int = 200
    n_category_samples: int = 300
    forecast_label_period_seconds: float = 60.0
    forecast_input_days: float = 2.0
    max_configurations: Optional[int] = 8
    train_forecaster: bool = True


@dataclass
class OfflineFitResult:
    """Everything the offline pipeline learned, ready to install on a Skyscraper."""

    profiles: ProfileSet
    categorizer: ContentCategorizer
    forecaster: Optional[ContentForecaster]
    labels: List[int]
    report: OfflinePhaseReport


def profile_configurations(
    workload: VETLWorkload,
    configurations: Sequence[KnobConfiguration],
    cores: int,
    cloud: Optional[CloudSpec] = None,
    mean_qualities: Optional[Dict[KnobConfiguration, float]] = None,
    categorizer: Optional[ContentCategorizer] = None,
) -> ProfileSet:
    """The ``profile_placements`` stage as a standalone step.

    ``Skyscraper.with_resources`` calls this when it re-provisions onto
    other hardware, to re-measure the hardware-dependent placement profiles
    while sharing the video-dependent artifacts; with a fitted
    ``categorizer`` the per-category qualities are attached in the same pass.
    """
    profiles = build_profiles(
        workload, configurations, cores=cores, cloud=cloud, mean_qualities=mean_qualities
    )
    if categorizer is not None:
        profiles.set_category_qualities(categorizer.centers.T)
    return profiles


class OfflinePipeline:
    """The offline learning phase as an explicit, resumable stage graph.

    Args:
        workload: the user's V-ETL job.
        source: video source providing the unlabeled history.
        cores: on-premise cores of the provisioned machine (placement stage).
        cloud: cloud specification for placement profiling.
        n_categories: requested number of content categories.
        forecaster_splits: number of input histograms of the forecaster.
        planned_interval_seconds: the planner period the forecaster predicts.
        seed: base seed; stage ``k`` samples from ``default_rng((seed, k))``.
        params: the sampling/training knobs (see :class:`OfflineFitParams`).
        evaluation_cache: optional shared :class:`EvaluationCache` (e.g. to
            reuse evaluations across repeated fits).
        stage_cache_dir: optional directory for persistent per-stage
            artifacts (see :class:`StageCache`).
    """

    stages: Tuple[StageSpec, ...] = OFFLINE_STAGES

    def __init__(
        self,
        workload: VETLWorkload,
        source: SyntheticVideoSource,
        cores: int,
        cloud: Optional[CloudSpec] = None,
        n_categories: int = 4,
        forecaster_splits: int = 8,
        planned_interval_seconds: float = 2 * SECONDS_PER_DAY,
        seed: int = 0,
        params: Optional[OfflineFitParams] = None,
        evaluation_cache: Optional[EvaluationCache] = None,
        stage_cache_dir: Optional[Union[str, Path]] = None,
    ):
        """Assemble a pipeline run; see ``Skyscraper.fit`` for the knobs."""
        self.workload = workload
        self.source = source
        self.cores = cores
        self.cloud = cloud
        self.n_categories = n_categories
        self.forecaster_splits = forecaster_splits
        self.planned_interval_seconds = planned_interval_seconds
        self.seed = seed
        self.params = params or OfflineFitParams()
        # `if ... is None` rather than `or`: an empty shared cache is falsy.
        self.evaluations = (
            evaluation_cache if evaluation_cache is not None else EvaluationCache(workload)
        )
        self.evaluations.bind(workload, _digest_payload(self._source_payload()))
        self.stage_cache = (
            StageCache(stage_cache_dir) if stage_cache_dir is not None else None
        )
        self.context: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def unlabeled_end(self) -> float:
        """End of the recorded history window in seconds."""
        return self.params.unlabeled_days * SECONDS_PER_DAY

    @property
    def total_history_segments(self) -> int:
        """Number of segments in the recorded history window."""
        return max(int(self.unlabeled_end / self.source.segment_seconds), 1)

    def _stage_rng(self, stage: str) -> np.random.Generator:
        return np.random.default_rng((self.seed, _STAGE_ORDINALS[stage]))

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self) -> OfflineFitResult:
        """Run (or resume) every stage and assemble the fit result."""
        report = OfflinePhaseReport()
        context = self.context = {}
        digests: Dict[str, str] = {}
        hits_before = self.evaluations.hits
        misses_before = self.evaluations.misses
        for spec in self.stages:
            started = time.perf_counter()
            hit = False
            digest: Optional[str] = None
            if self.stage_cache is not None and spec.cacheable:
                key_params = self._stage_key_params(spec, context)
                if key_params is not None:
                    digest = self._stage_digest(spec, key_params, digests)
                    digests[spec.name] = digest
                    cached = self.stage_cache.get(spec.name, digest)
                    if cached is not None:
                        self._load_stage(spec, context, *cached)
                        hit = True
            if not hit:
                self._run_stage(spec, context)
                if digest is not None:
                    document, arrays = self._dump_stage(spec, context)
                    self.stage_cache.put(spec.name, digest, document, arrays)
            missing = [key for key in spec.outputs if key not in context]
            if missing:
                raise ConfigurationError(
                    f"stage {spec.name!r} did not produce outputs {missing}"
                )
            elapsed = time.perf_counter() - started
            report.stage_runtimes_seconds[spec.name] = elapsed
            report.stage_cache_hits[spec.name] = hit
            report.step_runtimes_seconds[spec.report_step] = (
                report.step_runtimes_seconds.get(spec.report_step, 0.0) + elapsed
            )

        report.kept_configurations = list(context["configurations"])
        report.mean_qualities = dict(context["mean_quality"])
        report.n_placements = sum(
            len(profile.placements) for profile in context["profiles"]
        )
        report.n_categories = context["categorizer"].actual_categories
        report.initial_forecast = context["initial_forecast"]
        report.forecast_validation_mae = context["forecast_validation_mae"]
        report.evaluation_cache_hits = self.evaluations.hits - hits_before
        report.evaluation_cache_misses = self.evaluations.misses - misses_before
        return OfflineFitResult(
            profiles=context["profiles"],
            categorizer=context["categorizer"],
            forecaster=context["forecaster"],
            labels=list(context["labels"]),
            report=report,
        )

    def _run_stage(self, spec: StageSpec, context: Dict[str, Any]) -> None:
        getattr(self, f"_run_{spec.name}")(context)

    # ------------------------------------------------------------------ #
    # Cache keys
    # ------------------------------------------------------------------ #
    def _source_payload(self) -> Dict[str, Any]:
        """Identity of the video stream the evaluations run against."""
        source_config = getattr(self.source, "config", None)
        content_model = getattr(self.source, "content_model", None)
        return {
            "stream": asdict(source_config) if is_dataclass(source_config) else None,
            "content": _content_payload(content_model),
        }

    def _base_payload(self) -> Dict[str, Any]:
        """Identity of the (workload, stream, seed) the artifacts derive from."""
        return {
            "format_version": STAGE_CACHE_FORMAT_VERSION,
            "workload": self.workload.name,
            "workload_seed": getattr(self.workload, "seed", None),
            "source": self._source_payload(),
            "seed": self.seed,
        }

    def _stage_key_params(
        self, spec: StageSpec, context: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """The stage's own key material; ``None`` marks the stage uncacheable now."""
        params = self.params
        if spec.name == "sample_segments":
            return {
                "unlabeled_days": params.unlabeled_days,
                "labeled_minutes": params.labeled_minutes,
                "n_search_segments": params.n_search_segments,
                "n_presample_segments": params.n_presample_segments,
            }
        if spec.name == "filter_configurations":
            return {"max_configurations": params.max_configurations}
        if spec.name == "content_categories":
            # Deliberately independent of n_categories: the persisted
            # artifact is the sampled quality vectors, and the (cheap)
            # clustering re-runs on load — so sweeping the category count
            # never re-evaluates the history.
            return {
                "n_category_samples": params.n_category_samples,
                "unlabeled_days": params.unlabeled_days,
            }
        if spec.name == "label_history":
            # The quality series only depends on the cheapest configuration
            # and the labeling window; classification re-runs on load, so
            # category changes reuse the expensive evaluations (Table 3's
            # dominant 83% step).
            cheapest = context["profiles"].cheapest().configuration
            return {
                "unlabeled_days": params.unlabeled_days,
                "forecast_label_period_seconds": params.forecast_label_period_seconds,
                "cheapest": cheapest.as_dict(),
            }
        if spec.name == "train_forecaster":
            if not params.train_forecaster:
                return None  # nothing expensive to persist
            return {
                "labels": _digest_array(np.asarray(context["labels"], dtype=np.int64)),
                "centers": _digest_array(context["categorizer"].centers),
                "forecaster_splits": self.forecaster_splits,
                "planned_interval_seconds": self.planned_interval_seconds,
                "forecast_input_days": params.forecast_input_days,
                "forecast_label_period_seconds": params.forecast_label_period_seconds,
            }
        return None

    def _stage_digest(
        self, spec: StageSpec, key_params: Dict[str, Any], digests: Dict[str, str]
    ) -> str:
        payload = {
            "base": self._base_payload(),
            "stage": spec.name,
            "params": key_params,
            "upstream": {name: digests[name] for name in spec.upstream if name in digests},
        }
        return _digest_payload(payload)

    # ------------------------------------------------------------------ #
    # Stage: sample_segments
    # ------------------------------------------------------------------ #
    def _run_sample_segments(self, context: Dict[str, Any]) -> None:
        params = self.params
        rng = self._stage_rng("sample_segments")
        # Only the first five labeled segments score the extreme configurations.
        labeled_indices = self.source.window_indices(0.0, params.labeled_minutes * 60.0)
        labeled_segments = _gather_segments(self.source, labeled_indices[:5])
        total = self.total_history_segments
        # Sample without replacement so the candidate pool really has
        # n_presample_segments distinct segments (sampling with replacement
        # and deduplicating silently shrank the pool).
        size = min(params.n_presample_segments, total)
        candidate_indices = np.sort(rng.choice(total, size=size, replace=False))
        candidates = _gather_segments(self.source, candidate_indices)
        cheapest, best = find_extreme_configurations(
            self.workload, labeled_segments, evaluator=self.evaluations
        )
        search_segments = sample_diverse_segments(
            self.workload,
            candidates,
            n_search=params.n_search_segments,
            cheapest=cheapest,
            best=best,
            seed=self.seed,
            evaluator=self.evaluations,
        )
        context["candidate_indices"] = [int(index) for index in candidate_indices]
        context["cheapest"] = cheapest
        context["best"] = best
        context["search_segments"] = search_segments

    def _dump_sample_segments(
        self, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        document = {
            "search_indices": [
                segment.segment_index for segment in context["search_segments"]
            ],
            "cheapest": context["cheapest"].as_dict(),
            "best": context["best"].as_dict(),
        }
        return document, {}

    def _load_sample_segments(
        self,
        context: Dict[str, Any],
        document: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        context["cheapest"] = KnobConfiguration.from_dict(document["cheapest"])
        context["best"] = KnobConfiguration.from_dict(document["best"])
        context["search_segments"] = _gather_segments(
            self.source, document["search_indices"]
        )

    # ------------------------------------------------------------------ #
    # Stage: filter_configurations
    # ------------------------------------------------------------------ #
    def _run_filter_configurations(self, context: Dict[str, Any]) -> None:
        configurations, mean_quality = filter_knob_configurations(
            self.workload,
            context["search_segments"],
            max_configurations=self.params.max_configurations,
            evaluator=self.evaluations,
        )
        context["configurations"] = configurations
        context["mean_quality"] = mean_quality

    def _dump_filter_configurations(
        self, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        document = {
            "configurations": [
                configuration.as_dict() for configuration in context["configurations"]
            ],
            "mean_quality": [
                {"configuration": configuration.as_dict(), "quality": quality}
                for configuration, quality in context["mean_quality"].items()
            ],
        }
        return document, {}

    def _load_filter_configurations(
        self,
        context: Dict[str, Any],
        document: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        context["configurations"] = [
            KnobConfiguration.from_dict(values) for values in document["configurations"]
        ]
        context["mean_quality"] = {
            KnobConfiguration.from_dict(entry["configuration"]): float(entry["quality"])
            for entry in document["mean_quality"]
        }

    # ------------------------------------------------------------------ #
    # Stage: profile_placements (hardware dependent; never persisted)
    # ------------------------------------------------------------------ #
    def _run_profile_placements(self, context: Dict[str, Any]) -> None:
        context["profiles"] = build_profiles(
            self.workload,
            context["configurations"],
            cores=self.cores,
            cloud=self.cloud,
            mean_qualities=context["mean_quality"],
        )

    # ------------------------------------------------------------------ #
    # Stage: content_categories
    # ------------------------------------------------------------------ #
    def _run_content_categories(self, context: Dict[str, Any]) -> None:
        params = self.params
        rng = self._stage_rng("content_categories")
        sample_indices = rng.integers(
            0, self.total_history_segments, size=params.n_category_samples
        )
        segments = _gather_segments(self.source, sample_indices)
        profiles: ProfileSet = context["profiles"]
        # Configuration-major, so each configuration reaches the workload's
        # evaluate_config_batch as one run over every sampled segment.
        pairs = [
            (profile.configuration, segment)
            for profile in profiles
            for segment in segments
        ]
        outcomes = self.evaluations.evaluate_many(pairs)
        qualities = np.array(
            [outcome.reported_quality for outcome in outcomes], dtype=float
        ).reshape(len(profiles), len(segments))
        # One row per segment, C-contiguous like the segment-major build.
        context["quality_vectors"] = np.ascontiguousarray(qualities.T)
        self._fit_categorizer(context)

    def _fit_categorizer(self, context: Dict[str, Any]) -> None:
        categorizer = ContentCategorizer(n_categories=self.n_categories, seed=self.seed)
        categorizer.fit(context["quality_vectors"])
        context["categorizer"] = categorizer
        context["profiles"].set_category_qualities(categorizer.centers.T)

    def _dump_content_categories(
        self, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        return {}, {"quality_vectors": context["quality_vectors"]}

    def _load_content_categories(
        self,
        context: Dict[str, Any],
        document: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        context["quality_vectors"] = arrays["quality_vectors"]
        self._fit_categorizer(context)

    # ------------------------------------------------------------------ #
    # Stage: label_history
    # ------------------------------------------------------------------ #
    def _run_label_history(self, context: Dict[str, Any]) -> None:
        params = self.params
        profiles: ProfileSet = context["profiles"]
        cheapest_profile = profiles.cheapest()
        context["label_qualities"] = label_quality_series(
            self.workload,
            self.source,
            cheapest_profile.configuration,
            start_time=0.0,
            end_time=self.unlabeled_end,
            period_seconds=params.forecast_label_period_seconds,
            evaluator=self.evaluations,
        )
        self._classify_labels(context)

    def _classify_labels(self, context: Dict[str, Any]) -> None:
        profiles: ProfileSet = context["profiles"]
        categorizer: ContentCategorizer = context["categorizer"]
        cheapest_index = profiles.index_of(profiles.cheapest().configuration)
        context["labels"] = categorizer.classify_partial_many(
            cheapest_index, context["label_qualities"]
        ).tolist()

    def _dump_label_history(
        self, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        return {}, {"label_qualities": np.asarray(context["label_qualities"], dtype=float)}

    def _load_label_history(
        self,
        context: Dict[str, Any],
        document: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        context["label_qualities"] = arrays["label_qualities"]
        self._classify_labels(context)

    # ------------------------------------------------------------------ #
    # Stage: train_forecaster
    # ------------------------------------------------------------------ #
    def _run_train_forecaster(self, context: Dict[str, Any]) -> None:
        params = self.params
        categorizer: ContentCategorizer = context["categorizer"]
        labels: List[int] = context["labels"]
        context["initial_forecast"] = categorizer.category_histogram(labels)
        context["forecaster"] = None
        context["forecast_validation_mae"] = float("nan")
        if not params.train_forecaster:
            return
        dataset = ForecastDataset.from_labels(
            labels=labels,
            n_categories=categorizer.actual_categories,
            label_period_seconds=params.forecast_label_period_seconds,
            input_seconds=params.forecast_input_days * SECONDS_PER_DAY,
            output_seconds=self.planned_interval_seconds,
            n_splits=self.forecaster_splits,
        )
        train_set, validation_set = dataset.split(0.8)
        forecaster = ContentForecaster(
            n_categories=categorizer.actual_categories,
            n_splits=self.forecaster_splits,
        )
        forecaster.fit(train_set)
        context["forecaster"] = forecaster
        context["forecast_validation_mae"] = forecaster.evaluate_mae(validation_set)

    def _dump_train_forecaster(
        self, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        forecaster: Optional[ContentForecaster] = context["forecaster"]
        mae = context["forecast_validation_mae"]
        document: Dict[str, Any] = {
            "mae": None if np.isnan(mae) else float(mae),
            "forecaster": None,
        }
        arrays: Dict[str, np.ndarray] = {}
        if forecaster is not None:
            parameters = forecaster.get_parameters()
            document["forecaster"] = {
                "n_categories": forecaster.n_categories,
                "n_splits": forecaster.n_splits,
                "input_seconds": forecaster.input_seconds,
                "n_parameters": len(parameters),
            }
            for index, parameter in enumerate(parameters):
                arrays[f"parameter_{index}"] = parameter
        return document, arrays

    def _load_train_forecaster(
        self,
        context: Dict[str, Any],
        document: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        categorizer: ContentCategorizer = context["categorizer"]
        context["initial_forecast"] = categorizer.category_histogram(context["labels"])
        context["forecaster"] = None
        mae = document.get("mae")
        context["forecast_validation_mae"] = float("nan") if mae is None else float(mae)
        serialized = document.get("forecaster")
        if serialized is not None:
            forecaster = ContentForecaster(
                n_categories=int(serialized["n_categories"]),
                n_splits=int(serialized["n_splits"]),
            )
            forecaster.restore_parameters(
                [
                    arrays[f"parameter_{index}"]
                    for index in range(int(serialized["n_parameters"]))
                ],
                float(serialized["input_seconds"]),
            )
            context["forecaster"] = forecaster

    # ------------------------------------------------------------------ #
    # Persistence dispatch
    # ------------------------------------------------------------------ #
    def _dump_stage(
        self, spec: StageSpec, context: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        return getattr(self, f"_dump_{spec.name}")(context)

    def _load_stage(
        self,
        spec: StageSpec,
        context: Dict[str, Any],
        document: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        getattr(self, f"_load_{spec.name}")(context, document, arrays)


# --------------------------------------------------------------------- #
# History reads and labeling (shared with Skyscraper._label_history)
# --------------------------------------------------------------------- #
def _gather_segments(source: SyntheticVideoSource, indices) -> List[VideoSegment]:
    """``source.segment_at`` for every index, from one columnar content pass.

    Row ``i`` equals ``segment_at(indices[i])`` bit for bit, for unsorted and
    repeated indices too (``ContentModel.states_at`` is row-independent).
    """
    columns = source.segment_index_columns(indices)
    return [columns.segment(position) for position in range(len(columns))]


def _label_grid(
    source: SyntheticVideoSource,
    start_time: float,
    end_time: float,
    period_seconds: float,
) -> np.ndarray:
    """Segment index of every label of :func:`label_segments`, in label order."""
    if period_seconds <= 0:
        raise ConfigurationError("period_seconds must be positive")
    # One slot past the rounded count, so a grid point that the division
    # rounds away is still considered; the mask keeps the half-open window.
    count = max(int(np.ceil((end_time - start_time) / period_seconds)) + 1, 0)
    stamps = start_time + np.arange(count) * period_seconds
    stamps = stamps[stamps < end_time]
    return (stamps / source.segment_seconds).astype(np.int64)


def label_segments(
    source: SyntheticVideoSource,
    start_time: float,
    end_time: float,
    period_seconds: float,
) -> List[VideoSegment]:
    """The segments read every ``period_seconds`` over ``[start_time, end_time)``.

    Label ``k`` reads the segment containing ``start_time + k * period_seconds``.
    The grid is computed, not accumulated, so it does not drift, and the
    window is half-open like ``ContentModel.states``: a time that rounds to
    ``end_time`` is not read.  An empty window (``end_time <= start_time``)
    reads nothing.
    """
    return _gather_segments(source, _label_grid(source, start_time, end_time, period_seconds))


def label_quality_series(
    workload: VETLWorkload,
    source: SyntheticVideoSource,
    configuration: KnobConfiguration,
    start_time: float,
    end_time: float,
    period_seconds: float,
    evaluator: Optional[EvaluationCache] = None,
) -> np.ndarray:
    """Reported quality of ``configuration`` on each of :func:`label_segments`.

    This is the expensive half of Appendix H's history labeling (83% of the
    paper's 1.6 h offline phase): one evaluation per label over the whole
    window.  The labels' segments are gathered as one column batch and
    scored as columns, through ``evaluator.evaluate_columns`` when there is
    a shared cache and ``workload.evaluate_columns`` otherwise, so no
    segment object is built per label unless the workload's own hook builds
    one.  Each value equals the scalar ``evaluate`` of that label's segment.
    An empty window (``end_time <= start_time``) yields an empty series.
    """
    columns = source.segment_index_columns(
        _label_grid(source, start_time, end_time, period_seconds)
    )
    if evaluator is not None:
        outcomes = evaluator.evaluate_columns(configuration, columns)
    else:
        outcomes = workload.evaluate_columns(configuration, columns)
    return np.array([outcome.reported_quality for outcome in outcomes], dtype=float)
