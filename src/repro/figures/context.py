"""Shared execution context for figure specs.

Figure specs never prepare workload bundles themselves — they ask the
:class:`FigureContext` for one.  The context's :class:`BundleProvider` layers
two caches so figures sharing an offline phase pay for it once:

* an in-process memo: within one suite process, each distinct
  ``(workload, config)`` fits exactly once no matter how many specs ask;
* the per-stage :class:`~repro.core.offline.StageCache` on disk
  (``cache_dir``): across processes and across suite runs, a fit resumes
  from every hardware-independent stage artifact that is still valid — a
  category sweep (``fig20``) skips the dominant history-labeling work of its
  sibling bundles, and a second suite run re-fits from a fully warm cache.

The provider counts fits, memo hits, per-stage cache hits and deduplicated
evaluations; the suite snapshots these counters around
every spec so each figure artifact records the cache behaviour it caused.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.offline import OfflinePhaseReport
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    SystemBundle,
    prepare_bundle,
)
from repro.workloads.base import WorkloadSetup
from repro.workloads.covid import make_covid_setup
from repro.workloads.ev import make_ev_setup
from repro.workloads.mosei import make_mosei_setup
from repro.workloads.mot import make_mot_setup
from repro.workloads.regime import make_regime_setup

#: The evaluation workloads specs may request, by registry-style name
#: ("ev-regime" is the regime-switching drift workload of the
#: ``regime_shift`` figure, not part of the paper's five-workload
#: evaluation sweep).
WORKLOAD_NAMES = ("covid", "mot", "mosei-high", "mosei-long", "ev", "ev-regime")

#: Window sizes per mode: full mode matches the legacy benchmark scale
#: (12 h of history, ~1.2 h online); smoke mode is sized for CI.
FULL_HISTORY_DAYS = 0.5
FULL_ONLINE_DAYS = 0.05
SMOKE_HISTORY_DAYS = 0.25
SMOKE_ONLINE_DAYS = 0.01


def make_setup(
    workload_name: str, history_days: float, online_days: float
) -> WorkloadSetup:
    """A workload setup by name (the five evaluation workloads)."""
    if workload_name == "covid":
        return make_covid_setup(history_days=history_days, online_days=online_days)
    if workload_name == "mot":
        return make_mot_setup(history_days=history_days, online_days=online_days)
    if workload_name == "mosei-high":
        return make_mosei_setup(
            variant="high", history_days=history_days, online_days=online_days
        )
    if workload_name == "mosei-long":
        return make_mosei_setup(
            variant="long", history_days=history_days, online_days=online_days
        )
    if workload_name == "ev":
        return make_ev_setup(history_days=history_days, online_days=online_days)
    if workload_name == "ev-regime":
        return make_regime_setup(history_days=history_days, online_days=online_days)
    raise ConfigurationError(
        f"unknown workload {workload_name!r}; expected one of {WORKLOAD_NAMES}"
    )


@dataclass
class CacheCounters:
    """Cumulative cache accounting of a :class:`BundleProvider`.

    ``stage_hits`` counts offline-pipeline stages restored from the on-disk
    stage cache; ``evaluation_hits`` counts deduplicated
    ``workload.evaluate`` calls within fits.
    """

    fits: int = 0
    memo_hits: int = 0
    stage_hits: int = 0
    evaluation_hits: int = 0

    def snapshot(self) -> "CacheCounters":
        """An immutable copy, for before/after deltas around one spec."""
        return replace(self)

    def delta(self, before: "CacheCounters") -> Dict[str, int]:
        """Counter increments since ``before``, as a plain dict."""
        return {
            "fits": self.fits - before.fits,
            "memo_hits": self.memo_hits - before.memo_hits,
            "stage_hits": self.stage_hits - before.stage_hits,
            "evaluation_hits": self.evaluation_hits - before.evaluation_hits,
        }

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (artifact ``meta.cache`` layout)."""
        return {
            "fits": self.fits,
            "memo_hits": self.memo_hits,
            "stage_hits": self.stage_hits,
            "evaluation_hits": self.evaluation_hits,
        }


class BundleProvider:
    """Prepares and memoizes fitted workload bundles for figure specs."""

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        smoke: bool = False,
    ):
        """Args:
        cache_dir: on-disk cache root shared across processes and runs
            (``None`` disables disk caching entirely).
        smoke: size windows for CI instead of the benchmark scale.
        """
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.smoke = bool(smoke)
        self.counters = CacheCounters()
        self._bundles: Dict[Tuple[Any, ...], SystemBundle] = {}

    @property
    def history_days(self) -> float:
        """Default history window of this provider's mode."""
        return SMOKE_HISTORY_DAYS if self.smoke else FULL_HISTORY_DAYS

    @property
    def online_days(self) -> float:
        """Default online window of this provider's mode."""
        return SMOKE_ONLINE_DAYS if self.smoke else FULL_ONLINE_DAYS

    def config(
        self,
        history_days: Optional[float] = None,
        online_days: Optional[float] = None,
        n_categories: int = 4,
        train_forecaster: bool = False,
    ) -> ExperimentConfig:
        """The suite's standard experiment config, scaled to the mode."""
        return ExperimentConfig(
            history_days=self.history_days if history_days is None else history_days,
            online_days=self.online_days if online_days is None else online_days,
            cloud_budget_per_day=2.0,
            max_configurations=6,
            n_categories=n_categories,
            train_forecaster=train_forecaster,
        )

    def bundle(
        self,
        workload_name: str,
        online_days: Optional[float] = None,
        history_days: Optional[float] = None,
        n_categories: int = 4,
        train_forecaster: bool = False,
    ) -> SystemBundle:
        """A fitted bundle: memoized in process, fitted through the stage cache."""
        config = self.config(
            history_days=history_days,
            online_days=online_days,
            n_categories=n_categories,
            train_forecaster=train_forecaster,
        )
        key = (
            workload_name,
            config.history_days,
            config.online_days,
            config.n_categories,
            config.train_forecaster,
        )
        cached = self._bundles.get(key)
        if cached is not None:
            self.counters.memo_hits += 1
            return cached
        setup = make_setup(workload_name, config.history_days, config.online_days)
        bundle = self.fit(setup, config)
        self._bundles[key] = bundle
        return bundle

    def fit(self, setup: WorkloadSetup, config: ExperimentConfig) -> SystemBundle:
        """Fit ``setup`` under ``config`` through the stage cache, and count it.

        Not memoized: :meth:`bundle` memoizes the named workloads, and a
        figure with its own setup calls this directly so its fit still shows
        in the counters.
        """
        bundle = prepare_bundle(setup, config, cache_dir=self.cache_dir)
        self.count_fit(bundle.offline_report)
        return bundle

    def count_fit(self, report: OfflinePhaseReport) -> None:
        """Add one fit's report to the counters.

        A figure that calls ``Skyscraper.fit`` itself, outside the stage
        cache, passes its report here so the fit shows in its cache column.
        """
        self.counters.fits += 1
        self.counters.stage_hits += sum(1 for hit in report.stage_cache_hits.values() if hit)
        self.counters.evaluation_hits += report.evaluation_cache_hits


@dataclass
class FigureContext:
    """What a figure spec's runner receives: mode, bundles, scaling helpers."""

    provider: BundleProvider
    mode: str = "full"
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def smoke(self) -> bool:
        """True when the suite runs in CI-sized smoke mode."""
        return self.mode == "smoke"

    @property
    def history_days(self) -> float:
        """Default history window (specs use it to bound sampling ranges)."""
        return self.provider.history_days

    @property
    def online_days(self) -> float:
        """Default online window of the mode."""
        return self.provider.online_days

    def scale(self, full: Any, smoke: Any) -> Any:
        """``full`` in full mode, ``smoke`` in smoke mode — the one-line
        idiom specs use to shrink sweep axes and sample counts for CI."""
        return smoke if self.smoke else full

    def bundle(self, workload_name: str, **overrides) -> SystemBundle:
        """A fitted bundle for ``workload_name`` (see ``BundleProvider.bundle``)."""
        return self.provider.bundle(workload_name, **overrides)

    def runner(self, workload_name: str, **overrides) -> ExperimentRunner:
        """An :class:`ExperimentRunner` over the memoized bundle."""
        return ExperimentRunner(self.bundle(workload_name, **overrides))
