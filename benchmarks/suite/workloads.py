"""The four benchmark workloads: what one op runs, and how its outputs are checked.

Every workload uses the EV-counting job.  A workload builds its state once
per set-up (``setup``), runs one op on it (``op``), raises
:class:`OutputError` when an op's outputs break an invariant (``check``),
and condenses the outputs into a comparable digest (``digest``, ``sim``).

The fitted system is the same in every run: EV content seed
:data:`FIT_CONTENT_SEED`, offline-fit seed :data:`FIT_SEED`.  Which knob
configurations a fit keeps depends on its inputs, and the placement
profiling cost with it (1,351 to 2,859 placements over seeds 0-20), so a
seed-dependent fit would make the work of a set-up and of an op differ
from seed to seed.  The benchmark seed instead generates the video the
fleet ingests: every camera gets its own content seed derived from it.

Digests hold integer counts (compared exactly), aggregate floats (compared
with a relative tolerance of 1e-9) and a hash over per-stream rows whose
floats are rounded to ten significant digits.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from benchmarks.suite.layers import ENGINE_SITES, SERVICE_SITES, Site, Tracer

from repro.core.fleet import FleetResult
from repro.core.offline import EvaluationCache, OfflinePhaseReport
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    SystemBundle,
    prepare_bundle,
)
from repro.service.jobs import IngestionJob
from repro.service.service import FleetIngestionService, ServiceConfig, ServiceReport
from repro.video.stream import SyntheticVideoSource
from repro.workloads.base import WorkloadSetup
from repro.workloads.ev import make_ev_setup
from repro.workloads.fleet import FleetScenario, make_fleet_scenario

SECONDS_PER_DAY = 86_400.0
#: Relative tolerance of every float comparison between op outputs.
FLOAT_RTOL = 1e-9
#: History of the fitted bundle the fleet and service workloads run on.
BUNDLE_HISTORY_DAYS = 0.5
BUFFER_BYTES = 256_000_000
CLOUD_BUDGET_PER_DAY = 2.0
#: Total simulated on-premise cores of every fleet, sharded or not.
TOTAL_CORES = 8
PHASE_SHIFT_SECONDS = 3_600.0
FIT_CONTENT_SEED = 3
FIT_SEED = 0
#: Video seed of a run without ``--seed``: camera 0 is then the very camera
#: the system was fitted on.
DEFAULT_SEED = FIT_CONTENT_SEED


class OutputError(Exception):
    """An op's outputs are wrong."""


def _round(value: float) -> float:
    return float(f"{value:.10g}")


def _digest(ints: Dict[str, int], floats: Dict[str, float], rows: List[Any]) -> Dict[str, Any]:
    encoded = json.dumps(rows, sort_keys=True).encode()
    return {
        "ints": {key: int(value) for key, value in ints.items()},
        "floats": {key: float(value) for key, value in floats.items()},
        "rows": hashlib.blake2b(encoded, digest_size=12).hexdigest(),
    }


def compare_outputs(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Every difference between two digests (or two ``sim`` dicts); empty if equal."""
    problems: List[str] = []
    for section in ("ints", "rows"):
        if expected.get(section) != actual.get(section):
            problems.append(f"{section}: expected {expected.get(section)} got {actual.get(section)}")
    expected_floats = expected.get("floats", {})
    actual_floats = actual.get("floats", {})
    if set(expected_floats) != set(actual_floats):
        problems.append(f"float keys differ: {sorted(expected_floats)} vs {sorted(actual_floats)}")
    for key in sorted(set(expected_floats) & set(actual_floats)):
        want, got = expected_floats[key], actual_floats[key]
        if not math.isclose(want, got, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            problems.append(f"{key}: expected {want!r} got {got!r}")
    return problems


def lag_percentile(lags: List[float], fraction: float) -> float:
    """The service report's percentile rule, applied to any lag sample."""
    if not lags:
        return 0.0
    ordered = sorted(lags)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


def _fleet_bundle(online_days: float) -> SystemBundle:
    setup = make_ev_setup(
        history_days=BUNDLE_HISTORY_DAYS, online_days=online_days, seed=FIT_CONTENT_SEED
    )
    config = ExperimentConfig(
        history_days=BUNDLE_HISTORY_DAYS,
        online_days=online_days,
        buffer_bytes=BUFFER_BYTES,
        cloud_budget_per_day=CLOUD_BUDGET_PER_DAY,
        seed=FIT_SEED,
    )
    return prepare_bundle(setup, config)


def _fleet_scenario(bundle: SystemBundle, n_streams: int, seed: int) -> FleetScenario:
    """``n_streams`` phase-shifted cameras with content seeds ``seed``, ``seed + 1``, ..."""
    fitted = bundle.setup
    video = WorkloadSetup(
        workload=fitted.workload,
        source=SyntheticVideoSource(
            fitted.source.content_model.with_seed(seed),
            fitted.source.config,
            size_model=fitted.source.size_model,
        ),
        history_days=fitted.history_days,
        online_days=fitted.online_days,
    )
    return make_fleet_scenario(
        video, n_streams, phase_shift_seconds=PHASE_SHIFT_SECONDS, heterogeneous=True
    )


class Workload:
    """Interface of a benchmark workload (see the module docstring)."""

    name: str
    sites: Tuple[Site, ...] = ENGINE_SITES
    #: whether ops run in shard processes that record their own spans
    sharded: bool = False
    #: whether the benchmark seed changes this workload's inputs
    seeded: bool = True

    def golden_key(self, seed: int) -> str:
        """Key of the golden digest for a run with ``seed``."""
        return f"seed{seed}" if self.seeded else "fixed"

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def op(self, state: Any, keep_traces: bool) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> None:
        """Raise :class:`OutputError` when ``output`` breaks an invariant."""

    def digest(self, output: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def sim(self, output: Any) -> Dict[str, float]:
        """Simulated outcomes; ops that kept traces report them in full."""
        raise NotImplementedError

    def video_seconds(self) -> float:
        """Seconds of video one op ingests (or fits on)."""
        raise NotImplementedError

    def coverage(self, tracer: Tracer, output: Any, wall: float, shards: List[Dict]) -> float:
        """Share of the traced op's wall time its layers account for."""
        return sum(entry[2] for entry in tracer.totals.values()) / wall


@dataclass
class FleetState:
    """A fitted bundle and the fleet scenario the ops ingest."""

    bundle: SystemBundle
    scenario: FleetScenario


def _fleet_state(online_days: float, n_streams: int, seed: int) -> FleetState:
    bundle = _fleet_bundle(online_days)
    return FleetState(bundle, _fleet_scenario(bundle, n_streams, seed))


# --------------------------------------------------------------------- #
# Fleet runs
# --------------------------------------------------------------------- #
class FleetWorkload(Workload):
    """One ``ExperimentRunner.run_fleet`` over a phase-shifted EV fleet."""

    def __init__(
        self, name: str, system: str, n_streams: int, scheduler: str, online_days: float
    ):
        self.name = name
        self.system = system
        self.n_streams = n_streams
        self.scheduler = scheduler
        self.online_days = online_days

    def setup(self, seed: int) -> FleetState:
        return _fleet_state(self.online_days, self.n_streams, seed)

    def op(self, state: FleetState, keep_traces: bool) -> FleetResult:
        return ExperimentRunner(state.bundle).run_fleet(
            self.system,
            scenario=state.scenario,
            scheduler=self.scheduler,
            cores=TOTAL_CORES,
            keep_traces=keep_traces,
        )

    def digest(self, output: FleetResult) -> Dict[str, Any]:
        rows = [
            [
                stream_id,
                result.segments_total,
                result.segments_dropped,
                result.overflow_count,
                result.switch_count,
                _round(result.total_weighted_quality),
                _round(result.total_true_quality),
                _round(result.cloud_dollars),
                _round(result.total_lag_seconds),
                _round(result.max_lag_seconds),
                sorted(result.configuration_usage.items()),
            ]
            for stream_id, result in sorted(output.stream_results.items())
        ]
        return _digest(
            ints={
                "segments_total": output.segments_total,
                "segments_dropped": output.segments_dropped,
                "switches": sum(result.switch_count for result in output.results),
            },
            floats={
                "weighted_quality": output.weighted_quality,
                "cloud_dollars": output.cloud_dollars,
                "work_core_seconds": output.total_work_core_seconds,
                "mean_lag_s": output.mean_lag_seconds,
                "max_lag_s": output.max_lag_seconds,
            },
            rows=rows,
        )

    def sim(self, output: FleetResult) -> Dict[str, float]:
        lags = [
            trace.start_time - trace.arrival_time
            for result in output.results
            for trace in result.traces
            if not trace.dropped
        ]
        return {
            "sim_quality": output.weighted_quality,
            "sim_cloud_dollars": output.cloud_dollars,
            "sim_p99_lag_s": lag_percentile(lags, 0.99),
            "sim_drop_rate": output.segments_dropped / output.segments_total,
        }

    def video_seconds(self) -> float:
        return self.n_streams * self.online_days * SECONDS_PER_DAY


# --------------------------------------------------------------------- #
# Offline fit
# --------------------------------------------------------------------- #
@dataclass
class OfflineOutput:
    report: OfflinePhaseReport
    skyscraper: Skyscraper


class OfflineFitWorkload(Workload):
    """One cold ``Skyscraper.fit``: serial, fresh evaluation cache, no stage cache."""

    name = "offline_fit_16d"
    #: The fit is the op, and its work depends on its inputs (see the module
    #: docstring), so its inputs stay fixed.
    seeded = False
    history_days = 16.0
    label_period_seconds = 240.0

    def setup(self, seed: int) -> WorkloadSetup:
        setup = make_ev_setup(
            history_days=self.history_days, online_days=0.01, seed=FIT_CONTENT_SEED
        )
        # Record the history: sampling it generates the content process (the
        # per-day burst schedules the content model keeps) that the fit reads.
        setup.source.content_model.states(
            0.0, self.history_days * SECONDS_PER_DAY, self.label_period_seconds
        )
        return setup

    def op(self, state: WorkloadSetup, keep_traces: bool) -> OfflineOutput:
        skyscraper = Skyscraper(
            state.workload,
            SkyscraperResources(
                cores=TOTAL_CORES,
                buffer_bytes=BUFFER_BYTES,
                cloud_budget_per_day=CLOUD_BUDGET_PER_DAY,
            ),
            seed=FIT_SEED,
        )
        report = skyscraper.fit(
            state.source,
            unlabeled_days=self.history_days,
            max_configurations=8,
            train_forecaster=True,
            forecast_input_days=1.0,
            forecast_label_period_seconds=self.label_period_seconds,
            executor=None,
            evaluation_cache=EvaluationCache(state.workload),
        )
        return OfflineOutput(report, skyscraper)

    def digest(self, output: OfflineOutput) -> Dict[str, Any]:
        report = output.report
        skyscraper = output.skyscraper
        rows = [
            [configuration.short_label(), _round(report.mean_qualities[configuration])]
            for configuration in report.kept_configurations
        ]
        rows.append([_round(value) for value in skyscraper.categorizer.centers.ravel()])
        rows.append([_round(value) for value in report.initial_forecast])
        rows.append(
            [
                [
                    profile.configuration.short_label(),
                    _round(placement.runtime_seconds),
                    _round(placement.cloud_dollars),
                ]
                for profile in skyscraper.profiles
                for placement in profile.placements
            ]
        )
        return _digest(
            ints={
                "kept_configurations": len(report.kept_configurations),
                "placements": report.n_placements,
                "categories": report.n_categories,
                "evaluation_hits": report.evaluation_cache_hits,
                "evaluation_misses": report.evaluation_cache_misses,
            },
            floats={"forecast_mae": report.forecast_validation_mae},
            rows=rows,
        )

    def sim(self, output: OfflineOutput) -> Dict[str, float]:
        report = output.report
        return {
            "sim_forecast_mae": report.forecast_validation_mae,
            "sim_mean_quality": sum(report.mean_qualities[c] for c in report.kept_configurations)
            / len(report.kept_configurations),
        }

    def video_seconds(self) -> float:
        return self.history_days * SECONDS_PER_DAY

    def coverage(self, tracer: Tracer, output: OfflineOutput, wall: float, shards) -> float:
        return sum(output.report.stage_runtimes_seconds.values()) / wall


# --------------------------------------------------------------------- #
# Sharded service drain
# --------------------------------------------------------------------- #
@dataclass
class ServiceOutput:
    report: ServiceReport
    jobs: List[IngestionJob]


class ServiceDrainWorkload(Workload):
    """Submit a fleet to ``FleetIngestionService`` and drain it on two shards."""

    name = "service_drain_64x2"
    sites = SERVICE_SITES
    sharded = True
    n_streams = 64
    n_shards = 2
    online_days = 0.002
    #: High enough never to bind: a binding budget makes spend depend on
    #: the order in which the shards charge the shared ledger.
    cloud_budget_per_day = 1000.0

    def setup(self, seed: int) -> FleetState:
        return _fleet_state(self.online_days, self.n_streams, seed)

    def op(self, state: FleetState, keep_traces: bool) -> ServiceOutput:
        service = FleetIngestionService(
            state.bundle,
            ServiceConfig(
                n_shards=self.n_shards,
                system="skyscraper",
                scheduler="fifo",
                cores_per_shard=TOTAL_CORES // self.n_shards,
                buffer_bytes=BUFFER_BYTES,
                cloud_budget_per_day=self.cloud_budget_per_day,
                collect_lags=True,
            ),
        )
        service.submit_fleet(scenario=state.scenario)
        report = service.run()
        return ServiceOutput(report, service.store.list())

    def check(self, output: ServiceOutput) -> None:
        report = output.report
        if report.counts.get("success") != self.n_streams:
            raise OutputError(f"not every job succeeded: {report.counts}")
        if report.crashed_shards:
            raise OutputError(f"shards crashed: {report.crashed_shards}")
        peak_day = max(report.cloud_spend_by_day.values(), default=0.0)
        if peak_day >= self.cloud_budget_per_day / 2:
            raise OutputError(
                f"daily spend {peak_day} approaches the budget; the drain's outputs "
                "would depend on shard interleaving"
            )

    def digest(self, output: ServiceOutput) -> Dict[str, Any]:
        report = output.report
        rows = [
            [
                job.stream_id,
                job.status,
                job.attempts,
                sorted((key, _round(value)) for key, value in job.metrics.items()),
            ]
            for job in sorted(output.jobs, key=lambda job: job.stream_id)
        ]
        return _digest(
            ints={
                "success": report.counts.get("success", 0),
                "dead_letter": report.counts.get("dead_letter", 0),
                "segments_total": report.segments_total,
                "segments_dropped": report.segments_dropped,
            },
            floats={
                # Shards charge the shared ledger in any order; the sum
                # agrees to rounding, hence the tolerance.
                "cloud_total_dollars": report.cloud_total_dollars,
                "p99_lag_s": report.p99_lag_seconds,
            },
            rows=rows,
        )

    def sim(self, output: ServiceOutput) -> Dict[str, float]:
        report = output.report
        weighted = sum(
            job.metrics["quality"] * job.metrics["segments_total"] for job in output.jobs
        )
        return {
            "sim_quality": weighted / report.segments_total,
            "sim_cloud_dollars": report.cloud_total_dollars,
            "sim_p99_lag_s": report.p99_lag_seconds,
            "sim_drop_rate": report.drop_rate,
        }

    def video_seconds(self) -> float:
        return self.n_streams * self.online_days * SECONDS_PER_DAY

    def coverage(self, tracer: Tracer, output: ServiceOutput, wall: float, shards) -> float:
        parent = sum(
            tracer.total(name)
            for name in ("service.submit", "service.spawn", "service.dispatch", "service.ipc")
        )
        return (parent + shard_batch_max(shards)) / wall


def shard_batch_seconds(shards: List[Dict]) -> List[float]:
    """Total batch seconds of every shard process."""
    return [
        shard["totals"].get("service.worker.batch", [0, 0.0, 0.0])[1] for shard in shards
    ]


def shard_batch_max(shards: List[Dict]) -> float:
    return max(shard_batch_seconds(shards), default=0.0)


#: Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        FleetWorkload(
            "fleet_skyscraper_64",
            system="skyscraper",
            n_streams=64,
            scheduler="fifo",
            online_days=0.003,
        ),
        FleetWorkload(
            "fleet_static_lagaware_128",
            system="static",
            n_streams=128,
            scheduler="lag-aware",
            online_days=0.002,
        ),
        OfflineFitWorkload(),
        ServiceDrainWorkload(),
    )
}
