"""Columnar hot-path benchmark: vectorized kernels vs the frozen scalar loop.

Measures the figure-suite-critical kernels side by side with the frozen
pre-vectorization implementations in ``repro.core.reference``:

* ``content_states`` — ``ContentModel.states_at`` over one batch of
  timestamps vs a ``scalar_state_at`` loop, both over warm burst schedules;
* ``burst_schedule`` — cold burst schedules of fresh (seed, day) models:
  the live ``ContentModel._bursts_for_day`` vs ``frozen_bursts_for_day``;
* ``cold_window`` — a service drain's cold content reads: 64 hour-shifted
  EV cameras with their own seeds, each reading a 172.8 s window from half a
  day in, from fresh models: live ``ContentModel.states_at`` vs the frozen
  two-day ``frozen_burst_intensity_at``, with the schedules each side drew;
* ``segment_record`` — ``SyntheticVideoSource.record`` (one columnar pass)
  vs the ``scalar_segments`` generator;
* ``switcher_select`` — the switcher's pruned ``PlacementTable.select``
  vs the frozen switcher's full ``_select_feasible`` scan over the same
  decision stream;
* ``fleet_scaling_32`` — the full fleet simulation at 32 skyscraper
  streams: the vectorized ``FleetEngine.run`` vs ``reference_fleet_run``
  driving scalar segment generation and the frozen switcher;
* ``forecaster_fit`` — the forecaster's training on a dataset shaped like
  the offline benchmark's (937 windows of 8 x 4 histograms): the live
  flat-buffer ``MLP.fit`` vs the per-layer ``frozen_mlp_fit``;
* ``label_history`` — the offline benchmark's history labeling (EV, 16 days
  of 240 s labels, 5,760 rows): the live columnar ``label_quality_series``
  through a fresh ``EvaluationCache`` vs ``frozen_label_quality_series``,
  which scores one ``VideoSegment`` per label.

Each side of a kernel runs :data:`REPEATS` times; repeats alternate which
side runs first and build cold inputs afresh, and a row reports each side's
median and quartiles and ``speedup`` as the ratio of the medians.  Every
repeat checks parity (bit-for-bit for the pure loop-structure changes, a
documented ~1 ulp fp tolerance where numpy transcendentals replaced
``math`` calls), so the benchmark cannot report a speedup for a path that
diverged.  ``--append-trajectory`` records the run
as one point in the cross-PR trajectory file ``benchmarks/BENCH_hotpath.json``.

Run standalone::

    PYTHONPATH=src:. python -m benchmarks.bench_hotpath [--smoke]
    PYTHONPATH=src:. python -m benchmarks.bench_hotpath \
        --append-trajectory --label pr8 --date 2026-08-08
"""

from __future__ import annotations

import argparse
import math
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence
from unittest import mock

import numpy as np

from benchmarks.common import append_trajectory, emit_bench, print_header

from repro.core import reference
from repro.core.fleet import FleetEngine, FleetStream
from repro.core.forecaster import ForecastDataset
from repro.core.offline import EvaluationCache, label_quality_series
from repro.core.reference import (
    frozen_burst_intensity_at,
    frozen_bursts_for_day,
    frozen_label_quality_series,
    frozen_mlp_fit,
    frozen_twin,
    reference_fleet_run,
    scalar_segments,
    scalar_state_at,
    use_frozen_switcher,
)
from repro.experiments.results import ExperimentTable
from repro.experiments.runner import ExperimentRunner
from repro.figures.context import BundleProvider
from repro.ml.mlp import MLP
from repro.registry import create_policy
from repro.video.content import SECONDS_PER_DAY
from repro.workloads.ev import make_ev_setup
from repro.workloads.fleet import make_fleet_scenario

#: Cross-PR hot-path trajectory: one point appended per measured milestone.
TRAJECTORY_PATH = Path(__file__).resolve().parent / "BENCH_hotpath.json"

#: The fleet kernel mirrors the ``fleet_scaling`` figure's largest cell.
FLEET_STREAMS = 32
FLEET_BUFFER_BYTES = 256_000_000
FLEET_CORES = 8

#: The cold-window kernel mirrors the service drain benchmark: 64 cameras,
#: each an hour later than the one before, reading 0.002 days of video from
#: half a day in.
COLD_WINDOW_CAMERAS = 64
COLD_WINDOW_SHIFT_SECONDS = 3_600.0
COLD_WINDOW_START_DAYS = 0.5
COLD_WINDOW_DAYS = 0.002

#: The forecaster kernel's dataset has the offline benchmark's shape: 16 days
#: of 240 s labels over 4 categories, windowed into a 1-day look-back of 8
#: splits and a 2-day target, give 1,171 windows, and the first 80% train.
FORECASTER_DAYS = 16.0
FORECASTER_LABEL_SECONDS = 240.0
FORECASTER_CATEGORIES = 4
FORECASTER_SPLITS = 8
FORECASTER_INPUT_DAYS = 1.0
FORECASTER_OUTPUT_DAYS = 2.0

#: The label-history kernel labels the offline benchmark's history: 16 days
#: of an EV stream at one label per 240 s, with the cheapest configuration.
LABEL_DAYS = 16.0
LABEL_PERIOD_SECONDS = 240.0

#: Timed runs of each side of every kernel.
REPEATS = 3

#: Relative tolerance for float aggregates between the vectorized and the
#: frozen loop: the only divergence is ``np.exp``/``np.power`` vs their
#: ``math`` twins inside the content model (~1 ulp per state), far below
#: this bound after accumulation.
PARITY_RTOL = 1e-9


def _time_sides(make_sides: Callable[[], tuple], parity: Callable[[Any, Any], bool]) -> tuple:
    """Time a kernel's two sides :data:`REPEATS` times each.

    ``make_sides()`` returns one repeat's ``(columnar, scalar)`` callables,
    bound to inputs it builds fresh; the side that runs first alternates
    between repeats, and ``parity(columnar_value, scalar_value)`` checks
    every repeat.  Returns the row's timing fields and the last columnar
    value.
    """
    times: Dict[str, List[float]] = {"scalar": [], "columnar": []}
    parity_ok = True
    for repeat in range(REPEATS):
        columnar, scalar = make_sides()
        sides = [("columnar", columnar), ("scalar", scalar)]
        if repeat % 2:
            sides.reverse()
        values = {}
        for name, fn in sides:
            started = time.perf_counter()
            values[name] = fn()
            times[name].append(time.perf_counter() - started)
        parity_ok = parity(values["columnar"], values["scalar"]) and parity_ok
    row: Dict[str, Any] = {"repeats": REPEATS}
    medians = {}
    for name, samples in times.items():
        q1, medians[name], q3 = np.percentile(samples, [25, 50, 75])
        row[f"{name}_s"] = round(float(medians[name]), 4)
        row[f"{name}_q1"] = round(float(q1), 4)
        row[f"{name}_q3"] = round(float(q3), 4)
    row["speedup"] = round(float(medians["scalar"] / medians["columnar"]), 2)
    row["parity"] = parity_ok
    return row, values["columnar"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PARITY_RTOL * max(abs(a), abs(b), 1.0)


def _same_bytes(ours: np.ndarray, theirs: np.ndarray) -> bool:
    return ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
def bench_content_states(source, n_timestamps: int) -> Dict[str, Any]:
    """Batched content-state generation vs the scalar per-timestamp loop."""
    model = source.content_model
    step = source.segment_seconds
    timestamps = [index * step + step / 2.0 for index in range(n_timestamps)]

    def columnar():
        return model.states_at(np.asarray(timestamps))

    def scalar():
        base = getattr(model, "base", model)
        shift = getattr(model, "shift_seconds", 0.0)
        return [scalar_state_at(base, ts + shift) for ts in timestamps]

    def parity(columns, states) -> bool:
        return all(
            _close(columns.activity[i], states[i].activity)
            and _close(columns.occlusion[i], states[i].occlusion)
            and _close(columns.lighting[i], states[i].lighting)
            for i in range(0, n_timestamps, max(n_timestamps // 512, 1))
        )

    columnar()  # generate every burst schedule once, so both sides read them warm
    timing, _ = _time_sides(lambda: (columnar, scalar), parity)
    return {"kernel": "content_states", "n": n_timestamps, **timing}


def bench_burst_schedule(model, n_pairs: int) -> Dict[str, Any]:
    """Cold burst schedules: the live generator vs the frozen one.

    Every repeat gives each (seed, day) pair a fresh model, so the live side
    generates every schedule from cold; the frozen side never reads the
    cache.  Parity compares dtype and bytes of all three arrays.
    """

    def make_sides():
        pairs = [(model.with_seed(seed), seed % 7) for seed in range(n_pairs)]
        return (
            lambda: [fresh._bursts_for_day(day) for fresh, day in pairs],
            lambda: [frozen_bursts_for_day(fresh, day) for fresh, day in pairs],
        )

    def parity(live, frozen) -> bool:
        return all(
            _same_bytes(ours, theirs)
            for live_arrays, frozen_arrays in zip(live, frozen)
            for ours, theirs in zip(live_arrays, frozen_arrays)
        )

    timing, live = _time_sides(make_sides, parity)
    return {
        "kernel": "burst_schedule",
        "n": n_pairs,
        "bursts": sum(int(starts.size) for starts, _, _ in live),
        **timing,
    }


def bench_cold_window(source) -> Dict[str, Any]:
    """A service drain's cold content reads: live ``states_at`` vs the two-day kernel.

    Camera ``i`` of :data:`COLD_WINDOW_CAMERAS` gets a fresh model with seed
    ``seed + i`` and reads the drain's window shifted by ``i`` hours, as a
    heterogeneous, hour-shifted fleet scenario does.  The live side computes
    whole content states, generating the schedules it needs; the frozen side
    computes only the burst column.  Parity compares that column's bytes.
    The row also counts the schedules each side drew, in one more untimed
    pass on fresh models.
    """
    base = source.content_model
    step = source.segment_seconds
    window_start = COLD_WINDOW_START_DAYS * SECONDS_PER_DAY
    window_end = window_start + COLD_WINDOW_DAYS * SECONDS_PER_DAY
    indices = np.arange(math.ceil(window_start / step), math.ceil(window_end / step))
    midpoints = indices * step + step / 2.0

    def make_sides():
        fresh = [
            (base.with_seed(base.seed + index), midpoints + index * COLD_WINDOW_SHIFT_SECONDS)
            for index in range(COLD_WINDOW_CAMERAS)
        ]
        return (
            lambda: [(model, model.states_at(ts)) for model, ts in fresh],
            lambda: [frozen_burst_intensity_at(model, ts) for model, ts in fresh],
        )

    def parity(live, frozen) -> bool:
        return all(
            _same_bytes(model._burst_intensity_at(columns.timestamp), theirs)
            for (model, columns), theirs in zip(live, frozen)
        )

    timing, _ = _time_sides(make_sides, parity)
    live_side, frozen_side = make_sides()
    drawn_live = sum(len(model._burst_cache) for model, _ in live_side())
    with mock.patch.object(
        reference, "frozen_bursts_for_day", wraps=frozen_bursts_for_day
    ) as drawn_frozen:
        frozen_side()
    return {
        "kernel": "cold_window",
        "n": COLD_WINDOW_CAMERAS * int(midpoints.size),
        "schedules_live": drawn_live,
        "schedules_frozen": drawn_frozen.call_count,
        **timing,
    }


def bench_segment_record(source, window_seconds: float) -> Dict[str, Any]:
    """Columnar segment materialization vs the scalar generator."""

    def parity(vectorized, scalar) -> bool:
        return len(vectorized) == len(scalar) and all(
            a.segment_index == b.segment_index
            and a.encoded_bytes == b.encoded_bytes
            and a.ground_truth_objects == b.ground_truth_objects
            and _close(a.content.activity, b.content.activity)
            for a, b in zip(vectorized, scalar)
        )

    timing, vectorized = _time_sides(
        lambda: (
            lambda: source.record(0.0, window_seconds),
            lambda: list(scalar_segments(source, 0.0, window_seconds)),
        ),
        parity,
    )
    return {"kernel": "segment_record", "n": len(vectorized), **timing}


def bench_switcher_select(context, n_decisions: int) -> Dict[str, Any]:
    """The pruned ``PlacementTable.select`` vs the frozen full scan.

    Both scans are pure functions of their inputs, so the frozen twin of
    one switcher serves as the reference; the decision stream
    sweeps the planned configuration, the backlog (including buffer-filling
    levels that force fallbacks) and the remaining cloud budget (including
    zero, which forces on-prem scans).  Parity demands the very same
    placement object.
    """
    switcher = create_policy("skyscraper", context).switcher
    table = switcher._placement_table
    frozen = frozen_twin(switcher)
    n_configurations = len(switcher.profiles)
    capacity = switcher.buffer_capacity_bytes
    inputs = [
        (
            index % n_configurations,
            int((index * 37 % 100) / 100.0 * capacity * 1.2),
            500_000.0 + (index % 7) * 250_000.0,
            (0.0, 0.001, 10.0)[index % 3],
        )
        for index in range(n_decisions)
    ]

    def parity(vectorized, frozen_picks) -> bool:
        return all(
            a[0] == b[0] and a[1] is b[1] and a[2] == b[2]
            for a, b in zip(vectorized, frozen_picks)
        )

    timing, _ = _time_sides(
        lambda: (
            lambda: [table.select(*entry) for entry in inputs],
            lambda: [frozen._select_feasible(*entry) for entry in inputs],
        ),
        parity,
    )
    return {"kernel": "switcher_select", "n": n_decisions, **timing}


def _fleet_parity(vectorized, frozen) -> bool:
    """Per-stream aggregate parity within the documented fp tolerance."""
    if sorted(vectorized.stream_results) != sorted(frozen.stream_results):
        return False
    for stream_id, ours in vectorized.stream_results.items():
        theirs = frozen.stream_results[stream_id]
        for attr in ("segments_total", "segments_dropped", "overflow_count", "switch_count"):
            if getattr(ours, attr) != getattr(theirs, attr):
                return False
        for attr in (
            "total_true_quality",
            "total_weighted_quality",
            "cloud_dollars",
            "total_lag_seconds",
        ):
            if not _close(getattr(ours, attr), getattr(theirs, attr)):
                return False
        if ours.configuration_usage != theirs.configuration_usage:
            return False
    return True


def bench_fleet_scaling(runner, bundle, n_streams: int) -> Dict[str, Any]:
    """The vectorized fleet engine vs the frozen loop at figure scale.

    The reference side runs the complete pre-vectorization hot path: the
    scalar segment generator feeds the frozen per-event session loop, and
    every stream decides with the frozen switcher (``use_frozen_switcher``).
    """
    context = runner.context_for(
        "skyscraper", cores=FLEET_CORES, buffer_bytes=FLEET_BUFFER_BYTES
    )
    scenario = make_fleet_scenario(
        bundle.setup, n_streams, phase_shift_seconds=3_600.0
    )
    cluster = context.skyscraper.resources.cluster_spec()
    cloud = context.skyscraper.cloud
    start, end = bundle.config.online_start, bundle.config.online_end

    def build_streams(frozen: bool) -> List[FleetStream]:
        streams = []
        for spec in scenario.streams:
            policy = create_policy("skyscraper", context)
            if frozen:
                use_frozen_switcher(policy)
            streams.append(
                FleetStream(
                    workload=bundle.setup.workload,
                    source=spec.source,
                    policy=policy,
                    stream_id=spec.stream_id,
                    buffer_capacity_bytes=FLEET_BUFFER_BYTES,
                )
            )
        return streams

    def columnar():
        engine = FleetEngine(
            cluster=cluster, cloud=cloud, scheduler="fifo", keep_traces=False
        )
        return engine.run(build_streams(False), start, end)

    def scalar():
        return reference_fleet_run(
            build_streams(True),
            start,
            end,
            cluster,
            cloud=cloud,
            scheduler="fifo",
            keep_traces=False,
            segments_fn=scalar_segments,
        )

    columnar()  # warm caches (profile tables, content trig tables) for both
    timing, vectorized = _time_sides(lambda: (columnar, scalar), _fleet_parity)
    return {
        "kernel": f"fleet_scaling_{n_streams}",
        "n": vectorized.segments_total,
        "streams": n_streams,
        **timing,
    }


def _forecaster_dataset() -> ForecastDataset:
    """The training split of a forecaster dataset built from sticky labels.

    Labels follow a seeded chain that keeps its category with probability
    0.95 per label, so windows hold mixed, drifting histograms.
    """
    rng = np.random.default_rng(0)
    n_labels = int(FORECASTER_DAYS * SECONDS_PER_DAY / FORECASTER_LABEL_SECONDS)
    switches = rng.random(n_labels) >= 0.95
    draws = rng.integers(0, FORECASTER_CATEGORIES, size=n_labels)
    labels = draws[np.maximum.accumulate(np.where(switches, np.arange(n_labels), 0))]
    dataset = ForecastDataset.from_labels(
        labels=labels,
        n_categories=FORECASTER_CATEGORIES,
        label_period_seconds=FORECASTER_LABEL_SECONDS,
        input_seconds=FORECASTER_INPUT_DAYS * SECONDS_PER_DAY,
        output_seconds=FORECASTER_OUTPUT_DAYS * SECONDS_PER_DAY,
        n_splits=FORECASTER_SPLITS,
    )
    train_set, _ = dataset.split(0.8)
    return train_set


def bench_forecaster_fit() -> Dict[str, Any]:
    """The flat-buffer ``MLP.fit`` vs the frozen per-layer trainer.

    Each repeat trains two fresh networks with the default configuration
    (Appendix K: 16 -> 8 ReLU, softmax, 40 epochs of Adam).  Parity compares
    the bytes of every parameter and every epoch's losses, and the chosen
    epoch.
    """
    dataset = _forecaster_dataset()
    inputs, targets = dataset.inputs, dataset.targets
    n_inputs, n_outputs = inputs.shape[1], targets.shape[1]

    def make_sides():
        live, frozen = MLP(n_inputs, n_outputs), MLP(n_inputs, n_outputs)
        return (
            lambda: (live, live.fit(inputs, targets)),
            lambda: (frozen, frozen_mlp_fit(frozen, inputs, targets)),
        )

    def parity(live, frozen) -> bool:
        (live_network, ours), (frozen_network, theirs) = live, frozen
        return (
            all(
                _same_bytes(a, b)
                for a, b in zip(live_network.get_parameters(), frozen_network.get_parameters())
            )
            and _same_bytes(np.array(ours.train_loss), np.array(theirs.train_loss))
            and _same_bytes(np.array(ours.validation_loss), np.array(theirs.validation_loss))
            and ours.best_epoch == theirs.best_epoch
        )

    timing, (_, history) = _time_sides(make_sides, parity)
    return {
        "kernel": "forecaster_fit",
        "n": int(inputs.shape[0]),
        "epochs": len(history.train_loss),
        "best_epoch": history.best_epoch,
        **timing,
    }


def bench_label_history(days: float) -> Dict[str, Any]:
    """The columnar history labeler vs the per-object one.

    Both sides label ``days`` of a fresh EV stream every
    :data:`LABEL_PERIOD_SECONDS` with the cheap configuration, over burst
    schedules generated once beforehand; the live side scores through a
    fresh ``EvaluationCache`` each repeat, as a fit does.  Parity compares
    the bytes of the two quality series.
    """
    setup = make_ev_setup(history_days=days, online_days=0.01)
    workload, source = setup.workload, setup.source
    configuration = workload.named_configurations()["cheap"]
    window = (0.0, days * SECONDS_PER_DAY, LABEL_PERIOD_SECONDS)
    source.content_model.states(*window)

    def columnar():
        return label_quality_series(
            workload, source, configuration, *window, evaluator=EvaluationCache(workload)
        )

    def scalar():
        return frozen_label_quality_series(workload, source, configuration, *window)

    timing, series = _time_sides(lambda: (columnar, scalar), _same_bytes)
    return {"kernel": "label_history", "n": int(series.size), **timing}


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #
def run_hotpath_bench(smoke: bool = False) -> Dict[str, Any]:
    """Run every kernel and return the BENCH payload."""
    provider = BundleProvider(smoke=smoke)
    bundle = provider.bundle("ev", online_days=None if smoke else 0.01)
    runner = ExperimentRunner(bundle)
    context = runner.context_for(
        "skyscraper", cores=FLEET_CORES, buffer_bytes=FLEET_BUFFER_BYTES
    )
    source = bundle.setup.source

    kernels = [
        bench_content_states(source, 20_000 if smoke else 200_000),
        bench_burst_schedule(source.content_model, 16 if smoke else 64),
        bench_cold_window(source),
        bench_segment_record(source, 4_320.0 if smoke else 86_400.0),
        bench_switcher_select(context, 2_000 if smoke else 20_000),
        bench_fleet_scaling(runner, bundle, 8 if smoke else FLEET_STREAMS),
        bench_forecaster_fit(),
        bench_label_history(2.0 if smoke else LABEL_DAYS),
    ]

    print_header(
        "Columnar hot path: vectorized kernels vs the frozen scalar loop",
        "simulator throughput (cf. fig22/fig23)",
    )
    table = ExperimentTable("hot-path kernels")
    for row in kernels:
        table.add_row(**row)
    print(table.render())

    all_parity = all(row["parity"] for row in kernels)
    none_slower = all(row["speedup"] >= 1.0 for row in kernels)
    return {
        "benchmark": "hotpath",
        "mode": "smoke" if smoke else "full",
        "status": "ok" if (all_parity and none_slower) else "error",
        "kernels": kernels,
    }


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized batches and fleet"
    )
    parser.add_argument(
        "--append-trajectory",
        action="store_true",
        help="record the run in benchmarks/BENCH_hotpath.json",
    )
    parser.add_argument("--label", default="local", help="trajectory point label")
    parser.add_argument("--date", default="", help="trajectory point date")
    args = parser.parse_args(argv)
    payload = run_hotpath_bench(smoke=args.smoke)
    emit_bench(payload)
    if payload["status"] != "ok":
        raise SystemExit(1)
    if args.append_trajectory:
        point = {"label": args.label, "date": args.date, "kernels": payload["kernels"]}
        append_trajectory(TRAJECTORY_PATH, "hotpath", point)


if __name__ == "__main__":
    main()
