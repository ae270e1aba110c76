"""Run one benchmark workload: set-up, closed-loop timed ops, checks, trace.

One run, in order:

1. fresh set-ups, timed, at least :data:`SETUP_REPEATS` of them and for
   at least :data:`SETUP_MIN_SECONDS`;
2. one untimed verification op that keeps per-segment traces; it also
   warms every cache the timed ops use, and its outputs are checked
   against the committed golden digest;
3. timed ops, each starting when the previous one ends, until
   ``--seconds`` have passed (at least :data:`MIN_TIMED_OPS`); every timed
   op's outputs must equal the verification op's;
4. with ``--trace 1``, one traced op with the layer wrappers installed,
   whose outputs must equal the verification op's too.

The calibration loop runs around every set-up and every timed op, and
``setup_s`` and ``op_s`` are calibrated seconds (see
:mod:`benchmarks.suite.stats`).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.common import emit_bench
from benchmarks.suite.layers import Tracer, collect_shard_files, installed
from benchmarks.suite.stats import (
    calibrate,
    calibrated_seconds,
    host_fingerprint,
    repeat_stats,
    rescaled,
)
from benchmarks.suite.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    compare_outputs,
    shard_batch_max,
    shard_batch_seconds,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ARTIFACTS = ROOT / "artifacts" / "benchmark"
SETUP_REPEATS = 3
#: Cheap set-ups repeat until this much time has passed, for a steady quartile.
SETUP_MIN_SECONDS = 1.0
MIN_TIMED_OPS = 3
#: Units whose values are durations, rescaled to calibrated time.
TIME_UNITS = {"s": 1.0, "us": 1e6}


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: Workload, seed: int) -> Optional[Dict[str, Any]]:
    """The committed digest of ``workload`` at ``seed``, if one exists."""
    path = golden_path(workload.name)
    if not path.exists():
        return None
    return json.loads(path.read_text())["digests"].get(workload.golden_key(seed))


def verify(workload: Workload, output: Any) -> Dict[str, Any]:
    """Check ``output`` and return its full digest (``digest`` plus ``sim``)."""
    workload.check(output)
    return {"digest": workload.digest(output), "sim": workload.sim(output)}


def compare_full(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Differences between two full digests (``verify`` results)."""
    return compare_outputs(expected["digest"], actual["digest"]) + compare_outputs(
        {"floats": expected["sim"]}, {"floats": actual["sim"]}
    )


def _report_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _layer_values(
    workload: Workload,
    tracer: Tracer,
    output: Any,
    wall: float,
    shards: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Raw per-layer values of one traced op (times in wall seconds)."""
    t = tracer
    admitted = t.calls("core.events.admit")
    values: Dict[str, float] = {
        "experiments.runner.policy_build_s": t.total("experiments.runner.policy_build"),
        "core.fleet.run_self_s": t.self_time("core.fleet.run"),
        "core.fleet.scheduler_select_s": t.total("core.fleet.scheduler_select"),
        "core.fleet.scheduler_select_calls": t.calls("core.fleet.scheduler_select"),
        "core.fleet.ledger_s": t.total("core.fleet.ledger"),
        "core.fleet.ledger_calls": t.calls("core.fleet.ledger"),
        "core.events.admit_s": t.total("core.events.admit"),
        "core.events.execute_self_s": t.self_time("core.events.execute"),
        "core.columnar.session_columns_s": t.total("core.columnar.session_columns"),
        "core.columnar.materialize_s": t.total("core.columnar.materialize"),
        "core.columnar.materialize_ratio": (
            t.calls("core.columnar.materialize") / admitted if admitted else 0.0
        ),
        "video.content.states_s": t.total("video.content.states"),
        "core.policy.decide_self_s": t.self_time("core.policy.decide"),
        "core.policy.decide_calls": t.calls("core.policy.decide"),
        "core.switcher.decide_s": t.total("core.switcher.decide"),
        "core.switcher.decide_calls": t.calls("core.switcher.decide"),
        "core.switcher.decide_p50_us": t.percentile("core.switcher.decide", 0.5),
        "core.switcher.decide_p99_us": t.percentile("core.switcher.decide", 0.99),
        "core.planner.plan_s": t.total("core.planner.plan"),
        "core.planner.plan_calls": t.calls("core.planner.plan"),
        "workloads.evaluate_s": t.total("workloads.evaluate"),
        "workloads.evaluate_calls": t.calls("workloads.evaluate"),
        "workloads.evaluate_p99_us": t.percentile("workloads.evaluate", 0.99),
        "workloads.evaluate_many_s": t.total("workloads.evaluate_many"),
        "workloads.evaluate_many_pairs": t.amounts.get("workloads.evaluate_many", 0.0),
        "ml.hillclimb.hill_climb_s": t.total("ml.hillclimb.hill_climb"),
        "ml.hillclimb.calls": t.calls("ml.hillclimb.hill_climb"),
        "core.profiles.build_profiles_s": t.total("core.profiles.build_profiles"),
        "core.categorizer.fit_s": t.total("core.categorizer.fit"),
        "core.categorizer.classify_many_s": t.total("core.categorizer.classify_many"),
        "core.forecaster.fit_s": t.total("core.forecaster.fit"),
        "trace.coverage": workload.coverage(tracer, output, wall, shards),
    }
    stages = (
        "sample_segments",
        "filter_configurations",
        "profile_placements",
        "content_categories",
        "label_history",
        "train_forecaster",
    )
    report = getattr(output, "report", None)
    stage_runtimes = getattr(report, "stage_runtimes_seconds", {})
    for stage in stages:
        values[f"core.offline.{stage}_s"] = stage_runtimes.get(stage, 0.0)
    hits = getattr(report, "evaluation_cache_hits", 0)
    misses = getattr(report, "evaluation_cache_misses", 0)
    values["core.offline.evaluations"] = hits + misses
    values["core.offline.evaluation_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    drain = t.total("service.drain")
    batches = shard_batch_seconds(shards)
    batch_max = shard_batch_max(shards)
    jobs = getattr(output, "jobs", [])
    values.update(
        {
            "service.submit_s": t.total("service.submit"),
            "service.spawn_s": t.total("service.spawn"),
            "service.dispatch_s": t.total("service.dispatch"),
            "service.ipc_s": t.total("service.ipc"),
            "service.ipc_bytes": t.amounts.get("service.ipc", 0.0),
            "service.poll_idle_s": t.total("service.poll_idle"),
            "service.worker.batch_s_max": batch_max,
            "service.worker.batch_s_sum": sum(batches),
            "service.worker.ledger_s": sum(
                shard["totals"].get("service.worker.ledger", [0, 0.0])[1] for shard in shards
            ),
            "service.worker.ledger_calls": sum(
                shard["totals"].get("service.worker.ledger", [0])[0] for shard in shards
            ),
            "service.worker.peak_rss_mb": max(
                (shard["peak_rss_mb"] for shard in shards), default=0.0
            ),
            "service.serial_s": drain - batch_max if drain else 0.0,
            "service.parallel_efficiency": (
                sum(batches) / (len(shards) * drain) if drain and shards else 0.0
            ),
            "service.shard_skew": (
                batch_max / (sum(batches) / len(batches)) if sum(batches) else 0.0
            ),
            "service.retry_ratio": (
                sum(job.retry_count for job in jobs) / len(jobs) if jobs else 0.0
            ),
        }
    )
    return values


def _traced_op(workload: Workload, state: Any, seed: int):
    """Run the traced op and write its spans.

    Returns the output, the raw per-layer values, the op's wall seconds
    and the trace sites that were not found.
    """
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    collect_shard_files(ARTIFACTS, workload.name)  # drop stale files of an aborted run
    tracer = Tracer()
    gc.collect()
    with installed(
        tracer,
        workload.sites,
        shard_directory=ARTIFACTS if workload.sharded else None,
        workload=workload.name,
    ) as missing:
        started = time.perf_counter()
        output = workload.op(state, keep_traces=True)
        wall = time.perf_counter() - started

    shards, shard_spans = collect_shard_files(ARTIFACTS, workload.name)
    with open(ARTIFACTS / f"{workload.name}.trace.jsonl", "w") as handle:
        header = {"workload": workload.name, "seed": seed, "op": "traced", "wall_s": wall}
        handle.write(json.dumps(header) + "\n")
        for record in tracer.span_records(workload=workload.name, op="traced"):
            handle.write(json.dumps(record) + "\n")
        for line in shard_spans:
            handle.write(line + "\n")
    return output, _layer_values(workload, tracer, output, wall, shards), wall, missing


def _timed_setups(workload: Workload, seed: int):
    """Fresh set-ups until enough are timed; returns (last state, walls, loop samples)."""
    walls: List[float] = []
    cals = [calibrate()]
    state = None
    phase_started = time.perf_counter()
    while len(walls) < SETUP_REPEATS or time.perf_counter() - phase_started < SETUP_MIN_SECONDS:
        state = None  # release the previous set-up before building the next
        started = time.perf_counter()
        state = workload.setup(seed)
        walls.append(time.perf_counter() - started)
        cals.append(calibrate())
    return state, walls, cals


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One complete run of ``workload``; returns the BENCH payload."""
    spec = load_spec()
    state, setup_walls, setup_cals = _timed_setups(workload, seed)

    attempted = 1
    reference: Optional[Dict[str, Any]] = None
    try:
        reference = verify(workload, workload.op(state, keep_traces=True))
    except Exception:
        _report_failure("verification op")
    golden = load_golden(workload, seed)
    golden_problems: List[str] = []
    if reference is not None and golden is not None:
        golden_problems = compare_full(golden, reference)
        for problem in golden_problems:
            print(f"golden mismatch: {problem}", file=sys.stderr)
    trusted = reference is not None and not golden_problems
    failed = 0 if trusted else 1

    op_walls: List[float] = []
    cals = [calibrate()]
    deadline = time.perf_counter() + seconds
    while len(op_walls) < MIN_TIMED_OPS or time.perf_counter() < deadline:
        gc.collect()
        attempted += 1
        started = time.perf_counter()
        try:
            output = workload.op(state, keep_traces=False)
        except Exception:
            _report_failure(f"timed op {attempted}")
            output = None
        op_walls.append(time.perf_counter() - started)
        cals.append(calibrate())
        if output is None:
            problems = ["raised"]
        elif not trusted:
            problems = ["no trusted reference"]
        else:
            try:
                problems = compare_outputs(reference["digest"], workload.digest(output))
            except Exception:
                _report_failure(f"digest of timed op {attempted}")
                problems = ["digest raised"]
        if problems:
            failed += 1
            print(f"timed op {attempted} failed: {problems}", file=sys.stderr)
        output = None
    op_times = rescaled(op_walls, cals)
    op_s = calibrated_seconds(op_walls, cals)

    metrics: Dict[str, float] = {
        "setup_s": calibrated_seconds(setup_walls, setup_cals),
        "op_s": op_s,
        "realtime_factor": workload.video_seconds() / op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    missing: List[str] = []
    if trace:
        attempted += 1
        try:
            cal_before = calibrate()
            output, layer_values, traced_wall, missing = _traced_op(workload, state, seed)
            (traced_s,) = rescaled([traced_wall], [cal_before, calibrate()])
            traced = verify(workload, output)
        except Exception:
            _report_failure("traced op")
            failed += 1
        else:
            problems = compare_full(reference, traced) if trusted else ["no trusted reference"]
            if problems:
                failed += 1
                print(f"traced op failed: {problems}", file=sys.stderr)
            units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
            scale = traced_s / traced_wall
            for name, value in layer_values.items():
                per_second = TIME_UNITS.get(units.get(name, ""))
                metrics[name] = value if per_second is None else value * scale * per_second
            metrics["trace.overhead"] = traced_s / op_s - 1.0

    section = "per_layer" if trace else "end_to_end"
    missing_metrics = [entry["name"] for entry in spec[section] if entry["name"] not in metrics]
    if missing_metrics:
        raise RuntimeError(f"metrics not computed: {missing_metrics}")
    return {
        "benchmark": "vetl_suite",
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in spec[section]
        },
        "context": {
            "op_s": repeat_stats(op_times),
            "op_wall_s": repeat_stats(op_walls),
            "setup_wall_s": repeat_stats(setup_walls),
            "calibration_s": repeat_stats(setup_cals + cals),
            "samples": {
                "setup_wall_s": setup_walls,
                "setup_calibration_s": setup_cals,
                "op_wall_s": op_walls,
                "op_calibration_s": cals,
            },
            "sim": None if reference is None else reference["sim"],
            "golden_checked": golden is not None,
            "missing_trace_sites": missing,
            "fingerprint": host_fingerprint(ROOT),
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one V-ETL benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    payload = run_workload(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
    for name, entry in payload["metrics"].items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}")
    emit_bench(payload)
    print(
        json.dumps({key: payload[key] for key in ("correct", "attempted", "failed", "metrics")})
    )
    return 0 if payload["correct"] else 1


