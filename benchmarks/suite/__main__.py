"""Sets of benchmark runs, their comparison, and the golden digests.

Run from the repository root::

    PYTHONPATH=src:. python -m benchmarks.suite run --repeats 10 --out A.jsonl
    PYTHONPATH=src:. python -m benchmarks.suite compare A.jsonl B.jsonl
    PYTHONPATH=src:. python -m benchmarks.suite golden --seeds 0-20

``run`` starts every run as its own fresh process, one at a time, cycling
through the workloads so host phases spread over all of them; repeat ``r``
uses seed ``--seed + r``.  ``compare`` checks every end-to-end metric of
``BENCHMARK.json``, per workload, against its bound.  ``golden`` rewrites
the committed digests that every run checks its outputs against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.common import parse_bench_lines
from benchmarks.suite.bench import ROOT, golden_path, load_spec, verify
from benchmarks.suite.stats import repeat_stats
from benchmarks.suite.workloads import DEFAULT_SEED, WORKLOADS

RUN_PY = Path(__file__).resolve().parent / "run.py"
#: A run that takes longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 600


def _workload_names(selected: Optional[Sequence[str]]) -> List[str]:
    return list(selected) if selected else list(WORKLOADS)


def cmd_run(args: argparse.Namespace) -> int:
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    ok = True
    for repeat in range(args.repeats):
        for name in _workload_names(args.workload):
            seed = args.seed + repeat
            command = [
                sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            try:
                completed = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                print(f"run {name} seed {seed} timed out", file=sys.stderr)
                ok = False
                continue
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"run {name} seed {seed} printed no result", file=sys.stderr)
                ok = False
                continue
            ok = ok and completed.returncode == 0 and result["correct"]
            if args.out:
                bench = parse_bench_lines(completed.stdout)
                record = {
                    "workload": name,
                    "seed": seed,
                    "trace": args.trace,
                    **result,
                    "context": bench[-1]["context"] if bench else None,
                }
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record) + "\n")
    return 0 if ok else 1


def _load_runs(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def compare_sets(
    base: Dict[str, List[dict]], head: Dict[str, List[dict]], spec: dict
) -> List[dict]:
    """One row per (workload, end-to-end metric): medians, spreads, verdict.

    ``worse``: ``head``'s median is worse than ``base``'s by more than the
    bound.  ``unresolved``: the run-to-run spread (IQR over median) of either
    set exceeds the bound, so the bound cannot be judged.  Otherwise
    ``within``, with ``noise`` set when the medians differ by less than the
    larger IQR.
    """
    rows = []
    for workload in sorted(set(base) | set(head)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [
                    run["metrics"][name]["value"]
                    for run in runs.get(workload, [])
                    if name in run["metrics"]
                ]
                for runs in (base, head)
            ]
            if not all(values):
                rows.append({"workload": workload, "metric": name, "verdict": "missing"})
                continue
            a, b = (repeat_stats(series) for series in values)
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "within"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "base_median": a["median"],
                    "head_median": b["median"],
                    "change": change,
                    "spread": spread,
                    "bound": metric["bound"],
                    "n": (a["n"], b["n"]),
                    "noise": abs(b["median"] - a["median"]) < max(a["iqr"], b["iqr"]),
                    "verdict": verdict,
                }
            )
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    base, head = _load_runs(args.base), _load_runs(args.head)
    rows = compare_sets(base, head, load_spec())
    print(
        f"{'workload':28s} {'metric':16s} {'base':>11s} {'head':>11s} "
        f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:28s} {row['metric']:16s} {'':>47s}  missing")
            continue
        print(
            f"{row['workload']:28s} {row['metric']:16s} {row['base_median']:11.5g} "
            f"{row['head_median']:11.5g} {row['change']:+8.2%} {row['spread']:7.2%} "
            f"{row['bound']:6.2f}  {row['verdict']}{' (noise)' if row['noise'] else ''}"
        )
    incorrect = [
        f"{run['workload']} seed {run['seed']}"
        for runs in (base, head)
        for workload_runs in runs.values()
        for run in workload_runs
        if not run["correct"]
    ]
    if incorrect:
        print(f"incorrect runs: {incorrect}")
    bad = incorrect or any(row["verdict"] != "within" for row in rows)
    return 1 if bad else 0


def _seed_range(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def cmd_golden(args: argparse.Namespace) -> int:
    seeds = [DEFAULT_SEED] + _seed_range(args.seeds)
    for name in _workload_names(args.workload):
        workload = WORKLOADS[name]
        digests = {}
        for seed in seeds:
            key = workload.golden_key(seed)
            if key in digests:
                continue
            state = workload.setup(seed)
            digests[key] = verify(workload, workload.op(state, keep_traces=True))
            print(f"{name} {key}: {digests[key]['sim']}")
        document = {"workload": name, "digests": digests}
        golden_path(name).parent.mkdir(exist_ok=True)
        golden_path(name).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads, each in a fresh process")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", help="append one JSON line per run to this file")
    run.set_defaults(handler=cmd_run)

    compare = commands.add_parser("compare", help="compare two sets of runs")
    compare.add_argument("base")
    compare.add_argument("head")
    compare.set_defaults(handler=cmd_compare)

    golden = commands.add_parser("golden", help="rewrite the golden digests")
    golden.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    golden.add_argument("--seeds", default="0-20", help="e.g. 0-20 or 1,3,5")
    golden.set_defaults(handler=cmd_golden)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
