"""Measurement helpers: host calibration, repeat statistics, host fingerprint.

The speed of a shared host changes in phases lasting seconds: the same op
can take 1.8 times as long in a slow phase, and the process is not
descheduled (its CPU time grows with its wall time), it runs slower.
Slow phases only ever add time.  So a run times many repetitions of a
region with :func:`calibrate` -- a fixed pure-Python loop -- before and
after each, and reports :func:`calibrated_seconds`: every repetition
rescaled by :data:`CAL_REF_S` over the mean of its two loop samples, then
the first quartile of those.  The rescaling corrects for the phase a
repetition ran in; the quartile discards the repetitions a phase change
in mid-run slowed down.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Iterations of the calibration loop.
CAL_LOOP_N = 1_000_000

#: Reference duration of the calibration loop, in seconds.  A constant,
#: recorded once and never re-measured: calibrated seconds of two runs (or
#: two commits) are comparable because they share it.
CAL_REF_S = 0.09


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP_N):
        total += i * i % 7
    return time.perf_counter() - started


def rescaled(walls: Sequence[float], cals: Sequence[float]) -> List[float]:
    """Each of ``walls`` in calibrated seconds; ``cals[i]``, ``cals[i + 1]`` bracket ``walls[i]``."""
    if len(cals) != len(walls) + 1:
        raise ValueError("need one calibration sample before and after every repetition")
    return [
        wall * CAL_REF_S / ((cals[index] + cals[index + 1]) / 2.0)
        for index, wall in enumerate(walls)
    ]


def calibrated_seconds(walls: Sequence[float], cals: Sequence[float]) -> float:
    """The first quartile of :func:`rescaled` (the value itself, for one repetition)."""
    values = sorted(rescaled(walls, cals))
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def repeat_stats(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR and sample count of repeated measurements."""
    ordered = sorted(float(value) for value in values)
    if not ordered:
        raise ValueError("repeat_stats needs at least one value")
    median = statistics.median(ordered)
    if len(ordered) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(ordered)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def host_fingerprint(root: Path) -> Dict[str, object]:
    """What a measurement depends on besides the code: versions and hardware."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "mp_start_method": multiprocessing.get_start_method(),
        "git_sha": _git_sha(root),
        "cal_ref_s": CAL_REF_S,
    }
