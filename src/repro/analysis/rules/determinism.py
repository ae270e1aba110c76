"""Determinism rule: no ambient randomness or wall-clock in parity modules.

The columnar hot path and the offline pipeline are pinned by bit-for-bit
parity oracles.  Those oracles only hold while every random draw flows from
an explicitly seeded generator and every timestamp is an input, so inside
the modules that back them (``core/``, ``video/``, ``vision/``,
``workloads/``) this rule bans:

* the stdlib ``random`` module-level API (``random.random()``,
  ``random.randint()``, ...) — one hidden global stream; seeded
  ``random.Random(seed)``/``SystemRandom`` instances stay legal;
* the legacy NumPy global-state API (``np.random.seed``, ``np.random.rand``,
  ...) — ``np.random.default_rng(seed)`` and explicit ``Generator`` /
  ``SeedSequence`` / ``RandomState`` construction stay legal;
* wall-clock reads: ``time.time()`` / ``time.time_ns()`` and
  ``datetime.now()`` / ``utcnow()`` / ``today()`` — timestamps must arrive as
  parameters.  ``time.perf_counter()`` stays legal: stage-runtime reports are
  measurements, not replayed state.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.analysis.engine import Finding, register_rule
from repro.analysis.project import PARITY_SCOPES, Project, dotted_name

RULE_ID = "determinism"

#: Explicitly constructed (seedable) entry points of each random API.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "PCG64",
    "Philox",
    "BitGenerator",
}
_TIME_BANNED = {"time", "time_ns"}
_DATETIME_BANNED = {"now", "utcnow", "today"}

_HINTS = {
    "random": "draw from a seeded instance: rng = random.Random(seed)",
    "np.random": "draw from a seeded generator: rng = np.random.default_rng(seed)",
    "time": "take the timestamp as a parameter; wall-clock reads break replay parity",
    "datetime": "take the timestamp as a parameter; wall-clock reads break replay parity",
}


class _ImportMap:
    """Which local names refer to the random/numpy/time/datetime APIs."""

    def __init__(self, tree: ast.Module):
        self.random_modules: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        self.time_modules: Set[str] = set()
        self.datetime_modules: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        # name -> banned random.* function imported directly via from-import
        self.from_random: Dict[str, str] = {}
        self.from_time: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_modules.add(local)
                    elif alias.name in ("numpy", "numpy.random"):
                        self.numpy_modules.add(local)
                    elif alias.name == "time":
                        self.time_modules.add(local)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(local)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "random" and alias.name not in _RANDOM_ALLOWED:
                        self.from_random[local] = alias.name
                    elif node.module == "time" and alias.name in _TIME_BANNED:
                        self.from_time[local] = alias.name
                    elif node.module == "datetime" and alias.name in ("datetime", "date"):
                        self.datetime_classes.add(local)
                    elif node.module == "numpy" and alias.name == "random":
                        self.numpy_modules.add(f"__numpy_random__:{local}")


def _check_call(node: ast.Call, imports: _ImportMap, relpath: str) -> Iterator[Finding]:
    """Findings for one call expression (the rule's per-node core)."""
    name = dotted_name(node.func)
    if name is None:
        return
    parts = name.split(".")
    head, tail = parts[0], parts[-1]

    def finding(symbol: str, message: str, hint_key: str) -> Finding:
        return Finding(
            rule=RULE_ID,
            path=relpath,
            line=node.lineno,
            column=node.col_offset,
            symbol=symbol,
            message=message,
            hint=_HINTS[hint_key],
        )

    # stdlib random: module-level API shares one hidden global stream.
    if head in imports.random_modules and len(parts) == 2 and tail not in _RANDOM_ALLOWED:
        yield finding(
            f"random.{tail}",
            f"module-level random.{tail}() draws from the unseeded global stream",
            "random",
        )
        return
    if head in imports.from_random and len(parts) == 1:
        original = imports.from_random[head]
        yield finding(
            f"random.{original}",
            f"module-level random.{original}() draws from the unseeded global stream",
            "random",
        )
        return

    # numpy legacy global API: np.random.<fn>() mutates hidden global state.
    if (
        head in imports.numpy_modules
        and len(parts) == 3
        and parts[1] == "random"
        and tail not in _NP_RANDOM_ALLOWED
    ):
        yield finding(
            f"np.random.{tail}",
            f"legacy global-state np.random.{tail}() is not replayable",
            "np.random",
        )
        return
    if (
        f"__numpy_random__:{head}" in imports.numpy_modules
        and len(parts) == 2
        and tail not in _NP_RANDOM_ALLOWED
    ):
        yield finding(
            f"np.random.{tail}",
            f"legacy global-state np.random.{tail}() is not replayable",
            "np.random",
        )
        return

    # wall-clock reads.
    if head in imports.time_modules and len(parts) == 2 and tail in _TIME_BANNED:
        yield finding(
            f"time.{tail}",
            f"time.{tail}() reads the wall clock inside a parity-scoped module",
            "time",
        )
        return
    if head in imports.from_time and len(parts) == 1:
        original = imports.from_time[head]
        yield finding(
            f"time.{original}",
            f"time.{original}() reads the wall clock inside a parity-scoped module",
            "time",
        )
        return
    if tail in _DATETIME_BANNED:
        # datetime.datetime.now() / datetime.now() / date.today() forms.
        if (
            (len(parts) == 3 and head in imports.datetime_modules and parts[1] in ("datetime", "date"))
            or (len(parts) == 2 and head in imports.datetime_classes)
        ):
            yield finding(
                f"datetime.{tail}",
                f"{name}() reads the wall clock inside a parity-scoped module",
                "datetime",
            )


@register_rule(
    RULE_ID,
    description=(
        "no unseeded RNG or wall-clock reads in the modules backing parity "
        "oracles (core/, video/, vision/, workloads/)"
    ),
    scope="src/repro/{core,video,vision,workloads}/**",
)
def check_determinism(project: Project) -> Iterator[Finding]:
    """Flag ambient-randomness and wall-clock calls in parity-scoped modules."""
    for module in project.modules:
        if not module.in_scope(PARITY_SCOPES):
            continue
        imports = _ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from _check_call(node, imports, module.relpath)
