"""Process-boundary safety: what crosses into a worker must survive pickling.

The figure suite's process pool (one figure per worker) and the service's
shard workers receive work through ``pickle``.  A lambda, a function defined inside another
function, a generator, an open file or a lock all fail (or worse, behave
differently) at that boundary — and the failure only shows up on the
multi-worker path that CI's smoke jobs may not exercise at the offending call
site.  This rule flags the hand-off statically:

* ``<executor>.map(fn, ...)`` / ``<pool>.submit(fn, ...)`` where the receiver
  is executor-shaped (named ``*executor*``/``*pool*`` or assigned from
  ``ProcessPoolExecutor`` / ``Pool``): ``fn`` must be a module-level or
  imported callable — lambdas, nested functions and bound ``self.<method>``
  callables are flagged; generator expressions and names bound to
  ``Lock()``/``open()`` in the argument list are flagged too;
* ``Process(target=...)`` (any ``multiprocessing`` context): the target must
  be module-level or imported; generator expressions and inline ``open()``
  calls in ``args=`` are flagged.  Passing ``multiprocessing`` primitives
  (locks, queues, shared arrays) to a ``Process`` stays legal — they are
  designed to cross via inheritance — while the same lock in a *pool* call
  is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.engine import Finding, register_rule
from repro.analysis.project import Project, dotted_name

RULE_ID = "process-boundary"

_EXECUTOR_FACTORIES = {"ProcessPoolExecutor", "Pool"}
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore"}


def _module_level_callables(tree: ast.Module) -> Set[str]:
    """Names safely importable from the module's top level (incl. imports)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _executor_receiver(node: ast.expr, executor_locals: Set[str]) -> bool:
    """Whether a ``.map``/``.submit`` receiver looks process-pool-shaped."""
    name = dotted_name(node)
    if name is None:
        return False
    tail = name.split(".")[-1].lower()
    if name.split(".")[-1] in executor_locals or name in executor_locals:
        return True
    return tail.endswith("executor") or tail in ("pool", "_pool")


class _FunctionScope:
    """Per-function bookkeeping: nested defs, local lambdas, local locks."""

    def __init__(self, fn: ast.AST, module_names: Set[str]):
        self.module_names = module_names
        self.nested_defs: Set[str] = set()
        self.lambda_locals: Set[str] = set()
        self.lock_locals: Set[str] = set()
        self.executor_locals: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
                self.nested_defs.add(node.name)
            elif isinstance(node, ast.Assign):
                tail = ""
                if isinstance(node.value, ast.Call):
                    callee = dotted_name(node.value.func)
                    tail = callee.split(".")[-1] if callee else ""
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if isinstance(node.value, ast.Lambda):
                        self.lambda_locals.add(target.id)
                    elif tail in _LOCK_FACTORIES:
                        self.lock_locals.add(target.id)
                    elif tail in _EXECUTOR_FACTORIES:
                        self.executor_locals.add(target.id)

    def describe_callable(self, fn: ast.expr) -> Optional[str]:
        """Why ``fn`` cannot cross the process boundary (``None`` when fine)."""
        if isinstance(fn, ast.Lambda):
            return "a lambda cannot be pickled to a worker process"
        if isinstance(fn, ast.Name):
            if fn.id in self.lambda_locals:
                return f"'{fn.id}' is bound to a lambda, which cannot be pickled"
            if fn.id in self.nested_defs:
                return (
                    f"nested function '{fn.id}' closes over the enclosing frame "
                    "and cannot be pickled; move it to module level"
                )
            return None
        name = dotted_name(fn)
        if name is not None and name.startswith("self."):
            return (
                f"bound method '{name}' drags its whole instance across the "
                "process boundary; use a module-level function taking explicit "
                "arguments"
            )
        return None

    def describe_argument(self, arg: ast.expr) -> Optional[str]:
        """Why a payload argument cannot cross (``None`` when fine)."""
        if isinstance(arg, ast.GeneratorExp):
            return "a generator expression cannot be pickled to a worker"
        if isinstance(arg, ast.Call):
            callee = dotted_name(arg.func)
            if callee == "open":
                return "an open file handle cannot cross the process boundary"
        if isinstance(arg, ast.Name) and arg.id in self.lock_locals:
            return (
                f"'{arg.id}' holds a lock; locks cannot be pickled into a "
                "process pool (hand workers a multiprocessing primitive via "
                "Process args instead)"
            )
        return None


def _symbol_for(fn: ast.expr) -> str:
    if isinstance(fn, ast.Lambda):
        return "lambda"
    return dotted_name(fn) or type(fn).__name__


def _check_function(
    fn: ast.AST,
    module_names: Set[str],
    relpath: str,
    enclosing: str,
) -> Iterator[Finding]:
    """Findings for every pool/Process hand-off inside one function."""
    scope = _FunctionScope(fn, module_names)

    def finding(node: ast.AST, symbol: str, message: str) -> Finding:
        return Finding(
            rule=RULE_ID,
            path=relpath,
            line=node.lineno,
            column=node.col_offset,
            symbol=f"{enclosing}:{symbol}",
            message=message,
        )

    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # pool hand-offs: executor.map(fn, items) / pool.submit(fn, ...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("map", "submit")
            and _executor_receiver(func.value, scope.executor_locals)
            and node.args
        ):
            work_fn = node.args[0]
            problem = scope.describe_callable(work_fn)
            if problem is not None:
                yield finding(work_fn, _symbol_for(work_fn), problem)
            for arg in node.args[1:]:
                problem = scope.describe_argument(arg)
                if problem is not None:
                    yield finding(arg, _symbol_for(arg), problem)
        # worker spawn: Process(target=..., args=(...))
        callee = dotted_name(func)
        if callee and callee.split(".")[-1] == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    problem = scope.describe_callable(keyword.value)
                    if problem is not None:
                        yield finding(keyword.value, _symbol_for(keyword.value), problem)
                elif keyword.arg == "args":
                    elements = (
                        keyword.value.elts
                        if isinstance(keyword.value, (ast.Tuple, ast.List))
                        else [keyword.value]
                    )
                    for element in elements:
                        if isinstance(element, ast.GeneratorExp):
                            yield finding(
                                element,
                                "GeneratorExp",
                                "a generator expression cannot be pickled to a worker",
                            )
                        elif (
                            isinstance(element, ast.Call)
                            and dotted_name(element.func) == "open"
                        ):
                            yield finding(
                                element,
                                "open",
                                "an open file handle cannot cross the process boundary",
                            )


@register_rule(
    RULE_ID,
    description=(
        "callables and payloads handed to process pools/"
        "service workers must be picklable (no lambdas, nested functions, "
        "bound methods, generators, open files or locks)"
    ),
    hint="lift the work unit to a module-level function with explicit, picklable arguments",
)
def check_process_boundary(project: Project) -> Iterator[Finding]:
    """Flag unpicklable hand-offs at every pool/Process call site.

    Only top-level functions and methods of top-level classes are walked as
    scopes; functions nested inside them are covered by the enclosing walk
    (visiting them separately would double-report their call sites).
    """
    for module in project.modules:
        module_names = _module_level_callables(module.tree)
        scopes: List[ast.AST] = []
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
            elif isinstance(node, ast.ClassDef):
                scopes.extend(
                    child
                    for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        for scope in scopes:
            yield from _check_function(scope, module_names, module.relpath, scope.name)
