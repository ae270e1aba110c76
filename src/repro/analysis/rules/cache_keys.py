"""Cache-key completeness: a cached stage may only read what its key names.

The :class:`~repro.core.offline.StageCache` is content-addressed: a stage's
artifact is reused whenever its digest — workload identity + the stage's own
key material + upstream digests — matches.  That contract inverts into the
invariant this rule enforces: **every fit parameter a cacheable stage body
reads must appear in that stage's key construction**, otherwise changing the
parameter silently serves the stale artifact (the category-sweep reuse of
PR 3 going wrong would look exactly like this).

Mechanically, for each module that declares ``StageSpec(name=..., cacheable=
True)`` literals and a class defining ``_stage_key_params``:

* the *reads* of stage ``s`` are the ``self.params.<p>`` and constructor-bound
  ``self.<attr>`` loads reachable from ``_run_<s>`` (recursively expanded
  through same-class helper methods and properties, so a parameter read via
  ``self.unlabeled_end`` is still seen);
* the *key material* of ``s`` is everything read the same way inside the
  ``if spec.name == "s":`` branch of ``_stage_key_params``, plus string
  literals in that branch (the key dict's ``"forecast_input_days"``), plus the
  globally keyed reads of ``_base_payload`` / ``_source_payload``;
* every read not in the key material is a finding ``s:<attr>``.

Deliberate omissions (e.g. ``n_categories`` — clustering re-runs on load)
belong in the committed baseline with their justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, register_rule
from repro.analysis.project import Project, dotted_name

RULE_ID = "cache-key"


def _cacheable_stages(tree: ast.Module) -> Set[str]:
    """Names of ``StageSpec(..., cacheable=True)`` literals in the module."""
    stages: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted_name(node.func)
        if not callee or callee.split(".")[-1] != "StageSpec":
            continue
        name: Optional[str] = None
        cacheable = False
        for keyword in node.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                name = keyword.value.value
            elif keyword.arg == "cacheable" and isinstance(keyword.value, ast.Constant):
                cacheable = bool(keyword.value.value)
        if name and cacheable:
            stages.add(name)
    return stages


def _config_attrs(cls: ast.ClassDef) -> Set[str]:
    """Constructor parameters bound 1:1 as attributes (``self.x = x``)."""
    attrs: Set[str] = set()
    for statement in cls.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
            for node in ast.walk(statement):
                if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Name):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
    return attrs


class _ReadCollector:
    """Collects parameter/config reads reachable from a method body.

    ``self.params.<p>`` (or through a ``params = self.params`` local alias)
    and ``self.<config_attr>`` loads are recorded with their first source
    location; ``self.<helper>`` references recurse into same-class methods
    and properties (cycle-guarded).
    """

    def __init__(self, methods: Dict[str, ast.FunctionDef], config_attrs: Set[str]):
        self.methods = methods
        self.config_attrs = config_attrs
        self.reads: Dict[str, Tuple[int, int]] = {}
        self.strings: Set[str] = set()
        self._visited: Set[str] = set()

    def collect(
        self, body: List[ast.stmt], alias_scope: Optional[List[ast.stmt]] = None
    ) -> "_ReadCollector":
        """Walk ``body`` (a statement list) and record every reachable read.

        ``alias_scope`` widens where ``params = self.params`` aliases are
        discovered (a stage branch inherits the alias declared at the top of
        ``_stage_key_params``, outside the branch itself).
        """
        params_aliases = {"__never__"}
        for statement in list(body) + list(alias_scope or []):
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                    and node.value.attr == "params"
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            params_aliases.add(target.id)
        for statement in body:
            for node in ast.walk(statement):
                self._visit(node, params_aliases)
        return self

    def _record(self, name: str, node: ast.AST) -> None:
        if name not in self.reads:
            self.reads[name] = (node.lineno, node.col_offset)

    def _visit(self, node: ast.AST, params_aliases: Set[str]) -> None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.strings.add(node.value)
            return
        if not isinstance(node, ast.Attribute):
            return
        value = node.value
        # self.params.<p> and alias.<p>
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and value.attr == "params"
        ):
            self._record(node.attr, node)
            return
        if isinstance(value, ast.Name) and value.id in params_aliases:
            self._record(node.attr, node)
            return
        if isinstance(value, ast.Name) and value.id == "self":
            if node.attr in self.config_attrs and node.attr != "params":
                self._record(node.attr, node)
            helper = self.methods.get(node.attr)
            if helper is not None and node.attr not in self._visited:
                self._visited.add(node.attr)
                self.collect(helper.body)


def _stage_branches(key_method: ast.FunctionDef, stages: Set[str]) -> Dict[str, List[ast.stmt]]:
    """The ``if spec.name == <stage>:`` branch body for each cacheable stage."""
    branches: Dict[str, List[ast.stmt]] = {}
    for node in ast.walk(key_method):
        if not isinstance(node, ast.If):
            continue
        for test_node in ast.walk(node.test):
            if (
                isinstance(test_node, ast.Constant)
                and isinstance(test_node.value, str)
                and test_node.value in stages
            ):
                branches.setdefault(test_node.value, node.body)
    return branches


@register_rule(
    RULE_ID,
    description=(
        "every fit parameter read inside a StageCache-cached stage body must "
        "appear in that stage's cache-key construction"
    ),
    hint=(
        "add the parameter to the stage's branch in _stage_key_params, or "
        "baseline it with a justification for why the artifact is parameter-"
        "independent"
    ),
)
def check_cache_keys(project: Project) -> Iterator[Finding]:
    """Line cacheable stage bodies up against their key construction."""
    for module in project.modules:
        stages = _cacheable_stages(module.tree)
        if not stages:
            continue
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                statement.name: statement
                for statement in cls.body
                if isinstance(statement, ast.FunctionDef)
            }
            key_method = methods.get("_stage_key_params")
            if key_method is None:
                continue
            config_attrs = _config_attrs(cls)
            branches = _stage_branches(key_method, stages)
            globally_keyed: Set[str] = set()
            for name in ("_base_payload", "_source_payload"):
                helper = methods.get(name)
                if helper is not None:
                    collector = _ReadCollector(methods, config_attrs).collect(helper.body)
                    globally_keyed |= set(collector.reads)
            for stage in sorted(stages):
                run_method = methods.get(f"_run_{stage}")
                if run_method is None:
                    continue
                reads = _ReadCollector(methods, config_attrs).collect(run_method.body)
                branch = branches.get(stage)
                covered: Set[str] = set(globally_keyed)
                if branch is not None:
                    key_reads = _ReadCollector(methods, config_attrs).collect(
                        branch, alias_scope=key_method.body
                    )
                    covered |= set(key_reads.reads)
                    covered |= key_reads.strings
                for attr in sorted(reads.reads):
                    if attr in covered:
                        continue
                    line, column = reads.reads[attr]
                    yield Finding(
                        rule=RULE_ID,
                        path=module.relpath,
                        line=line,
                        column=column,
                        symbol=f"{stage}:{attr}",
                        message=(
                            f"cached stage {stage!r} reads {attr!r} but its "
                            "cache key does not include it — changing the "
                            "parameter would silently reuse a stale artifact"
                        ),
                    )
