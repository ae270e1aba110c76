"""Parsed view of the repository that every rule checks against.

A :class:`Project` is the single input handed to every registered rule: the
parsed ASTs of ``src/repro/**`` plus the raw text of ``tests/**`` (rules that
enforce "referenced by a test" search the latter).  Projects are built either
from the real tree (:meth:`Project.from_root`) or from in-memory sources
(:meth:`Project.from_sources`) so rule tests can feed small fixture snippets
through exactly the code path the CLI runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Directories under ``src/repro`` whose outputs back a parity oracle; the
#: determinism rule only patrols these (service timestamps et al. are
#: legitimately wall-clock).
PARITY_SCOPES: Tuple[str, ...] = ("core/", "video/", "vision/", "workloads/")


@dataclass(frozen=True)
class SourceModule:
    """One parsed python module of the analyzed tree.

    Attributes:
        relpath: posix path relative to the repository root
            (e.g. ``src/repro/core/offline.py``).
        source: the module's source text.
        tree: the parsed :class:`ast.Module`.
    """

    relpath: str
    source: str
    tree: ast.Module

    @property
    def package_relpath(self) -> str:
        """Path relative to the ``repro`` package root (e.g. ``core/offline.py``)."""
        marker = "repro/"
        index = self.relpath.find(marker)
        if index < 0:
            return self.relpath
        return self.relpath[index + len(marker):]

    def in_scope(self, prefixes: Tuple[str, ...]) -> bool:
        """Whether the module lives under one of the package-relative prefixes."""
        return self.package_relpath.startswith(prefixes)


@dataclass
class Project:
    """Everything a rule may inspect: parsed sources plus test text.

    Attributes:
        root: repository root the relative paths are anchored at.
        modules: parsed modules of ``src/repro`` in sorted path order.
        test_texts: ``relpath -> raw text`` of every test file.
        parse_errors: files that failed to parse (reported by the engine as
            findings of the built-in ``parse-error`` pseudo-rule).
    """

    root: Path
    modules: List[SourceModule] = field(default_factory=list)
    test_texts: Dict[str, str] = field(default_factory=dict)
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)

    @classmethod
    def from_root(cls, root: Path) -> "Project":
        """Parse ``src/repro/**`` and read ``tests/**`` under ``root``."""
        root = Path(root).resolve()
        package_dir = root / "src" / "repro"
        if not package_dir.is_dir():
            raise ConfigurationError(
                f"no src/repro package under {root}; pass --root explicitly"
            )
        project = cls(root=root)
        for path in sorted(package_dir.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            relpath = path.relative_to(root).as_posix()
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=relpath)
            except SyntaxError as error:
                project.parse_errors.append((relpath, str(error)))
                continue
            project.modules.append(SourceModule(relpath, source, tree))
        tests_dir = root / "tests"
        if tests_dir.is_dir():
            for path in sorted(tests_dir.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                relpath = path.relative_to(root).as_posix()
                project.test_texts[relpath] = path.read_text()
        return project

    @classmethod
    def from_sources(
        cls,
        sources: Dict[str, str],
        test_texts: Optional[Dict[str, str]] = None,
        root: Optional[Path] = None,
    ) -> "Project":
        """A project over in-memory ``relpath -> source`` fixtures (for tests)."""
        project = cls(root=Path(root) if root is not None else Path("."))
        for relpath in sorted(sources):
            source = sources[relpath]
            try:
                tree = ast.parse(source, filename=relpath)
            except SyntaxError as error:
                project.parse_errors.append((relpath, str(error)))
                continue
            project.modules.append(SourceModule(relpath, source, tree))
        project.test_texts = dict(test_texts or {})
        return project


def dotted_name(node: ast.AST) -> Optional[str]:
    """The dotted text of a ``Name``/``Attribute`` chain, or ``None``.

    ``ast.Attribute(value=Name('np'), attr='random')`` becomes ``"np.random"``;
    chains rooted in calls or subscripts (not plain names) yield ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
