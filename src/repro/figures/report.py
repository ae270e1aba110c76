"""The reporting layer: ``REPRODUCTION.md`` generated from figure artifacts.

The report is a pure function of the artifact JSON files — no timestamps, no
environment probes — so regenerating it from the same artifacts is
byte-identical (CI asserts exactly that with ``report --check``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.figures.suite import (
    STATUS_CHECK_FAILED,
    STATUS_ERROR,
    STATUS_OK,
    FigureArtifact,
)

_STATUS_LABELS = {
    STATUS_OK: "✅ ok",
    STATUS_CHECK_FAILED: "⚠️ checks failed",
    STATUS_ERROR: "❌ error",
}

_HEADER = """\
# Reproduction status

Generated by the figure-reproduction suite — do not edit by hand; regenerate
with:

```bash
PYTHONPATH=src python -m repro.figures run --all            # or --smoke
PYTHONPATH=src python -m repro.figures report               # re-render only
```

Each row is one registered figure/table spec (see
`src/repro/figures/catalog.py`). *Reproduced* is the spec's headline metric at
the suite's reduced scale — hours of synthetic video instead of the paper's
8-day windows — so magnitudes are indicative, not identical to the paper's.
*Cache* counts offline-phase work shared with other figures: `fit` offline
fits this figure triggered, `stage` pipeline stages restored from the shared
on-disk stage cache, `memo` in-process bundle reuses.
"""


def _table_cell(text: str) -> str:
    return str(text).replace("|", "\\|").replace("\n", " ").strip()


def _cache_cell(artifact: FigureArtifact) -> str:
    cache: Dict[str, int] = artifact.meta.get("cache", {})
    return (
        f"{cache.get('fits', 0)} fit, {cache.get('stage_hits', 0)} stage, "
        f"{cache.get('memo_hits', 0)} memo"
    )


def _checks_cell(artifact: FigureArtifact) -> str:
    checks = artifact.payload.get("checks", [])
    if artifact.status == STATUS_ERROR or not checks:
        return "—"
    passed = sum(1 for c in checks if c.get("passed"))
    return f"{passed}/{len(checks)}"


def render_report(artifacts: Sequence[FigureArtifact]) -> str:
    """The full ``REPRODUCTION.md`` text for a set of artifacts."""
    artifacts = sorted(artifacts, key=lambda artifact: artifact.figure_id)
    lines: List[str] = [_HEADER]
    if not artifacts:
        lines.append("*No artifacts found — run the suite first.*")
        return "\n".join(lines) + "\n"

    modes = sorted({artifact.mode for artifact in artifacts})
    ok = sum(1 for artifact in artifacts if artifact.status == STATUS_OK)
    wall = sum(float(artifact.meta.get("wall_seconds", 0.0)) for artifact in artifacts)
    lines.append(
        f"**{ok}/{len(artifacts)} figures reproduced** "
        f"(mode: {', '.join(modes)}; suite wall-clock: {wall:.1f} s).\n"
    )
    lines.append(
        "| Figure | Paper | Claim (paper) | Reproduced (this run) | Status | "
        "Checks | Wall (s) | Cache |"
    )
    lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for artifact in artifacts:
        status = _STATUS_LABELS.get(artifact.status, artifact.status)
        headline = artifact.payload.get("headline", "—")
        if artifact.status == STATUS_ERROR:
            first_line = (artifact.error or "").strip().splitlines()
            headline = first_line[-1] if first_line else "spec raised"
        lines.append(
            "| "
            + " | ".join(
                [
                    f"`{artifact.figure_id}`",
                    _table_cell(artifact.paper_reference),
                    _table_cell(artifact.claim),
                    _table_cell(headline),
                    status,
                    _checks_cell(artifact),
                    f"{float(artifact.meta.get('wall_seconds', 0.0)):.2f}",
                    _cache_cell(artifact),
                ]
            )
            + " |"
        )

    failed = [artifact for artifact in artifacts if artifact.status != STATUS_OK]
    if failed:
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        for artifact in failed:
            lines.append(f"### `{artifact.figure_id}`")
            lines.append("")
            if artifact.status == STATUS_CHECK_FAILED:
                for failed_check in artifact.failed_checks:
                    lines.append(
                        f"- check `{failed_check.get('name')}` failed: "
                        f"{failed_check.get('detail') or '(no detail)'}"
                    )
            elif artifact.error:
                lines.append("```")
                lines.extend(artifact.error.rstrip().splitlines())
                lines.append("```")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report(
    artifacts: Sequence[FigureArtifact], path: Union[str, Path]
) -> Path:
    """Render and write ``REPRODUCTION.md``; returns the written path."""
    destination = Path(path).expanduser()
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(render_report(artifacts))
    return destination


def check_report(
    artifacts: Sequence[FigureArtifact], path: Union[str, Path]
) -> bool:
    """True when the report at ``path`` matches a fresh render exactly."""
    destination = Path(path).expanduser()
    if not destination.exists():
        return False
    return destination.read_text() == render_report(artifacts)
