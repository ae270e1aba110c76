"""Figure suite: artifacts, determinism, cache accounting, report, CLI."""

from __future__ import annotations

import json

import pytest

from repro.figures import (
    BundleProvider,
    FigureSuite,
    check_report,
    cli,
    load_artifacts,
    register_figure,
    render_report,
    unregister_figure,
    write_report,
)
from repro.figures.catalog import REGIME_SHIFT_MARGIN
from repro.figures.suite import STATUS_CHECK_FAILED, STATUS_ERROR, STATUS_OK


# ------------------------------------------------------------------ #
# Suite mechanics on throwaway specs (no offline fits involved)
# ------------------------------------------------------------------ #
@pytest.fixture
def scratch_specs():
    ids = []

    def add(figure_id, runner, schema=None):
        register_figure(
            figure_id,
            title=f"scratch {figure_id}",
            paper_reference="Figure 0",
            claim="scratch claim",
            schema=schema or {"value": "number"},
        )(runner)
        ids.append(figure_id)
        return figure_id

    yield add
    for figure_id in ids:
        unregister_figure(figure_id)


def test_suite_writes_artifact_json(tmp_path, scratch_specs):
    scratch_specs(
        "zz_ok",
        lambda ctx: {
            "headline": "fine",
            "checks": [{"name": "c", "passed": True, "detail": ""}],
            "value": 1.0,
        },
    )
    suite = FigureSuite(out_dir=tmp_path / "artifacts")
    artifact = suite.run_one("zz_ok")
    assert artifact.status == STATUS_OK and artifact.ok
    document = json.loads((tmp_path / "artifacts" / "zz_ok.json").read_text())
    assert document["figure"] == "zz_ok"
    assert document["payload"]["value"] == 1.0
    assert document["meta"]["cache"]["fits"] == 0


def test_suite_captures_spec_errors(tmp_path, scratch_specs):
    def boom(ctx):
        raise RuntimeError("spec exploded")

    scratch_specs("zz_boom", boom)
    suite = FigureSuite(out_dir=tmp_path)
    artifact = suite.run_one("zz_boom")
    assert artifact.status == STATUS_ERROR
    assert "spec exploded" in artifact.error
    # The artifact is still written and parseable.
    assert json.loads((tmp_path / "zz_boom.json").read_text())["status"] == "error"


def test_suite_flags_failed_checks(scratch_specs):
    scratch_specs(
        "zz_failing",
        lambda ctx: {
            "headline": "h",
            "checks": [{"name": "nope", "passed": False, "detail": "broken"}],
            "value": 0.0,
        },
    )
    artifact = FigureSuite().run_one("zz_failing")
    assert artifact.status == STATUS_CHECK_FAILED
    assert [c["name"] for c in artifact.failed_checks] == ["nope"]


def test_schema_violation_becomes_error_artifact(scratch_specs):
    scratch_specs(
        "zz_bad_payload",
        lambda ctx: {"headline": "h", "checks": [], "value": "not a number"},
    )
    artifact = FigureSuite().run_one("zz_bad_payload")
    assert artifact.status == STATUS_ERROR
    assert "violating its declared schema" in artifact.error


def test_missing_headline_is_a_schema_violation(scratch_specs):
    scratch_specs("zz_no_headline", lambda ctx: {"checks": [], "value": 1.0})
    artifact = FigureSuite().run_one("zz_no_headline")
    assert artifact.status == STATUS_ERROR
    assert "headline" in artifact.error


# ------------------------------------------------------------------ #
# Real specs: smoke determinism
# ------------------------------------------------------------------ #
def test_smoke_mode_artifact_is_deterministic():
    """Two independent smoke runs of a real spec produce identical payloads."""
    first = FigureSuite(smoke=True).run_one("fig22")
    second = FigureSuite(smoke=True).run_one("fig22")
    assert first.status == STATUS_OK
    assert json.dumps(first.payload, sort_keys=True) == json.dumps(
        second.payload, sort_keys=True
    )


def test_regime_shift_counts_its_fit_in_the_cache_column(tmp_path):
    """The figure's own regime setup fits through the provider's counters."""
    cold = FigureSuite(out_dir=tmp_path, smoke=True).run_one("regime_shift")
    assert cold.status == STATUS_OK, cold.error
    assert cold.meta["cache"]["fits"] == 1
    assert cold.meta["cache"]["stage_hits"] == 0
    warm = FigureSuite(out_dir=tmp_path, smoke=True).run_one("regime_shift")
    assert warm.status == STATUS_OK, warm.error
    assert warm.meta["cache"]["fits"] == 1
    assert warm.meta["cache"]["stage_hits"] == 5
    assert warm.payload == cold.payload


@pytest.mark.parametrize(
    "figure_id, fits, warm_stage_hits",
    # fig18 fits covid three times around the stage cache (it times the
    # stages) and reads the memoized covid bundle; offline_refit fits twice
    # through one evaluation cache and never touches the stage cache.
    [("fig18", 4, 4), ("offline_refit", 2, 0)],
)
def test_direct_fits_count_in_the_cache_column(tmp_path, figure_id, fits, warm_stage_hits):
    """A figure that calls ``Skyscraper.fit`` itself still counts every fit."""
    cold = FigureSuite(out_dir=tmp_path, smoke=True).run_one(figure_id)
    assert cold.status == STATUS_OK, cold.error
    assert cold.meta["cache"]["fits"] == fits
    assert cold.meta["cache"]["stage_hits"] == 0
    warm = FigureSuite(out_dir=tmp_path, smoke=True).run_one(figure_id)
    assert warm.status == STATUS_OK, warm.error
    assert warm.meta["cache"]["fits"] == fits
    assert warm.meta["cache"]["stage_hits"] == warm_stage_hits


def test_regime_shift_smoke_skyscraper_beats_static():
    """Fit on pre-shift history only, Skyscraper still beats static by the margin."""
    artifact = FigureSuite(smoke=True).run_one("regime_shift")
    assert artifact.status == STATUS_OK, artifact.error
    quality = {
        row["system"]: row["mean_true_quality"] for row in artifact.payload["rows"]
    }
    assert list(quality) == ["static", "skyscraper"]
    assert quality["skyscraper"] >= quality["static"] + REGIME_SHIFT_MARGIN


# ------------------------------------------------------------------ #
# The python -m repro.figures CLI
# ------------------------------------------------------------------ #
def _cli_run(figure_id, out_dir):
    return cli.main(["run", "--only", figure_id, "--out", str(out_dir), "--no-report"])


def test_cli_run_writes_artifact_and_exits_zero(tmp_path, scratch_specs):
    scratch_specs(
        "zz_cli_ok",
        lambda ctx: {
            "headline": "fine",
            "checks": [{"name": "c", "passed": True, "detail": ""}],
            "value": 1.0,
        },
    )
    assert _cli_run("zz_cli_ok", tmp_path) == 0
    document = json.loads((tmp_path / "zz_cli_ok.json").read_text())
    assert document["status"] == STATUS_OK


def test_cli_run_exits_one_on_failed_check(tmp_path, scratch_specs):
    scratch_specs(
        "zz_cli_failing",
        lambda ctx: {
            "headline": "h",
            "checks": [{"name": "nope", "passed": False, "detail": "broken"}],
            "value": 0.0,
        },
    )
    assert _cli_run("zz_cli_failing", tmp_path) == 1
    document = json.loads((tmp_path / "zz_cli_failing.json").read_text())
    assert document["status"] == STATUS_CHECK_FAILED


def test_cli_rejects_unknown_figure_ids(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        _cli_run("fig99", tmp_path)
    assert excinfo.value.code == 2
    assert "invalid choice: 'fig99'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------------ #
# Cache accounting
# ------------------------------------------------------------------ #
def test_provider_memoizes_bundles_in_process():
    provider = BundleProvider(smoke=True)
    first = provider.bundle("covid")
    again = provider.bundle("covid")
    assert first is again
    assert provider.counters.fits == 1
    assert provider.counters.memo_hits == 1


def test_second_provider_hits_the_stage_cache(tmp_path):
    """A fresh provider over the same cache_dir resumes from stage artifacts."""
    cold = BundleProvider(cache_dir=tmp_path, smoke=True)
    cold.bundle("covid")
    assert cold.counters.stage_hits == 0

    warm = BundleProvider(cache_dir=tmp_path, smoke=True)
    bundle = warm.bundle("covid")
    assert warm.counters.fits == 1
    assert warm.counters.stage_hits > 0
    assert bundle.offline_report is not None
    assert any(bundle.offline_report.stage_cache_hits.values())


# ------------------------------------------------------------------ #
# REPRODUCTION.md generation
# ------------------------------------------------------------------ #
def test_report_regeneration_is_diff_free(tmp_path, scratch_specs):
    scratch_specs(
        "zz_report_ok",
        lambda ctx: {
            "headline": "metric 1.0",
            "checks": [{"name": "c", "passed": True, "detail": ""}],
            "value": 1.0,
        },
    )

    def failing(ctx):
        raise ValueError("broken spec")

    scratch_specs("zz_report_err", failing)

    suite = FigureSuite(out_dir=tmp_path / "artifacts")
    suite.run(["zz_report_ok", "zz_report_err"])
    artifacts = load_artifacts(tmp_path / "artifacts")
    assert [a.figure_id for a in artifacts] == ["zz_report_err", "zz_report_ok"]

    report_path = tmp_path / "REPRODUCTION.md"
    write_report(artifacts, report_path)
    text = report_path.read_text()
    assert "`zz_report_ok`" in text and "metric 1.0" in text
    assert "## Failures" in text and "broken spec" in text

    # Re-rendering from the same artifacts is byte-identical ...
    assert check_report(artifacts, report_path)
    assert render_report(load_artifacts(tmp_path / "artifacts")) == text
    # ... and --check catches manual edits.
    report_path.write_text(text + "drift\n")
    assert not check_report(artifacts, report_path)


def test_report_leaves_out_unregistered_artifacts(tmp_path, scratch_specs, capsys):
    """A leftover artifact of an unregistered figure is neither rendered nor counted."""
    scratch_specs(
        "zz_registered",
        lambda ctx: {
            "headline": "metric 1.0",
            "checks": [{"name": "c", "passed": True, "detail": ""}],
            "value": 1.0,
        },
    )
    artifacts_dir = tmp_path / "artifacts"
    FigureSuite(out_dir=artifacts_dir).run_one("zz_registered")
    leftover = json.loads((artifacts_dir / "zz_registered.json").read_text())
    leftover["figure"] = "zz_removed"
    leftover["payload"]["headline"] = "stale metric"
    (artifacts_dir / "zz_removed.json").write_text(json.dumps(leftover))

    assert [a.figure_id for a in load_artifacts(artifacts_dir)] == ["zz_registered"]
    report_path = tmp_path / "REPRODUCTION.md"
    report_args = ["report", "--artifacts", str(artifacts_dir), "--output", str(report_path)]
    assert cli.main(report_args) == 0
    text = report_path.read_text()
    assert "`zz_registered`" in text
    assert "zz_removed" not in text and "stale metric" not in text
    assert "**1/1 figures reproduced**" in text
    assert "zz_removed.json" in capsys.readouterr().out
    assert cli.main([*report_args, "--check"]) == 0

    run_args = ["run", "--only", "zz_registered", "--out", str(artifacts_dir)]
    assert cli.main([*run_args, "--report", str(report_path)]) == 0
    assert "zz_removed.json" in capsys.readouterr().out
    rerun = report_path.read_text()
    assert "zz_removed" not in rerun and "**1/1 figures reproduced**" in rerun
