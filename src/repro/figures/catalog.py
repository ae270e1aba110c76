"""The registered figure catalog: every evaluation figure/table as a spec.

Each spec here reproduces one figure or table: the workload bundles come
from the shared :class:`~repro.figures.context.FigureContext` (so figures
sharing an offline phase pay for it once), the scale shrinks in smoke mode
through ``ctx.scale(full, smoke)``, and the figure's shape assertions are
declarative ``checks`` entries in the payload.  Run one with
``python -m repro.figures run --only ID``.

Scale note: full mode runs the benchmark scale of the legacy suite (12 h of
history, ~1.2 h online — minutes end to end), not the paper's 16-day/8-day
setup; smoke mode shrinks windows and sweep axes further for CI.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

from repro.baselines.idealized import idealized_assignment
from repro.baselines.optimum import optimum_assignment
from repro.core.categorizer import ContentCategorizer
from repro.core.fleet import DailyBudgetLedger
from repro.core.offline import EvaluationCache
from repro.core.skyscraper import Skyscraper, SkyscraperResources
from repro.experiments.ablation import ablation_cost_sweep, work_quality_curves
from repro.experiments.microbench import (
    category_label_series,
    figure3_trace,
    forecaster_horizon_mae,
    forecaster_input_mae,
    forecaster_training_size_mae,
    planner_overhead_seconds,
    simulator_cloud_benchmark,
    simulator_end_to_end_accuracy,
    simulator_microbenchmark,
    switcher_error_analysis,
    switcher_overhead_seconds,
)
from repro.experiments.results import normalize_series
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    cost_reduction_factor,
)
from repro.figures.context import FigureContext, make_setup
from repro.figures.spec import check, register_figure
from repro.planning import (
    AdmissionController,
    TenantSpec,
    build_problem_from_skyscraper,
    build_tenant_ledgers,
    plan_fleet,
    solve_ladder,
)
from repro.service.bench import run_service_scaling
from repro.workloads.fleet import make_multi_tenant_scenario
from repro.workloads.regime import make_regime_setup

#: Machine tiers of the quick sweeps (Appendix L hardware).
QUICK_TIERS = ["e2-standard-4", "e2-standard-16", "c2-standard-60"]


# --------------------------------------------------------------------- #
# Figure 3: the EV walk-through
# --------------------------------------------------------------------- #
@register_figure(
    "fig03",
    title="24-hour walk-through of the EV workload",
    paper_reference="Figure 3",
    claim=(
        "The cheap configuration only matches the expensive one at night; the "
        "workload rises during the day, the buffer fills in the afternoon, and "
        "cloud spend stays within the daily plan (~4500 switches/day)."
    ),
    schema={
        "rows": [
            {
                "hour_of_day": "number",
                "workload_core_s_per_s": "number",
                "buffer_GB": "number",
                "cloud_spend_frac": "number",
            }
        ],
        "switch_count": "int",
    },
    workloads=("ev",),
    systems=("skyscraper",),
    sweep={"bucket_seconds": [1800.0]},
)
def _run_fig03(ctx: FigureContext) -> Dict[str, Any]:
    """``fig03``: 24-hour walk-through of the EV workload."""
    bundle = ctx.bundle("ev", online_days=ctx.scale(0.1, 0.02))
    trace = figure3_trace(
        bundle, cores=4, bucket_seconds=ctx.scale(1800.0, 600.0)
    )
    rows = []
    for index, hour in enumerate(trace.hours):
        row = {
            "hour_of_day": round(hour % 24.0, 2),
            "workload_core_s_per_s": round(
                trace.workload_core_seconds_per_second[index], 2
            ),
            "buffer_GB": round(trace.buffer_gigabytes[index], 3),
            "cloud_spend_frac": round(trace.cloud_spend_fraction[index], 3),
        }
        for name, series in trace.quality_by_configuration.items():
            row[f"quality_{name}"] = round(series[index], 3)
        rows.append(row)
    lo = min(trace.workload_core_seconds_per_second)
    hi = max(trace.workload_core_seconds_per_second)
    return {
        "headline": (
            f"{trace.switch_count} knob switches; workload varies "
            f"{lo:.2f}-{hi:.2f} core-s/s over the window"
        ),
        "rows": rows,
        "switch_count": trace.switch_count,
        "checks": [
            check("switches_happen", trace.switch_count > 0, f"{trace.switch_count} switches"),
            check("workload_varies", hi > lo, f"range {lo:.2f}-{hi:.2f}"),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 4 / Table 2: cost-quality trade-off
# --------------------------------------------------------------------- #
@register_figure(
    "fig04",
    title="Cost-quality trade-off of Skyscraper vs. the baselines",
    paper_reference="Figure 4 / Table 2",
    claim=(
        "Skyscraper reaches baseline-peak quality up to 8.7x cheaper (MOT) and "
        "3.7x cheaper than Chameleon*, and never crashes; Chameleon* overflows "
        "the buffer on small machines."
    ),
    schema={
        "workloads": [
            {
                "workload": "str",
                "cost_reduction_factor": "number?",
                "rows": [
                    {
                        "system": "str",
                        "machine": "str",
                        "quality": "number",
                        "total_cost_usd": "number",
                        "crashed": "bool",
                    }
                ],
            }
        ],
    },
    workloads=("covid", "mot", "mosei-high", "mosei-long"),
    systems=("static", "chameleon*", "skyscraper"),
    sweep={"tiers": QUICK_TIERS},
)
def _run_fig04(ctx: FigureContext) -> Dict[str, Any]:
    """``fig04``: Cost-quality trade-off of Skyscraper vs. the baselines."""
    workloads = ctx.scale(["covid", "mot", "mosei-high", "mosei-long"], ["covid"])
    tiers = ctx.scale(QUICK_TIERS, QUICK_TIERS[:2])
    per_workload: List[Dict[str, Any]] = []
    checks: List[Dict[str, Any]] = []
    factors: Dict[str, float] = {}
    for workload_name in workloads:
        runner = ctx.runner(workload_name)
        points = runner.sweep(
            systems=("static", "chameleon*", "skyscraper"),
            tiers=tiers,
            skyscraper_tiers=tiers[:2],
        )
        factor = cost_reduction_factor(points)
        if factor is not None:
            factors[workload_name] = factor
        per_workload.append(
            {
                "workload": workload_name,
                "cost_reduction_factor": None if factor is None else round(factor, 2),
                "rows": [point.as_row() for point in points],
            }
        )
        sky = [p for p in points if p.system == "skyscraper"]
        static = [p for p in points if p.system == "static"]
        checks.append(
            check(
                f"{workload_name}_skyscraper_never_crashes",
                bool(sky) and all(not p.crashed for p in sky),
                f"{sum(p.crashed for p in sky)} crashed skyscraper points",
            )
        )
        cheapest = min(sky, key=lambda p: p.total_dollars)
        same_machine = [p for p in static if p.machine == cheapest.machine]
        checks.append(
            check(
                f"{workload_name}_within_0.06_of_static_on_same_machine",
                bool(same_machine)
                and cheapest.quality >= same_machine[0].quality - 0.06,
                f"sky {cheapest.quality:.3f} vs static "
                f"{same_machine[0].quality:.3f} on {cheapest.machine} "
                "(passes at sky >= static - 0.06)",
            )
        )
    if factors:
        best = max(factors, key=factors.get)
        headline = (
            f"Skyscraper up to {factors[best]:.1f}x cheaper at comparable "
            f"quality ({best}); paper: up to 8.7x"
        )
    else:
        headline = "no baseline reached Skyscraper's quality at this scale"
    return {"headline": headline, "workloads": per_workload, "checks": checks}


# --------------------------------------------------------------------- #
# Figures 5/7/9/11: monetary-cost ablation
# --------------------------------------------------------------------- #
@register_figure(
    "fig05_11",
    title="Monetary-cost ablation of buffering and cloud bursting",
    paper_reference="Figures 5, 7, 9, 11",
    claim=(
        "Buffering & cloud together reach peak quality ~1.5x cheaper than "
        "either resource alone; only-cloud struggles at cost ratio 2.5:1, "
        "only-buffering struggles on long workload peaks."
    ),
    schema={
        "cases": [
            {
                "workload": "str",
                "cost_ratio": "number",
                "rows": [
                    {
                        "variant": "str",
                        "machine": "str",
                        "quality": "number",
                        "normalized_cost": "number",
                    }
                ],
            }
        ],
    },
    workloads=("covid", "mot", "mosei-high", "mosei-long"),
    systems=("skyscraper",),
    sweep={"cost_ratio": [1.0, 1.8, 2.5], "tiers": QUICK_TIERS[:2]},
)
def _run_fig05_11(ctx: FigureContext) -> Dict[str, Any]:
    """``fig05_11``: Monetary-cost ablation of buffering and cloud bursting."""
    workloads = ctx.scale(["covid", "mot", "mosei-high", "mosei-long"], ["covid"])
    ratios = ctx.scale((1.0, 1.8, 2.5), (1.8,))
    tiers = QUICK_TIERS[:2]
    cases: List[Dict[str, Any]] = []
    checks: List[Dict[str, Any]] = []
    for workload_name in workloads:
        bundle = ctx.bundle(workload_name)
        for ratio in ratios:
            points = ablation_cost_sweep(bundle, cost_ratio=ratio, tiers=tiers)
            reference = max(point.total_dollars for point in points)
            cases.append(
                {
                    "workload": workload_name,
                    "cost_ratio": ratio,
                    "rows": [
                        {
                            "variant": point.variant,
                            "machine": point.machine,
                            "quality": round(point.quality, 3),
                            "normalized_cost": round(point.total_dollars / reference, 3),
                            "cloud_usd": round(point.cloud_dollars, 3),
                        }
                        for point in points
                    ],
                }
            )
            if ratio == 1.8:
                small = {p.variant: p for p in points if p.machine == tiers[0]}
                full = small["buffering_and_cloud"].quality
                for variant in ("no_buffering_no_cloud", "only_cloud", "only_buffering"):
                    checks.append(
                        check(
                            f"{workload_name}_full_system_geq_{variant}",
                            full >= small[variant].quality - 0.02,
                            f"{full:.3f} vs {variant} {small[variant].quality:.3f}",
                        )
                    )
    return {
        "headline": (
            f"full system >= every single-resource variant at ratio 1.8:1 "
            f"on {len(workloads)} workload(s)"
        ),
        "cases": cases,
        "checks": checks,
    }


# --------------------------------------------------------------------- #
# Figures 6/8/10/12: work ablation
# --------------------------------------------------------------------- #
@register_figure(
    "fig06_12",
    title="Work-quality ablation: Static vs Skyscraper vs Optimum",
    paper_reference="Figures 6, 8, 10, 12",
    claim=(
        "Skyscraper's work reduction tracks the ground-truth Optimum closely "
        "on all workloads except MOSEI-LONG."
    ),
    schema={
        "curves": [
            {
                "workload": "str",
                "system": "str",
                "normalized_work": ["number"],
                "quality": ["number"],
            }
        ],
    },
    workloads=("covid", "mot", "mosei-high", "mosei-long"),
    systems=("static", "skyscraper", "optimum"),
    sweep={"budgets_fraction_of_max": [0.05, 0.15, 0.4, 1.0]},
)
def _run_fig06_12(ctx: FigureContext) -> Dict[str, Any]:
    """``fig06_12``: Work-quality ablation: Static vs Skyscraper vs Optimum."""
    workloads = ctx.scale(["covid", "mot", "mosei-high", "mosei-long"], ["covid"])
    budgets = ctx.scale((0.05, 0.15, 0.4, 1.0), (0.15, 1.0))
    curve_rows: List[Dict[str, Any]] = []
    checks: List[Dict[str, Any]] = []
    for workload_name in workloads:
        bundle = ctx.bundle(workload_name)
        curves = work_quality_curves(
            bundle,
            tiers=QUICK_TIERS[:2],
            max_optimum_segments=ctx.scale(300, 120),
            budgets_fraction_of_max=budgets,
        )
        reference = max(max(curve.work_core_seconds) for curve in curves)
        by_name = {curve.system: curve for curve in curves}
        for curve in curves:
            curve_rows.append(
                {
                    "workload": workload_name,
                    "system": curve.system,
                    "normalized_work": [
                        round(v, 3)
                        for v in normalize_series(
                            curve.work_core_seconds, reference=reference
                        )
                    ],
                    "quality": [round(v, 3) for v in curve.quality],
                }
            )
        checks.append(
            check(
                f"{workload_name}_optimum_upper_bounds_skyscraper",
                max(by_name["skyscraper"].quality)
                <= max(by_name["optimum"].quality) + 0.05,
                f"sky {max(by_name['skyscraper'].quality):.3f} vs "
                f"opt {max(by_name['optimum'].quality):.3f}",
            )
        )
        checks.append(
            check(
                f"{workload_name}_skyscraper_geq_static_at_equal_work",
                by_name["skyscraper"].quality[0] >= by_name["static"].quality[0] - 0.05,
                f"sky {by_name['skyscraper'].quality[0]:.3f} vs "
                f"static {by_name['static'].quality[0]:.3f}",
            )
        )
    return {
        "headline": (
            f"Skyscraper tracks the Optimum within 0.05 quality on "
            f"{len(workloads)} workload(s)"
        ),
        "curves": curve_rows,
        "checks": checks,
    }


# --------------------------------------------------------------------- #
# Figure 13: decision overheads
# --------------------------------------------------------------------- #
@register_figure(
    "fig13",
    title="Decision overheads of the knob switcher and planner",
    paper_reference="Figure 13",
    claim=(
        "The switcher decides in well under a millisecond on average (worst "
        "case linear in placements); the planner stays below a second for all "
        "realistic problem sizes."
    ),
    schema={
        "switcher": [
            {"placements": "int", "avg_ms": "number", "worst_case_ms": "number"}
        ],
        "planner": [
            {
                "content_categories": "int",
                "knob_configurations": "int",
                "runtime_s": "number",
            }
        ],
    },
    sweep={"placements": [100, 1_000, 5_000], "categories": [5, 35, 65]},
)
def _run_fig13(ctx: FigureContext) -> Dict[str, Any]:
    """``fig13``: Decision overheads of the knob switcher and planner."""
    switcher_rows = []
    for placements in ctx.scale((100, 1_000, 5_000), (100, 1_000)):
        average = switcher_overhead_seconds(
            placements, repetitions=ctx.scale(100, 30)
        )
        worst = switcher_overhead_seconds(
            placements, repetitions=ctx.scale(20, 10), worst_case=True
        )
        switcher_rows.append(
            {
                "placements": placements,
                "avg_ms": round(average * 1e3, 4),
                "worst_case_ms": round(worst * 1e3, 4),
            }
        )
    planner_rows = []
    for n_categories in ctx.scale((5, 35, 65), (5, 35)):
        for n_configurations in ctx.scale((3, 9, 15), (3, 9)):
            seconds = planner_overhead_seconds(n_categories, n_configurations)
            planner_rows.append(
                {
                    "content_categories": n_categories,
                    "knob_configurations": n_configurations,
                    "runtime_s": round(seconds, 4),
                }
            )
    worst_planner = max(row["runtime_s"] for row in planner_rows)
    return {
        "headline": (
            f"switcher avg {switcher_rows[0]['avg_ms']:.3f} ms; planner worst "
            f"{worst_planner:.3f} s"
        ),
        "switcher": switcher_rows,
        "planner": planner_rows,
        "checks": [
            # Thresholds are looser than the paper's (sub-ms / sub-s) to
            # absorb noisy shared CI machines.
            check(
                "switcher_sub_millisecond_regime",
                switcher_rows[0]["avg_ms"] < 5.0,
                f"avg {switcher_rows[0]['avg_ms']:.4f} ms at 100 placements",
            ),
            check(
                "planner_below_one_and_a_half_seconds",
                worst_planner < 1.5,
                f"worst {worst_planner:.3f} s",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 14 / Table 5: forecast horizons
# --------------------------------------------------------------------- #
@register_figure(
    "fig14",
    title="Forecast horizon (planned-interval length) study",
    paper_reference="Figure 14 / Table 5",
    claim=(
        "Forecast MAE is 0.04-0.13 for 1-4 day planned intervals and clearly "
        "worse at 8 days; the sweet spot scales with the history length."
    ),
    schema={
        "cases": [
            {
                "workload": "str",
                "rows": [{"planned_interval_days": "number", "forecast_mae": "number"}],
            }
        ],
    },
    workloads=("covid", "mot"),
    sweep={"horizons_days": [0.02, 0.05, 0.1, 0.25]},
)
def _run_fig14(ctx: FigureContext) -> Dict[str, Any]:
    """``fig14``: Forecast horizon (planned-interval length) study."""
    label_period = 180.0
    workloads = ctx.scale(["covid", "mot"], ["covid"])
    horizons = ctx.scale((0.02, 0.05, 0.1, 0.25), (0.01, 0.02, 0.05))
    input_days = ctx.scale(0.1, 0.05)
    cases = []
    checks = []
    best = 1.0
    for workload_name in workloads:
        bundle = ctx.bundle(workload_name)
        labels = category_label_series(
            bundle, 0.0, ctx.history_days, period_seconds=label_period
        )
        maes = forecaster_horizon_mae(
            labels,
            n_categories=bundle.skyscraper.categorizer.actual_categories,
            label_period_seconds=label_period,
            horizons_days=horizons,
            input_days=input_days,
            n_splits=4,
        )
        cases.append(
            {
                "workload": workload_name,
                "rows": [
                    {"planned_interval_days": horizon, "forecast_mae": round(mae, 4)}
                    for horizon, mae in maes.items()
                ],
            }
        )
        values = list(maes.values())
        best = min(best, min(values))
        checks.append(
            check(
                f"{workload_name}_mae_in_unit_range",
                all(0.0 <= value <= 1.0 for value in values),
                f"values {['%.3f' % v for v in values]}",
            )
        )
        # The short smoke history carries much less periodic signal, so the
        # smoke threshold only separates the forecast from the 0.5 worst case.
        signal_threshold = ctx.scale(0.35, 0.45)
        checks.append(
            check(
                f"{workload_name}_forecast_carries_signal",
                min(values) < signal_threshold,
                f"best MAE {min(values):.3f} (worst-case baseline 0.5)",
            )
        )
    return {
        "headline": f"best forecast MAE {best:.3f} across horizons (paper: 0.04-0.13)",
        "cases": cases,
        "checks": checks,
    }


# --------------------------------------------------------------------- #
# Figure 15: switcher misclassifications
# --------------------------------------------------------------------- #
@register_figure(
    "fig15",
    title="Knob-switcher content misclassification (Type-A vs Type-B)",
    paper_reference="Figure 15",
    claim=(
        "Only a few percent of segments are misclassified (2.1% COVID, 6.6% "
        "MOT), almost entirely timing-induced Type-B errors that barely affect "
        "end-to-end quality."
    ),
    schema={
        "rows": [
            {
                "workload": "str",
                "samples": "int",
                "misclassification_rate": "number",
                "type_a_rate": "number",
                "type_b_rate": "number",
            }
        ],
    },
    workloads=("covid", "mot"),
)
def _run_fig15(ctx: FigureContext) -> Dict[str, Any]:
    """``fig15``: Knob-switcher content misclassification (Type-A vs Type-B)."""
    workloads = ctx.scale(["covid", "mot"], ["covid"])
    n_samples = ctx.scale(250, 80)
    rows = []
    checks = []
    for workload_name in workloads:
        report = switcher_error_analysis(ctx.bundle(workload_name), n_samples=n_samples)
        rows.append(
            {
                "workload": workload_name,
                "samples": report.samples,
                "misclassification_rate": round(report.misclassification_rate, 3),
                "type_a_rate": round(report.type_a_rate, 3),
                "type_b_rate": round(report.type_b_rate, 3),
            }
        )
        checks.append(
            check(
                f"{workload_name}_misclassifications_are_minority",
                report.misclassification_rate < 0.5,
                f"rate {report.misclassification_rate:.3f}",
            )
        )
        checks.append(
            check(
                f"{workload_name}_type_a_within_total",
                report.type_a_rate <= report.misclassification_rate + 0.02,
                f"type-A {report.type_a_rate:.3f} vs total "
                f"{report.misclassification_rate:.3f}",
            )
        )
    rates = ", ".join(
        f"{row['workload']} {100 * row['misclassification_rate']:.1f}%" for row in rows
    )
    return {
        "headline": f"misclassification rates: {rates} (paper: 2.1% / 6.6%)",
        "rows": rows,
        "checks": checks,
    }


# --------------------------------------------------------------------- #
# Figure 16: idealized vs practical design
# --------------------------------------------------------------------- #
@register_figure(
    "fig16",
    title="Idealized per-slot forecasting design vs. the practical design",
    paper_reference="Figure 16 (Appendix B.1)",
    claim=(
        "The practical design almost matches the Optimum; the idealized "
        "per-slot design loses quality because per-second forecasts hours "
        "ahead are inaccurate."
    ),
    schema={
        "rows": [{"system": "str", "quality": "number"}],
    },
    workloads=("covid",),
    systems=("static", "idealized", "skyscraper", "optimum"),
)
def _run_fig16(ctx: FigureContext) -> Dict[str, Any]:
    """``fig16``: Idealized per-slot forecasting design vs. the practical design."""
    bundle = ctx.bundle("covid")
    runner = ExperimentRunner(bundle)
    source = bundle.setup.source
    workload = bundle.setup.workload
    profiles = bundle.skyscraper.profiles
    cores = 4

    history_segments = int(
        ctx.history_days * 86_400.0 / source.segment_seconds * 0.8
    )
    history = [
        source.segment_at(index)
        for index in range(0, history_segments, ctx.scale(60, 30))
    ]
    start_index = int(bundle.config.online_start / source.segment_seconds)
    end_index = int(bundle.config.online_end / source.segment_seconds)
    future = [source.segment_at(index) for index in range(start_index, end_index, 4)]
    budget = cores * source.segment_seconds * len(future)

    idealized = idealized_assignment(workload, profiles, history, future, budget)
    optimum = optimum_assignment(workload, profiles, future, budget)
    practical = runner.run("skyscraper", cores=cores)
    static = runner.run("static", cores=cores)

    rows = [
        {"system": "static", "quality": round(static.weighted_quality, 3)},
        {"system": "idealized", "quality": round(idealized.mean_quality, 3)},
        {"system": "skyscraper", "quality": round(practical.weighted_quality, 3)},
        {"system": "optimum", "quality": round(optimum.mean_quality, 3)},
    ]
    return {
        "headline": (
            f"practical {practical.weighted_quality:.3f} vs idealized "
            f"{idealized.mean_quality:.3f} vs optimum {optimum.mean_quality:.3f}"
        ),
        "rows": rows,
        "checks": [
            check(
                "optimum_upper_bounds_idealized",
                optimum.mean_quality >= idealized.mean_quality - 1e-6,
                f"opt {optimum.mean_quality:.3f} vs ideal {idealized.mean_quality:.3f}",
            ),
            check(
                "practical_geq_static",
                practical.weighted_quality >= static.weighted_quality - 0.05,
                f"practical {practical.weighted_quality:.3f} vs "
                f"static {static.weighted_quality:.3f}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 17: KMeans vs GMM content categories
# --------------------------------------------------------------------- #
@register_figure(
    "fig17",
    title="Clustering algorithm for content categories: KMeans vs GMM",
    paper_reference="Figure 17 (Appendix B.2)",
    claim=(
        "KMeans and Gaussian-mixture categorization agree broadly and show no "
        "end-to-end difference; KMeans is preferred for simplicity."
    ),
    schema={
        "rows": [
            {"method": "str", "categories": "int", "mean_center_quality": "number"}
        ],
        "label_agreement": "number",
    },
    workloads=("covid",),
)
def _run_fig17(ctx: FigureContext) -> Dict[str, Any]:
    """``fig17``: Clustering algorithm for content categories: KMeans vs GMM."""
    bundle = ctx.bundle("covid")
    workload = bundle.setup.workload
    source = bundle.setup.source
    profiles = bundle.skyscraper.profiles
    rng = np.random.default_rng(0)
    n_samples = ctx.scale(200, 100)
    indices = rng.integers(
        0,
        int(ctx.history_days * 86_400.0 / source.segment_seconds),
        size=n_samples,
    )
    vectors = np.array(
        [
            [
                workload.evaluate(p.configuration, source.segment_at(int(index)))
                .reported_quality
                for p in profiles
            ]
            for index in indices
        ]
    )
    kmeans = ContentCategorizer(n_categories=4, method="kmeans", seed=0).fit(vectors)
    gmm = ContentCategorizer(n_categories=4, method="gmm", seed=0).fit(vectors)
    agreement = float(
        np.mean(kmeans.classify_many(vectors) == gmm.classify_many(vectors))
    )
    rows = [
        {
            "method": "kmeans",
            "categories": kmeans.actual_categories,
            "mean_center_quality": round(float(kmeans.centers.mean()), 3),
        },
        {
            "method": "gmm",
            "categories": gmm.actual_categories,
            "mean_center_quality": round(float(gmm.centers.mean()), 3),
        },
    ]
    return {
        "headline": f"label agreement {agreement:.2f} between KMeans and GMM",
        "rows": rows,
        "label_agreement": round(agreement, 4),
        "checks": [
            check("methods_agree_majority", agreement > 0.5, f"agreement {agreement:.2f}"),
            check(
                "same_center_shapes",
                kmeans.centers.shape == gmm.centers.shape,
                f"{kmeans.centers.shape} vs {gmm.centers.shape}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 18 / Table 3: offline phase
# --------------------------------------------------------------------- #
@register_figure(
    "fig18",
    title="Offline-phase runtimes and forecaster training-set size",
    paper_reference="Figure 18 / Table 3 / Appendix E",
    claim=(
        "Creating the forecaster's training data dominates the offline phase "
        "(83% of 1.6 h); forecaster MAE flattens well before the full "
        "training set is used."
    ),
    schema={
        "repeats": "int",
        "steps": [{"step": "str", "runtime_s": "number"}],
        "training_data_share": {"median": "number", "min": "number", "max": "number"},
        "forecast_validation_mae": "number",
        "training_size": [{"training_samples": "int", "forecast_mae": "number"}],
    },
    workloads=("covid",),
    sweep={"sample_counts": [20, 50, 100, 200]},
)
def _run_fig18(ctx: FigureContext) -> Dict[str, Any]:
    """``fig18``: Offline-phase runtimes and forecaster training-set size.

    One cold fit of this figure's window takes well under a second, so a
    single sample swings with host noise; the steps are timed over several
    cold fits and reported as medians, with the training-data share's min-max.
    """
    history_days = ctx.scale(0.5, 0.2)
    setup = make_setup("covid", history_days=history_days, online_days=0.05)
    reports = []
    for _ in range(ctx.scale(5, 3)):
        sky = Skyscraper(
            setup.workload,
            SkyscraperResources(cores=8, buffer_bytes=2_000_000_000, cloud_budget_per_day=2.0),
            n_categories=4,
            planned_interval_seconds=0.1 * 86_400.0,
            forecaster_splits=4,
            seed=0,
        )
        report = sky.fit(
            setup.source,
            unlabeled_days=history_days,
            n_presample_segments=ctx.scale(120, 60),
            n_category_samples=ctx.scale(150, 80),
            forecast_label_period_seconds=120.0,
            forecast_input_days=ctx.scale(0.1, 0.05),
            max_configurations=6,
            train_forecaster=True,
        )
        # Timed outside the stage cache, so the steps are always run; counted
        # like every other fit.
        ctx.provider.count_fit(report)
        reports.append(report)
    report = reports[0]
    steps = [
        {
            "step": step,
            "runtime_s": round(
                float(np.median([r.step_runtimes_seconds[step] for r in reports])), 4
            ),
        }
        for step in report.step_runtimes_seconds
    ]
    dominant = max(steps, key=lambda row: row["runtime_s"])
    total_seconds = float(np.median([r.total_runtime_seconds for r in reports]))
    shares = [
        r.step_runtimes_seconds.get("create_forecast_training_data", 0.0)
        / r.total_runtime_seconds
        if r.total_runtime_seconds > 0
        else 0.0
        for r in reports
    ]
    training_data_share = float(np.median(shares))

    bundle = ctx.bundle("covid")
    labels = category_label_series(bundle, 0.0, ctx.history_days, period_seconds=120.0)
    maes = forecaster_training_size_mae(
        labels,
        n_categories=bundle.skyscraper.categorizer.actual_categories,
        label_period_seconds=120.0,
        sample_counts=ctx.scale((20, 50, 100, 200), (20, 50, 100)),
        input_days=ctx.scale(0.15, 0.08),
        output_days=ctx.scale(0.1, 0.05),
        n_splits=4,
    )
    training_rows = [
        {"training_samples": count, "forecast_mae": round(mae, 4)}
        for count, mae in sorted(maes.items())
    ]
    counts = sorted(maes)
    return {
        "headline": (
            f"create_forecast_training_data takes {training_data_share:.0%} of the "
            f"offline phase ({min(shares):.0%}-{max(shares):.0%} over {len(reports)} "
            f"cold fits; paper: 83%); dominant step: {dominant['step']} "
            f"({dominant['runtime_s']:.2f} s of {total_seconds:.2f} s, medians)"
        ),
        "repeats": len(reports),
        "steps": steps,
        "training_data_share": {
            "median": round(training_data_share, 4),
            "min": round(min(shares), 4),
            "max": round(max(shares), 4),
        },
        "forecast_validation_mae": round(float(report.forecast_validation_mae), 4),
        "training_size": training_rows,
        "checks": [
            check(
                "offline_phase_ran",
                total_seconds > 0,
                f"total {total_seconds:.2f} s",
            ),
            check(
                "forecast_training_step_present",
                "create_forecast_training_data" in report.step_runtimes_seconds,
                "Table-3 step names preserved",
            ),
            check(
                "mae_flattens_with_training_data",
                maes[counts[-1]] <= maes[counts[0]] + 0.1,
                f"MAE {maes[counts[0]]:.3f} -> {maes[counts[-1]]:.3f}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 19: VideoStorm comparison
# --------------------------------------------------------------------- #
@register_figure(
    "fig19",
    title="Comparison against VideoStorm",
    paper_reference="Figure 19 (Appendix G)",
    claim=(
        "VideoStorm adapts to the query load, not the content, so with a "
        "static V-ETL job it closely matches the static baseline; only "
        "content-adaptive Skyscraper improves the trade-off."
    ),
    schema={
        "rows": [
            {
                "workload": "str",
                "system": "str",
                "quality": "number",
                "distinct_configs": "int",
                "overflowed": "bool",
            }
        ],
    },
    workloads=("covid", "mot", "mosei-high", "mosei-long"),
    systems=("static", "videostorm", "skyscraper"),
)
def _run_fig19(ctx: FigureContext) -> Dict[str, Any]:
    """``fig19``: Comparison against VideoStorm."""
    workloads = ctx.scale(["covid", "mot", "mosei-high", "mosei-long"], ["covid"])
    rows = []
    checks = []
    gaps = []
    for workload_name in workloads:
        runner = ctx.runner(workload_name)
        results = {
            name: runner.run(name, cores=4)
            for name in ("static", "videostorm", "skyscraper")
        }
        for name, result in results.items():
            rows.append(
                {
                    "workload": workload_name,
                    "system": name,
                    "quality": round(result.weighted_quality, 3),
                    "peak_buffer_MB": round(result.peak_buffer_bytes / 1e6, 1),
                    "distinct_configs": len(result.configuration_usage),
                    "overflowed": result.overflowed,
                }
            )
        gap = abs(
            results["videostorm"].weighted_quality - results["static"].weighted_quality
        )
        gaps.append(gap)
        checks.append(
            check(
                f"{workload_name}_no_overflow",
                not results["videostorm"].overflowed
                and not results["skyscraper"].overflowed,
                "videostorm/skyscraper guarantee throughput",
            )
        )
        # The paper's "tracks the static baseline" behaviour needs a window
        # long enough for VideoStorm to fill the buffer; the short smoke
        # window is dominated by the fill transient, so smoke only bounds
        # the gap loosely.
        gap_threshold = ctx.scale(0.2, 0.55)
        checks.append(
            check(
                f"{workload_name}_videostorm_tracks_static",
                gap < gap_threshold,
                f"|videostorm - static| = {gap:.3f} (threshold {gap_threshold})",
            )
        )
    return {
        "headline": (
            f"VideoStorm within {max(gaps):.3f} quality of Static "
            f"(content-agnostic), as the paper finds"
        ),
        "rows": rows,
        "checks": checks,
    }


# --------------------------------------------------------------------- #
# Figure 20 / Table 4: number of content categories
# --------------------------------------------------------------------- #
@register_figure(
    "fig20",
    title="Sensitivity to the number of content categories",
    paper_reference="Figure 20 / Table 4 (Appendix I.1)",
    claim=(
        "End-to-end quality is insensitive once >= 3 categories are used; "
        "switcher accuracy decreases slightly with more categories "
        "(100% -> 95.9%)."
    ),
    schema={
        "rows": [
            {
                "categories": "int",
                "quality": "number",
                "switcher_accuracy": "number",
            }
        ],
    },
    workloads=("covid",),
    systems=("skyscraper",),
    sweep={"n_categories": [1, 2, 4, 8]},
)
def _run_fig20(ctx: FigureContext) -> Dict[str, Any]:
    """``fig20``: Sensitivity to the number of content categories."""
    counts = ctx.scale((1, 2, 4, 8), (1, 2, 4))
    rows = []
    for n_categories in counts:
        # Each category count is its own bundle; the shared on-disk stage
        # cache means only the first fit pays for the history labeling.
        bundle = ctx.bundle("covid", n_categories=n_categories)
        result = ExperimentRunner(bundle).run("skyscraper", cores=4)
        errors = switcher_error_analysis(bundle, n_samples=ctx.scale(120, 60))
        rows.append(
            {
                "categories": n_categories,
                "quality": round(result.weighted_quality, 3),
                "switcher_accuracy": round(1.0 - errors.misclassification_rate, 3),
            }
        )
    qualities = {row["categories"]: row["quality"] for row in rows}
    accuracies = {row["categories"]: row["switcher_accuracy"] for row in rows}
    multi = [qualities[count] for count in counts if count >= 3]
    band = max(multi) - min(multi) if multi else 0.0
    return {
        "headline": (
            f"quality band {band:.3f} across >=3 categories; accuracy "
            f"{accuracies[1]:.3f} -> {accuracies[max(counts)]:.3f}"
        ),
        "rows": rows,
        "checks": [
            check(
                "insensitive_beyond_three_categories",
                band < 0.1,
                f"quality band {band:.3f}",
            ),
            check(
                "accuracy_decreases_with_categories",
                accuracies[1] >= accuracies[max(counts)] - 1e-9,
                f"{accuracies[1]:.3f} (1 cat) vs {accuracies[max(counts)]:.3f} "
                f"({max(counts)} cats)",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 21: switching period
# --------------------------------------------------------------------- #
@register_figure(
    "fig21",
    title="Sensitivity to the knob switching frequency",
    paper_reference="Figure 21 (Appendix I.2)",
    claim=(
        "All switching periods between 2 s and 8 s perform well; the default "
        "is 4 s."
    ),
    schema={
        "rows": [
            {"switch_period_s": "number", "quality": "number", "switches": "int"}
        ],
    },
    workloads=("covid",),
    systems=("skyscraper",),
    sweep={"switch_period_s": [2.0, 4.0, 8.0, 16.0]},
)
def _run_fig21(ctx: FigureContext) -> Dict[str, Any]:
    """``fig21``: Sensitivity to the knob switching frequency."""
    bundle = ctx.bundle("covid")
    runner = ExperimentRunner(bundle)
    periods = ctx.scale((2.0, 4.0, 8.0, 16.0), (2.0, 4.0, 8.0))
    rows = []
    original = bundle.config.switch_period_seconds
    try:
        for period in periods:
            bundle.config.switch_period_seconds = period
            bundle.skyscraper.switch_period_seconds = period
            result = runner.run("skyscraper", cores=4)
            rows.append(
                {
                    "switch_period_s": period,
                    "quality": round(result.weighted_quality, 3),
                    "switches": result.switch_count,
                }
            )
    finally:
        bundle.config.switch_period_seconds = original
        bundle.skyscraper.switch_period_seconds = original
    qualities = [row["quality"] for row in rows]
    fast = qualities[: max(2, len(qualities) - 1)]
    return {
        "headline": (
            f"quality varies only {max(fast) - min(fast):.3f} across 2-8 s "
            f"periods"
        ),
        "rows": rows,
        "checks": [
            check(
                "short_periods_within_band",
                max(fast) - min(fast) < 0.1,
                f"band {max(fast) - min(fast):.3f}",
            ),
            check(
                "longer_period_fewer_switches",
                rows[0]["switches"] >= rows[-1]["switches"],
                f"{rows[0]['switches']} @ {rows[0]['switch_period_s']} s vs "
                f"{rows[-1]['switches']} @ {rows[-1]['switch_period_s']} s",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 22: simulator micro-benchmarks
# --------------------------------------------------------------------- #
@register_figure(
    "fig22",
    title="Simulator accuracy on micro DAGs and cloud invocations",
    paper_reference="Figure 22 (Appendix M)",
    claim=(
        "The provisioning simulator's estimation errors stay below ~9% on "
        "YOLO/KCF micro DAGs and cloud invocation streams, and runtimes are "
        "only ever overestimated."
    ),
    schema={
        "on_prem": [
            {
                "dag": "str",
                "cores": "int",
                "simulated_s": "number",
                "measured_s": "number",
                "error_pct": "number",
            }
        ],
        "cloud": {
            "invocations": "int",
            "simulated_s": "number",
            "measured_s": "number",
            "error_pct": "number",
        },
    },
)
def _run_fig22(ctx: FigureContext) -> Dict[str, Any]:
    """``fig22``: Simulator accuracy on micro DAGs and cloud invocations."""
    micro = simulator_microbenchmark()
    cloud = simulator_cloud_benchmark()
    on_prem = [
        {
            "dag": row["dag"],
            "cores": int(row["cores"]),
            "simulated_s": round(row["simulated_s"], 4),
            "measured_s": round(row["measured_s"], 4),
            "error_pct": round(100 * row["error"], 3),
        }
        for row in micro
    ]
    errors = [row["error"] for row in micro]
    cloud_row = {
        "invocations": int(cloud["invocations"]),
        "simulated_s": round(cloud["simulated_s"], 4),
        "measured_s": round(cloud["measured_s"], 4),
        "error_pct": round(100 * cloud["error"], 3),
    }
    return {
        "headline": (
            f"on-prem error <= {100 * max(errors):.1f}%, cloud error "
            f"{cloud_row['error_pct']:.1f}% (paper: below ~9%)"
        ),
        "on_prem": on_prem,
        "cloud": cloud_row,
        "checks": [
            check(
                "on_prem_errors_below_12pct",
                max(errors) < 0.12,
                f"max error {100 * max(errors):.2f}%",
            ),
            check(
                "runtimes_only_overestimated",
                min(errors) > -0.03,
                f"min error {100 * min(errors):.2f}%",
            ),
            check(
                "cloud_error_below_15pct",
                abs(cloud["error"]) < 0.15,
                f"cloud error {cloud_row['error_pct']:.2f}%",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Figure 23: simulator end-to-end accuracy
# --------------------------------------------------------------------- #
@register_figure(
    "fig23",
    title="Simulator accuracy on actual Skyscraper task graphs",
    paper_reference="Figure 23 (Appendix M)",
    claim=(
        "Makespan estimation errors on real Skyscraper executions stay below "
        "~9% and grow only slightly during rush hours."
    ),
    schema={
        "rows": [
            {
                "workload": "str",
                "samples": "int",
                "mean_error_pct": "number",
                "max_error_pct": "number",
                "min_error_pct": "number",
            }
        ],
    },
    workloads=("covid", "mot"),
)
def _run_fig23(ctx: FigureContext) -> Dict[str, Any]:
    """``fig23``: Simulator accuracy on actual Skyscraper task graphs."""
    workloads = ctx.scale(["covid", "mot"], ["covid"])
    rows = []
    checks = []
    for workload_name in workloads:
        stats = simulator_end_to_end_accuracy(ctx.bundle(workload_name), cores=8)
        rows.append(
            {
                "workload": workload_name,
                "samples": int(stats["samples"]),
                "mean_error_pct": round(100 * stats["mean_error"], 3),
                "max_error_pct": round(100 * stats["max_error"], 3),
                "min_error_pct": round(100 * stats["min_error"], 3),
            }
        )
        checks.append(
            check(
                f"{workload_name}_mean_error_below_12pct",
                stats["mean_error"] < 0.12,
                f"mean {100 * stats['mean_error']:.2f}%",
            )
        )
        checks.append(
            check(
                f"{workload_name}_no_underestimation_beyond_5pct",
                stats["min_error"] > -0.05,
                f"min {100 * stats['min_error']:.2f}%",
            )
        )
    worst = max(row["mean_error_pct"] for row in rows)
    return {
        "headline": f"mean makespan error <= {worst:.1f}% on real task graphs",
        "rows": rows,
        "checks": checks,
    }


# --------------------------------------------------------------------- #
# Table 1: taxonomy
# --------------------------------------------------------------------- #
@register_figure(
    "table1",
    title="Taxonomy of video knob-tuning systems, probed behaviourally",
    paper_reference="Table 1",
    claim=(
        "Only Skyscraper combines content adaptivity with throughput "
        "guarantees; Chameleon/Zeus adapt but may crash, VideoStorm/VideoEdge "
        "only adapt to the query load."
    ),
    schema={
        "rows": [
            {
                "system": "str",
                "adapts_to_content": "str",
                "distinct_configs_used": "int",
                "throughput_guarantee": "str",
                "quality": "number",
            }
        ],
    },
    workloads=("covid",),
    systems=("skyscraper", "chameleon*", "videostorm", "static"),
)
def _run_table1(ctx: FigureContext) -> Dict[str, Any]:
    """``table1``: Taxonomy of video knob-tuning systems, probed behaviourally."""
    bundle = ctx.bundle("covid")
    runner = ExperimentRunner(bundle)
    expectations = {
        "skyscraper": "yes",
        "chameleon*": "yes",
        "videostorm": "no (query load only)",
        "static": "no",
    }
    original_buffer = bundle.config.buffer_bytes
    # A small buffer on a small machine exposes which systems guarantee
    # throughput.
    bundle.config.buffer_bytes = 60_000_000
    try:
        results = {name: runner.run(name, cores=4) for name in expectations}
    finally:
        bundle.config.buffer_bytes = original_buffer
    rows = [
        {
            "system": name,
            "adapts_to_content": expectations[name],
            "distinct_configs_used": len(result.configuration_usage),
            "throughput_guarantee": "no (overflowed)" if result.overflowed else "yes",
            "quality": round(result.weighted_quality, 3),
        }
        for name, result in results.items()
    ]
    return {
        "headline": (
            "only skyscraper adapts to content AND never overflows "
            "an under-provisioned 4-core machine"
        ),
        "rows": rows,
        "checks": [
            check(
                "skyscraper_guarantees_throughput",
                not results["skyscraper"].overflowed,
                "no overflow on the 60 MB buffer",
            ),
            check(
                "skyscraper_adapts",
                len(results["skyscraper"].configuration_usage) > 1,
                f"{len(results['skyscraper'].configuration_usage)} configs used",
            ),
            check(
                "static_uses_one_configuration",
                len(results["static"].configuration_usage) == 1,
                f"{len(results['static'].configuration_usage)} configs used",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Table 6: forecaster input featurization
# --------------------------------------------------------------------- #
@register_figure(
    "table6",
    title="Forecast MAE for different input lengths and split counts",
    paper_reference="Table 6",
    claim=(
        "With 8 input splits the forecast MAE is always low enough not to "
        "harm end-to-end performance, regardless of the input window length."
    ),
    schema={
        "rows": [
            {"input_days": "number", "splits": "int", "forecast_mae": "number"}
        ],
    },
    workloads=("covid",),
    sweep={"input_days": [0.05, 0.1, 0.2], "splits": [1, 2, 4, 8]},
)
def _run_table6(ctx: FigureContext) -> Dict[str, Any]:
    """``table6``: Forecast MAE for different input lengths and split counts."""
    label_period = 180.0
    bundle = ctx.bundle("covid")
    labels = category_label_series(
        bundle, 0.0, ctx.history_days, period_seconds=label_period
    )
    maes = forecaster_input_mae(
        labels,
        n_categories=bundle.skyscraper.categorizer.actual_categories,
        label_period_seconds=label_period,
        input_days_options=ctx.scale((0.05, 0.1, 0.2), (0.05, 0.1)),
        splits_options=ctx.scale((1, 2, 4, 8), (1, 4, 8)),
        output_days=ctx.scale(0.05, 0.02),
    )
    rows = [
        {"input_days": input_days, "splits": splits, "forecast_mae": round(mae, 4)}
        for (input_days, splits), mae in sorted(maes.items())
    ]
    eight_split = [mae for (_, splits), mae in maes.items() if splits == 8]
    return {
        "headline": (
            f"best 8-split forecast MAE {min(eight_split):.3f} across input "
            f"windows"
        ),
        "rows": rows,
        "checks": [
            check(
                "mae_in_unit_range",
                all(0.0 <= value <= 1.0 for value in maes.values()),
                f"{len(maes)} cells",
            ),
            check(
                "eight_splits_carry_signal",
                # Looser in smoke mode: the short history carries less signal.
                min(eight_split) < ctx.scale(0.35, 0.45),
                f"best 8-split MAE {min(eight_split):.3f}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Fleet scaling (beyond the paper)
# --------------------------------------------------------------------- #
@register_figure(
    "fleet_scaling",
    title="Fleet scaling: streams x schedulers on one shared cluster",
    paper_reference="fleet runtime (beyond the paper)",
    claim=(
        "A fleet sharing one cluster and one daily cloud budget exposes the "
        "drop-rate/lag trade-offs the pluggable schedulers exist to manage."
    ),
    schema={
        "rows": [
            {
                "scheduler": "str",
                "streams": "int",
                "segments": "int",
                "drop_rate": "number",
                "quality": "number",
            }
        ],
    },
    workloads=("ev",),
    systems=("static",),
    sweep={"n_streams": [1, 8, 32], "schedulers": ["fifo", "round-robin", "lag-aware"]},
)
def _run_fleet_scaling(ctx: FigureContext) -> Dict[str, Any]:
    """``fleet_scaling``: Fleet scaling: streams x schedulers on one shared cluster."""
    online_days = ctx.scale(0.01, 0.005)
    n_streams_list = ctx.scale((1, 8, 32), (1, 8))
    schedulers = ctx.scale(
        ("fifo", "round-robin", "lag-aware"), ("fifo", "lag-aware")
    )
    bundle = ctx.bundle("ev", online_days=online_days)
    runner = ExperimentRunner(bundle)
    # Buffer small enough that an over-committed fleet actually overflows, so
    # the schedulers' drop/lag trade-offs become visible.
    points = runner.sweep_fleet(
        "static",
        n_streams_list=n_streams_list,
        schedulers=schedulers,
        cores=8,
        buffer_bytes=256_000_000,
    )
    rows = [point.as_row() for point in points]
    expected_segments = int(
        online_days * 86_400.0 / bundle.setup.source.segment_seconds
    )
    per_stream_ok = all(
        point.segments_total == point.n_streams * expected_segments
        for point in points
    )
    worst_drop = max(point.drop_rate for point in points)
    return {
        "headline": (
            f"{len(rows)} (streams x scheduler) cells; worst drop rate "
            f"{worst_drop:.3f} at {max(n_streams_list)} streams"
        ),
        "rows": rows,
        "checks": [
            check(
                "every_cell_ingests_full_fleet",
                per_stream_ok,
                f"{expected_segments} segments per stream expected",
            ),
            check(
                "qualities_in_unit_range",
                all(0.0 <= point.weighted_quality <= 1.0 for point in points),
                f"{len(points)} cells",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Fleet service scaling (beyond the paper)
# --------------------------------------------------------------------- #
@register_figure(
    "fleet_service_scaling",
    title="Ingestion-service scaling: one fleet across shard counts",
    paper_reference="fleet service (beyond the paper)",
    claim=(
        "Sharding a fleet across worker processes cuts the engine's "
        "O(streams) per-serve scheduling scan and scales cluster capacity "
        "out, while every job still drains to a terminal state and the "
        "shared daily budget ledger stays consistent across shards."
    ),
    schema={
        "rows": [
            {
                "shards": "int",
                "streams": "int",
                "wall_s": "number",
                "drop_rate": "number",
                "p99_lag_s": "number",
                "jain_fairness": "number",
                "success": "int",
                "dead_letter": "int",
            }
        ],
    },
    workloads=("ev",),
    systems=("static",),
    sweep={"shards": [1, 4, 8]},
)
def _run_fleet_service_scaling(ctx: FigureContext) -> Dict[str, Any]:
    """``fleet_service_scaling``: Ingestion-service scaling: one fleet across shard counts."""
    online_days = ctx.scale(0.01, 0.005)
    n_streams = ctx.scale(128, 16)
    shard_counts = ctx.scale((1, 4, 8), (1, 2))
    bundle = ctx.bundle("ev", online_days=online_days)
    rows = run_service_scaling(bundle, n_streams, shard_counts)
    all_terminal = all(
        row["success"] + row["dead_letter"] == row["streams"] for row in rows
    )
    walls = {row["shards"]: row["wall_s"] for row in rows}
    return {
        "headline": (
            f"{n_streams} streams across shards {list(shard_counts)}: "
            + ", ".join(f"{row['shards']}x={row['wall_s']:.2f}s" for row in rows)
        ),
        "rows": rows,
        "checks": [
            check(
                "every_job_reached_a_terminal_state",
                all_terminal,
                f"{n_streams} jobs per cell",
            ),
            check(
                "no_dead_letters_without_fault_injection",
                all(row["dead_letter"] == 0 for row in rows),
                "faults are only injected in tests",
            ),
            check(
                "fairness_in_unit_range",
                all(0.0 < row["jain_fairness"] <= 1.0 for row in rows),
                f"{[row['jain_fairness'] for row in rows]}",
            ),
            # The hard 8-shard < 1-shard wall-clock bound is asserted by the
            # standalone benchmark at 1k+ streams; at figure scale we only
            # require the widest sharding not to be slower than serial.
            check(
                "max_sharding_not_slower_than_serial",
                walls[max(shard_counts)] <= walls[min(shard_counts)] * 1.1,
                f"walls {walls}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Offline re-fit through a shared evaluation cache (beyond the paper)
# --------------------------------------------------------------------- #
@register_figure(
    "offline_refit",
    title="Offline re-fit: a shared evaluation cache re-evaluates nothing",
    paper_reference="Table 3 (beyond the paper)",
    claim=(
        "A re-fit sharing the evaluation cache re-evaluates nothing "
        "(hit ratio ~1.0)."
    ),
    schema={
        "rows": [
            {
                "fit_seconds": "number",
                "evaluations": "int",
                "in_run_cache_hits": "int",
                "kept_configurations": "int",
            }
        ],
        "second_run": {
            "fit_seconds": "number",
            "cache_hits": "int",
            "cache_misses": "int",
            "hit_ratio": "number",
        },
    },
    workloads=("covid",),
)
def _run_offline_refit(ctx: FigureContext) -> Dict[str, Any]:
    """``offline_refit``: one cold fit, then a re-fit through the same evaluation cache."""
    history_days = ctx.scale(0.25, 0.1)
    setup = make_setup("covid", history_days=history_days, online_days=0.01)
    resources = SkyscraperResources(
        cores=8, buffer_bytes=2_000_000_000, cloud_budget_per_day=2.0
    )
    cache = EvaluationCache(setup.workload)

    def fit_once():
        sky = Skyscraper(setup.workload, resources, n_categories=4, seed=0)
        started = time.perf_counter()
        report = sky.fit(
            setup.source,
            unlabeled_days=history_days,
            n_presample_segments=ctx.scale(80, 40),
            n_category_samples=ctx.scale(100, 40),
            forecast_label_period_seconds=120.0,
            max_configurations=6,
            train_forecaster=False,
            evaluation_cache=cache,
        )
        wall_seconds = time.perf_counter() - started
        ctx.provider.count_fit(report)
        return report, wall_seconds

    cold_report, cold_wall = fit_once()
    rows = [
        {
            "fit_seconds": round(cold_wall, 4),
            "evaluations": cold_report.evaluation_cache_misses,
            "in_run_cache_hits": cold_report.evaluation_cache_hits,
            "kept_configurations": len(cold_report.kept_configurations),
        }
    ]
    second_report, second_wall = fit_once()
    second_run = {
        "fit_seconds": round(second_wall, 4),
        "cache_hits": second_report.evaluation_cache_hits,
        "cache_misses": second_report.evaluation_cache_misses,
        "hit_ratio": round(second_report.evaluation_cache_hit_ratio, 4),
    }
    return {
        "headline": (
            f"re-fit hit ratio {second_run['hit_ratio']:.2f} "
            f"({second_run['cache_misses']} misses) after a cold fit of "
            f"{rows[0]['evaluations']} evaluations"
        ),
        "workload": setup.workload.name,
        "history_days": history_days,
        "rows": rows,
        "second_run": second_run,
        "checks": [
            check(
                "refit_reevaluates_nothing",
                second_run["cache_misses"] == 0 and second_run["hit_ratio"] > 0,
                f"hit ratio {second_run['hit_ratio']}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Multi-tenant joint fleet planning (beyond the paper)
# --------------------------------------------------------------------- #
#: The heterogeneous tenant roster of the joint-planning figure: a
#: high-weight premium tenant, a tenant paying a worse cloud cost ratio,
#: a low-priority batch tenant, and one whose quality SLO no allocation
#: can meet (admission control must reject it).
JOINT_PLANNING_TENANTS = (
    TenantSpec("gold", n_streams=2, weight=4.0),
    TenantSpec("silver", n_streams=3, weight=1.0, cost_ratio=2.5),
    TenantSpec("econ", n_streams=3, weight=0.25),
    TenantSpec("strict", n_streams=1, min_quality=1.5),
)

#: Shared resources of the joint-planning figure: the budget is sized so
#: the per-stream split visibly wastes dollars on low-weight tenants.
JOINT_PLANNING_BUDGET = 8.0
JOINT_PLANNING_CORES = 4
JOINT_PLANNING_LEVELS = 9
_LADDER_EPS = 1e-9


@register_figure(
    "fleet_joint_planning",
    title="Joint fleet planning: one budget/core pool across tenants",
    paper_reference="Section 4.1 planner, multi-tenant (beyond the paper)",
    claim=(
        "Jointly planning the shared daily cloud budget and on-prem cores "
        "across heterogeneous tenants reaches per-stream-split quality at "
        ">=10% less budget: the joint LP given 90% of the budget matches "
        "or beats the per-stream split at the full budget, the solver "
        "ladder is monotone (greedy <= knapsack <= LP), and admission "
        "control rejects SLO-infeasible tenants at submit time."
    ),
    schema={
        "rows": [
            {
                "planner": "str",
                "budget_fraction": "number",
                "objective": "number",
                "cloud_dollars_per_day": "number",
                "cores": "number",
            }
        ],
        "tenants": [
            {
                "tenant_id": "str",
                "streams": "int",
                "weight": "number",
                "cost_ratio": "number",
                "min_quality": "number",
                "admitted": "bool",
            }
        ],
        "allocations": [
            {
                "tenant_id": "str",
                "cores": "number",
                "cloud_dollars_per_day": "number",
                "expected_quality": "number",
            }
        ],
        "rejected": [{"tenant_id": "str", "reason": "str"}],
        "fleet": {
            "mean_true_quality": "number",
            "cloud_dollars": "number",
            "tenant_spend": "any",
        },
    },
    workloads=("ev",),
    systems=("skyscraper",),
    sweep={
        "planner": ["per_stream", "greedy", "knapsack", "lp"],
        "budget_fraction": [1.0, 0.9],
    },
)
def _run_fleet_joint_planning(ctx: FigureContext) -> Dict[str, Any]:
    """``fleet_joint_planning``: Joint fleet planning: one budget/core pool across tenants."""
    budget = JOINT_PLANNING_BUDGET
    cores = JOINT_PLANNING_CORES
    bundle = ctx.bundle("ev")
    segment_seconds = bundle.setup.source.segment_seconds

    problem = build_problem_from_skyscraper(
        bundle.skyscraper,
        list(JOINT_PLANNING_TENANTS),
        cloud_budget_per_day=budget,
        cores=cores,
        segment_seconds=segment_seconds,
        n_budget_levels=JOINT_PLANNING_LEVELS,
    )
    controller = AdmissionController(problem)
    admitted = controller.admitted()
    rejected = [
        {"tenant_id": tenant_id, "reason": reason}
        for tenant_id, reason in sorted(controller.rejections().items())
    ]
    ladder = solve_ladder(problem.restricted([s.tenant_id for s in admitted]))

    # The headline comparison: the joint LP gets only 90% of the budget the
    # per-stream split had, over the same admitted tenants.
    reduced = build_problem_from_skyscraper(
        bundle.skyscraper,
        admitted,
        cloud_budget_per_day=0.9 * budget,
        cores=cores,
        segment_seconds=segment_seconds,
        n_budget_levels=JOINT_PLANNING_LEVELS,
    )
    lp_reduced = plan_fleet(reduced, "lp")

    rows = [
        {
            "planner": name,
            "budget_fraction": 1.0,
            "objective": round(plan.objective, 6),
            "cloud_dollars_per_day": round(plan.total_cloud_dollars, 6),
            "cores": round(plan.total_cores, 6),
        }
        for name, plan in ladder.items()
    ]
    rows.append(
        {
            "planner": "lp",
            "budget_fraction": 0.9,
            "objective": round(lp_reduced.objective, 6),
            "cloud_dollars_per_day": round(lp_reduced.total_cloud_dollars, 6),
            "cores": round(lp_reduced.total_cores, 6),
        }
    )

    # Deploy the winning plan: per-tenant sub-ledgers cap each tenant's
    # cloud spend inside the fleet's shared daily ledger.
    plan = ladder["lp"]
    parent = DailyBudgetLedger(budget)
    ledgers = build_tenant_ledgers(plan, parent)
    scenario = make_multi_tenant_scenario(
        bundle.setup,
        {spec.tenant_id: spec.n_streams for spec in admitted},
    )
    result = ctx.runner("ev").run_fleet(
        "skyscraper",
        scenario=scenario,
        cores=cores,
        cloud_budget_per_day=budget,
        ledger=parent,
        tenant_ledgers=ledgers,
    )
    tenant_spend = {
        tenant_id: round(ledger.total_dollars, 6)
        for tenant_id, ledger in sorted(ledgers.items())
    }
    spend_within_caps = all(
        spent <= plan.allocation(tenant_id).cloud_dollars_per_day + 1e-9
        for tenant_id, ledger in ledgers.items()
        for spent in ledger.spend_by_day.values()
    )

    objectives = {row["planner"]: row["objective"] for row in rows[:-1]}
    per_stream_full = objectives["per_stream"]
    return {
        "headline": (
            f"joint LP at 90% budget (${0.9 * budget:.2f}/day) scores "
            f"{lp_reduced.objective:.4f} vs per-stream split at full "
            f"budget {per_stream_full:.4f}; "
            f"{len(rejected)} tenant(s) rejected at admission"
        ),
        "rows": rows,
        "tenants": [
            {
                "tenant_id": spec.tenant_id,
                "streams": spec.n_streams,
                "weight": spec.weight,
                "cost_ratio": spec.cost_ratio,
                "min_quality": spec.min_quality,
                "admitted": spec.tenant_id not in controller.rejections(),
            }
            for spec in JOINT_PLANNING_TENANTS
        ],
        "allocations": [
            {
                "tenant_id": allocation.tenant_id,
                "cores": round(allocation.cores, 4),
                "cloud_dollars_per_day": round(allocation.cloud_dollars_per_day, 4),
                "expected_quality": round(allocation.expected_quality, 6),
            }
            for _, allocation in sorted(plan.allocations.items())
        ],
        "rejected": rejected,
        "fleet": {
            "mean_true_quality": round(result.mean_true_quality, 6),
            "cloud_dollars": round(result.cloud_dollars, 6),
            "tenant_spend": tenant_spend,
        },
        "checks": [
            check(
                "admission_rejects_slo_infeasible_tenant",
                [entry["tenant_id"] for entry in rejected] == ["strict"],
                f"rejected {[entry['tenant_id'] for entry in rejected]}",
            ),
            check(
                "solver_ladder_is_monotone",
                objectives["greedy"] <= objectives["knapsack"] + _LADDER_EPS
                and objectives["knapsack"] <= objectives["lp"] + _LADDER_EPS,
                f"greedy {objectives['greedy']} <= knapsack "
                f"{objectives['knapsack']} <= lp {objectives['lp']}",
            ),
            check(
                "every_plan_respects_budget_and_cores",
                all(
                    row["cloud_dollars_per_day"]
                    <= row["budget_fraction"] * budget + 1e-6
                    and row["cores"] <= cores + 1e-6
                    for row in rows
                ),
                f"budget ${budget}/day, {cores} cores",
            ),
            check(
                "joint_lp_at_90pct_budget_matches_per_stream_at_full",
                lp_reduced.objective + 1e-6 >= per_stream_full,
                f"lp@0.9B {lp_reduced.objective:.6f} vs per_stream@B "
                f"{per_stream_full:.6f}",
            ),
            check(
                "tenant_spend_within_allocated_caps",
                spend_within_caps,
                f"spend {tenant_spend}",
            ),
        ],
    }


# --------------------------------------------------------------------- #
# Regime shift: fit-once Skyscraper on drifting content (beyond the paper)
# --------------------------------------------------------------------- #
#: Provisioned cores of the regime-shift experiment: tight enough that the
#: knob plan has to ration quality across categories.
REGIME_SHIFT_CORES = 2
#: Post-shift regime of the drift workload (see ``make_regime_setup``).
REGIME_SHIFT_ACTIVITY_SHIFT = 0.45
REGIME_SHIFT_BURST_SCALE = 2.5
#: Quality margin of the skyscraper-beats-static gate.
REGIME_SHIFT_MARGIN = 0.02


@register_figure(
    "regime_shift",
    title="Robustness to a mid-run regime shift: fit-once Skyscraper vs static",
    paper_reference="Sections 3-4 extension (beyond the paper): content drift",
    claim=(
        "On a regime-switching stream fitted only on pre-shift history, the "
        "fit-once Skyscraper (knob switcher plus a knob plan re-solved every "
        "planned interval) still beats the best static configuration by a "
        "clear margin after the content gets harder."
    ),
    schema={
        "rows": [
            {
                "system": "str",
                "mean_true_quality": "number",
                "weighted_quality": "number",
                "segments_dropped": "int",
                "cloud_dollars": "number",
            }
        ],
        "regime": {
            "shift_time_seconds": "number",
            "activity_shift": "number",
            "burst_scale": "number",
            "online_segments": "int",
        },
    },
    workloads=("ev-regime",),
    systems=("static", "skyscraper"),
)
def _run_regime_shift(ctx: FigureContext) -> Dict[str, Any]:
    """``regime_shift``: Robustness to a mid-run regime shift: fit-once Skyscraper vs static."""
    history_days = ctx.history_days
    online_days = ctx.scale(0.06, 0.025)
    setup = make_regime_setup(
        history_days=history_days,
        online_days=online_days,
        activity_shift=REGIME_SHIFT_ACTIVITY_SHIFT,
        burst_scale=REGIME_SHIFT_BURST_SCALE,
    )
    config = ExperimentConfig(
        history_days=history_days,
        online_days=online_days,
        train_forecaster=True,
        planned_interval_seconds=3600.0,
        cloud_budget_per_day=2.0,
        max_configurations=6,
        forecast_input_days=history_days / 3.0,
        forecast_label_period_seconds=ctx.scale(60.0, 120.0),
    )
    runner = ExperimentRunner(ctx.provider.fit(setup, config))
    results = {
        system: runner.run(system, cores=REGIME_SHIFT_CORES)
        for system in ("static", "skyscraper")
    }

    rows = [
        {
            "system": system,
            "mean_true_quality": round(result.mean_true_quality, 6),
            "weighted_quality": round(result.weighted_quality, 6),
            "segments_dropped": result.segments_dropped,
            "cloud_dollars": round(result.cloud_dollars, 6),
        }
        for system, result in results.items()
    ]
    static_quality = results["static"].mean_true_quality
    sky_quality = results["skyscraper"].mean_true_quality

    return {
        "headline": (
            f"skyscraper {sky_quality:.3f} vs static {static_quality:.3f} "
            f"true quality under a mid-run regime shift"
        ),
        "rows": rows,
        "regime": {
            "shift_time_seconds": setup.workload.regimes.boundaries_seconds[0],
            "activity_shift": REGIME_SHIFT_ACTIVITY_SHIFT,
            "burst_scale": REGIME_SHIFT_BURST_SCALE,
            "online_segments": results["skyscraper"].segments_total,
        },
        "checks": [
            check(
                "skyscraper_beats_static_by_margin",
                sky_quality >= static_quality + REGIME_SHIFT_MARGIN,
                f"skyscraper {sky_quality:.4f} vs static {static_quality:.4f} "
                f"(margin {REGIME_SHIFT_MARGIN})",
            ),
        ],
    }
