"""Tests for the policy registry and the unified experiment runner."""

from collections import Counter
from dataclasses import asdict

import pytest

from repro.baselines.static import StaticPolicy
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentRunner,
    prepare_bundle,
)
from repro.registry import (
    create_policy,
    policy_names,
    policy_spec,
    register_policy,
    unregister_policy,
)
from repro.workloads.covid import make_covid_setup

#: The offline stages a fit without a forecaster persists in the stage cache.
CACHED_STAGES = ("sample_segments", "filter_configurations", "content_categories", "label_history")


@pytest.fixture(scope="module")
def small_bundle():
    """A deliberately tiny bundle so runner tests stay fast."""
    setup = make_covid_setup(history_days=0.5, online_days=0.05)
    config = ExperimentConfig(
        history_days=0.5,
        online_days=0.05,
        max_configurations=5,
        train_forecaster=False,
        cloud_budget_per_day=1.0,
        n_categories=3,
    )
    return prepare_bundle(setup, config)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
def test_builtin_policies_are_registered():
    names = policy_names()
    for name in ("skyscraper", "static", "chameleon*", "videostorm", "optimum", "idealized"):
        assert name in names


def test_unknown_policy_name_raises(small_bundle):
    with pytest.raises(ConfigurationError, match="unknown policy"):
        policy_spec("does-not-exist")
    with pytest.raises(ConfigurationError, match="unknown policy"):
        ExperimentRunner(small_bundle).run("does-not-exist", cores=4)


def test_alias_resolves_to_canonical_name():
    assert policy_spec("chameleon").name == "chameleon*"
    assert policy_spec("chameleon*").name == "chameleon*"


def test_duplicate_registration_raises():
    with pytest.raises(ConfigurationError, match="already registered"):
        register_policy("static")(lambda context: None)
    with pytest.raises(ConfigurationError, match="already registered"):
        # An alias may not shadow an existing name either.
        register_policy("fresh-name", aliases=("chameleon",))(lambda context: None)
    assert "fresh-name" not in policy_names()


def test_custom_policy_round_trips_through_the_engine(small_bundle):
    @register_policy("cheapest-test", description="always the cheapest configuration")
    def _cheapest(context):
        cheapest = context.profiles.cheapest()
        return StaticPolicy(context.profiles, cheapest)

    try:
        result = ExperimentRunner(small_bundle).run("cheapest-test", cores=4)
        assert result.segments_total > 0
        assert len(result.configuration_usage) == 1
    finally:
        unregister_policy("cheapest-test")
    with pytest.raises(ConfigurationError):
        policy_spec("cheapest-test")


def test_create_policy_forwards_options(small_bundle):
    runner = ExperimentRunner(small_bundle)
    context = runner.context_for("static", cores=4)
    policy = create_policy("static", context, configuration_index=0)
    assert isinstance(policy, StaticPolicy)
    assert policy.configuration_index == 0


# --------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------- #
def test_runner_requires_exactly_one_of_cores_or_tier(small_bundle):
    runner = ExperimentRunner(small_bundle)
    with pytest.raises(ConfigurationError):
        runner.run("static")
    with pytest.raises(ConfigurationError):
        runner.run("static", cores=4, tier="e2-standard-4")
    by_tier = runner.run("static", tier="e2-standard-4")
    by_cores = runner.run("static", cores=4)
    assert asdict(by_tier) == asdict(by_cores)


def test_cloud_budget_follows_registry_capability(small_bundle):
    runner = ExperimentRunner(small_bundle)
    assert runner.context_for("static", cores=4).resources.cloud_budget_per_day == 0.0
    sky_context = runner.context_for("skyscraper", cores=4)
    assert sky_context.resources.cloud_budget_per_day == pytest.approx(1.0)
    override = runner.context_for("skyscraper", cores=4, cloud_budget_per_day=0.0)
    assert override.resources.cloud_budget_per_day == 0.0


def test_offline_baselines_run_through_the_engine(small_bundle):
    runner = ExperimentRunner(small_bundle)
    optimum = runner.run("optimum", cores=4)
    idealized = runner.run("idealized", cores=4)
    static = runner.run("static", cores=4)
    for result in (optimum, idealized):
        assert result.segments_total == static.segments_total
        assert 0.0 <= result.weighted_quality <= 1.0
    # The ground-truth Optimum dominates the forecast-driven idealized design
    # given the same budget (modulo engine effects, hence the tolerance).
    assert optimum.weighted_quality >= idealized.weighted_quality - 0.05


def test_sweep_shapes_and_labels(small_bundle):
    points = ExperimentRunner(small_bundle).sweep(
        systems=("static", "chameleon", "skyscraper"),
        tiers=["e2-standard-4", "e2-standard-16"],
        skyscraper_tiers=["e2-standard-4"],
    )
    systems = {point.system for point in points}
    assert systems == {"static", "chameleon*", "skyscraper"}
    assert sum(1 for point in points if point.system == "skyscraper") == 1
    static_points = [point for point in points if point.system == "static"]
    assert len(static_points) == 2
    assert static_points[0].total_dollars < static_points[1].total_dollars


def test_prepare_bundle_cache_round_trip(tmp_path):
    """A second call resumes every cacheable stage and ingests identically."""
    setup = make_covid_setup(history_days=0.5, online_days=0.05)
    config = ExperimentConfig(
        history_days=0.5,
        online_days=0.05,
        max_configurations=4,
        train_forecaster=False,
        cloud_budget_per_day=1.0,
        n_categories=3,
    )
    cache_dir = tmp_path / "bundles"
    first = prepare_bundle(setup, config, cache_dir=cache_dir)
    assert not any(first.offline_report.stage_cache_hits.values())
    assert [path.name for path in cache_dir.iterdir()] == ["stages"]

    second = prepare_bundle(setup, config, cache_dir=cache_dir)
    hits = second.offline_report.stage_cache_hits
    assert {stage for stage, hit in hits.items() if hit} == set(CACHED_STAGES)
    assert second.offline_report.evaluation_cache_misses == 0
    result_first = ExperimentRunner(first).run("skyscraper", cores=4)
    result_second = ExperimentRunner(second).run("skyscraper", cores=4)
    assert asdict(result_first) == asdict(result_second)


def test_prepare_bundle_cache_distinguishes_stream_seeds(tmp_path):
    """Two setups differing only in the stream seed must not share a stage entry."""
    config = ExperimentConfig(
        history_days=0.5,
        online_days=0.02,
        max_configurations=4,
        train_forecaster=False,
        n_categories=3,
    )
    cache_dir = tmp_path / "bundles"
    bundles = [
        prepare_bundle(
            make_covid_setup(history_days=0.5, online_days=0.02, seed=seed),
            config,
            cache_dir=cache_dir,
        )
        for seed in (7, 8)
    ]
    assert not any(bundles[1].offline_report.stage_cache_hits.values())
    entries = Counter(
        path.name.rsplit("-", 1)[0] for path in (cache_dir / "stages").iterdir()
    )
    assert entries == {stage: 2 for stage in CACHED_STAGES}


# --------------------------------------------------------------------- #
# Fleet runs
# --------------------------------------------------------------------- #
def test_run_fleet_replicates_the_bundle_stream(small_bundle):
    runner = ExperimentRunner(small_bundle)
    result = runner.run_fleet("static", n_streams=3, scheduler="fifo", cores=4)
    assert result.n_streams == 3
    assert result.scheduler == "fifo"
    per_stream = runner.run("static", cores=4).segments_total
    assert result.segments_total == 3 * per_stream
    for stream_result in result.results:
        assert stream_result.policy_name.startswith("static")
        assert stream_result.segments_total == per_stream


def test_run_fleet_single_stream_matches_run(small_bundle):
    """A 1-stream unshifted fleet is exactly the classic single-stream run."""
    runner = ExperimentRunner(small_bundle)
    single = runner.run("static", cores=4)
    fleet = runner.run_fleet(
        "static", n_streams=1, scheduler="fifo", cores=4, phase_shift_seconds=0.0
    )
    only = fleet.results[0]
    assert only.segments_total == single.segments_total
    assert only.total_true_quality == single.total_true_quality
    assert only.cloud_dollars == single.cloud_dollars
    assert only.configuration_usage == single.configuration_usage
    assert fleet.weighted_quality == pytest.approx(single.weighted_quality)


def test_run_fleet_requires_exactly_one_of_cores_or_tier(small_bundle):
    runner = ExperimentRunner(small_bundle)
    with pytest.raises(ConfigurationError):
        runner.run_fleet("static", n_streams=2)
    with pytest.raises(ConfigurationError):
        runner.run_fleet("static", n_streams=2, cores=4, tier="e2-standard-4")


def test_run_fleet_per_stream_system_override(small_bundle):
    from repro.workloads.fleet import make_fleet_scenario

    runner = ExperimentRunner(small_bundle)
    scenario = make_fleet_scenario(small_bundle.setup, 2, phase_shift_seconds=0.0)
    scenario.streams[1].system = "videostorm"
    result = runner.run_fleet("static", scenario=scenario, cores=4)
    policies = [stream_result.policy_name for stream_result in result.results]
    assert policies[0].startswith("static")
    assert policies[1] == "videostorm"


def test_sweep_fleet_shapes(small_bundle):
    points = ExperimentRunner(small_bundle).sweep_fleet(
        "static", n_streams_list=(1, 2), schedulers=("fifo", "lag-aware"), cores=4
    )
    assert [(point.n_streams, point.scheduler) for point in points] == [
        (1, "fifo"),
        (1, "lag-aware"),
        (2, "fifo"),
        (2, "lag-aware"),
    ]
    for point in points:
        assert point.system == "static"
        assert point.segments_total > 0
        assert point.wall_seconds > 0.0
        row = point.as_row()
        assert row["streams"] == point.n_streams
        assert 0.0 <= row["drop_rate"] <= 1.0


def test_sweep_fleet_accepts_tier_and_rejects_instances(small_bundle):
    runner = ExperimentRunner(small_bundle)
    by_tier = runner.sweep_fleet(
        "static", n_streams_list=(1,), schedulers=("fifo",), tier="e2-standard-4"
    )
    by_cores = runner.sweep_fleet(
        "static", n_streams_list=(1,), schedulers=("fifo",), cores=4
    )
    assert by_tier[0].segments_total == by_cores[0].segments_total
    assert by_tier[0].weighted_quality == by_cores[0].weighted_quality

    from repro.core.fleet import RoundRobinScheduler

    with pytest.raises(ConfigurationError, match="registered scheduler names"):
        runner.sweep_fleet(
            "static", n_streams_list=(1,), schedulers=(RoundRobinScheduler(),), cores=4
        )


def test_run_fleet_honors_zero_byte_buffer_override(small_bundle):
    """An explicit 0-byte per-stream buffer means 'drop everything' — it must
    not be silently replaced by the bundle default."""
    from repro.workloads.fleet import make_fleet_scenario

    runner = ExperimentRunner(small_bundle)
    scenario = make_fleet_scenario(small_bundle.setup, 1, phase_shift_seconds=0.0)
    scenario.streams[0].buffer_bytes = 0
    result = runner.run_fleet("static", scenario=scenario, cores=4)
    only = result.results[0]
    assert only.segments_dropped == only.segments_total > 0


def test_run_fleet_scenario_conflicts_with_replication_args(small_bundle):
    from repro.workloads.fleet import make_fleet_scenario

    runner = ExperimentRunner(small_bundle)
    scenario = make_fleet_scenario(small_bundle.setup, 2, phase_shift_seconds=0.0)
    with pytest.raises(ConfigurationError, match="scenario= already defines"):
        runner.run_fleet("static", scenario=scenario, n_streams=8, cores=4)
    with pytest.raises(ConfigurationError, match="scenario= already defines"):
        runner.run_fleet("static", scenario=scenario, heterogeneous=True, cores=4)


def test_fleet_policies_plan_against_the_enforced_buffer(small_bundle):
    """The per-stream buffer override reaches policy construction, so the
    switcher's overflow avoidance works on the buffer the engine enforces."""
    runner = ExperimentRunner(small_bundle)
    context = runner.context_for("skyscraper", cores=4, buffer_bytes=123_000_000)
    assert context.resources.buffer_bytes == 123_000_000
    policy = context.skyscraper.build_policy(small_bundle.setup.source.segment_seconds)
    assert policy.switcher.buffer_capacity_bytes == 123_000_000

    fleet = runner.run_fleet(
        "skyscraper", n_streams=2, cores=4, buffer_bytes=123_000_000, keep_traces=True
    )
    for stream_result in fleet.results:
        assert all(t.buffer_bytes <= 123_000_000 for t in stream_result.traces)


def test_run_fleet_rejects_scenario_from_another_bundle(small_bundle):
    from repro.workloads.ev import make_ev_setup
    from repro.workloads.fleet import make_fleet_scenario

    runner = ExperimentRunner(small_bundle)
    foreign = make_fleet_scenario(make_ev_setup(history_days=0.5, online_days=0.05), 2)
    with pytest.raises(ConfigurationError, match="different workload setup"):
        runner.run_fleet("static", scenario=foreign, cores=4)


def test_run_fleet_policy_options_scope_to_default_system(small_bundle):
    """Options for the default system must not crash a mixed fleet whose
    override system's factory does not accept them."""
    from repro.workloads.fleet import make_fleet_scenario

    runner = ExperimentRunner(small_bundle)
    scenario = make_fleet_scenario(small_bundle.setup, 2, phase_shift_seconds=0.0)
    scenario.streams[1].system = "videostorm"
    result = runner.run_fleet(
        "static", scenario=scenario, cores=4, configuration_index=0
    )
    assert result.n_streams == 2
    assert result.results[1].policy_name == "videostorm"


def test_run_fleet_replay_systems_solve_once_and_replay_per_stream(small_bundle):
    """'optimum' fleets reuse one solved assignment: with unshifted clones,
    every stream replays identical decisions regardless of shared-cluster
    scheduling, so totals are exact multiples of the single-stream run."""
    runner = ExperimentRunner(small_bundle)
    single = runner.run("optimum", cores=4)
    fleet = runner.run_fleet(
        "optimum", n_streams=3, cores=4, phase_shift_seconds=0.0
    )
    assert fleet.segments_total == 3 * single.segments_total
    assert fleet.results[0].total_true_quality == pytest.approx(
        single.total_true_quality
    )
    for stream_result in fleet.results:
        assert stream_result.configuration_usage == single.configuration_usage


def test_run_fleet_solves_each_context_initial_plan_once(small_bundle, monkeypatch):
    """Every skyscraper stream of a context shares one read-only initial
    plan; a change to the LP inputs gets a fresh solve, and the planner
    itself still solves on every call (Figure 13 times its repetitions)."""
    import numpy as np

    import repro.experiments.runner as runner_module
    from repro.core.planner import KnobPlanner
    from repro.experiments.microbench import planner_overhead_seconds
    from repro.ml.linear_program import LinearProgram

    solves = []
    live_plan = KnobPlanner.plan

    def counting_plan(self, *args, **kwargs):
        solves.append(args)
        return live_plan(self, *args, **kwargs)

    lp_solves = []
    live_solve = LinearProgram.solve

    def counting_solve(self, *args, **kwargs):
        lp_solves.append(self)
        return live_solve(self, *args, **kwargs)

    built = []
    live_create = runner_module.create_policy

    def recording_create(name, context, **options):
        policy = live_create(name, context, **options)
        built.append((context, policy))
        return policy

    monkeypatch.setattr(KnobPlanner, "plan", counting_plan)
    monkeypatch.setattr(LinearProgram, "solve", counting_solve)
    monkeypatch.setattr(runner_module, "create_policy", recording_create)
    ExperimentRunner(small_bundle).run_fleet("skyscraper", n_streams=4, cores=4)

    assert len(solves) == len(lp_solves) == 1
    assert len(built) == 4
    shared = built[0][1].switcher.plan
    for _, policy in built:
        assert policy.switcher.plan is shared
    for array in (*shared.assignments.values(), shared.forecast):
        assert not array.flags.writeable

    context = built[0][0]
    skyscraper = context.skyscraper
    profiles = skyscraper.profiles
    n_categories = skyscraper.categorizer.actual_categories
    moved = profiles.quality_matrix(n_categories)[:, ::-1].copy()
    profiles.set_category_qualities(moved)
    rebuilt = live_create("skyscraper", context).switcher.plan
    assert len(solves) == 2
    assert rebuilt is not shared
    fresh = KnobPlanner(profiles, n_categories).plan(
        np.asarray(skyscraper.report.initial_forecast, dtype=float),
        skyscraper.budget_core_seconds_per_segment(context.segment_seconds),
    )
    assert sorted(rebuilt.assignments) == sorted(fresh.assignments)
    for category, histogram in fresh.assignments.items():
        assert np.array_equal(rebuilt.assignments[category], histogram)
    assert rebuilt.expected_quality == fresh.expected_quality
    assert rebuilt.expected_cost == fresh.expected_cost

    lp_solves.clear()
    planner_overhead_seconds(n_categories=3, n_configurations=3, repetitions=3)
    assert len(lp_solves) == 3
