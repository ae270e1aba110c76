"""Tests for the four evaluation workloads (Section 5.2 / Appendix J)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interfaces import VETLWorkload
from repro.errors import ConfigurationError
from repro.workloads.covid import make_covid_setup
from repro.workloads.ev import make_ev_setup
from repro.workloads.mosei import MAX_STREAMS, MoseiWorkload, make_mosei_setup
from repro.workloads.mot import make_mot_setup


def _cheapest_and_most_expensive(workload):
    space = workload.knob_space
    domains = space.domains_in_order()
    cheapest = space.configuration_from_tuple(tuple(domain[0] for domain in domains))
    expensive = space.configuration_from_tuple(tuple(domain[-1] for domain in domains))
    return cheapest, expensive


@pytest.fixture(params=["ev", "covid", "mot", "mosei"], scope="module")
def workload(request, ev_workload, covid_workload, mot_workload, mosei_workload):
    return {
        "ev": ev_workload,
        "covid": covid_workload,
        "mot": mot_workload,
        "mosei": mosei_workload,
    }[request.param]


def test_workloads_implement_the_protocol(workload):
    assert isinstance(workload, VETLWorkload)
    assert workload.knob_space.size > 10
    segment = workload.representative_segment()
    assert segment.duration > 0


def test_expensive_configuration_costs_much_more_work(workload):
    cheapest, expensive = _cheapest_and_most_expensive(workload)
    segment = workload.representative_segment()
    cheap_work = workload.build_task_graph(cheapest, segment).total_on_prem_seconds()
    expensive_work = workload.build_task_graph(expensive, segment).total_on_prem_seconds()
    assert expensive_work > 5 * cheap_work


def test_expensive_configuration_is_robust_on_hard_content(workload):
    cheapest, expensive = _cheapest_and_most_expensive(workload)
    source = workload.make_source()
    # Evening rush hour / peak load segment.
    rush_segment = source.segment_at(int(18.0 * 3600.0 / source.segment_seconds))
    cheap_outcome = workload.evaluate(cheapest, rush_segment)
    expensive_outcome = workload.evaluate(expensive, rush_segment)
    assert expensive_outcome.true_quality > cheap_outcome.true_quality
    assert expensive_outcome.true_quality > 0.75


def test_cheap_configuration_gap_shrinks_on_easy_content(workload):
    """The property that makes content-adaptive tuning worthwhile: cheap
    configurations lose much less quality on easy (night) content than on
    difficult (rush hour / peak load) content."""
    cheapest, expensive = _cheapest_and_most_expensive(workload)
    source = workload.make_source()
    night_segment = source.segment_at(int(3.5 * 3600.0 / source.segment_seconds))
    rush_segment = source.segment_at(int(18.0 * 3600.0 / source.segment_seconds))
    gap_night = (
        workload.evaluate(expensive, night_segment).true_quality
        - workload.evaluate(cheapest, night_segment).true_quality
    )
    gap_rush = (
        workload.evaluate(expensive, rush_segment).true_quality
        - workload.evaluate(cheapest, rush_segment).true_quality
    )
    assert gap_night < gap_rush + 0.05
    assert workload.evaluate(cheapest, night_segment).true_quality > workload.evaluate(
        cheapest, rush_segment
    ).true_quality - 0.05


def test_evaluation_is_deterministic(workload):
    cheapest, expensive = _cheapest_and_most_expensive(workload)
    segment = workload.representative_segment()
    first = workload.evaluate(expensive, segment)
    second = workload.evaluate(expensive, segment)
    assert first.reported_quality == second.reported_quality
    assert first.true_quality == second.true_quality


def test_reported_quality_tracks_true_quality(workload):
    """The user-defined quality metric must be a usable proxy for accuracy."""
    _, expensive = _cheapest_and_most_expensive(workload)
    cheapest, _ = _cheapest_and_most_expensive(workload)
    source = workload.make_source()
    reported, true = [], []
    for index in range(0, 40_000, 997):
        segment = source.segment_at(index)
        outcome = workload.evaluate(cheapest, segment)
        reported.append(outcome.reported_quality)
        true.append(outcome.true_quality)
    correlation = np.corrcoef(reported, true)[0, 1]
    assert correlation > 0.7


def test_quality_weight_reflects_entities(workload):
    source = workload.make_source()
    night = source.segment_at(int(3.5 * 3600.0 / source.segment_seconds))
    rush = source.segment_at(int(18.0 * 3600.0 / source.segment_seconds))
    assert workload.quality_weight(rush) >= workload.quality_weight(night)


def test_warehouse_rows_are_emitted(workload):
    """The Load step's rows count the entities the Transform step reported."""
    _, expensive = _cheapest_and_most_expensive(workload)
    source = workload.make_source()
    segment = source.segment_at(int(12 * 3600.0 / source.segment_seconds))
    outcome = workload.evaluate(expensive, segment)
    rows = workload.warehouse_rows(expensive, segment)
    assert outcome.entities > 0.0
    if workload.name == "ev":
        assert sum(row.count for row in rows["detections"]) == outcome.entities
        assert {row.category for row in rows["detections"]} == {"car", "ev"}
    elif workload.name in ("covid", "mot"):
        assert [row.tracked_objects for row in rows["tracks"]] == [outcome.entities]
    else:
        assert len(rows["sentiments"]) == min(int(outcome.entities), 3)


def test_warehouse_rows_do_not_depend_on_call_order(workload):
    """Rows are a function of (configuration, segment), like the outcome."""
    cheapest, expensive = _cheapest_and_most_expensive(workload)
    source = workload.make_source()
    pairs = [
        (configuration, source.segment_at(index))
        for index in range(20_000, 20_003)
        for configuration in (cheapest, expensive)
    ]
    forward = [workload.warehouse_rows(*pair) for pair in pairs]
    backward = [workload.warehouse_rows(*pair) for pair in reversed(pairs)][::-1]
    assert forward == backward


# --------------------------------------------------------------------- #
# Workload-specific behaviour
# --------------------------------------------------------------------- #
def test_ev_named_configurations(ev_workload):
    named = ev_workload.named_configurations()
    assert set(named) == {"cheap", "medium", "expensive"}
    segment = ev_workload.representative_segment()
    cheap_work = ev_workload.build_task_graph(named["cheap"], segment).total_on_prem_seconds()
    expensive_work = ev_workload.build_task_graph(
        named["expensive"], segment
    ).total_on_prem_seconds()
    assert expensive_work > cheap_work


def test_covid_knob_domains_match_the_paper(covid_workload):
    space = covid_workload.knob_space
    assert space.knob("frame_rate").domain == (1, 5, 10, 15, 30)
    assert space.knob("det_interval").domain == (60, 30, 5, 1)
    assert space.knob("tiles").domain == (1, 2)


def test_mot_knob_domains_match_the_paper(mot_workload):
    space = mot_workload.knob_space
    assert space.knob("frame_skip").domain == (60, 30, 5, 1)
    assert space.knob("history").domain == (1, 2, 3, 5)
    assert space.knob("model_size").domain == ("small", "medium", "large")


def test_mosei_stream_scaling(mosei_workload):
    source = mosei_workload.make_source()
    config = mosei_workload.knob_space.configuration(
        sentence_skip=0, frame_fraction=6, model_size="large", streams=62
    )
    quiet = source.segment_at(10)
    # A segment inside the first MOSEI-HIGH spike (90 minutes in).
    spike = source.segment_at(int(95 * 60.0 / source.segment_seconds))
    assert mosei_workload.active_streams(spike) > mosei_workload.active_streams(quiet)
    assert mosei_workload.active_streams(spike) <= MAX_STREAMS
    assert mosei_workload.runtime_scale(config, spike) > mosei_workload.runtime_scale(config, quiet)
    limited = mosei_workload.knob_space.configuration(
        sentence_skip=0, frame_fraction=6, model_size="large", streams=8
    )
    assert mosei_workload.analyzed_streams(limited, spike) == 8


def test_mosei_high_and_long_variants_differ():
    high = MoseiWorkload(variant="high", seed=23)
    long = MoseiWorkload(variant="long", seed=23)
    high_source = high.make_source()
    long_source = long.make_source()
    high_loads = [
        high.active_streams(high_source.segment_at(index)) for index in range(0, 12_000, 50)
    ]
    long_loads = [
        long.active_streams(long_source.segment_at(index)) for index in range(0, 12_000, 50)
    ]
    # HIGH has taller (but shorter) peaks than LONG.
    assert max(high_loads) >= max(long_loads)
    assert max(high_loads) > 45
    with pytest.raises(ConfigurationError):
        MoseiWorkload(variant="medium")


def test_setup_factories_define_history_and_online_windows():
    for factory in (make_ev_setup, make_covid_setup, make_mot_setup):
        setup = factory(history_days=1.0, online_days=0.5)
        assert setup.online_start == pytest.approx(86_400.0)
        assert setup.online_end == pytest.approx(1.5 * 86_400.0)
        assert setup.workload.name
    mosei_setup = make_mosei_setup(variant="long", history_days=1.0, online_days=0.5)
    assert mosei_setup.workload.name == "mosei-long"


@settings(max_examples=10, deadline=None)
@given(index=st.integers(min_value=0, max_value=80_000))
def test_property_covid_quality_bounded(covid_workload, index):
    source = covid_workload.make_source()
    segment = source.segment_at(index)
    config = covid_workload.knob_space.configuration(frame_rate=10, det_interval=5, tiles=2)
    outcome = covid_workload.evaluate(config, segment)
    assert 0.0 <= outcome.true_quality <= 1.0
    assert 0.0 <= outcome.reported_quality <= 1.0
