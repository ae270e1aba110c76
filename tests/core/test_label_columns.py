"""Parity tests for scoring segment columns and for the columnar history labeler.

``VETLWorkload.evaluate_columns`` scores a whole column batch under one
configuration; EV computes it with array math straight from the columns,
and every other workload materializes the rows.  These tests pin both, and
EV's segment-object ``evaluate_config_batch``, to the scalar ``evaluate`` by
the bytes of all three outcome fields; pin the shared ``EvaluationCache``'s
columnar entry point to its pair-driven one; and pin ``label_quality_series``
to the per-object labeler kept in ``repro.core.reference``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest

from repro.core.filtering import find_extreme_configurations, sample_diverse_segments
from repro.core.interfaces import SegmentOutcome
from repro.core.offline import (
    EvaluationCache,
    OfflineFitParams,
    OfflinePipeline,
    label_quality_series,
)
from repro.core.reference import frozen_label_quality_series

SECONDS_PER_DAY = 86_400.0


def _outcome_bytes(outcomes: Sequence[SegmentOutcome]) -> bytes:
    """All three fields of every outcome, as float64 bytes (-0.0 differs from 0.0)."""
    for outcome in outcomes:
        assert type(outcome.reported_quality) is float
        assert type(outcome.true_quality) is float
        assert type(outcome.entities) is float
    return np.array(
        [[o.reported_quality, o.true_quality, o.entities] for o in outcomes], dtype=float
    ).tobytes()


def _scrambled_indices(days: float, step: int, seed: int) -> np.ndarray:
    """Segment indices spread over ``days`` of 2 s segments, unsorted, some repeated."""
    rng = np.random.default_rng(seed)
    spread = np.arange(0, int(days * SECONDS_PER_DAY / 2.0), step, dtype=np.int64)
    repeats = rng.choice(spread, size=max(spread.size // 10, 3))
    return rng.permutation(np.concatenate([spread, repeats]))


def _scalar(workload, configuration, columns) -> List[SegmentOutcome]:
    return [
        workload.evaluate(configuration, columns.segment(position))
        for position in range(len(columns))
    ]


# --------------------------------------------------------------------- #
# Workload hooks
# --------------------------------------------------------------------- #
def test_ev_columns_and_config_batch_match_scalar_evaluate(ev_workload):
    """Every EV configuration over two days of unsorted, repeated rows, and an empty batch."""
    source = ev_workload.make_source()
    indices = _scrambled_indices(days=2.0, step=97, seed=0)
    assert len(set(indices.tolist())) < indices.size
    assert np.any(np.diff(indices) < 0)
    assert indices.max() * 2.0 > 1.9 * SECONDS_PER_DAY
    columns = source.segment_index_columns(indices)
    segments = [columns.segment(position) for position in range(len(columns))]
    empty = source.segment_index_columns(np.array([], dtype=np.int64))
    configurations = list(ev_workload.knob_space.all_configurations())
    assert len(configurations) == 15
    for configuration in configurations:
        expected = _outcome_bytes(_scalar(ev_workload, configuration, columns))
        assert _outcome_bytes(ev_workload.evaluate_columns(configuration, columns)) == expected
        batch = ev_workload.evaluate_config_batch(configuration, segments)
        assert _outcome_bytes(batch) == expected
        assert ev_workload.evaluate_columns(configuration, empty) == []
        assert ev_workload.evaluate_config_batch(configuration, []) == []


def test_ev_batch_noise_hashes_the_scalar_keys(ev_workload, covid_workload):
    """The batch noise of every channel is ``_noise`` of the same key, bit for bit."""
    source = ev_workload.make_source()
    indices = _scrambled_indices(days=0.5, step=41, seed=1)
    columns = source.segment_index_columns(indices)
    segments = [columns.segment(position) for position in range(len(columns))]
    for workload in (ev_workload, covid_workload):
        for configuration in list(workload.knob_space.all_configurations())[:3]:
            for channel, scale in (("quality", 0.02), ("report", 0.03)):
                batch = workload._noise_columns(
                    configuration, indices.tolist(), channel, scale
                )
                scalar = np.array(
                    [
                        workload._noise(configuration, segment, channel, scale)
                        for segment in segments
                    ],
                    dtype=float,
                )
                assert batch.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("name", ["covid", "mot", "mosei"])
def test_default_evaluate_columns_matches_scalar_evaluate(
    name, covid_workload, mot_workload, mosei_workload
):
    """``BaseWorkload``'s default materializes the rows and scores them as before."""
    workload = {"covid": covid_workload, "mot": mot_workload, "mosei": mosei_workload}[name]
    source = workload.make_source()
    indices = _scrambled_indices(days=1.0, step=347, seed=2)
    columns = source.segment_index_columns(indices)
    configurations = list(workload.knob_space.all_configurations())
    for configuration in configurations[:: max(len(configurations) // 5, 1)]:
        assert _outcome_bytes(workload.evaluate_columns(configuration, columns)) == (
            _outcome_bytes(_scalar(workload, configuration, columns))
        )


def test_take_keeps_the_rows_it_names(ev_workload):
    columns = ev_workload.make_source().segment_index_columns(np.arange(100, 140))
    rows = np.array([7, 3, 3, 39, 0])
    taken = columns.take(rows)
    assert len(taken) == rows.size
    for position, row in enumerate(rows.tolist()):
        assert repr(taken.segment(position)) == repr(columns.segment(row))


# --------------------------------------------------------------------- #
# The evaluation cache's columnar entry point
# --------------------------------------------------------------------- #
def _warm_cache(workload, source, configuration) -> EvaluationCache:
    """A cache already holding a few rows of ``configuration`` and of another one."""
    cache = EvaluationCache(workload)
    other = list(workload.knob_space.all_configurations())[-1]
    cache.evaluate_many(
        [(configuration, source.segment_at(index)) for index in (4, 9)]
        + [(other, source.segment_at(index)) for index in (4, 5)]
    )
    return cache


def test_cache_columns_account_like_evaluate_many(ev_workload):
    source = ev_workload.make_source()
    configuration = ev_workload.named_configurations()["cheap"]
    columns = source.segment_index_columns(np.array([9, 3, 4, 3, 12, 9, 3, 5]))
    by_columns = _warm_cache(ev_workload, source, configuration)
    by_pairs = _warm_cache(ev_workload, source, configuration)
    column_outcomes = by_columns.evaluate_columns(configuration, columns)
    pair_outcomes = by_pairs.evaluate_many(
        [(configuration, columns.segment(position)) for position in range(len(columns))]
    )
    assert (by_columns.hits, by_columns.misses) == (by_pairs.hits, by_pairs.misses)
    # Warm-up: 4 misses.  Batch: 9, 4, 9 cached; the later two 3s repeat; 3, 12, 5 new.
    assert (by_columns.hits, by_columns.misses) == (5, 7)
    assert len(by_columns) == len(by_pairs) == 7
    assert _outcome_bytes(column_outcomes) == _outcome_bytes(pair_outcomes)
    assert _outcome_bytes(column_outcomes) == _outcome_bytes(
        _scalar(ev_workload, configuration, columns)
    )


def test_cache_columns_serve_in_batch_duplicates_one_object(ev_workload):
    source = ev_workload.make_source()
    configuration = ev_workload.named_configurations()["medium"]
    cache = EvaluationCache(ev_workload)
    outcomes = cache.evaluate_columns(
        configuration, source.segment_index_columns(np.array([5, 7, 5, 5, 7]))
    )
    assert (cache.hits, cache.misses) == (3, 2)
    assert outcomes[0] is outcomes[2] is outcomes[3]
    assert outcomes[1] is outcomes[4]
    assert outcomes[0] is not outcomes[1]
    assert cache.evaluate_columns(
        configuration, source.segment_index_columns(np.array([], dtype=np.int64))
    ) == []
    assert (cache.hits, cache.misses) == (3, 2)


@pytest.mark.parametrize("first", ["pairs", "columns"])
def test_cache_entry_points_serve_each_other(first, ev_workload, covid_workload):
    for workload in (ev_workload, covid_workload):
        source = workload.make_source()
        configuration = next(workload.knob_space.all_configurations())
        columns = source.segment_index_columns(np.array([30, 10, 20]))
        pairs = [(configuration, columns.segment(position)) for position in range(3)]
        cache = EvaluationCache(workload)
        if first == "pairs":
            stored = cache.evaluate_many(pairs)
            served = cache.evaluate_columns(configuration, columns)
        else:
            stored = cache.evaluate_columns(configuration, columns)
            served = cache.evaluate_many(pairs)
        assert (cache.hits, cache.misses) == (3, 3)
        assert all(ours is theirs for ours, theirs in zip(served, stored))


def test_cache_len_counts_distinct_pairs(ev_workload):
    source = ev_workload.make_source()
    cheap, medium = (ev_workload.named_configurations()[name] for name in ("cheap", "medium"))
    cache = EvaluationCache(ev_workload)
    cache.evaluate_columns(cheap, source.segment_index_columns(np.array([1, 2, 2, 3])))
    cache.evaluate_columns(medium, source.segment_index_columns(np.array([2, 3, 3])))
    cache.evaluate_many([(cheap, source.segment_at(3)), (medium, source.segment_at(8))])
    assert len(cache) == 6


# --------------------------------------------------------------------- #
# The columnar history labeler
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "workload"])
def test_label_quality_series_matches_frozen_labeler_on_ev_16_days(cached, ev_workload):
    """The ``offline_fit_16d`` grid: 16 days of 240 s labels, 5,760 rows."""
    source = ev_workload.make_source()
    configuration = ev_workload.named_configurations()["cheap"]
    window = (0.0, 16 * SECONDS_PER_DAY, 240.0)
    live = label_quality_series(
        ev_workload,
        source,
        configuration,
        *window,
        evaluator=EvaluationCache(ev_workload) if cached else None,
    )
    frozen = frozen_label_quality_series(ev_workload, source, configuration, *window)
    assert live.size == 5_760
    assert live.dtype == frozen.dtype
    assert live.tobytes() == frozen.tobytes()


@pytest.mark.parametrize(
    "window",
    [
        (0.0, 3.0, 0.3),
        (0.0, 0.5 * SECONDS_PER_DAY, 120.0),
        (1_000.0, 7_000.0, 7.0),
        (500.0, 500.0, 60.0),
        (500.0, 100.0, 60.0),
    ],
    ids=["sub-segment", "half-day", "offset", "empty", "reversed"],
)
@pytest.mark.parametrize("cached", [True, False], ids=["cache", "workload"])
def test_label_quality_series_matches_frozen_labeler_on_covid(
    window, cached, covid_workload, covid_source
):
    configuration = next(covid_workload.knob_space.all_configurations())
    live = label_quality_series(
        covid_workload,
        covid_source,
        configuration,
        *window,
        evaluator=EvaluationCache(covid_workload) if cached else None,
    )
    frozen = frozen_label_quality_series(covid_workload, covid_source, configuration, *window)
    assert live.dtype == frozen.dtype
    assert live.tobytes() == frozen.tobytes()
    if window[1] <= window[0]:
        assert live.size == 0


# --------------------------------------------------------------------- #
# sample_segments reads only the five labeled segments it scores
# --------------------------------------------------------------------- #
def _parent_sample_segments(pipeline: OfflinePipeline):
    """The stage as it was: record the whole labeled window, score its first five."""
    params = pipeline.params
    source = pipeline.source
    rng = np.random.default_rng((pipeline.seed, 0))
    labeled_segments = source.record(0.0, params.labeled_minutes * 60.0)
    total = pipeline.total_history_segments
    size = min(params.n_presample_segments, total)
    candidate_indices = np.sort(rng.choice(total, size=size, replace=False))
    candidates = [source.segment_at(int(index)) for index in candidate_indices]
    cheapest, best = find_extreme_configurations(pipeline.workload, labeled_segments[:5])
    search = sample_diverse_segments(
        pipeline.workload,
        candidates,
        n_search=params.n_search_segments,
        cheapest=cheapest,
        best=best,
        seed=pipeline.seed,
    )
    return cheapest, best, [segment.segment_index for segment in search]


@pytest.mark.parametrize("labeled_minutes", [20.0, 0.1], ids=["600-segments", "3-segments"])
def test_sample_segments_match_the_recorded_window(labeled_minutes, ev_workload):
    source = ev_workload.make_source()
    assert source.window_indices(0.0, labeled_minutes * 60.0).size == (
        600 if labeled_minutes == 20.0 else 3
    )
    params = OfflineFitParams(
        unlabeled_days=0.05,
        labeled_minutes=labeled_minutes,
        n_search_segments=4,
        n_presample_segments=40,
    )
    pipeline = OfflinePipeline(ev_workload, source, cores=8, seed=5, params=params)
    context = {}
    pipeline._run_sample_segments(context)
    cheapest, best, search_indices = _parent_sample_segments(pipeline)
    assert context["cheapest"] == cheapest
    assert context["best"] == best
    assert [segment.segment_index for segment in context["search_segments"]] == search_indices
