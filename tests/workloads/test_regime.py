"""Determinism of the regime-switching workload.

The ``regime_shift`` figure's claim rests on the regime workload being a fixed,
replayable universe: content states must be bit-identical across batch
chunkings and :meth:`ContentModel.with_seed` replicas (fleet scenarios
re-seed cameras through it), and recorded segments must replay identically.
"""

import numpy as np
import pytest

from repro.workloads.regime import make_regime_setup

SECONDS_PER_DAY = 86_400.0


@pytest.fixture(scope="module")
def regime_setup():
    return make_regime_setup(history_days=0.25, online_days=0.05)


def _span(setup):
    """Timestamps straddling the regime boundary (plus both far sides)."""
    boundary = setup.workload.regimes.boundaries_seconds[0]
    return np.concatenate(
        [
            np.linspace(0.0, boundary - 1.0, 401),
            np.linspace(boundary - 30.0, boundary + 30.0, 301),
            np.linspace(boundary + 1.0, boundary + 3_600.0, 401),
        ]
    )


def test_with_seed_replica_is_bit_identical(regime_setup):
    """Same seed, rebuilt model: every content column equal, bitwise."""
    model = regime_setup.source.content_model
    replica = model.with_seed(model.seed)
    assert replica is not model
    timestamps = _span(regime_setup)
    ours = model.states_at(timestamps)
    theirs = replica.states_at(timestamps)
    for attribute in ("activity", "occlusion", "lighting", "object_density"):
        assert np.array_equal(
            getattr(ours, attribute), getattr(theirs, attribute)
        ), attribute


def test_with_seed_carries_the_regime_schedule(regime_setup):
    """Re-seeded replicas keep the schedule: the post-shift regime differs
    from pre-shift for them too (fleet cameras all see the construction)."""
    model = regime_setup.source.content_model
    replica = model.with_seed(model.seed + 17)
    boundary = regime_setup.workload.regimes.boundaries_seconds[0]
    probe = np.linspace(boundary + 60.0, boundary + 1_800.0, 200)
    mirrored = probe - boundary + (boundary - 1_860.0)  # same offsets, pre-shift
    post = float(np.mean(replica.states_at(probe).activity))
    pre = float(np.mean(replica.states_at(mirrored).activity))
    assert post > pre + 0.1


def test_states_batch_size_invariant_across_the_boundary(regime_setup):
    """Chunked evaluation equals the full batch even when chunks straddle
    the regime boundary (burst accumulation must not leak across chunks)."""
    model = regime_setup.source.content_model
    timestamps = _span(regime_setup)
    full = model.states_at(timestamps)
    for chunk in (1, 13, 250):
        pieces = [
            model.states_at(timestamps[start:start + chunk])
            for start in range(0, timestamps.size, chunk)
        ]
        merged = np.concatenate([piece.activity for piece in pieces])
        assert np.array_equal(full.activity, merged), f"chunk={chunk}"


def test_recorded_segments_are_replayable(regime_setup):
    """Two sources from the same workload record identical segments."""
    boundary = regime_setup.workload.regimes.boundaries_seconds[0]
    window = (boundary - 120.0, boundary + 120.0)
    first = regime_setup.workload.make_source().record(*window)
    second = regime_setup.workload.make_source().record(*window)
    assert first == second
