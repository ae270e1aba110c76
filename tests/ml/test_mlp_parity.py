"""The flat-buffer MLP trainer against the frozen per-layer trainer.

``MLP.fit`` keeps every weight and bias in one buffer and takes one fused
Adam step over it per mini-batch; ``frozen_mlp_fit`` is the per-layer loop it
replaced.  Both must produce the same bytes: every parameter, every epoch's
losses and the selected epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reference import frozen_mlp_fit
from repro.ml.mlp import MLP, MLPConfig


def _histogram_task(n_samples, n_inputs, n_outputs, seed):
    """Inputs in [0, 1) and target histograms that are a fixed mix of them."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(size=(n_samples, n_inputs))
    mixing = rng.uniform(size=(n_inputs, n_outputs))
    targets = inputs @ mixing
    return inputs, targets / targets.sum(axis=1, keepdims=True)


def _same_float_bytes(ours, theirs) -> bool:
    return np.asarray(ours, dtype=float).tobytes() == np.asarray(theirs, dtype=float).tobytes()


def _assert_trains_like_frozen(n_inputs, n_outputs, config, inputs, targets):
    live = MLP(n_inputs, n_outputs, config)
    frozen = MLP(n_inputs, n_outputs, config)
    history = live.fit(inputs, targets)
    frozen_history = frozen_mlp_fit(frozen, inputs, targets)

    ours, theirs = live.get_parameters(), frozen.get_parameters()
    assert [p.shape for p in ours] == [p.shape for p in theirs]
    for ours_param, theirs_param in zip(ours, theirs, strict=True):
        assert ours_param.dtype == theirs_param.dtype
        assert ours_param.tobytes() == theirs_param.tobytes()
    assert len(history.train_loss) == config.epochs
    assert _same_float_bytes(history.train_loss, frozen_history.train_loss)
    assert _same_float_bytes(history.validation_loss, frozen_history.validation_loss)
    assert history.best_epoch == frozen_history.best_epoch
    assert _same_float_bytes(
        history.best_validation_loss, frozen_history.best_validation_loss
    )
    # Predictions read the restored best-epoch parameters on both sides.
    assert live.predict(inputs).tobytes() == frozen.predict(inputs).tobytes()
    return history


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_forecaster_shaped_fit_matches_frozen(seed):
    """The forecaster's shape: 8 splits x 4 categories in, 4 out, defaults.

    Of 300 rows, 240 train in batches of 32, so each epoch ends on a
    partial batch of 16.
    """
    inputs, targets = _histogram_task(300, 32, 4, seed=seed)
    history = _assert_trains_like_frozen(32, 4, MLPConfig(seed=seed), inputs, targets)
    assert history.best_epoch > 1


@pytest.mark.parametrize(
    "n_samples, n_inputs, n_outputs, config",
    [
        (97, 6, 3, MLPConfig(epochs=9, batch_size=10, seed=3)),
        (64, 5, 2, MLPConfig(epochs=6, hidden_sizes=(7,), seed=4)),
        (45, 4, 5, MLPConfig(epochs=5, hidden_sizes=(9, 6, 3), batch_size=8, seed=5)),
        (3, 4, 2, MLPConfig(epochs=4, seed=6)),
    ],
)
def test_shapes_and_partial_batches_match_frozen(n_samples, n_inputs, n_outputs, config):
    inputs, targets = _histogram_task(n_samples, n_inputs, n_outputs, seed=n_samples)
    _assert_trains_like_frozen(n_inputs, n_outputs, config, inputs, targets)


def test_without_validation_split_matches_frozen():
    """``validation_split=0`` selects the best epoch on the training rows."""
    inputs, targets = _histogram_task(70, 6, 3, seed=11)
    config = MLPConfig(epochs=8, validation_split=0.0, seed=11)
    _assert_trains_like_frozen(6, 3, config, inputs, targets)


@pytest.mark.parametrize("head", ["softmax", "linear", "sigmoid"])
def test_every_output_head_matches_frozen(head):
    inputs, targets = _histogram_task(120, 5, 2, seed=13)
    if head == "linear":
        targets = inputs @ np.array([[1.0, -0.5], [2.0, 0.1], [-1.0, 0.3], [0.5, 0.0], [0.2, 1.0]])
    config = MLPConfig(output_activation=head, epochs=10, seed=13)
    _assert_trains_like_frozen(5, 2, config, inputs, targets)


def test_frozen_fit_restores_the_best_epoch_on_the_network():
    inputs, targets = _histogram_task(80, 6, 3, seed=17)
    network = MLP(6, 3, MLPConfig(epochs=6, seed=17))
    history = frozen_mlp_fit(network, inputs, targets)
    assert network.is_fitted
    assert network.history is history
