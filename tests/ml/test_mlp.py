"""Tests for the feed-forward network used by the forecaster."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.mlp import MLP, MLPConfig


def _histogram_task(n_samples=256, seed=0):
    """A learnable toy task: the target histogram is a fixed mix of the inputs."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(size=(n_samples, 6))
    mixing = np.array(
        [
            [0.7, 0.2, 0.1],
            [0.1, 0.8, 0.1],
            [0.2, 0.2, 0.6],
            [0.5, 0.3, 0.2],
            [0.1, 0.1, 0.8],
            [0.3, 0.4, 0.3],
        ]
    )
    targets = inputs @ mixing
    targets = targets / targets.sum(axis=1, keepdims=True)
    return inputs, targets


def test_training_reduces_loss():
    inputs, targets = _histogram_task()
    model = MLP(6, 3, MLPConfig(epochs=30, seed=1))
    history = model.fit(inputs, targets)
    assert history.train_loss[-1] < history.train_loss[0]
    assert history.best_validation_loss < 0.05


def test_softmax_output_is_a_distribution():
    inputs, targets = _histogram_task(seed=2)
    model = MLP(6, 3, MLPConfig(epochs=5, seed=2))
    model.fit(inputs, targets)
    prediction = model.predict(inputs[0])
    assert prediction.shape == (3,)
    assert prediction.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(prediction >= 0.0)


def test_batch_and_single_prediction_agree():
    inputs, targets = _histogram_task(seed=3)
    model = MLP(6, 3, MLPConfig(epochs=3, seed=3))
    model.fit(inputs, targets)
    batch = model.predict(inputs[:4])
    singles = np.stack([model.predict(row) for row in inputs[:4]])
    assert np.allclose(batch, singles)


def test_parameters_roundtrip():
    model = MLP(4, 2, MLPConfig(seed=5))
    params = model.get_parameters()
    other = MLP(4, 2, MLPConfig(seed=99))
    other.set_parameters(params)
    sample = np.array([0.1, 0.4, 0.2, 0.9])
    assert np.allclose(model.predict(sample), other.predict(sample))


def test_set_parameters_validates_length():
    model = MLP(4, 2)
    with pytest.raises(ConfigurationError):
        model.set_parameters([np.zeros((4, 2))])


def test_set_parameters_validates_shapes():
    model = MLP(4, 2, MLPConfig(hidden_sizes=(3,)))
    params = model.get_parameters()
    assert [p.shape for p in params] == [(4, 3), (3,), (3, 2), (2,)]
    params[1] = np.zeros(1)
    with pytest.raises(ConfigurationError, match="shape"):
        model.set_parameters(params)


def test_set_parameters_copies_into_the_network():
    model = MLP(4, 2, MLPConfig(seed=5))
    params = [np.full(p.shape, float(index)) for index, p in enumerate(model.get_parameters())]
    model.set_parameters(params)
    params[0][...] = -1.0
    restored = model.get_parameters()
    assert [float(p.flat[0]) for p in restored] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    restored[2][...] = -1.0
    assert float(model.get_parameters()[2].flat[0]) == 2.0


def test_best_validation_weights_are_restored():
    inputs, targets = _histogram_task(seed=4)
    model = MLP(6, 3, MLPConfig(epochs=25, seed=4))
    history = model.fit(inputs, targets)
    final_loss = float(np.mean((model.predict(inputs) - targets) ** 2))
    # The restored weights should perform about as well as the best epoch.
    assert final_loss <= history.best_validation_loss * 3 + 1e-3


def test_requires_fit_before_enforced_use():
    model = MLP(3, 2)
    with pytest.raises(NotFittedError):
        model.require_fitted()
    assert not model.is_fitted


def test_input_validation():
    model = MLP(3, 2)
    with pytest.raises(ConfigurationError):
        model.predict(np.zeros(5))
    with pytest.raises(ConfigurationError):
        model.fit(np.zeros((4, 3)), np.zeros((5, 2)))
    with pytest.raises(ConfigurationError):
        model.fit(np.zeros((0, 3)), np.zeros((0, 2)))
    with pytest.raises(ConfigurationError):
        MLP(0, 2)
    with pytest.raises(ConfigurationError):
        MLPConfig(output_activation="relu6")
    with pytest.raises(ConfigurationError):
        MLPConfig(validation_split=1.5)


def test_linear_output_activation():
    rng = np.random.default_rng(0)
    inputs = rng.uniform(size=(128, 4))
    targets = inputs @ np.array([[1.0], [2.0], [-1.0], [0.5]])
    model = MLP(4, 1, MLPConfig(output_activation="linear", epochs=60, seed=0))
    model.fit(inputs, targets)
    prediction = model.predict(inputs)
    assert np.mean((prediction - targets) ** 2) < 0.1


def test_pickled_network_trains_like_the_original():
    """Unpickling rebinds the layer views to the one parameter buffer."""
    inputs, targets = _histogram_task(seed=6)
    model = MLP(6, 3, MLPConfig(epochs=4, seed=6))
    twin = pickle.loads(pickle.dumps(model))
    model.fit(inputs, targets)
    twin.fit(inputs, targets)
    for ours, theirs in zip(twin.get_parameters(), model.get_parameters(), strict=True):
        assert ours.tobytes() == theirs.tobytes()
    assert twin.predict(inputs).tobytes() == model.predict(inputs).tobytes()
