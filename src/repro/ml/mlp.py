"""A small feed-forward neural network trained with Adam.

Skyscraper's forecasting model (Section 3.3, Appendix K) is a feed-forward
network ``input -> 16 ReLU -> 8 ReLU -> |C| softmax`` that maps the content
histograms of the recent past to the content histogram of the planned
interval.  This module provides that network from scratch on NumPy, with a
training loop, validation-based weight selection, and deterministic seeding.

All weights and biases are views of one float64 buffer, laid out in
:meth:`MLP.get_parameters` order, and each mini-batch writes its gradients
into a second buffer with the same layout.  Adam (Kingma & Ba,
arXiv:1412.6980) is elementwise, so :class:`_AdamState` updates the whole
buffer with one fixed sequence of in-place ufuncs per step instead of a loop
over layers.  Every element still sees the same IEEE operations in the same
order as the per-layer update, so training is bit for bit the per-layer loop
that ``repro.core.reference.frozen_mlp_fit`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, NotFittedError


@dataclass
class MLPConfig:
    """Hyperparameters of the forecasting network.

    The defaults match Appendix K of the paper: two hidden layers with 16 and
    8 ReLU units, softmax output, 40 training epochs and a 20% validation
    split.
    """

    hidden_sizes: Tuple[int, ...] = (16, 8)
    output_activation: str = "softmax"
    learning_rate: float = 1e-2
    epochs: int = 40
    batch_size: int = 32
    validation_split: float = 0.2
    weight_decay: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if any(size < 1 for size in self.hidden_sizes):
            raise ConfigurationError("hidden layer sizes must be positive")
        if self.output_activation not in ("softmax", "linear", "sigmoid"):
            raise ConfigurationError(
                f"unsupported output activation {self.output_activation!r}"
            )
        if not 0.0 <= self.validation_split < 1.0:
            raise ConfigurationError("validation_split must be in [0, 1)")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch training and validation losses recorded by :meth:`MLP.fit`."""

    train_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    best_epoch: int = 0
    best_validation_loss: float = float("inf")


class MLP:
    """Feed-forward network with ReLU hidden layers trained via Adam.

    The loss is mean squared error, which matches the paper's use of mean
    absolute error as the reported forecast metric (the network outputs a
    probability histogram, so MSE and MAE rank models identically here).

    Args:
        input_size: dimensionality of the flattened input features.
        output_size: dimensionality of the output (number of content
            categories for the forecaster).
        config: training hyperparameters; defaults follow Appendix K.
    """

    def __init__(self, input_size: int, output_size: int, config: Optional[MLPConfig] = None):
        if input_size < 1 or output_size < 1:
            raise ConfigurationError("input_size and output_size must be positive")
        self.input_size = input_size
        self.output_size = output_size
        self.config = config or MLPConfig()
        self._rng = np.random.default_rng(self.config.seed)
        sizes = (input_size, *self.config.hidden_sizes, output_size)
        self._shapes: List[Tuple[int, ...]] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self._shapes += [(fan_in, fan_out), (fan_out,)]
        self._parameters = np.zeros(sum(int(np.prod(shape)) for shape in self._shapes))
        self._bind_views()
        self._initialize_parameters()
        self._fitted = False
        self.history = TrainingHistory()

    # ------------------------------------------------------------------ #
    # Parameter handling
    # ------------------------------------------------------------------ #
    def _bind_views(self) -> None:
        self._views = self._layer_views(self._parameters)
        self._weights = self._views[0::2]
        self._biases = self._views[1::2]

    def __getstate__(self) -> Dict[str, Any]:
        # A pickled view is a copy, so only the buffer is stored.
        state = dict(self.__dict__)
        for name in ("_views", "_weights", "_biases"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._bind_views()

    def _layer_views(self, buffer: np.ndarray) -> List[np.ndarray]:
        """Views of a flat buffer as the arrays of :meth:`get_parameters`, in order."""
        views = []
        offset = 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            views.append(buffer[offset : offset + size].reshape(shape))
            offset += size
        return views

    def _initialize_parameters(self) -> None:
        for weight in self._weights:
            scale = np.sqrt(2.0 / weight.shape[0])
            weight[...] = self._rng.normal(0.0, scale, size=weight.shape)

    def get_parameters(self) -> List[np.ndarray]:
        """Return a flat copy of all weights and biases (for checkpointing)."""
        return [view.copy() for view in self._views]

    def set_parameters(self, parameters: Sequence[np.ndarray]) -> None:
        """Restore weights and biases produced by :meth:`get_parameters`."""
        if len(parameters) != len(self._shapes):
            raise ConfigurationError(
                f"expected {len(self._shapes)} parameter arrays, got {len(parameters)}"
            )
        arrays = [np.asarray(parameter, dtype=float) for parameter in parameters]
        for index, (array, shape) in enumerate(zip(arrays, self._shapes)):
            if array.shape != shape:
                raise ConfigurationError(
                    f"parameter array {index} has shape {array.shape}, expected {shape}"
                )
        for view, array in zip(self._views, arrays):
            view[...] = array

    def restore_parameters(self, parameters: Sequence[np.ndarray]) -> None:
        """Load a trained checkpoint: set parameters and mark the network fitted."""
        self.set_parameters(parameters)
        self._fitted = True

    # ------------------------------------------------------------------ #
    # Forward pass
    # ------------------------------------------------------------------ #
    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Run a forward pass; accepts a single sample or a batch."""
        features = np.asarray(inputs, dtype=float)
        single = features.ndim == 1
        if single:
            features = features.reshape(1, -1)
        if features.shape[1] != self.input_size:
            raise ConfigurationError(
                f"expected inputs with {self.input_size} features, got {features.shape[1]}"
            )
        outputs, _ = self._forward(features)
        return outputs[0] if single else outputs

    def _forward(self, features: np.ndarray):
        activations = [features]
        current = features
        for layer, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            pre_activation = current @ weight + bias
            if layer < len(self._weights) - 1:
                current = np.maximum(pre_activation, 0.0)
            else:
                current = self._output_activation(pre_activation)
            activations.append(current)
        return current, activations

    def _output_activation(self, pre_activation: np.ndarray) -> np.ndarray:
        if self.config.output_activation == "softmax":
            shifted = pre_activation - pre_activation.max(axis=1, keepdims=True)
            exps = np.exp(shifted)
            return exps / exps.sum(axis=1, keepdims=True)
        if self.config.output_activation == "sigmoid":
            return 1.0 / (1.0 + np.exp(-pre_activation))
        return pre_activation

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, inputs: np.ndarray, targets: np.ndarray) -> TrainingHistory:
        """Train on ``(inputs, targets)`` and keep the best validation weights.

        Args:
            inputs: ``(n_samples, input_size)`` features.
            targets: ``(n_samples, output_size)`` regression targets
                (content-category histograms for the forecaster).
        """
        features = np.asarray(inputs, dtype=float)
        labels = np.asarray(targets, dtype=float)
        if features.ndim != 2 or labels.ndim != 2:
            raise ConfigurationError("fit expects 2-D inputs and targets")
        if features.shape[0] != labels.shape[0]:
            raise ConfigurationError("inputs and targets must have the same length")
        if features.shape[0] == 0:
            raise ConfigurationError("cannot fit on an empty training set")

        n_samples = features.shape[0]
        n_validation = int(round(n_samples * self.config.validation_split))
        permutation = self._rng.permutation(n_samples)
        validation_idx = permutation[:n_validation]
        train_idx = permutation[n_validation:]
        if train_idx.size == 0:
            train_idx = permutation
            validation_idx = permutation
        train_x, train_y = features[train_idx], labels[train_idx]
        val_x, val_y = (
            (features[validation_idx], labels[validation_idx])
            if validation_idx.size
            else (train_x, train_y)
        )

        history = TrainingHistory()
        best_parameters = self._parameters.copy()
        gradients = np.zeros_like(self._parameters)
        adam_state = _AdamState(self._parameters.size, self.config.learning_rate)

        for epoch in range(1, self.config.epochs + 1):
            epoch_loss = self._run_epoch(train_x, train_y, adam_state, gradients)
            validation_loss = self._loss(val_x, val_y)
            history.train_loss.append(epoch_loss)
            history.validation_loss.append(validation_loss)
            if validation_loss < history.best_validation_loss:
                history.best_validation_loss = validation_loss
                history.best_epoch = epoch
                best_parameters[...] = self._parameters

        self._parameters[...] = best_parameters
        self._fitted = True
        self.history = history
        return history

    def _run_epoch(self, train_x, train_y, adam_state, gradients) -> float:
        n_samples = train_x.shape[0]
        order = self._rng.permutation(n_samples)
        shuffled_x, shuffled_y = train_x[order], train_y[order]
        batch_size = min(self.config.batch_size, n_samples)
        gradient_views = self._layer_views(gradients)
        weight_grads, bias_grads = gradient_views[0::2], gradient_views[1::2]
        total_loss = 0.0
        n_batches = 0
        for start in range(0, n_samples, batch_size):
            stop = start + batch_size
            loss = self._train_batch(
                shuffled_x[start:stop], shuffled_y[start:stop], weight_grads, bias_grads
            )
            adam_state.step(self._parameters, gradients)
            total_loss += loss
            n_batches += 1
        return total_loss / max(n_batches, 1)

    def _train_batch(self, batch_x, batch_y, weight_grads, bias_grads) -> float:
        """Forward and backward pass: the batch's loss; gradients land in the views."""
        outputs, activations = self._forward(batch_x)
        batch_size = batch_x.shape[0]
        error = outputs - batch_y
        loss = float(np.mean(error**2))

        # Backpropagation.  For the softmax head we use the simple MSE
        # gradient through the softmax Jacobian approximated by the identity,
        # which is standard practice for histogram regression and keeps the
        # implementation compact; the validation-selected weights make the
        # approximation irrelevant in practice.
        grad = 2.0 * error / batch_size
        for layer in reversed(range(len(self._weights))):
            weight = self._weights[layer]
            # The gradient views are C-contiguous, so numpy hands this product
            # to BLAS exactly as it did a fresh ``layer_input.T @ grad``.
            np.matmul(activations[layer].T, grad, out=weight_grads[layer])
            weight_grads[layer] += self.config.weight_decay * weight
            np.sum(grad, axis=0, out=bias_grads[layer])
            if layer > 0:
                grad = grad @ weight.T
                grad = grad * (activations[layer] > 0)
        return loss

    def _loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        outputs, _ = self._forward(features)
        return float(np.mean((outputs - labels) ** 2))

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def require_fitted(self) -> None:
        """Raise :class:`NotFittedError` if the network was never trained."""
        if not self._fitted:
            raise NotFittedError("the forecasting network has not been trained")


class _AdamState:
    """Adam optimizer state over a flat parameter buffer.

    Per element, :meth:`step` computes ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*(g*g)`` and ``w -= (lr*(m/c1)) / (sqrt(v/c2) + eps)``
    with the operations of the per-layer update in their order (only the
    operands of single multiplies swap), so it is exact, not approximate.
    """

    def __init__(self, size: int, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._update = np.empty(size)
        self._denominator = np.empty(size)

    def step(self, parameters: np.ndarray, gradients: np.ndarray) -> None:
        """One Adam update of ``parameters`` in place from ``gradients``."""
        self.step_count += 1
        correction1 = 1.0 - self.beta1**self.step_count
        correction2 = 1.0 - self.beta2**self.step_count
        m, v, update, denominator = self.m, self.v, self._update, self._denominator
        np.multiply(m, self.beta1, out=m)
        np.multiply(gradients, 1 - self.beta1, out=update)
        np.add(m, update, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(gradients, gradients, out=update)
        np.multiply(update, 1 - self.beta2, out=update)
        np.add(v, update, out=v)
        np.divide(m, correction1, out=update)
        np.multiply(update, self.learning_rate, out=update)
        np.divide(v, correction2, out=denominator)
        np.sqrt(denominator, out=denominator)
        np.add(denominator, self.eps, out=denominator)
        np.divide(update, denominator, out=update)
        np.subtract(parameters, update, out=parameters)
