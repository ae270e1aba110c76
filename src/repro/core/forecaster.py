"""The content-distribution forecasting model (Section 3.3, Appendices H/K).

The forecaster predicts how often each content category will appear over the
next *planned interval*, given the category histograms of the recent past.
Inputs are ``n_splits`` histograms covering the last ``input_seconds``;
the target is the single histogram over the following ``output_seconds``.
The model is the small feed-forward network of Appendix K.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.metrics import mean_absolute_error
from repro.ml.mlp import MLP


@dataclass
class ForecastDataset:
    """Supervised training data for the forecaster.

    Attributes:
        inputs: ``(n_samples, n_splits * n_categories)`` flattened input
            histograms.
        targets: ``(n_samples, n_categories)`` target histograms.
        n_categories: number of content categories.
        n_splits: number of input histograms per sample.
        input_seconds: the look-back window the inputs cover (whole labels,
            so ``input_seconds`` of :meth:`from_labels` rounded to a
            multiple of ``n_splits`` labels).
    """

    inputs: np.ndarray
    targets: np.ndarray
    n_categories: int
    n_splits: int
    input_seconds: float

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @staticmethod
    def from_labels(
        labels: Sequence[int],
        n_categories: int,
        label_period_seconds: float,
        input_seconds: float,
        output_seconds: float,
        n_splits: int,
        stride_seconds: Optional[float] = None,
    ) -> "ForecastDataset":
        """Build input/target pairs from a per-segment category label series.

        Args:
            labels: content-category label of every consecutive segment.
            n_categories: number of content categories.
            label_period_seconds: time covered by one label (segment length).
            input_seconds: length of the model's look-back window (``t_in``).
            output_seconds: length of the planned interval (``t_out``).
            n_splits: how many histograms the look-back window is split into.
            stride_seconds: spacing between consecutive training samples; the
                paper creates one sample every 15 minutes (Appendix K.1).
        """
        if n_categories < 1:
            raise ConfigurationError("n_categories must be at least 1")
        if n_splits < 1:
            raise ConfigurationError("n_splits must be at least 1")
        if label_period_seconds <= 0:
            raise ConfigurationError("label_period_seconds must be positive")
        if input_seconds <= 0 or output_seconds <= 0:
            raise ConfigurationError("input_seconds and output_seconds must be positive")
        label_array = np.asarray(labels, dtype=int)
        if label_array.ndim != 1:
            raise ConfigurationError("labels must be a 1-D sequence")
        if label_array.size and int(label_array.min()) < 0:
            raise ConfigurationError("labels must be non-negative category indices")

        labels_per_input = int(round(input_seconds / label_period_seconds))
        labels_per_output = int(round(output_seconds / label_period_seconds))
        labels_per_split = max(labels_per_input // n_splits, 1)
        labels_per_input = labels_per_split * n_splits
        if labels_per_input + labels_per_output > label_array.size:
            raise ConfigurationError(
                "not enough labels to build a single forecasting sample: need "
                f"{labels_per_input + labels_per_output}, have {label_array.size}"
            )
        if stride_seconds is None:
            stride_seconds = 15 * 60.0
        stride_labels = max(int(round(stride_seconds / label_period_seconds)), 1)

        # Sample k reads its input splits from labels
        # [k * stride_labels, k * stride_labels + labels_per_input) and its
        # target from the ``labels_per_output`` labels that follow.
        n_samples = (
            label_array.size - labels_per_input - labels_per_output
        ) // stride_labels + 1
        window_starts = np.arange(n_samples) * stride_labels
        # prefix[i, c]: how many of the first i labels are category c, so a
        # window's counts are one exact integer difference.  Labels at or
        # above n_categories match no column and are ignored.
        prefix = np.zeros((label_array.size + 1, n_categories), dtype=np.int64)
        np.cumsum(
            label_array[:, np.newaxis] == np.arange(n_categories), axis=0, out=prefix[1:]
        )
        inputs = np.empty((n_samples, n_splits * n_categories))
        targets = np.empty((n_samples, n_categories))
        for split in range(n_splits):
            first = window_starts + split * labels_per_split
            _histograms_into(
                inputs[:, split * n_categories : (split + 1) * n_categories],
                prefix[first + labels_per_split] - prefix[first],
            )
        first = window_starts + labels_per_input
        _histograms_into(targets, prefix[first + labels_per_output] - prefix[first])

        return ForecastDataset(
            inputs=inputs,
            targets=targets,
            n_categories=n_categories,
            n_splits=n_splits,
            input_seconds=labels_per_input * label_period_seconds,
        )

    def split(self, train_fraction: float) -> Tuple["ForecastDataset", "ForecastDataset"]:
        """Chronological train/test split (no shuffling: this is a time series)."""
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError("train_fraction must be in (0, 1)")
        cut = int(round(len(self) * train_fraction))
        cut = min(max(cut, 1), len(self) - 1)
        first = replace(self, inputs=self.inputs[:cut], targets=self.targets[:cut])
        second = replace(self, inputs=self.inputs[cut:], targets=self.targets[cut:])
        return first, second


def _histograms_into(out: np.ndarray, counts: np.ndarray) -> None:
    """Write each row of category ``counts`` into ``out`` as a histogram.

    A row is its counts over their total, or uniform when the window holds no
    in-range label.  Counts are exact integers, so this is bit for bit the
    per-window ``bincount(...) / total`` it replaces.
    """
    totals = counts.sum(axis=1, keepdims=True)
    np.divide(counts, totals, out=out, where=totals > 0)
    out[totals[:, 0] == 0] = 1.0 / out.shape[1]


class ContentForecaster:
    """Feed-forward forecaster over content-category histograms.

    The network is always the ``16 ReLU -> 8 ReLU -> softmax`` architecture
    of Appendix K (:class:`~repro.ml.mlp.MLPConfig`'s defaults).

    Args:
        n_categories: number of content categories.
        n_splits: number of input histograms (default 8, Appendix I).
    """

    def __init__(self, n_categories: int, n_splits: int = 8):
        if n_categories < 1:
            raise ConfigurationError("n_categories must be at least 1")
        if n_splits < 1:
            raise ConfigurationError("n_splits must be at least 1")
        self.n_categories = n_categories
        self.n_splits = n_splits
        #: The look-back window the forecaster was trained on; a forecast
        #: splits the same window of recent history into its inputs.
        self.input_seconds: Optional[float] = None
        self._network = MLP(input_size=n_categories * n_splits, output_size=n_categories)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, dataset: ForecastDataset):
        """Train on a :class:`ForecastDataset` (``MLPConfig.epochs`` epochs)."""
        if dataset.n_categories != self.n_categories or dataset.n_splits != self.n_splits:
            raise ConfigurationError(
                "dataset shape does not match the forecaster "
                f"(categories {dataset.n_categories} vs {self.n_categories}, "
                f"splits {dataset.n_splits} vs {self.n_splits})"
            )
        self.input_seconds = dataset.input_seconds
        return self._network.fit(dataset.inputs, dataset.targets)

    @property
    def is_fitted(self) -> bool:
        return self._network.is_fitted

    # ------------------------------------------------------------------ #
    # Checkpointing (used by the stage cache's train_forecaster entry)
    # ------------------------------------------------------------------ #
    def get_parameters(self) -> List[np.ndarray]:
        """Flat copy of the network's weights and biases."""
        return self._network.get_parameters()

    def restore_parameters(
        self, parameters: Sequence[np.ndarray], input_seconds: float
    ) -> None:
        """Load trained weights and their look-back window; marks the forecaster fitted."""
        self._network.restore_parameters(parameters)
        self.input_seconds = input_seconds

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, recent_histograms: Sequence[Sequence[float]]) -> np.ndarray:
        """Forecast the content distribution of the next planned interval.

        Args:
            recent_histograms: ``n_splits`` category histograms covering the
                recent past, oldest first.
        """
        self._network.require_fitted()
        histograms = np.asarray(recent_histograms, dtype=float)
        if histograms.shape != (self.n_splits, self.n_categories):
            raise ConfigurationError(
                f"expected {self.n_splits} histograms of {self.n_categories} categories, "
                f"got shape {histograms.shape}"
            )
        flattened = histograms.reshape(-1)
        prediction = self._network.predict(flattened)
        prediction = np.clip(prediction, 0.0, None)
        total = prediction.sum()
        if total <= 0:
            return np.full(self.n_categories, 1.0 / self.n_categories)
        return prediction / total

    def predict_dataset(self, dataset: ForecastDataset) -> np.ndarray:
        """Predictions for every sample of a dataset (normalized histograms)."""
        self._network.require_fitted()
        raw = self._network.predict(dataset.inputs)
        raw = np.clip(raw, 0.0, None)
        sums = raw.sum(axis=1, keepdims=True)
        sums[sums <= 0] = 1.0
        return raw / sums

    def evaluate_mae(self, dataset: ForecastDataset) -> float:
        """Mean absolute error over a held-out dataset (the Table 5/6 metric)."""
        predictions = self.predict_dataset(dataset)
        return mean_absolute_error(predictions, dataset.targets)
