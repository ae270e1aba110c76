"""Content categories (Section 3.2).

Skyscraper samples video segments from the unlabeled training data, processes
each with every filtered knob configuration, and clusters the resulting
|K|-dimensional quality vectors with KMeans.  A content category is a cluster;
its center gives the average quality every configuration achieves on content
of that category.

During online ingestion only one dimension of the quality vector is observable
(the quality of the configuration that actually ran), so classification
reduces to the nearest center along that single dimension (Equation 5).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.gmm import GaussianMixture
from repro.ml.kmeans import KMeans


class ContentCategorizer:
    """Clusters quality vectors into content categories.

    Args:
        n_categories: number of content categories (Appendix I.1 recommends 4
            as a default and ≥ 3 as a safe range).
        method: ``"kmeans"`` (default, what the paper ships) or ``"gmm"``
            (the Appendix B.2 ablation alternative).
        seed: RNG seed for clustering initialization.
    """

    def __init__(self, n_categories: int = 4, method: str = "kmeans", seed: int = 0):
        if n_categories < 1:
            raise ConfigurationError("n_categories must be at least 1")
        if method not in ("kmeans", "gmm"):
            raise ConfigurationError("method must be 'kmeans' or 'gmm'")
        self.n_categories = n_categories
        self.method = method
        self.seed = seed
        self._centers: Optional[np.ndarray] = None
        self._model = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, quality_vectors: np.ndarray) -> "ContentCategorizer":
        """Cluster the |K|-dimensional quality vectors of the sampled segments."""
        vectors = np.asarray(quality_vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ConfigurationError("quality_vectors must be a non-empty 2-D array")
        if self.method == "kmeans":
            model = KMeans(n_clusters=self.n_categories, seed=self.seed)
            model.fit(vectors)
            centers = model.centers
        else:
            model = GaussianMixture(n_components=self.n_categories, seed=self.seed)
            model.fit(vectors)
            centers = model.means
        # Order categories from easiest (highest mean quality) to hardest so
        # category indices are stable and human readable.
        order = np.argsort(-centers.mean(axis=1))
        self._centers = centers[order]
        self._model = model
        return self

    @classmethod
    def from_centers(cls, centers: np.ndarray) -> "ContentCategorizer":
        """A fitted categorizer with the given cluster centers.

        Classification only needs the centers, so this builds one without
        clustering (for example, hand-made categories in a test).
        """
        center_array = np.asarray(centers, dtype=float)
        if center_array.ndim != 2 or center_array.shape[0] == 0:
            raise ConfigurationError("centers must be a non-empty 2-D array")
        categorizer = cls(n_categories=center_array.shape[0])
        categorizer._centers = center_array
        return categorizer

    @property
    def is_fitted(self) -> bool:
        return self._centers is not None

    @property
    def centers(self) -> np.ndarray:
        """``(n_categories, n_configurations)`` cluster centers."""
        if self._centers is None:
            raise NotFittedError("ContentCategorizer.fit has not been called")
        return self._centers

    @property
    def n_configurations(self) -> int:
        return self.centers.shape[1]

    @property
    def actual_categories(self) -> int:
        """Number of categories actually fitted (≤ requested when data is small)."""
        return self.centers.shape[0]

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def category_quality(self, configuration_index: int, category: int) -> float:
        """Average quality of a configuration on a category (cluster center entry)."""
        centers = self.centers
        if not 0 <= configuration_index < centers.shape[1]:
            raise ConfigurationError("configuration_index out of range")
        if not 0 <= category < centers.shape[0]:
            raise ConfigurationError("category out of range")
        return float(centers[category, configuration_index])

    def classify(self, quality_vector: Sequence[float]) -> int:
        """Full-vector classification (used offline when all qualities are known)."""
        vector = np.asarray(quality_vector, dtype=float)
        centers = self.centers
        if vector.shape != (centers.shape[1],):
            raise ConfigurationError(
                f"expected a quality vector of length {centers.shape[1]}, got {vector.shape}"
            )
        distances = np.linalg.norm(centers - vector[np.newaxis, :], axis=1)
        return int(np.argmin(distances))

    def classify_partial(self, configuration_index: int, observed_quality: float) -> int:
        """Single-dimension classification (Equation 5, the knob switcher's path)."""
        centers = self.centers
        if not 0 <= configuration_index < centers.shape[1]:
            raise ConfigurationError("configuration_index out of range")
        distances = np.abs(centers[:, configuration_index] - observed_quality)
        return int(np.argmin(distances))

    def classify_partial_many(
        self, configuration_index: int, observed_qualities: Sequence[float]
    ) -> np.ndarray:
        """Vectorized :meth:`classify_partial` over a series of observations.

        Ties break toward the lowest category index, exactly like the scalar
        rule, so the offline labeling pass can batch through here and stay
        bit-for-bit identical to a per-observation loop.
        """
        centers = self.centers
        if not 0 <= configuration_index < centers.shape[1]:
            raise ConfigurationError("configuration_index out of range")
        observed = np.asarray(observed_qualities, dtype=float)
        if observed.ndim != 1:
            raise ConfigurationError("observed_qualities must be 1-D")
        distances = np.abs(observed[:, np.newaxis] - centers[np.newaxis, :, configuration_index])
        return np.argmin(distances, axis=1)

    def classify_many(self, quality_vectors: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify` over many quality vectors."""
        vectors = np.asarray(quality_vectors, dtype=float)
        if vectors.ndim != 2:
            raise ConfigurationError("quality_vectors must be 2-D")
        centers = self.centers
        distances = np.linalg.norm(
            vectors[:, np.newaxis, :] - centers[np.newaxis, :, :], axis=2
        )
        return np.argmin(distances, axis=1)

    # ------------------------------------------------------------------ #
    # Derived data
    # ------------------------------------------------------------------ #
    def category_histogram(self, labels: Sequence[int]) -> np.ndarray:
        """Normalized frequency of every category in a label sequence."""
        counts = np.bincount(np.asarray(labels, dtype=int), minlength=self.actual_categories)
        counts = counts[: self.actual_categories].astype(float)
        total = counts.sum()
        if total <= 0:
            return np.full(self.actual_categories, 1.0 / self.actual_categories)
        return counts / total

    def describe(self) -> List[str]:
        """Human-readable description of every category (for logs and examples)."""
        lines = []
        for category in range(self.actual_categories):
            center = self.centers[category]
            lines.append(
                f"category {category}: mean quality {center.mean():.2f} "
                f"(per-configuration {np.round(center, 2).tolist()})"
            )
        return lines
