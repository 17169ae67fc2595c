"""Nearest-neighbor classification over a reservoir (Section 5.3).

The paper uses a 1-NN classifier as the archetypal sampling-dependent
mining task: comparing a test instance against every historical point is
impossible on a stream, so the comparison set *is* the reservoir. The
classifier therefore inherits the reservoir's bias — a stale (unbiased)
reservoir votes with outdated cluster positions, a biased one with the
current ones.

:class:`ReservoirKnnClassifier` wraps any sampler whose payloads are
labeled :class:`~repro.streams.point.StreamPoint` objects. Prediction is a
majority vote among the ``k`` nearest residents (``k = 1`` reproduces the
paper); distance is Euclidean, vectorized over the whole reservoir.

Performance note: the classifier stores nothing of its own. Prediction
reads the sampler's resident columns
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`), which
the sampler keeps in step with every storage write, so a prequential pass
costs one row write inside the sampler plus one vectorized distance
computation per point. Offers made to the sampler directly, outside
:meth:`ReservoirKnnClassifier.observe`, are visible at the next prediction.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from repro.core.reservoir import ReservoirSampler
from repro.streams.point import StreamPoint

__all__ = ["ReservoirKnnClassifier"]

_UNLABELED = -1


class ReservoirKnnClassifier:
    """k-nearest-neighbor classifier backed by a reservoir sample.

    Parameters
    ----------
    sampler:
        The reservoir supplying the comparison set. Payloads must be
        :class:`StreamPoint`; unlabeled residents are ignored at
        prediction time.
    k:
        Number of neighbors in the vote (paper: 1).
    """

    def __init__(self, sampler: ReservoirSampler, k: int = 1) -> None:
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.sampler = sampler
        self.k = k

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    def predict(self, point: StreamPoint) -> Optional[int]:
        """Predict the label of ``point``; ``None`` if no labeled resident.

        Ties in the k-NN vote break toward the closest neighbor whose
        label participates in the tie.
        """
        columns = self.sampler.resident_columns()
        if columns.size == 0:
            return None
        matrix, labels = columns.values, columns.labels
        labeled = labels != _UNLABELED
        if not np.any(labeled):
            return None
        diffs = matrix - point.values
        dists = np.einsum("ij,ij->i", diffs, diffs)
        dists = np.where(labeled, dists, np.inf)
        if self.k == 1:
            return int(labels[np.argmin(dists)])
        k = min(self.k, int(labeled.sum()))
        nearest = np.argpartition(dists, k - 1)[:k]
        nearest = nearest[np.argsort(dists[nearest])]
        votes = Counter(int(labels[i]) for i in nearest)
        best_count = max(votes.values())
        for i in nearest:  # first (closest) label among the top counts
            if votes[int(labels[i])] == best_count:
                return int(labels[i])
        return int(labels[nearest[0]])  # pragma: no cover - unreachable

    def observe(self, point: StreamPoint) -> bool:
        """Offer ``point`` to the backing reservoir (training step)."""
        return self.sampler.offer(point)

    def predict_then_observe(self, point: StreamPoint) -> Optional[int]:
        """One prequential step: classify first, then learn.

        This is exactly the paper's protocol: "for each incoming data
        point, we first used the reservoir in order to classify it before
        reading its true label and updating the accuracy statistics. Then,
        we use the sampling policy to decide whether or not it should be
        added to the reservoir."
        """
        prediction = self.predict(point)
        self.observe(point)
        return prediction
