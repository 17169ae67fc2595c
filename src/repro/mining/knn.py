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
costs one row write inside the sampler plus one matrix-vector product per
point. Offers made to the sampler directly, outside
:meth:`ReservoirKnnClassifier.observe`, are visible at the next prediction.

Exact Gram-bounded search. Most predictions on a prequential pass see
the same residents as the previous one (storage changes on a minority of
arrivals), so the labeled rows ``C`` and their squared norms
``s_i = ||c_i||^2`` are derived once per storage epoch and memoized on
the resident view (:meth:`~repro.core.columns.ResidentColumns.derived`).
For a query point ``x`` one GEMV ``g = C x`` and ``q = x . x`` give

    d~_i = (s_i - 2 g_i) + q,

the expanded squared distance. The reference distance is the direct
``d^_i = sum_j (c_ij - x_j)^2`` (``einsum`` over the difference row).
With ``u = eps/2`` the unit roundoff (``eps`` float64 machine epsilon),
``S_i``, ``G_i``, ``Q``, ``D_i`` the exact values, and the standard
bound ``|fl(a . b) - a . b| <= d u |a| . |b|`` for a length-``d`` dot
product in any summation order (to first order in ``u``; FMA only
tightens it):

* ``|s_i - S_i| <= d u S_i`` and ``|q - Q| <= d u Q``;
* ``|g_i - G_i| <= d u |c_i| . |x| <= d u (S_i + Q) / 2`` (AM-GM);
* the subtraction and the addition each add at most
  ``u (|s_i| + 2|g_i| + q) <= 2u (S_i + Q)`` (doubling is exact);
* so ``|d~_i - D_i| <= (2d + 4) u (S_i + Q) = (d + 2) eps (S_i + Q)``;
* each term ``fl(fl(c_ij - x_j)^2)`` carries ``3u`` relative error (the
  difference's rounding, doubled by squaring, plus the product's), and
  the sum of these non-negative terms adds ``(d - 1) u``:
  ``|d^_i - D_i| <= (d + 2) u D_i <= (d + 2) eps (S_i + Q)``, using
  ``D_i <= 2 (S_i + Q)``.

Hence ``|d~_i - d^_i| <= 2 (d + 2) eps (S_i + Q)``. The code uses
``e_i = f (s_i + q)`` with ``f = 8 (d + 4) eps``, ~4x that bound. The
headroom covers ``s_i`` and ``q`` standing in for ``S_i`` and ``Q``,
second-order terms, and the few roundings of forming the bounds as
``(s_i -/+ f s_i) - 2 g_i + (q -/+ f q)`` (``s -/+ f s`` is memoized per
view; ``2 g`` is the GEMV of ``2 x``, exact). Every labeled resident
``i`` then has ``d~_i - e_i <= d^_i <= d~_i + e_i``.

Exactness. Let ``T`` be the k-th smallest upper bound ``d~_j + e_j``
and ``D_k`` the k-th smallest reference distance. Upper bounds dominate
reference distances elementwise, so ``D_k <= T``. Every resident with
``d^_i <= D_k`` — the k nearest and every resident tied with the k-th —
has ``d~_i - e_i <= d^_i <= D_k <= T`` and is a *candidate*. The exact
``d^`` is computed on the candidates alone, with the reference
expression (rows are reduced independently, so a row's value does not
depend on which other rows are present), and ranking the candidates by
``(d^, storage position)`` gives exactly the order a ranking of all
labeled residents would; at ``k = 1`` that is ``argmin``'s first
minimum. A bound that is not a finite number (overflow, NaN) never
excludes a resident. When cancellation makes the bound loose (large
offsets with a tiny spread), every resident becomes a candidate: the
answer stays exact, only slower.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Tuple

import numpy as np

from repro.core.columns import ResidentColumns
from repro.core.reservoir import ReservoirSampler
from repro.streams.point import StreamPoint

__all__ = ["ReservoirKnnClassifier"]

_UNLABELED = -1
#: Memo key of the labeled rows and their norms on a resident view.
_LABELED_NORMS = "mining.knn.labeled_norms"
_EPS = float(np.finfo(np.float64).eps)


def _labeled_norms(columns: ResidentColumns) -> Tuple[np.ndarray, ...]:
    """Per-view search arrays over the labeled residents, in storage
    order: their labels, feature rows ``C``, and ``s + f s`` / ``s - f s``
    for squared norms ``s`` and ``f = 8 (d + 4) eps`` (module docstring)."""
    labeled = columns.labels != _UNLABELED
    if labeled.all():
        labels, matrix = columns.labels, columns.values
    else:
        labels, matrix = columns.labels[labeled], columns.values[labeled]
    norms = np.einsum("ij,ij->i", matrix, matrix)
    margins = _bound_factor(matrix.shape[1]) * norms
    return labels, matrix, norms + margins, norms - margins


def _bound_factor(width: int) -> float:
    """``f = 8 (d + 4) eps``: ``e_i = f (s_i + q)``."""
    return 8.0 * (width + 4) * _EPS


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

        Neighbors are the ``k`` labeled residents first in the stable
        order of (squared Euclidean distance, storage position): equal
        distances rank by storage position, and NaN distances rank last.
        The vote is a majority among them; ties in the vote break toward
        the closest neighbor whose label participates in the tie.

        Raises ``ValueError`` when ``point`` does not have the residents'
        feature width.
        """
        columns = self.sampler.resident_columns()
        if columns.size == 0:
            return None
        width = columns.values.shape[1]
        x = point.values
        if x.shape != (width,):
            raise ValueError(
                f"point values have shape {x.shape}, but the residents have "
                f"{width} features: expected shape ({width},)"
            )
        labels, matrix, upper_norms, lower_norms = columns.derived(
            _LABELED_NORMS, lambda: _labeled_norms(columns)
        )
        if labels.size == 0:
            return None
        k = min(self.k, labels.size)
        # d~ -/+ e = (s -/+ f s) - 2 C x + (q -/+ f q); doubling x is exact.
        gram = matrix @ (2.0 * x)
        q = float(x @ x)
        q_margin = _bound_factor(width) * q
        upper = (upper_norms - gram) + (q + q_margin)
        lower = (lower_norms - gram) + (q - q_margin)
        threshold = (
            upper.min() if k == 1 else np.partition(upper, k - 1)[k - 1]
        )
        # `~(>)` keeps a NaN bound, and a NaN threshold keeps everyone.
        candidates = np.flatnonzero(~(lower > threshold))
        diffs = matrix[candidates] - x
        dists = np.einsum("ij,ij->i", diffs, diffs)
        nearest = candidates[np.argsort(dists, kind="stable")[:k]]
        top = labels[nearest].tolist()
        votes = Counter(top)
        # `max` returns the first maximal item: the closest such label.
        return max(top, key=votes.__getitem__)

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
