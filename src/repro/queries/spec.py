"""Query specifications: the paper's linear queries and their ratios.

Section 4 frames every query as a linear functional of the stream,

    G(t) = sum_{i <= t} c_i * h(X_i)                       (Equation 17)

where ``h`` maps a point to a (possibly vector) value and ``c_i`` is a
per-point coefficient — typically the indicator of a *user-defined horizon*
(``c_r = 1`` iff ``t - r < h``). Count, sum, range-selectivity, and
class-distribution queries are all instances.

The experiments actually report *normalized* quantities (averages and
fractions), which are ratios of two linear queries; :class:`RatioQuery`
captures that so the estimator can apply self-normalized (Hájek) weighting,
which is what keeps fraction estimates inside ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.reservoir import check_arrivals
from repro.streams.point import StreamPoint

__all__ = [
    "LinearQuery",
    "RatioQuery",
    "count_query",
    "sum_query",
    "average_query",
    "range_count_query",
    "range_selectivity_query",
    "class_count_query",
    "class_distribution_query",
]


@dataclass(frozen=True)
class LinearQuery:
    """A linear query ``G(t) = sum_r c(r, t) * h(X_r)``.

    Attributes
    ----------
    name:
        Human-readable identifier (shows up in experiment output).
    value:
        The ``h`` function: maps a :class:`StreamPoint` to a float vector of
        fixed length :attr:`output_dim`. Scalar queries use length-1 vectors.
    horizon:
        When set, restricts the query to the most recent ``horizon``
        arrivals: ``c(r, t) = 1`` iff ``t - r < horizon``. ``None`` means
        the whole stream (``c = 1``).
    output_dim:
        Length of the vector returned by ``value``.
    dims, low, high:
        Optional structural metadata set by the builder functions
        (:func:`sum_query`, :func:`range_count_query`). Engines use it for
        vectorized fast paths; ``value`` remains the semantic definition,
        so custom queries may leave these ``None``.
    values_batch:
        Optional vectorized ``h``: maps resident columns
        ``(values (k, d), labels (k,))`` to the ``(k, output_dim)`` matrix
        whose row ``i`` equals ``value(point_i)`` bit for bit. Every
        builder query sets one; custom queries may leave it ``None`` and
        engines fall back to the per-point ``value`` path
        (:meth:`values_matrix`).
    """

    name: str
    value: Callable[[StreamPoint], np.ndarray]
    output_dim: int
    horizon: Optional[int] = None
    dims: Optional[tuple] = None
    low: Optional[tuple] = None
    high: Optional[tuple] = None
    values_batch: Optional[
        Callable[[np.ndarray, np.ndarray], np.ndarray]
    ] = None

    def __post_init__(self) -> None:
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {self.output_dim}")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def coefficient(self, r: int, t: int) -> float:
        """One-element :meth:`coefficients`."""
        return float(self.coefficients([r], t)[0])

    def coefficients(self, r: np.ndarray, t: int) -> np.ndarray:
        """``c(r, t)`` per arrival: the horizon indicator (or 1 for
        whole-stream). Every ``r`` must satisfy ``1 <= r <= t``."""
        r = check_arrivals(r, t)
        if self.horizon is None:
            return np.ones(r.shape)
        return ((t - r) < self.horizon).astype(np.float64)

    def values_matrix(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        arrivals: np.ndarray,
    ) -> np.ndarray:
        """The ``(k, output_dim)`` matrix of ``h(X_r)`` over resident columns.

        Dispatches to the vectorized :attr:`values_batch` kernel when the
        query carries one; otherwise reconstructs each row through the
        per-point :attr:`value` fallback (labels ``-1`` decode to
        ``None``). Both paths produce bitwise-identical matrices for the
        builder queries — the kernels select and compare the exact same
        float64 elements the per-point path does. Kernel output is
        normalized to C order: column fancy-indexing (``values[:, dims]``)
        yields F-ordered arrays, and downstream BLAS reductions associate
        differently over those, which would break the bitwise guarantee
        one step later.
        """
        if self.values_batch is not None:
            return np.ascontiguousarray(
                np.asarray(self.values_batch(values, labels), dtype=np.float64)
            )
        if arrivals.shape[0] == 0:
            return np.zeros((0, self.output_dim))
        return np.vstack(
            [
                self.value(
                    StreamPoint(
                        int(r), v, None if lab < 0 else int(lab)
                    )
                )
                for r, v, lab in zip(arrivals, values, labels)
            ]
        )

    def with_horizon(self, horizon: Optional[int]) -> "LinearQuery":
        """Copy of this query with a different horizon."""
        return LinearQuery(
            self.name,
            self.value,
            self.output_dim,
            horizon,
            self.dims,
            self.low,
            self.high,
            self.values_batch,
        )


@dataclass(frozen=True)
class RatioQuery:
    """A normalized query ``numerator(t) / denominator(t)``.

    Both parts must share the same horizon so the normalization is over the
    same population; the constructor enforces this.
    """

    name: str
    numerator: LinearQuery
    denominator: LinearQuery

    def __post_init__(self) -> None:
        if self.numerator.horizon != self.denominator.horizon:
            raise ValueError(
                "numerator and denominator must share a horizon: "
                f"{self.numerator.horizon} != {self.denominator.horizon}"
            )

    @property
    def horizon(self) -> Optional[int]:
        return self.numerator.horizon

    def with_horizon(self, horizon: Optional[int]) -> "RatioQuery":
        """Copy of this query with a different horizon on both parts."""
        return RatioQuery(
            self.name,
            self.numerator.with_horizon(horizon),
            self.denominator.with_horizon(horizon),
        )


# --------------------------------------------------------------------- #
# Builders for the paper's query types
# --------------------------------------------------------------------- #


def count_query(horizon: Optional[int] = None) -> LinearQuery:
    """COUNT over the horizon: ``h(X) = 1``."""

    def one(_: StreamPoint) -> np.ndarray:
        return np.ones(1)

    def ones_batch(values: np.ndarray, _: np.ndarray) -> np.ndarray:
        return np.ones((values.shape[0], 1))

    return LinearQuery("count", one, 1, horizon, values_batch=ones_batch)


def sum_query(horizon: Optional[int], dims: Sequence[int]) -> LinearQuery:
    """Per-dimension SUM over the horizon: ``h(X) = X[dims]``.

    ``dims`` is explicit (pass ``range(d)`` for all dimensions) so the
    query's ``output_dim`` is known without seeing a point.
    """
    dims = list(dims)
    if not dims:
        raise ValueError("dims must be non-empty")

    def select(point: StreamPoint) -> np.ndarray:
        return point.values[dims]

    def select_batch(values: np.ndarray, _: np.ndarray) -> np.ndarray:
        return values[:, dims]

    return LinearQuery(
        "sum",
        select,
        len(dims),
        horizon,
        dims=tuple(dims),
        values_batch=select_batch,
    )


def average_query(horizon: Optional[int], dims: Sequence[int]) -> RatioQuery:
    """Per-dimension AVERAGE over the horizon (the paper's "sum query"
    experiments report the average of the points in the horizon).
    """
    return RatioQuery(
        "average", sum_query(horizon, dims), count_query(horizon)
    )


def range_count_query(
    horizon: Optional[int],
    dims: Sequence[int],
    low: Sequence[float],
    high: Sequence[float],
) -> LinearQuery:
    """COUNT of points whose selected dims all lie in ``[low, high]``."""
    dims = list(dims)
    low_arr = np.asarray(low, dtype=np.float64)
    high_arr = np.asarray(high, dtype=np.float64)
    if low_arr.shape != (len(dims),) or high_arr.shape != (len(dims),):
        raise ValueError("low/high must match the number of dims")
    if np.any(low_arr > high_arr):
        raise ValueError("low must be <= high elementwise")

    def in_range(point: StreamPoint) -> np.ndarray:
        v = point.values[dims]
        inside = np.all((v >= low_arr) & (v <= high_arr))
        return np.array([1.0 if inside else 0.0])

    def in_range_batch(values: np.ndarray, _: np.ndarray) -> np.ndarray:
        sub = values[:, dims]
        inside = np.all((sub >= low_arr) & (sub <= high_arr), axis=1)
        return inside.astype(np.float64)[:, None]

    return LinearQuery(
        "range_count",
        in_range,
        1,
        horizon,
        dims=tuple(dims),
        low=tuple(low_arr.tolist()),
        high=tuple(high_arr.tolist()),
        values_batch=in_range_batch,
    )


def range_selectivity_query(
    horizon: Optional[int],
    dims: Sequence[int],
    low: Sequence[float],
    high: Sequence[float],
) -> RatioQuery:
    """Fraction of horizon points inside the range (Figure 5's query)."""
    return RatioQuery(
        "range_selectivity",
        range_count_query(horizon, dims, low, high),
        count_query(horizon),
    )


def class_count_query(horizon: Optional[int], n_classes: int) -> LinearQuery:
    """Per-class COUNT over the horizon: ``h(X) = onehot(label)``."""
    n_classes = int(n_classes)
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")

    def onehot(point: StreamPoint) -> np.ndarray:
        out = np.zeros(n_classes)
        if point.label is not None and 0 <= point.label < n_classes:
            out[point.label] = 1.0
        return out

    def onehot_batch(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
        out = np.zeros((values.shape[0], n_classes))
        rows = np.flatnonzero((labels >= 0) & (labels < n_classes))
        out[rows, labels[rows]] = 1.0
        return out

    return LinearQuery(
        "class_count", onehot, n_classes, horizon, values_batch=onehot_batch
    )


def class_distribution_query(
    horizon: Optional[int], n_classes: int
) -> RatioQuery:
    """Fractional class distribution over the horizon (Figure 4's query)."""
    return RatioQuery(
        "class_distribution",
        class_count_query(horizon, n_classes),
        count_query(horizon),
    )
