"""Temporal bias functions and maximum reservoir requirements.

A *bias function* ``f(r, t)`` (Definition 2.1 of the paper) gives the
relative probability that the ``r``-th stream point belongs to the sample at
the time the ``t``-th point arrives (``1 <= r <= t``). It must be
monotonically non-increasing in ``t`` for fixed ``r`` and monotonically
non-decreasing in ``r`` for fixed ``t``, so recent points are favored.

The key structural results reproduced here:

* **Theorem 2.1** — any fixed-size sample proportional to ``f`` needs at most
  ``R(t) = sum_{i=1..t} f(i, t) / f(t, t)`` slots
  (:meth:`BiasFunction.max_reservoir_requirement`).
* **Lemma 2.1 / Corollary 2.1** — for the exponential (memory-less) bias
  ``f(r, t) = exp(-lambda * (t - r))`` the requirement is
  ``(1 - e^{-lambda t}) / (1 - e^{-lambda})``, bounded by the constant
  ``1 / (1 - e^{-lambda})`` for any stream length
  (:meth:`ExponentialBias.max_reservoir_requirement`,
  :meth:`ExponentialBias.reservoir_capacity_bound`).
* **Approximation 2.1** — for small ``lambda`` the bound is approximately
  ``1 / lambda`` (:meth:`ExponentialBias.approximate_capacity`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "BiasFunction",
    "ExponentialBias",
    "UnbiasedBias",
    "PolynomialBias",
]


def _require_not_after(r: np.ndarray, t: int) -> np.ndarray:
    """Arrival indices ``r`` as float64, checked against ``r <= t``."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r > t):
        raise ValueError(f"require r <= t, got r={r.max():.15g}, t={t}")
    return r


class BiasFunction(ABC):
    """Interface for temporal bias functions ``f(r, t)``.

    Subclasses implement :meth:`weight`; vectorized evaluation, the
    Theorem 2.1 reservoir requirement, and monotonicity validation come for
    free. Indices are 1-based, matching the paper (``r = 1`` is the first
    stream point).
    """

    @abstractmethod
    def weight(self, r: int, t: int) -> float:
        """Return ``f(r, t)`` for a single arrival index pair.

        Parameters
        ----------
        r:
            1-based arrival index of the point being weighted.
        t:
            1-based index of the most recent arrival; requires ``r <= t``.
        """

    def weights(self, r: np.ndarray, t: int) -> np.ndarray:
        """Vectorized ``f(r, t)`` over an array of arrival indices.

        The default implementation loops over :meth:`weight`; subclasses
        override with closed forms where available.
        """
        r = np.asarray(r)
        return np.array([self.weight(int(ri), t) for ri in r.ravel()]).reshape(
            r.shape
        )

    def max_reservoir_requirement(self, t: int) -> float:
        """Theorem 2.1: ``R(t) = sum_{i=1..t} f(i, t) / f(t, t)``.

        This is the largest sample size any policy proportional to ``f`` can
        sustain after ``t`` arrivals; for strongly decaying ``f`` it is far
        below ``t``. The default implementation sums the vectorized weights;
        subclasses with closed forms override it.
        """
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        indices = np.arange(1, t + 1)
        total = float(self.weights(indices, t).sum())
        newest = self.weight(t, t)
        if newest <= 0.0:
            raise ValueError("bias function must be positive at r = t")
        return total / newest

    def incremental_weight_sum(self, prev_sum: float, t_next: int) -> float:
        """Advance ``S(t) = sum_{i<=t} f(i, t)`` by one arrival in O(1).

        Given ``prev_sum = S(t_next - 1)``, return ``S(t_next)``.
        Subclasses with closed-form recurrences override this; the base
        implementation raises :class:`NotImplementedError`, signalling that
        callers must recompute the sum directly.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no incremental weight-sum recurrence"
        )

    def validate_monotonicity(self, t: int) -> bool:
        """Check Definition 2.1's monotonicity requirements up to time ``t``.

        Returns ``True`` when ``f(., t)`` is non-decreasing in ``r`` and
        ``f(r, .)`` is non-increasing in ``t`` over ``1..t``. Used by
        property tests and to sanity-check user-supplied bias functions.
        """
        indices = np.arange(1, t + 1)
        along_r = self.weights(indices, t)
        if np.any(np.diff(along_r) < -1e-12):
            return False
        for r in (1, max(1, t // 2), t):
            along_t = np.array([self.weight(r, u) for u in range(r, t + 1)])
            if np.any(np.diff(along_t) > 1e-12):
                return False
        return True

    def __call__(self, r: int, t: int) -> float:
        return self.weight(r, t)


class ExponentialBias(BiasFunction):
    """Memory-less exponential bias ``f(r, t) = exp(-lambda * (t - r))``.

    This is the class of bias functions for which the paper shows one-pass
    maintenance is possible (Algorithms 2.1 and 3.1). ``lam`` is the bias
    rate: inclusion probability decays by ``1/e`` every ``1/lam`` arrivals.
    ``lam = 0`` degenerates to the unbiased case.

    Parameters
    ----------
    lam:
        Bias rate ``lambda >= 0``. Typical values are small
        (``1e-5 .. 1e-3``), so the capacity bound ``~1/lam`` is in the
        thousands.
    """

    def __init__(self, lam: float) -> None:
        lam = float(lam)
        if lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {lam}")
        self.lam = lam

    def weight(self, r: int, t: int) -> float:
        """``exp(-lambda (t - r))``."""
        if r > t:
            raise ValueError(f"require r <= t, got r={r}, t={t}")
        return math.exp(-self.lam * (t - r))

    def weights(self, r: np.ndarray, t: int) -> np.ndarray:
        """Vectorized closed form."""
        r = _require_not_after(r, t)
        return np.exp(-self.lam * (t - r))

    def max_reservoir_requirement(self, t: int) -> float:
        """Lemma 2.1: ``R(t) = (1 - e^{-lambda t}) / (1 - e^{-lambda})``.

        For ``lambda = 0`` this is the unbiased requirement ``t``.
        """
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if self.lam == 0.0:
            return float(t)
        decay = math.exp(-self.lam)
        return (1.0 - math.exp(-self.lam * t)) / (1.0 - decay)

    def incremental_weight_sum(self, prev_sum: float, t_next: int) -> float:
        """``S(t+1) = S(t) * e^{-lambda} + 1`` (every old term decays, the
        newcomer contributes weight 1)."""
        if t_next < 1:
            raise ValueError(f"t_next must be >= 1, got {t_next}")
        return prev_sum * math.exp(-self.lam) + 1.0

    def reservoir_capacity_bound(self) -> float:
        """Corollary 2.1: the constant bound ``1 / (1 - e^{-lambda})``.

        Independent of stream length: the whole *relevant* sample fits in
        constant space. Infinite when ``lambda = 0`` (unbiased sampling has
        no constant bound).
        """
        if self.lam == 0.0:
            return math.inf
        return 1.0 / (1.0 - math.exp(-self.lam))

    def approximate_capacity(self) -> float:
        """Approximation 2.1: ``1 / lambda`` for small ``lambda``."""
        if self.lam == 0.0:
            return math.inf
        return 1.0 / self.lam

    def natural_reservoir_size(self) -> int:
        """The integer capacity ``n = ceil(1/lambda)`` used by Algorithm 2.1."""
        if self.lam == 0.0:
            raise ValueError(
                "lambda = 0 (unbiased) has no finite natural reservoir size"
            )
        return max(1, math.ceil(1.0 / self.lam))

    def half_life(self) -> float:
        """Number of arrivals after which a point's weight halves."""
        if self.lam == 0.0:
            return math.inf
        return math.log(2.0) / self.lam

    def __repr__(self) -> str:
        return f"ExponentialBias(lam={self.lam!r})"


class UnbiasedBias(ExponentialBias):
    """The unbiased case ``f(r, t) = 1`` (``lambda = 0``).

    Provided as an explicit type so code can dispatch on "no bias" without
    comparing floats.
    """

    def __init__(self) -> None:
        super().__init__(0.0)

    def __repr__(self) -> str:
        return "UnbiasedBias()"


class PolynomialBias(BiasFunction):
    """Polynomial bias ``f(r, t) = 1 / (t - r + 1) ** alpha``.

    Polynomial decay is *not* memory-less, so the paper's one-pass
    maintenance theorems do not apply; one-pass maintenance for this family
    is the open problem noted in Section 2. We include it to exercise the
    general-purpose (periodic-redistribution) sampler and the Theorem 2.1
    requirement machinery on a non-exponential instance.

    Parameters
    ----------
    alpha:
        Decay exponent ``> 0``. ``alpha <= 1`` gives an unbounded (in ``t``)
        reservoir requirement; ``alpha > 1`` gives a convergent one.
    """

    def __init__(self, alpha: float) -> None:
        alpha = float(alpha)
        if alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.alpha = alpha

    def weight(self, r: int, t: int) -> float:
        """``(t - r + 1) ** -alpha``."""
        if r > t:
            raise ValueError(f"require r <= t, got r={r}, t={t}")
        return 1.0 / float(t - r + 1) ** self.alpha

    def weights(self, r: np.ndarray, t: int) -> np.ndarray:
        """Vectorized closed form."""
        r = _require_not_after(r, t)
        return 1.0 / (t - r + 1.0) ** self.alpha

    def max_reservoir_requirement(self, t: int) -> float:
        """Theorem 2.1 instantiated: ``sum_{k=1..t} k^{-alpha}``.

        (``f(t, t) = 1`` so the normalization drops out.)
        """
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        k = np.arange(1, t + 1, dtype=np.float64)
        return float(np.sum(k**-self.alpha))

    def incremental_weight_sum(self, prev_sum: float, t_next: int) -> float:
        """``S(t) = sum_{k=1..t} k^{-alpha}``, so ``S(t+1) = S(t) +
        (t+1)^{-alpha}`` (the lag structure shifts but the multiset of lags
        only gains one new term)."""
        if t_next < 1:
            raise ValueError(f"t_next must be >= 1, got {t_next}")
        return prev_sum + float(t_next) ** -self.alpha

    def __repr__(self) -> str:
        return f"PolynomialBias(alpha={self.alpha!r})"
