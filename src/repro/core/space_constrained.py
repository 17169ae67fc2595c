"""Algorithm 3.1 — biased sampling under strong space constraints.

When available memory ``n`` is *below* the natural requirement ``1/lambda``,
Algorithm 2.1's deterministic insertion would realize the wrong bias rate.
Algorithm 3.1 restores the target rate by admitting arrivals only with an
*insertion probability* ``p_in = n * lambda``:

1. With probability ``p_in`` the arriving point enters the reservoir
   (otherwise it is dropped outright).
2. On entry, a coin with success probability ``F(t)`` decides whether a
   uniformly random resident is ejected (replacement) or the reservoir
   grows by one.

Theorem 3.1: the inclusion probability is
``p(r, t) ≈ p_in * exp(-lambda (t - r))`` — the same exponential *shape*,
scaled down by ``p_in`` because space forbids holding every recent point.

Theorem 3.2 / Corollary 3.1 (implemented in :mod:`repro.core.theory`): the
reservoir takes ``O(n log n / p_in)`` expected arrivals to fill, which for
small ``p_in`` is painfully long — the motivation for variable reservoir
sampling (:mod:`repro.core.variable`).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.bias import ExponentialBias
from repro.core.biased import ExponentialDesign
from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike, require_probability

__all__ = ["SpaceConstrainedReservoir"]


class SpaceConstrainedReservoir(ExponentialDesign, ReservoirSampler):
    """Biased reservoir sampler implementing Algorithm 3.1 (fixed ``p_in``).

    Parameters
    ----------
    lam:
        Target bias rate ``lambda``.
    capacity:
        Available reservoir size ``n``. The insertion probability is derived
        as ``p_in = n * lambda`` unless given explicitly.
    p_in:
        Insertion probability override (must satisfy ``0 < p_in <= 1``).
        When provided together with ``capacity``, ``lam`` may be omitted and
        is derived as ``p_in / n``.
    rng:
        Seed or generator.

    Notes
    -----
    ``p_in = 1`` recovers Algorithm 2.1 exactly; tests rely on this.
    """

    exponential_design = True

    def __init__(
        self,
        lam: Optional[float] = None,
        capacity: Optional[int] = None,
        p_in: Optional[float] = None,
        rng: RngLike = None,
    ) -> None:
        if capacity is None:
            if lam is None or p_in is None:
                raise ValueError(
                    "provide capacity, or both lam and p_in to derive it"
                )
            capacity = max(1, round(p_in / lam))
        super().__init__(capacity, rng)
        if p_in is None:
            if lam is None:
                raise ValueError("provide lam or p_in")
            p_in = self.capacity * float(lam)
            if p_in > 1.0 + 1e-12:
                raise ValueError(
                    f"capacity {self.capacity} exceeds the natural size "
                    f"1/lambda = {1.0 / lam:.6g}; use ExponentialReservoir "
                    "or lower the capacity"
                )
            p_in = min(1.0, p_in)
        self.p_in = require_probability(p_in, "p_in")
        if self.p_in == 0.0:
            raise ValueError("p_in must be positive")
        self.lam = self.p_in / self.capacity
        self.bias = ExponentialBias(self.lam)

    def offer(self, payload: Any) -> bool:
        """Algorithm 3.1 step: ``p_in``-gated insert, ``F(t)``-biased eject."""
        fill = self.fill_fraction  # F(t) before this arrival
        self.t += 1
        self.offers += 1
        # Skip the insertion coin when p_in == 1 so the policy consumes the
        # same random sequence as Algorithm 2.1 (exact degeneracy).
        if self.p_in < 1.0 and self.rng.random() >= self.p_in:
            return False
        if self.is_full or self.rng.random() < fill:
            self._replace_random(payload)
        else:
            self._append(payload)
        return True

    #: The step itself, which the block path runs even where a subclass
    #: overrides :meth:`offer`.
    _step = offer

    def _offer_block(self, block: Sequence[Any]) -> int:
        """One Algorithm 3.1 step per arrival, in stream order, so a block
        consumes the random sequence of a loop of :meth:`offer` calls."""
        step = self._step
        stored = 0
        for payload in block:
            if step(payload):
                stored += 1
        return stored

    def _extra_state(self) -> dict:
        return {"p_in": self.p_in}

    @classmethod
    def _construct_from_state(cls, state: dict) -> "SpaceConstrainedReservoir":
        return cls(capacity=state["capacity"], p_in=state["p_in"])

    def survival_probability(self, age: int) -> float:
        """Exact retention ``(1 - p_in/n)^age`` from the Theorem 3.1 proof.

        A resident survives one arrival if no insertion happens
        (``1 - p_in``) or an insertion happens but it is not the victim
        (``p_in (1 - 1/n)``); the sum is ``1 - p_in/n``.
        """
        if age < 0:
            raise ValueError(f"age must be >= 0, got {age}")
        return (1.0 - self.p_in / self.capacity) ** age
