"""Algorithm 2.1 — exponentially biased reservoir sampling.

The paper's core maintenance policy for the memory-less bias
``f(r, t) = exp(-lambda (t - r))`` when the available space covers the full
requirement ``n = ceil(1/lambda)`` (Approximation 2.1):

1. The arriving point is inserted *deterministically*.
2. With probability ``F(t)`` (the current fill fraction) a uniformly random
   resident is ejected to make room; otherwise the reservoir grows by one.

The per-resident ejection hazard per arrival is
``F(t) * 1/(n F(t)) = 1/n``, so a point that arrived at ``r`` survives to
time ``t`` with probability ``(1 - 1/n)^(t-r) ≈ exp(-(t-r)/n)``
(Theorem 2.2) — exactly the exponential bias with ``lambda = 1/n``.

Observation 2.1: the insertion/ejection policy is parameter-free; the bias
rate is *set by the reservoir size alone*. Choose the size from the
application's ``lambda``, not the other way around.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.core.bias import ExponentialBias
from repro.core.reservoir import ReservoirSampler, object_array
from repro.utils.rng import RngLike

__all__ = ["ExponentialDesign", "ExponentialReservoir", "virtual_slot_plan"]

_NO_WRITERS = np.empty(0, dtype=np.int64)


def virtual_slot_plan(
    victims: np.ndarray, size: int, capacity: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Storage writes of one Algorithm 2.1 block (virtual-slot form).

    ``victims[i]`` is the virtual slot (in ``[0, capacity)``) hit by the
    block's ``i``-th arrival and ``size`` the resident count before the
    block. Only each slot's *last* writer is observable, so the plan is
    ``(slots, writers, new_writers)``:

    * ``slots`` — occupied slots (``< size``) that were hit, ascending,
      and ``writers`` their last writer's block position;
    * ``new_writers`` — the last writer of every newly occupied slot, in
      first-hit order: the order in which the per-item path appends them
      to the storage tail.

    ``last[victims] = arange(b)`` finds each slot's last writer in
    O(b + capacity), since a fancy-index scatter with duplicate indices
    keeps the last write; the reversed scatter finds first hits the same
    way. A full reservoir (``size == capacity``) has no new slots, so the
    first-hit pass is skipped.
    """
    b = len(victims)
    last = np.full(capacity, -1, dtype=np.int64)
    last[victims] = np.arange(b)
    touched = np.flatnonzero(last >= 0)
    if size == capacity:
        return touched, last[touched], _NO_WRITERS
    first = np.empty(capacity, dtype=np.int64)
    first[victims[::-1]] = np.arange(b - 1, -1, -1)
    split = int(np.searchsorted(touched, size))
    slots, new_slots = touched[:split], touched[split:]
    order = np.argsort(first[new_slots], kind="stable")
    return slots, last[slots], last[new_slots[order]]


class ExponentialDesign:
    """The exponential inclusion law shared by Algorithms 2.1 and 3.1 and
    Theorem 3.3: ``p(r, t) = p_in * exp(-lambda (t - r))``.

    Mixed in ahead of the sampler base; the host provides ``p_in`` (1 for
    Algorithm 2.1) and ``lam``.
    """

    p_in: float
    lam: float

    def _inclusion_law(self, r: np.ndarray, t: int) -> np.ndarray:
        return self.p_in * np.exp(-self.lam * (t - r))


class ExponentialReservoir(ExponentialDesign, ReservoirSampler):
    """Biased reservoir sampler implementing Algorithm 2.1.

    Parameters
    ----------
    lam:
        Target bias rate ``lambda``. The reservoir capacity defaults to the
        natural size ``ceil(1/lambda)``; if ``capacity`` is also given it
        overrides the size and the *effective* bias rate becomes
        ``1/capacity`` (Observation 2.1). Exactly one of ``lam`` /
        ``capacity`` is required.
    capacity:
        Explicit reservoir size ``n``.
    rng:
        Seed or generator.

    Examples
    --------
    >>> res = ExponentialReservoir(lam=0.01, rng=7)
    >>> res.capacity
    100
    >>> res.extend(range(1000)) == 1000  # every offer is inserted
    True
    >>> res.is_full
    True
    """

    exponential_design = True

    #: Every arrival is inserted (Theorem 2.2 is Theorem 3.1 at p_in = 1).
    p_in = 1.0

    def __init__(
        self,
        lam: Optional[float] = None,
        capacity: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        if lam is None and capacity is None:
            raise ValueError("provide lam and/or capacity")
        if capacity is None:
            capacity = ExponentialBias(lam).natural_reservoir_size()
        super().__init__(capacity, rng)
        # Observation 2.1: the realized bias rate is determined by the size.
        self.lam = 1.0 / self.capacity
        self.requested_lam = float(lam) if lam is not None else self.lam
        self.bias = ExponentialBias(self.lam)

    def offer(self, payload: Any) -> bool:
        """Algorithm 2.1 step: deterministic insert, ``F(t)``-biased eject."""
        fill = self.fill_fraction  # F(t), evaluated before this arrival
        self.t += 1
        self.offers += 1
        if self.is_full or self.rng.random() < fill:
            self._replace_random(payload)
        else:
            self._append(payload)
        return True

    def _offer_block(self, block: Sequence[Any]) -> int:
        """Closed-form Algorithm 2.1 over a block (same distribution).

        Uses the *virtual-slot* formulation of the policy: each arrival is
        thrown into one of ``n`` virtual slots uniformly at random. Hitting
        an occupied slot evicts its resident (probability ``F(t)``, victim
        uniform among residents — exactly the paper's eject step); hitting
        an empty slot occupies it (probability ``1 - F(t)`` — the append
        step). The two processes are the same Markov chain on reservoir
        contents, but the virtual form has no sequential dependence, so an
        entire block reduces to one bulk draw of slot indices in which only
        each slot's *last* writer is materialized (intermediate occupants
        are unobservable). The plan (:func:`virtual_slot_plan`) is applied
        as one scatter: occupied slots ascending, then newly occupied
        slots onto the storage tail in first-hit order, matching the
        per-item append order.
        """
        b = len(block)
        t0 = self.t
        s0 = self.size
        victims = self.rng.integers(0, self.capacity, size=b)
        slots, writers, new_writers = virtual_slot_plan(
            victims, s0, self.capacity
        )
        appended = len(new_writers)
        writers = np.concatenate((writers, new_writers))
        self._scatter(
            np.concatenate((slots, np.arange(s0, s0 + appended))),
            object_array(block)[writers],
            t0 + 1 + writers,
            appended=appended,
        )
        self.t = t0 + b
        self.offers += b
        self.insertions += b
        self.ejections += b - appended
        return b

    def _extra_state(self) -> dict:
        return {"requested_lam": self.requested_lam}

    def _restore_extra(self, state: dict) -> None:
        self.requested_lam = float(state["requested_lam"])

    @classmethod
    def _construct_from_state(cls, state: dict) -> "ExponentialReservoir":
        # The first positional parameter is ``lam``; capacity must be named.
        return cls(capacity=state["capacity"])

    def survival_probability(self, age: int) -> float:
        """Exact per-policy survival ``(1 - 1/n)^age`` (pre-approximation).

        Theorem 2.2 approximates this by ``exp(-age/n)``; tests compare the
        two to quantify the approximation error.
        """
        if age < 0:
            raise ValueError(f"age must be >= 0, got {age}")
        return (1.0 - 1.0 / self.capacity) ** age
