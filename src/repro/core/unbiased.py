"""Unbiased reservoir sampling — the paper's baseline (reference [16]).

Two implementations of classic uniform reservoir maintenance:

* :class:`UnbiasedReservoir` — Vitter's Algorithm R exactly as described in
  Section 2 of the paper: the first ``n`` points initialize the reservoir;
  the ``(t+1)``-th point is inserted with probability ``n/(t+1)``, replacing
  a uniformly random resident. Property 2.1: after ``t`` points every stream
  point is resident with probability ``n/t``.
* :class:`SkipUnbiasedReservoir` — the same sampling distribution with
  Vitter's Algorithm X skip optimization: instead of one random draw per
  arrival, it draws the *gap* until the next accepted record, making the
  per-point cost on long streams close to an integer compare. Used in the
  throughput ablation benchmark.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from repro.core.biased import virtual_slot_plan
from repro.core.reservoir import ReservoirSampler
from repro.utils.rng import RngLike


def _uniform_inclusion(capacity: int, r: np.ndarray, t: int) -> np.ndarray:
    """Vectorized ``min(1, n/t)`` shared by both unbiased samplers."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 1) or np.any(r > t):
        raise ValueError("require 1 <= r <= t")
    if t <= 0:
        # Nothing has been offered yet: only the empty query is valid (any
        # concrete r would have failed the range check above), and its
        # answer is the empty vector — not a division by t = 0.
        return np.zeros(r.shape)
    return np.full(r.shape, min(1.0, capacity / t))

__all__ = ["UnbiasedReservoir", "SkipUnbiasedReservoir"]


class UnbiasedReservoir(ReservoirSampler):
    """Vitter's Algorithm R: a uniform sample of the whole stream."""

    def offer(self, payload: Any) -> bool:
        """Algorithm R step: accept with probability ``n/t``, uniform victim."""
        self.t += 1
        self.offers += 1
        if len(self._payloads) < self.capacity:
            self._append(payload)
            return True
        if self.rng.random() < self.capacity / self.t:
            self._replace_random(payload)
            return True
        return False

    def _offer_block(self, block: List[Any]) -> int:
        """Vectorized Algorithm R over a block (same distribution).

        The first ``n`` points append deterministically; for the rest the
        block's acceptance coins (``u < n/t``) and victim slots are drawn
        in bulk, and per slot only the last accepted writer is
        materialized (the full-reservoir case of
        :func:`~repro.core.biased.virtual_slot_plan`).
        """
        total = len(block)
        idx = 0
        while idx < total and len(self._payloads) < self.capacity:
            self.t += 1
            self.offers += 1
            self._append(block[idx])
            idx += 1
        stored = idx
        b = total - idx
        if b == 0:
            return stored
        n = self.capacity
        t0 = self.t
        u = self.rng.random(b)
        accepted = np.nonzero(u * (t0 + np.arange(1, b + 1)) < n)[0]
        m = len(accepted)
        if m:
            victims = self.rng.integers(0, n, size=m)
            slots, last, _ = virtual_slot_plan(victims, n, n)
            slots = slots.tolist()
            for slot, w in zip(slots, accepted[last].tolist()):
                self._payloads[slot] = block[idx + w]
                self._arrivals[slot] = t0 + w + 1
            self._write_rows(slots)
            self.insertions += m
            self.ejections += m
        self.t = t0 + b
        self.offers += b
        return stored + m

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Property 2.1: ``p(r, t) = min(1, n / t)`` — independent of ``r``."""
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        return min(1.0, self.capacity / t)

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized Property 2.1 model."""
        t = self.t if t is None else int(t)
        return _uniform_inclusion(self.capacity, r, t)


class SkipUnbiasedReservoir(ReservoirSampler):
    """Algorithm R distribution with Algorithm X geometric-skip acceptance.

    Once the reservoir is full, the number of stream points to *skip* before
    the next replacement is drawn directly (by sequential inversion of the
    skip distribution, Vitter 1985, Algorithm X), so rejected points cost no
    random draws at all. The resident-replacement choice is unchanged, so
    the resulting sample distribution is identical to Algorithm R.
    """

    def __init__(self, capacity: int, rng: RngLike = None) -> None:
        super().__init__(capacity, rng)
        self._skip = -1  # <0 means "not yet computed"

    def _extra_state(self) -> dict:
        return {"skip": self._skip}

    def _restore_extra(self, state: dict) -> None:
        self._skip = int(state["skip"])

    def _draw_skip(self, t: Optional[int] = None) -> int:
        """Draw the gap until the next accepted record (Algorithm X).

        ``t`` is the arrival index of the *current* (not yet decided)
        record, defaulting to ``self.t`` — which ``offer`` has already
        incremented to name this arrival. Sequential search: find the
        smallest ``s >= 0`` with
        ``prod_{j=0..s} (t + j - n) / (t + j) <= u`` for uniform ``u``; the
        product is the probability that records ``t .. t+s`` are all
        rejected, so the returned gap accepts record ``t + s`` (``s = 0``
        accepts the current one with the correct probability ``n/t``).
        """
        n = self.capacity
        t = self.t if t is None else int(t)
        u = self.rng.random()
        s = 0
        quot = (t - n) / t
        while quot > u:
            s += 1
            t += 1
            quot *= (t - n) / t
        return s

    def offer(self, payload: Any) -> bool:
        """Algorithm R distribution via pre-drawn geometric skips."""
        self.t += 1
        self.offers += 1
        if len(self._payloads) < self.capacity:
            self._append(payload)
            return True
        if self._skip < 0:
            self._skip = self._draw_skip()
        if self._skip == 0:
            self._replace_random(payload)
            self._skip = -1
            return True
        self._skip -= 1
        return False

    def _offer_block(self, block: List[Any]) -> int:
        """Block skip-sampling: jump straight between accepted records.

        Instead of examining every arrival, repeatedly draw the gap to the
        next acceptance and land on it directly; a gap extending past the
        block end is carried over in ``self._skip`` so interleaving
        per-item and batched ingestion stays distribution-exact. Work is
        O(accepted) ≈ ``n ln((t+B)/t)`` per block, not O(B).
        """
        total = len(block)
        idx = 0
        while idx < total and len(self._payloads) < self.capacity:
            self.t += 1
            self.offers += 1
            self._append(block[idx])
            idx += 1
        stored = idx
        t0 = self.t  # arrivals fully processed before the sub-block
        b = total - idx
        pos = 0  # next unexamined sub-block position (arrival t0 + pos + 1)
        while pos < b:
            if self._skip < 0:
                self._skip = self._draw_skip(t0 + pos + 1)
            if pos + self._skip < b:
                pos += self._skip
                slot = int(self.rng.integers(len(self._payloads)))
                self._payloads[slot] = block[idx + pos]
                self._arrivals[slot] = t0 + pos + 1
                self._write_row(slot)
                self.insertions += 1
                self.ejections += 1
                stored += 1
                self._skip = -1
                pos += 1
            else:
                self._skip -= b - pos
                pos = b
        self.t = t0 + b
        self.offers += b
        return stored

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Identical to Algorithm R: ``min(1, n / t)``."""
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        return min(1.0, self.capacity / t)

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized Property 2.1 model."""
        t = self.t if t is None else int(t)
        return _uniform_inclusion(self.capacity, r, t)
