"""Sliding-window sampling — the "other extreme" baseline.

The paper's introduction contrasts biased sampling against restricting the
sample to a pure sliding window: the window forgets *all* history beyond the
horizon, which is unstable when older behaviour is still queried
periodically. We implement two window samplers so that examples, tests, and
ablation benchmarks can quantify that trade-off:

* :class:`WindowBuffer` — stores the entire last-``W`` window exactly.
  Memory is ``O(W)``; estimates inside the window are exact, outside it
  impossible. This is the ground-truth end of the spectrum.
* :class:`ChainSampler` — Babcock, Datar & Motwani's chain-sampling: ``k``
  independent chains, each maintaining a uniform random member of the
  current window in expected ``O(1)`` memory per chain. This is the
  memory-bounded end of the spectrum.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

import numpy as np

from repro.core.reservoir import ReservoirSampler, SampleEntry
from repro.utils.rng import RngLike

__all__ = ["WindowBuffer", "ChainSampler"]


class WindowBuffer(ReservoirSampler):
    """Exact buffer of the last ``capacity`` stream points.

    Conforms to the :class:`~repro.core.reservoir.ReservoirSampler`
    interface so it can be dropped into any experiment as a baseline: every
    offer is stored and the oldest resident is evicted once the window is
    full.
    """

    def offer(self, payload: Any) -> bool:
        """Store the arrival; evict the oldest resident once full (FIFO)."""
        self.t += 1
        self.offers += 1
        if len(self._payloads) >= self.capacity:
            # Because fills are sequential and replacements preserve
            # position, the oldest resident is always at slot
            # ``(t - 1) % capacity``.
            self._replace_at((self.t - 1) % self.capacity, payload)
        else:
            self._append(payload)
        return True

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Deterministic membership: 1 inside the window, 0 outside."""
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        return 1.0 if t - r < self.capacity else 0.0


class _Chain:
    """One chain-sampling slot: a uniform member of the sliding window.

    Follows Babcock et al.: arrival ``i`` becomes the sample with
    probability ``1/min(i, W)``; when an element joins the chain, the index
    of its replacement is pre-drawn uniformly from the ``W`` arrivals after
    it, so expiry never leaves the slot empty.
    """

    __slots__ = ("window", "rng", "chain", "successor")

    def __init__(self, window: int, rng: np.random.Generator) -> None:
        self.window = window
        self.rng = rng
        self.chain: Deque[Tuple[int, Any]] = deque()
        self.successor = -1

    def offer(self, index: int, payload: Any) -> None:
        picked = self.rng.random() < 1.0 / min(index, self.window)
        if picked:
            # Restart the chain from this element.
            self.chain.clear()
            self.chain.append((index, payload))
            self.successor = index + 1 + int(self.rng.integers(self.window))
        elif index == self.successor:
            self.chain.append((index, payload))
            self.successor = index + 1 + int(self.rng.integers(self.window))
        # Expire the head if it fell out of the window.
        while self.chain and self.chain[0][0] <= index - self.window:
            self.chain.popleft()

    def current(self) -> Optional[Tuple[int, Any]]:
        return self.chain[0] if self.chain else None


class ChainSampler(ReservoirSampler):
    """``capacity`` independent chain samples over a sliding window.

    Parameters
    ----------
    capacity:
        Number of sample slots (chains). Slots are independent, so the
        overall sample is uniform-with-replacement over the window.
    window:
        Sliding-window length ``W`` in arrivals.
    rng:
        Seed or generator.
    """

    def _columns_key(self) -> Tuple:
        """Chains mutate on every offer without touching the base-storage
        counters, so the columnar-view cache keys on the stream position."""
        return (self.t,)

    def __init__(self, capacity: int, window: int, rng: RngLike = None) -> None:
        super().__init__(capacity, rng)
        window = int(window)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._chains = [_Chain(window, self.rng) for _ in range(self.capacity)]

    def offer(self, payload: Any) -> bool:
        """Advance every chain with the new arrival."""
        self.t += 1
        self.offers += 1
        for chain in self._chains:
            chain.offer(self.t, payload)
        self._drop_columns()  # storage lives inside the chains
        return True

    def _extra_state(self) -> dict:
        return {
            "window": self.window,
            "chains": [
                {
                    "chain": [[int(i), p] for i, p in chain.chain],
                    "successor": int(chain.successor),
                }
                for chain in self._chains
            ],
        }

    def _restore_extra(self, state: dict) -> None:
        self._chains = []
        for rec in state["chains"]:
            chain = _Chain(self.window, self.rng)
            chain.chain.extend((int(i), p) for i, p in rec["chain"])
            chain.successor = int(rec["successor"])
            self._chains.append(chain)

    @classmethod
    def _construct_from_state(cls, state: dict) -> "ChainSampler":
        return cls(capacity=state["capacity"], window=state["window"])

    # Chain state lives inside the chains, so override the storage views. #

    def entries(self) -> List[SampleEntry]:
        """Current samples (one per non-empty chain)."""
        out = []
        for chain in self._chains:
            cur = chain.current()
            if cur is not None:
                out.append(SampleEntry(cur[0], cur[1]))
        return out

    def payloads(self) -> List[Any]:
        """Current sample payloads (one per non-empty chain)."""
        return [e.payload for e in self.entries()]

    def arrival_indices(self) -> np.ndarray:
        """Arrival indices of the current samples."""
        return np.asarray([e.arrival for e in self.entries()], dtype=np.int64)

    @property
    def size(self) -> int:
        return sum(1 for c in self._chains if c.chain)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.payloads())

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """Per-slot membership probability ``1/min(t, W)`` inside the
        window, 0 outside.

        Each chain holds a uniform member of the window, so for
        Horvitz-Thompson style estimation over the pooled slots the expected
        multiplicity of arrival ``r`` is ``capacity / min(t, W)``; dividing
        per-slot keeps the estimator consistent under pooling.
        """
        t = self.t if t is None else int(t)
        if not 1 <= r <= t:
            raise ValueError(f"require 1 <= r <= t, got r={r}, t={t}")
        if t - r >= self.window:
            return 0.0
        return 1.0 / min(t, self.window)

    def memory_footprint(self) -> int:
        """Total chain links currently stored (expected ``O(capacity)``)."""
        return sum(len(c.chain) for c in self._chains)
