"""Shard workers: local samplers plus global-arrival bookkeeping.

Each shard maintains an ordinary exponentially biased reservoir over the
*sub-stream* routed to it, but every resident must remember its **global**
arrival index so the coordinator can fold worker samples onto the common
age axis (:mod:`repro.shard.coordinator`).

Two local sampler families are supported:

* ``"exponential"`` — :class:`ArrayExponentialShard`, a storage-optimized
  Algorithm 2.1 reservoir. It consumes exactly the same random sequence as
  :class:`~repro.core.biased.ExponentialReservoir`'s batched path (one
  bulk ``integers(0, n, size=b)`` draw per block) and follows the same
  :func:`~repro.core.biased.virtual_slot_plan`, so it reaches an identical
  observable state; only the data movement differs: the plan is applied
  as O(b + n) fancy-index scatters into preallocated numpy arrays instead
  of per-slot list writes.
* ``"space_constrained"`` — a plain
  :class:`~repro.core.space_constrained.SpaceConstrainedReservoir` whose
  payloads are wrapped as ``(global_index, payload)`` pairs; the wrapper
  unwraps them at inspection/fold time.

A worker snapshots as
:meth:`~repro.core.reservoir.ReservoirSampler.state_dict` plus its family,
which is how the sharded facade checkpoints and restores it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.biased import ExponentialReservoir, virtual_slot_plan
from repro.core.reservoir import SampleEntry, from_state_dict
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.utils.rng import RngLike

__all__ = ["ArrayExponentialShard", "ShardWorker"]


def _object_array(block: List[Any]) -> np.ndarray:
    """1-D object array of ``block`` (safe for tuple payloads)."""
    arr = np.empty(len(block), dtype=object)
    arr[:] = block
    return arr


class ArrayExponentialShard(ExponentialReservoir):
    """Algorithm 2.1 on preallocated arrays with scatter-based block ingest.

    Distribution, counters, resident ordering, and RNG consumption are
    identical to :class:`ExponentialReservoir`'s ``offer_many`` path — both
    draw the same single bulk victim vector and apply the same
    :func:`~repro.core.biased.virtual_slot_plan`. Only the data movement
    differs: per-slot Python list writes become fancy-index scatters.

    Every resident additionally carries its global arrival index
    (:meth:`global_arrivals`), fed in through :meth:`ingest`; the plain
    ``offer``/``offer_many`` paths default the global axis to the local
    one, which is exact for ``W = 1``.
    """

    def __init__(
        self,
        lam: Optional[float] = None,
        capacity: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(lam=lam, capacity=capacity, rng=rng)
        n = self.capacity
        self._pay = np.empty(n, dtype=object)
        self._arr = np.zeros(n, dtype=np.int64)
        self._glob = np.zeros(n, dtype=np.int64)
        self._size_n = 0

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #

    def ingest(self, payloads: np.ndarray, global_indices: np.ndarray) -> int:
        """Block ingest with explicit global arrival indices.

        ``payloads`` must be a 1-D object array and ``global_indices`` the
        matching global (whole-stream) arrival index per item, in stream
        order. Returns the number of offers (all are stored under
        Algorithm 2.1).
        """
        b = len(payloads)
        if b:
            self._kernel(payloads, np.asarray(global_indices, dtype=np.int64))
        return b

    def offer(self, payload: Any) -> bool:
        """Single arrival via the block kernel (global index = local)."""
        g = np.asarray([self.t + 1], dtype=np.int64)
        self._kernel(_object_array([payload]), g)
        return True

    def _offer_block(self, block: List[Any]) -> int:
        g = self.t + 1 + np.arange(len(block), dtype=np.int64)
        self._kernel(_object_array(block), g)
        return len(block)

    def _kernel(self, pay: np.ndarray, glob: np.ndarray) -> None:
        """Virtual-slot block step (see ExponentialReservoir._offer_block).

        The column buffers are not kept in step with the scatters; they
        are dropped and rebuilt on the next read.
        """
        b = len(pay)
        t0 = self.t
        s0 = self._size_n
        victims = self.rng.integers(0, self.capacity, size=b)
        slots, w, wn = virtual_slot_plan(victims, s0, self.capacity)
        dest = np.concatenate((slots, np.arange(s0, s0 + len(wn))))
        w = np.concatenate((w, wn))
        self._pay[dest] = pay[w]
        self._arr[dest] = t0 + 1 + w
        self._glob[dest] = glob[w]
        self._size_n = s0 + len(wn)
        self.t = t0 + b
        self.offers += b
        self.insertions += b
        self.ejections += b - len(wn)
        self._drop_columns()

    # ------------------------------------------------------------------ #
    # Inspection (array-backed overrides)
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        return self._size_n

    def payloads(self) -> List[Any]:
        return self._pay[: self._size_n].tolist()

    def arrival_indices(self) -> np.ndarray:
        return self._arr[: self._size_n].copy()

    def global_arrivals(self) -> np.ndarray:
        """Global (whole-stream) arrival index per resident."""
        return self._glob[: self._size_n].copy()

    def entries(self) -> List[SampleEntry]:
        return [
            SampleEntry(int(a), p)
            for a, p in zip(self._arr[: self._size_n], self._pay[: self._size_n])
        ]

    def __len__(self) -> int:
        return self._size_n

    def __iter__(self):
        return iter(self.payloads())

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def _storage_state(self) -> Dict[str, Any]:
        return {
            "payloads": self.payloads(),
            "arrivals": [int(a) for a in self._arr[: self._size_n]],
        }

    def _restore_storage(self, state: Dict[str, Any]) -> None:
        payloads = state["payloads"]
        k = len(payloads)
        # Elementwise object assignment (tuple payloads must not broadcast).
        self._pay[:k] = _object_array(payloads)
        self._arr[:k] = state["arrivals"]
        self._size_n = k

    def _extra_state(self) -> Dict[str, Any]:
        state = super()._extra_state()
        state["global_arrivals"] = [int(g) for g in self._glob[: self._size_n]]
        return state

    def _restore_extra(self, state: Dict[str, Any]) -> None:
        super()._restore_extra(state)
        self._glob[: self._size_n] = state["global_arrivals"]


class ShardWorker:
    """One shard: a local sampler plus the global-axis adapter around it.

    Parameters
    ----------
    sampler:
        The local reservoir (:class:`ArrayExponentialShard` or
        :class:`SpaceConstrainedReservoir`).
    family:
        ``"exponential"`` or ``"space_constrained"`` — decides how global
        arrival indices are attached to residents.
    """

    def __init__(self, sampler, family: str) -> None:
        if family not in ("exponential", "space_constrained"):
            raise ValueError(f"unknown shard family {family!r}")
        self.sampler = sampler
        self.family = family

    def ingest(self, payloads: np.ndarray, global_indices: np.ndarray) -> int:
        """Feed a block of the worker's sub-stream, in stream order."""
        if self.family == "exponential":
            return self.sampler.ingest(payloads, global_indices)
        wrapped = [
            (int(g), p) for g, p in zip(global_indices, payloads)
        ]
        return self.sampler.offer_many(wrapped)

    def entries_global(self) -> List[Tuple[int, Any]]:
        """Residents as ``(global_arrival, payload)`` pairs."""
        if self.family == "exponential":
            return [
                (int(g), p)
                for g, p in zip(
                    self.sampler.global_arrivals(), self.sampler.payloads()
                )
            ]
        return [tuple(entry.payload) for entry in self.sampler.entries()]

    def state_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "sampler": self.sampler.state_dict()}

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "ShardWorker":
        return cls(from_state_dict(state["sampler"]), state["family"])
