"""Shard workers: local samplers plus global-arrival bookkeeping.

Each shard maintains an ordinary exponentially biased reservoir over the
*sub-stream* routed to it, but every resident must remember its **global**
arrival index so the coordinator can fold worker samples onto the common
age axis (:mod:`repro.shard.coordinator`).

Two local sampler families are supported:

* ``"exponential"`` — :class:`ArrayExponentialShard`, an
  :class:`~repro.core.biased.ExponentialReservoir` whose slot table
  declares one extra column, the global arrival index. Every arrival goes
  through the Algorithm 2.1 block step (one bulk ``integers(0, n,
  size=b)`` draw per block), so it consumes exactly the random sequence
  of the serial batched path and reaches an identical observable state.
* ``"space_constrained"`` — a plain
  :class:`~repro.core.space_constrained.SpaceConstrainedReservoir` whose
  payloads are wrapped as ``(global_index, payload)`` pairs; the wrapper
  unwraps them at inspection/fold time.

Either way a worker hands the coordinator's union view its residents as
``(values, labels, global_arrivals)`` columns
(:meth:`ShardWorker.resident_columns`), with no per-resident entry
objects.

A worker snapshots as
:meth:`~repro.core.reservoir.ReservoirSampler.state_dict` plus its family,
which is how the sharded facade checkpoints and restores it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.biased import ExponentialReservoir
from repro.core.columns import build_resident_columns
from repro.core.reservoir import from_state_dict

__all__ = ["ArrayExponentialShard", "ShardWorker"]


class ArrayExponentialShard(ExponentialReservoir):
    """Algorithm 2.1 reservoir whose residents carry a global arrival index.

    Distribution, counters, resident ordering, and RNG consumption are
    those of :class:`ExponentialReservoir`'s ``offer_many`` path: every
    arrival, per-item ones included, goes through the block step. The
    global arrival index of each resident (:meth:`global_arrivals`) is a
    declared slot column, fed in through :meth:`ingest`; the plain
    ``offer``/``offer_many`` paths default it to the local index, which
    is exact for ``W = 1``. (The class name is recorded in worker
    snapshots.)
    """

    slot_columns = (("global_arrivals", np.int64),)

    def ingest(
        self, payloads: Sequence[Any], global_indices: Sequence[int]
    ) -> int:
        """Block ingest with explicit global arrival indices.

        ``global_indices`` holds the global (whole-stream) arrival index
        of each payload, in stream order. Returns the number of offers
        (all are stored under Algorithm 2.1).
        """
        b = len(payloads)
        if b:
            super()._offer_block(
                payloads, np.asarray(global_indices, dtype=np.int64)
            )
        return b

    def offer(self, payload: Any) -> bool:
        """Single arrival via the block step (global index = local)."""
        self.ingest([payload], [self.t + 1])
        return True

    def _offer_block(self, block: Sequence[Any]) -> int:
        return self.ingest(block, self.t + 1 + np.arange(len(block)))

    def global_arrivals(self) -> np.ndarray:
        """Global (whole-stream) arrival index per resident."""
        return self._column("global_arrivals").copy()


class ShardWorker:
    """One shard: a local sampler plus the global-axis adapter around it.

    Parameters
    ----------
    sampler:
        The local reservoir (:class:`ArrayExponentialShard` or
        :class:`~repro.core.space_constrained.SpaceConstrainedReservoir`).
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

    def resident_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residents as ``(values, labels, global_arrivals)`` columns.

        An exponential worker reads its sampler's own column buffers
        (views, valid until the next ingest); a space-constrained worker
        builds fresh columns from its ``(global_index, point)`` payloads.
        Requires :class:`~repro.streams.point.StreamPoint` payloads.
        """
        if self.family == "exponential":
            columns = self.sampler.resident_columns()
            return columns.values, columns.labels, self.sampler.global_arrivals()
        pairs = self.sampler.payloads()
        columns = build_resident_columns(
            [point for _, point in pairs], [g for g, _ in pairs]
        )
        return columns.values, columns.labels, columns.arrivals

    def state_dict(self) -> Dict[str, Any]:
        return {"family": self.family, "sampler": self.sampler.state_dict()}

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "ShardWorker":
        return cls(from_state_dict(state["sampler"]), state["family"])
