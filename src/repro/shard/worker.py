"""Shard samplers: local reservoirs whose residents keep a global arrival.

Each shard is an ordinary reservoir sampler over the *sub-stream* routed
to it, but every resident must remember its **global** arrival index so
the coordinator can fold shard samples onto the common age axis
(:mod:`repro.shard.coordinator`). Both shard families declare that index
as one extra slot column, ``global_arrivals``, which ``ingest`` fills in
after each block from the residents' local arrival indices:

* :class:`ArrayExponentialShard` — Algorithm 2.1. Every arrival goes
  through the block step (one bulk ``integers(0, n, size=b)`` draw per
  block), so it consumes exactly the random sequence of the serial
  batched path and reaches an identical observable state.
* :class:`SpaceConstrainedShard` — Algorithm 3.1, one step per arrival,
  exactly as the serial sampler over the same sub-stream.

The coordinator feeds a shard through ``ingest`` and reads its
``payloads()``, ``global_arrivals()`` and ``resident_columns()`` the same
way for both families. A shard snapshots as its own
:meth:`~repro.core.reservoir.ReservoirSampler.state_dict`, which records
the class name.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.biased import ExponentialReservoir
from repro.core.space_constrained import SpaceConstrainedReservoir

__all__ = ["ArrayExponentialShard", "SpaceConstrainedShard"]


class _GlobalArrivals:
    """Mixin: a sampler whose residents carry their global arrival index.

    Mixed in ahead of a sampler family; every arrival, per-item ones
    included, goes through the family's block step ``_offer_block``.
    Plain ``offer``/``offer_many`` calls default the global index to the
    local one, which is exact for ``W = 1``.
    """

    slot_columns = (("global_arrivals", np.int64),)

    def ingest(
        self, payloads: Sequence[Any], global_indices: Sequence[int]
    ) -> int:
        """Block ingest with explicit global arrival indices.

        ``global_indices`` holds the global (whole-stream) arrival index
        of each payload, in stream order. The family's block step runs
        unchanged; then each resident that arrived in the block (local
        arrival past the block's start) takes its arrival's global index.
        Returns the number of offers stored.
        """
        if not len(payloads):
            return 0
        t0 = self.t
        stored = super()._offer_block(payloads)
        arrivals = self._column("arrivals")
        rows = np.flatnonzero(arrivals > t0)
        self._column("global_arrivals")[rows] = np.asarray(
            global_indices, dtype=np.int64
        )[arrivals[rows] - (t0 + 1)]
        return stored

    def offer(self, payload: Any) -> bool:
        """Single arrival via the block step (global index = local)."""
        return self.ingest([payload], [self.t + 1]) == 1

    def _offer_block(self, block: Sequence[Any]) -> int:
        return self.ingest(block, self.t + 1 + np.arange(len(block)))

    def global_arrivals(self) -> np.ndarray:
        """Global (whole-stream) arrival index per resident."""
        return self._column("global_arrivals").copy()


class ArrayExponentialShard(_GlobalArrivals, ExponentialReservoir):
    """Algorithm 2.1 shard.

    Distribution, counters, resident ordering, and RNG consumption are
    those of :class:`ExponentialReservoir`'s ``offer_many`` path: every
    arrival, per-item ones included, goes through the block step.
    """


class SpaceConstrainedShard(_GlobalArrivals, SpaceConstrainedReservoir):
    """Algorithm 3.1 shard.

    Counters, resident ordering and RNG consumption are those of a
    :class:`SpaceConstrainedReservoir` offered the same sub-stream.
    """
