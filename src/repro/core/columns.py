"""Struct-of-arrays view of a reservoir's residents.

Query evaluation (:mod:`repro.queries`) is array-native: every estimate is
a handful of numpy reductions over the residents' feature values, labels,
and arrival indices, and the nearest-neighbor classifier
(:mod:`repro.mining.knn`) is one vectorized distance computation over the
same values. Materializing those three contiguous columns from the
reservoir's payload list costs one Python pass over the residents.
:func:`build_resident_columns` is that pass. A sampler runs it once, into
capacity-row buffers that it then keeps in step with every storage write
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`), and
hands out :class:`ResidentColumns` views onto those buffers.

The view requires :class:`~repro.streams.point.StreamPoint` payloads (the
same contract the estimators already impose); offering any other payload
type makes :func:`build_resident_columns` raise ``AttributeError``, the
same error the per-point path raises on ``payload.values``.

Derived arrays. Every read between two storage changes sees the same
residents, so whatever a reader derives from them is the same for all
readers. A view therefore carries a private memo, reached through
:meth:`ResidentColumns.derived`. It may hold only values fixed by the
view's three columns, the sampler that owns the view, and what the key
names: the Horvitz–Thompson horizon designs of
:func:`repro.queries.estimator.horizon_design` (keyed by stream position
and horizon) and the labeled rows and squared norms of the
nearest-neighbor search (:mod:`repro.mining.knn`). The memo lives
exactly one storage epoch, because the view does: samplers cache the
view against their storage key and the sharded facade against its stream
position, so the next insertion, ejection, compaction or restore hands
out a new view with an empty memo, and the old memo is freed with the
old view. No invalidation code exists or is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, TypeVar

import numpy as np

from repro.streams.point import StreamPoint

__all__ = ["ResidentColumns", "build_resident_columns"]

T = TypeVar("T")


@dataclass(frozen=True)
class ResidentColumns:
    """Contiguous columns over a reservoir's residents (storage order).

    Attributes
    ----------
    values:
        Feature matrix, shape ``(size, dimensions)``, float64, read-only.
    labels:
        Class labels, shape ``(size,)``, int64; ``-1`` encodes an
        unlabeled point (``StreamPoint.label is None``).
    arrivals:
        1-based arrival indices, shape ``(size,)``, int64.

    All three arrays are marked read-only: they are shared by every
    consumer of the cached view, so nobody may scribble on them.

    Lifetime: a view returned by
    :meth:`~repro.core.reservoir.ReservoirSampler.resident_columns` shares
    memory with the sampler's column buffers. It is valid until the next
    storage change (the next insertion, ejection or compaction), after
    which its rows may hold other residents. Read it immediately, or copy
    it to keep a snapshot. The same holds for everything cached through
    :meth:`derived`.
    """

    values: np.ndarray
    labels: np.ndarray
    arrivals: np.ndarray
    _derived: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        """Number of residents in the view."""
        return int(self.arrivals.shape[0])

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value memoized under ``key``, built by ``build()`` on the
        first request in this view's storage epoch.

        ``build`` must depend only on the columns, their sampler and what
        ``key`` names (see the module docstring). The value is shared by
        every reader of the view; only the module that owns ``key`` may
        change it.
        """
        memo = self._derived
        if key in memo:
            return memo[key]
        value = memo[key] = build()
        return value


def build_resident_columns(
    payloads: List[StreamPoint], arrivals: np.ndarray
) -> ResidentColumns:
    """Materialize :class:`ResidentColumns` from parallel resident storage.

    The result owns fresh arrays (it is the reference every sampler's
    buffered view must equal). ``payloads`` must be :class:`StreamPoint` objects; ``arrivals`` their
    1-based arrival indices (same order). Empty storage yields
    ``(0, 0)``-shaped values.
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    if not payloads:
        values = np.empty((0, 0))
        labels = np.empty(0, dtype=np.int64)
    else:
        first = payloads[0]
        if not isinstance(first, StreamPoint):
            # Same failure the per-point path hits on `payload.values` —
            # callers (and tests) catch AttributeError for wrong payloads.
            raise AttributeError(
                "resident columns require StreamPoint payloads, got "
                f"{type(first).__name__}"
            )
        values = np.stack([p.values for p in payloads])
        labels = np.fromiter(
            (-1 if p.label is None else p.label for p in payloads),
            dtype=np.int64,
            count=len(payloads),
        )
    values.setflags(write=False)
    labels.setflags(write=False)
    arrivals = arrivals.copy()
    arrivals.setflags(write=False)
    return ResidentColumns(values=values, labels=labels, arrivals=arrivals)
