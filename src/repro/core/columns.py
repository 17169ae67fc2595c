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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.streams.point import StreamPoint

__all__ = ["ResidentColumns", "build_resident_columns"]


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
    it to keep a snapshot.
    """

    values: np.ndarray
    labels: np.ndarray
    arrivals: np.ndarray

    @property
    def size(self) -> int:
        """Number of residents in the view."""
        return int(self.arrivals.shape[0])


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
        values = np.array([p.values for p in payloads], dtype=np.float64)
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
