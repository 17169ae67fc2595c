"""Stream protocol and generator base class.

A *stream* is simply an iterable of :class:`~repro.streams.point.StreamPoint`
with monotonically increasing ``index``. :class:`StreamGenerator` is the base
for the synthetic sources: it owns the RNG, hands out points lazily (chunked
internally so numpy vectorization pays off), and knows its dimensionality
and label alphabet.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.streams.point import StreamPoint
from repro.utils.rng import RngLike, as_generator

__all__ = ["StreamGenerator", "materialize", "stream_to_arrays"]


class StreamGenerator(ABC):
    """Base class for synthetic stream sources.

    Subclasses implement :meth:`_generate_chunk`, producing a
    ``(values, labels)`` batch; this class slices the batch into
    :class:`StreamPoint` records with correct global arrival indices.

    Parameters
    ----------
    length:
        Total number of points the stream will emit.
    dimensions:
        Feature dimensionality.
    rng:
        Seed or generator. Two generators constructed with the same seed
        emit identical streams.
    chunk_size:
        Internal vectorization batch; has no observable effect other than
        speed.
    """

    def __init__(
        self,
        length: int,
        dimensions: int,
        rng: RngLike = None,
        chunk_size: int = 2048,
    ) -> None:
        length = int(length)
        dimensions = int(dimensions)
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        if dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {dimensions}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.length = length
        self.dimensions = dimensions
        self.chunk_size = int(chunk_size)
        self._rng_spec = rng
        self.rng = as_generator(rng)

    @abstractmethod
    def _generate_chunk(self, size: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Produce the next ``size`` points as ``(values, labels)``.

        ``values`` has shape ``(size, dimensions)``; ``labels`` is an int
        array of length ``size`` or ``None`` for unlabeled streams. Called
        sequentially; generators may carry evolution state between calls.
        """

    @property
    def n_classes(self) -> Optional[int]:
        """Size of the label alphabet, or ``None`` if unlabeled."""
        return None

    def __iter__(self) -> Iterator[StreamPoint]:
        emitted = 0
        while emitted < self.length:
            size = min(self.chunk_size, self.length - emitted)
            values, labels = self._generate_chunk(size)
            if values.shape != (size, self.dimensions):
                raise RuntimeError(
                    f"{type(self).__name__}._generate_chunk returned shape "
                    f"{values.shape}, expected {(size, self.dimensions)}"
                )
            # One float64 read-only chunk: each point's row view then
            # passes the constructor's checks without a copy.
            values = np.asarray(values, dtype=np.float64)
            values.setflags(write=False)
            row_labels = [None] * size if labels is None else labels.tolist()
            for i, (row, label) in enumerate(
                zip(values, row_labels), start=emitted + 1
            ):
                yield StreamPoint(i, row, label)
            emitted += size

    def __len__(self) -> int:
        return self.length


def materialize(stream: Iterable[StreamPoint]) -> List[StreamPoint]:
    """Drain a stream into a list (for offline ground-truth computation)."""
    return list(stream)


def stream_to_arrays(
    stream: Iterable[StreamPoint],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drain a stream into ``(indices, values, labels)`` arrays.

    ``labels`` is filled with ``-1`` where points are unlabeled. Intended
    for the exact query engine and for tests that need whole-stream views.
    """
    indices: List[int] = []
    rows: List[np.ndarray] = []
    labels: List[int] = []
    for point in stream:
        indices.append(point.index)
        rows.append(point.values)
        labels.append(-1 if point.label is None else point.label)
    if not rows:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, 0)),
            np.empty(0, dtype=np.int64),
        )
    return (
        np.asarray(indices, dtype=np.int64),
        np.vstack(rows),
        np.asarray(labels, dtype=np.int64),
    )
