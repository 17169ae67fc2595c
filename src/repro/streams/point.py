"""The unit of data flowing through every stream in this library.

:class:`StreamPoint` is a small fixed-layout record: three ``__slots__``
(``index``, ``values``, ``label``) and no instance ``__dict__``, so
building, copying and pickling one costs a few attribute writes rather
than a generic object's dictionary. It is immutable — assigning or
deleting a field raises ``AttributeError`` and the feature vector is a
read-only float64 array — and compares by identity: two points are equal
only if they are the same object, and ``hash`` is the object's identity
hash.

Pickle layout: a point reduces to ``_point_from_bytes(index,
values.astype("<f8").tobytes(), label)``, so a pickle carries the raw
little-endian feature bytes instead of a generic ndarray reduce, and
loading goes back through the constructor (every check runs, the values
come back read-only). Pickles written while the class was a frozen
dataclass (a ``{"index", "values", "label"}`` state dict) still load via
:meth:`StreamPoint.__setstate__`; journals and checkpoints recorded by
earlier releases therefore recover unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

__all__ = ["StreamPoint"]


class StreamPoint:
    """One multi-dimensional stream record.

    Attributes
    ----------
    index:
        1-based arrival index — the paper's ``r``. In the paper's temporal
        model the arrival index *is* the timestamp; Section 5.2 notes the
        timestamp must be kept for horizon queries in both the biased and
        unbiased reservoirs, so it is a first-class field here.
    values:
        Feature vector (read-only float64 array).
    label:
        Optional class label (intrusion class / generating-cluster id);
        ``None`` for unlabeled streams.
    """

    __slots__ = ("index", "values", "label")

    index: int
    values: np.ndarray
    label: Optional[int]

    def __init__(
        self, index: int, values: Any, label: Optional[int] = None
    ) -> None:
        if index < 1:
            raise ValueError(f"index must be >= 1, got {index}")
        arr = np.asarray(values, dtype=np.float64)
        if arr.flags.writeable:
            arr.setflags(write=False)
        setter = object.__setattr__
        setter(self, "index", index)
        setter(self, "values", arr)
        setter(self, "label", label)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        raw = self.values.astype("<f8", copy=False).tobytes()
        return (_point_from_bytes, (self.index, raw, self.label))

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Load a pickle written while the class was a dataclass."""
        StreamPoint.__init__(
            self, state["index"], state["values"], state.get("label")
        )

    @property
    def dimensions(self) -> int:
        """Number of features."""
        return int(self.values.shape[0])

    def distance_to(self, other: "StreamPoint") -> float:
        """Euclidean distance between the feature vectors."""
        return float(np.linalg.norm(self.values - other.values))

    def __repr__(self) -> str:
        head = np.array2string(self.values[:3], precision=3)
        return (
            f"StreamPoint(index={self.index}, label={self.label}, "
            f"values={head}{'...' if self.dimensions > 3 else ''})"
        )


def _point_from_bytes(
    index: int, raw: bytes, label: Optional[int]
) -> StreamPoint:
    """Pickle restorer: rebuild a point through the constructor."""
    return StreamPoint(index, np.frombuffer(raw, "<f8"), label)
