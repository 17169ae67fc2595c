"""Base machinery shared by all reservoir samplers.

A reservoir sampler consumes a stream one item at a time through
:meth:`ReservoirSampler.offer` and maintains a bounded in-memory sample.
Subclasses implement the paper's specific insertion/ejection policies; this
module provides the storage, counters, and inspection API common to all of
them.

Storage layout: one capacity-row *slot table* per sampler, owned by this
module. Every sampler has an object ``payloads`` column, an int64
``arrivals`` column (1-based arrival indices) and a resident count; a
family with more per-resident state declares it in the class constant
:attr:`ReservoirSampler.slot_columns` and the base allocates those columns
too. Residents occupy rows ``[0, size)``. Families change the table only
through the storage primitives below (append, overwrite, swap-remove,
keep-mask compaction, block scatter, wholesale load), which move every
column together; each column is serialized under its own name as a
snapshot key.

For :class:`~repro.streams.point.StreamPoint` payloads the sampler also
owns one columnar copy of its residents (see
:meth:`ReservoirSampler.resident_columns`): capacity-row ``values`` /
``labels`` / ``arrivals`` buffers, built on the first read and then kept
in step row by row by every storage write. Query estimation and the
nearest-neighbor classifier both read these buffers; nothing else stores
the residents a second time.
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columns import ResidentColumns, build_resident_columns
from repro.streams.point import StreamPoint
from repro.utils.rng import RngLike, as_generator

__all__ = [
    "ReservoirSampler",
    "SampleEntry",
    "check_arrivals",
    "check_snapshot_version",
    "from_state_dict",
    "object_array",
    "SNAPSHOT_VERSION",
]

#: Schema version stamped into every ``state_dict()`` payload. Bump it
#: whenever the snapshot layout changes incompatibly; ``from_state_dict``
#: rejects any other version up front instead of failing deep inside a
#: family's ``_restore_extra``.
SNAPSHOT_VERSION = 1

#: Concrete sampler classes by name, for snapshot restoration
#: (:func:`from_state_dict`). Populated by ``__init_subclass__``.
_SAMPLER_CLASSES: Dict[str, type] = {}


@dataclass(frozen=True)
class SampleEntry:
    """One resident of a reservoir: the payload plus its arrival index."""

    arrival: int
    payload: Any


class ReservoirSampler(ABC):
    """Abstract bounded stream sampler.

    Parameters
    ----------
    capacity:
        Maximum number of residents (``n`` in the paper).
    rng:
        Seed or :class:`numpy.random.Generator` driving all randomness.

    Attributes
    ----------
    t:
        Number of stream points offered so far (the paper's ``t``).
    offers, insertions, ejections:
        Lifetime counters, useful for verifying policy behaviour in tests.
    """

    def __init__(self, capacity: int, rng: RngLike = None) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.rng = as_generator(rng)
        self.t = 0
        self.offers = 0
        self.insertions = 0
        self.ejections = 0
        self._allocate_slots()

    #: Whether the sampler maintains an exponential inclusion design
    #: ``p(x) = c * exp(-lambda * age)`` on its arrival-count axis. Only
    #: these samplers are valid merge inputs (:mod:`repro.core.merge`);
    #: having a ``lam`` attribute alone is not sufficient.
    exponential_design: bool = False

    #: Per-resident columns beyond ``payloads`` and ``arrivals``, as
    #: ``(name, dtype)`` pairs. The base allocates them in the slot table
    #: and serializes each under ``name``; the storage primitives take
    #: their values positionally, in this order.
    slot_columns: Tuple[Tuple[str, Any], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _SAMPLER_CLASSES[cls.__name__] = cls

    # ------------------------------------------------------------------ #
    # Policy interface
    # ------------------------------------------------------------------ #

    @abstractmethod
    def offer(self, payload: Any) -> bool:
        """Process the next stream point; return ``True`` if it was stored."""

    def inclusion_probabilities(
        self, r: np.ndarray, t: Optional[int] = None
    ) -> np.ndarray:
        """Model probabilities that arrivals ``r`` are resident at time ``t``.

        This is the analytical ``p(r, t)`` for the sampler's policy (e.g.
        Theorem 2.2 for Algorithm 2.1). It is the quantity Horvitz-Thompson
        estimation divides by; it is a *model*, not a per-run empirical
        frequency. ``t`` defaults to the current stream position, and every
        ``r`` must satisfy ``1 <= r <= t``. Each family states its law once,
        in :meth:`_inclusion_law`.
        """
        t = self.t if t is None else int(t)
        r = check_arrivals(r, t)
        if not r.size:
            # The only query valid at t = 0, where laws such as n/t are
            # undefined.
            return np.zeros(r.shape)
        return self._inclusion_law(r, t)

    def inclusion_probability(self, r: int, t: Optional[int] = None) -> float:
        """One-element :meth:`inclusion_probabilities` (bitwise equal)."""
        return float(self.inclusion_probabilities([r], t)[0])

    def _inclusion_law(self, r: np.ndarray, t: int) -> np.ndarray:
        """The family's ``p(r, t)`` over a non-empty float64 array of
        arrivals already checked against ``1 <= r <= t``."""
        raise NotImplementedError(
            f"{type(self).__name__} states no inclusion law"
        )

    # ------------------------------------------------------------------ #
    # Shared storage operations
    # ------------------------------------------------------------------ #

    def extend(self, payloads: Iterable[Any]) -> int:
        """Offer every item of ``payloads`` in order; return the stored count.

        The return value counts offers that were *stored* (``offer``
        returned ``True``) — it is **not** the reservoir's net growth,
        because storing an arrival may eject a resident to make room (for
        :class:`~repro.core.biased.ExponentialReservoir` every offer is
        stored, so the count always equals ``len(payloads)`` even once the
        reservoir is full). Net growth is ``insertions - ejections``.

        This path always processes points one at a time, consuming the
        exact same random sequence as a loop of :meth:`offer` calls; use
        :meth:`offer_many` for the vectorized block path.
        """
        inserted = 0
        for payload in payloads:
            if self.offer(payload):
                inserted += 1
        return inserted

    def offer_many(self, payloads: Iterable[Any]) -> int:
        """Process a block of stream points; return the stored count.

        Statistically equivalent to calling :meth:`offer` in a loop —
        counters (``t``, ``offers``, ``insertions``, ``ejections``) and the
        sampling distribution match the per-item path — but subclasses with
        closed-form policies override the hooks below with vectorized numpy
        fast paths that pre-draw the block's randomness in bulk. The exact
        random *sequence* consumed may therefore differ from the per-item
        path; only the distribution is guaranteed.

        The return value follows the :meth:`extend` contract: offers stored,
        not net growth.
        """
        block = (
            payloads
            if isinstance(payloads, (list, tuple))
            else list(payloads)
        )
        if not block:
            return 0
        return self._offer_block(block)

    def _offer_block(self, block: List[Any]) -> int:
        """Batch-ingestion hook: process ``block`` and return stored count.

        The base implementation is the per-item loop; subclasses override
        it with vectorized fast paths that write storage through
        :meth:`_scatter` (or the per-item primitives).
        """
        stored = 0
        for payload in block:
            if self.offer(payload):
                stored += 1
        return stored

    # ------------------------------------------------------------------ #
    # Slot table
    # ------------------------------------------------------------------ #

    def _allocate_slots(self) -> None:
        """Empty slot table with ``capacity`` rows per column."""
        rows = self.capacity
        self._slots: Dict[str, np.ndarray] = {
            "payloads": np.empty(rows, dtype=object),
            "arrivals": np.zeros(rows, dtype=np.int64),
        }
        for name, dtype in self.slot_columns:
            self._slots[name] = np.zeros(rows, dtype=dtype)
        self._payloads = self._slots["payloads"]
        self._arrivals = self._slots["arrivals"]
        self._extras = tuple(self._slots[name] for name, _ in self.slot_columns)
        self._size = 0
        # Sampler-owned resident columns (see `resident_columns`):
        # capacity-row (values, labels, arrivals) buffers that every
        # storage write updates in place, or None until the next read
        # rebuilds them (first read, or after a compaction or reload).
        self._buffers: Optional[Tuple[np.ndarray, ...]] = None
        # The view handed out for the current storage epoch:
        # (mutation key, ResidentColumns) or None.
        self._columns_cache: Optional[Tuple[Tuple, ResidentColumns]] = None

    def _column(self, name: str) -> np.ndarray:
        """Live view of slot column ``name`` over the residents."""
        return self._slots[name][: self._size]

    def _entry_at(self, slot: int) -> SampleEntry:
        """The resident in ``slot``."""
        return SampleEntry(self._arrivals.item(slot), self._payloads[slot])

    def _append(self, payload: Any, *extras: Any) -> None:
        """Store a new resident, arrived at ``t`` (reservoir grows by one).

        ``extras`` are its values for :attr:`slot_columns`.
        """
        slot = self._size
        if slot >= self.capacity:
            raise RuntimeError("reservoir already at capacity; replace instead")
        self._payloads[slot] = payload
        self._arrivals[slot] = self.t
        if extras:
            for column, value in zip(self._extras, extras):
                column[slot] = value
        self._size = slot + 1
        self.insertions += 1
        self._write_row(slot)

    def _replace_random(self, payload: Any) -> SampleEntry:
        """Overwrite a uniformly random resident; return the evicted entry."""
        if not self._size:
            raise RuntimeError("cannot replace in an empty reservoir")
        victim = int(self.rng.integers(self._size))
        return self._replace_at(victim, payload)

    def _replace_at(self, slot: int, payload: Any, *extras: Any) -> SampleEntry:
        """Overwrite the resident in ``slot``; return the evicted entry.

        ``extras`` are the newcomer's values for :attr:`slot_columns`.
        """
        evicted = self._entry_at(slot)
        self._payloads[slot] = payload
        self._arrivals[slot] = self.t
        if extras:
            for column, value in zip(self._extras, extras):
                column[slot] = value
        self.insertions += 1
        self.ejections += 1
        self._write_row(slot)
        return evicted

    def _remove_at(self, slot: int) -> SampleEntry:
        """Swap-remove: the last resident moves into ``slot``."""
        evicted = self._entry_at(slot)
        last = self._size - 1
        for column in self._slots.values():
            column[slot] = column[last]
        self._payloads[last] = None  # drop the table's reference
        self._size = last
        self.ejections += 1
        if slot != last:
            self._write_row(slot)
        return evicted

    def _compact(self, keep: np.ndarray) -> None:
        """Keep the residents where ``keep`` is true, in storage order."""
        size = self._size
        kept = int(np.count_nonzero(keep))
        for column in self._slots.values():
            column[:kept] = column[:size][keep]
        self._payloads[kept:size] = None
        self._size = kept
        self.ejections += size - kept
        self._drop_columns()

    def _scatter(
        self,
        dest: np.ndarray,
        payloads: np.ndarray,
        arrivals: np.ndarray,
        appended: int = 0,
    ) -> None:
        """Block write of the batch kernels: row ``dest[i]`` takes
        ``payloads[i]`` and ``arrivals[i]``.

        ``payloads`` is a 1-D object array (:func:`object_array`). The
        last ``appended`` entries of ``dest`` must be the new tail rows
        ``size, size + 1, ...``. Counters are the caller's to bump, and
        so are any :attr:`slot_columns` (the shard samplers write theirs
        after the block).
        """
        self._payloads[dest] = payloads
        self._arrivals[dest] = arrivals
        self._size += appended
        self._write_rows(dest)

    def _load(
        self,
        payloads: Sequence[Any],
        arrivals: Sequence[int],
        *extras: Sequence[Any],
    ) -> None:
        """Replace every resident at once (snapshot restore, merge output).

        The table is reallocated at the current ``capacity``, which a
        family's ``_construct_from_state`` may have set after
        ``__init__``.
        """
        count = len(payloads)
        if count > self.capacity:
            raise ValueError(
                f"{count} residents exceed capacity {self.capacity}"
            )
        self._allocate_slots()
        self._payloads[:count] = object_array(payloads)
        self._arrivals[:count] = arrivals
        for column, values in zip(self._extras, extras):
            column[:count] = values
        self._size = count

    def _eject_random(self, count: int) -> List[SampleEntry]:
        """Remove ``count`` uniformly random residents (without replacement)."""
        size = self._size
        count = min(int(count), size)
        if count <= 0:
            return []
        if count == 1:
            # The variable-reservoir scheme ejects exactly one point per
            # phase, thousands of times per stream.
            return [self._remove_at(int(self.rng.integers(size)))]
        victims = self.rng.choice(size, size=count, replace=False)
        evicted = [self._entry_at(v) for v in victims]
        keep = np.ones(size, dtype=bool)
        keep[victims] = False
        self._compact(keep)
        return evicted

    # ------------------------------------------------------------------ #
    # Column buffers (see `resident_columns`)
    # ------------------------------------------------------------------ #

    def _write_row(self, slot: int) -> None:
        """Copy storage ``slot`` into its column-buffer row, if built."""
        buffers = self._buffers
        if buffers is None:
            return
        values, labels, arrivals = buffers
        point = self._payloads[slot]
        if (
            not isinstance(point, StreamPoint)
            or point.values.shape != values.shape[1:]
        ):
            # Not representable in these buffers: the next read rebuilds
            # and raises exactly as `build_resident_columns` does.
            self._buffers = None
            return
        values[slot] = point.values
        labels[slot] = -1 if point.label is None else point.label
        arrivals[slot] = self._arrivals[slot]

    def _write_rows(self, slots: np.ndarray) -> None:
        """Block form of :meth:`_write_row` over the slots a batch kernel
        wrote, read back from storage after the scatter."""
        buffers = self._buffers
        if buffers is None or not len(slots):
            return
        values, labels, arrivals = buffers
        points = self._payloads[slots].tolist()
        width = values.shape[1:]
        for point in points:
            if not isinstance(point, StreamPoint) or point.values.shape != width:
                # As in `_write_row`: the next read rebuilds and raises.
                self._buffers = None
                return
        values[slots] = np.stack([point.values for point in points])
        labels[slots] = np.fromiter(
            (-1 if point.label is None else point.label for point in points),
            dtype=np.int64,
            count=len(points),
        )
        arrivals[slots] = self._arrivals[slots]

    def _drop_columns(self) -> None:
        """Storage was compacted or rewritten wholesale: the next
        :meth:`resident_columns` read rebuilds the buffers."""
        self._buffers = None

    # ------------------------------------------------------------------ #
    # Snapshots (checkpoint/restore and cross-process transport)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, Any]:
        """Complete observable state as a plain picklable dict.

        Round-tripping through :func:`from_state_dict` yields a sampler
        that is indistinguishable from the original: same residents (in
        storage order), same counters, and the *same generator state*, so
        ``snapshot -> restore -> offer`` consumes the exact random
        sequence an uninterrupted run would. This is the contract the
        sharded ingestion engine (:mod:`repro.shard`) relies on to move
        samplers across process boundaries and to survive coordinator
        restarts; it also serves as a standalone checkpoint format.

        Payload objects are carried by reference (not copied); the
        container lists are fresh, so continuing to offer into the live
        sampler never mutates an already-taken snapshot.
        """
        state: Dict[str, Any] = {
            "version": SNAPSHOT_VERSION,
            "class": type(self).__name__,
            "module": type(self).__module__,
            "capacity": int(self.capacity),
            "t": int(self.t),
            "offers": int(self.offers),
            "insertions": int(self.insertions),
            "ejections": int(self.ejections),
            "rng_state": self.rng.bit_generator.state,
        }
        for name, column in self._slots.items():
            state[name] = column[: self._size].tolist()
        state.update(self._extra_state())
        return state

    def _extra_state(self) -> Dict[str, Any]:
        """Family-specific snapshot fields (override in subclasses)."""
        return {}

    def _restore_extra(self, state: Dict[str, Any]) -> None:
        """Restore family-specific snapshot fields."""

    @classmethod
    def _construct_from_state(cls, state: Dict[str, Any]) -> "ReservoirSampler":
        """Build a blank instance with the snapshot's constructor params.

        The base implementation covers single-argument families
        (``cls(capacity)``); families with extra constructor parameters
        override it. Counters, storage, and RNG state are restored by
        :func:`from_state_dict` afterwards.
        """
        return cls(state["capacity"])

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Current number of residents."""
        return self._size

    @property
    def fill_fraction(self) -> float:
        """The paper's ``F(t)``: current size over capacity, in ``[0, 1]``.

        Routes through :attr:`size` so samplers with bespoke storage
        (e.g. :class:`~repro.core.sliding_window.ChainSampler`) report
        correctly.
        """
        return self.size / self.capacity

    @property
    def is_full(self) -> bool:
        """Whether the reservoir holds ``capacity`` residents."""
        return self.size >= self.capacity

    def payloads(self) -> List[Any]:
        """Copy of the resident payloads (order is storage order)."""
        return self._payloads[: self._size].tolist()

    def arrival_indices(self) -> np.ndarray:
        """1-based arrival indices of the residents, as an int64 array."""
        return self._arrivals[: self._size].copy()

    def ages(self) -> np.ndarray:
        """Per-resident age ``t - r`` (0 for a point that just arrived)."""
        return self.t - self.arrival_indices()

    def entries(self) -> List[SampleEntry]:
        """Copy of the residents as :class:`SampleEntry` records."""
        size = self._size
        return [
            SampleEntry(a, p)
            for a, p in zip(
                self._arrivals[:size].tolist(), self._payloads[:size].tolist()
            )
        ]

    def _columns_key(self) -> Tuple:
        """Cache key for :meth:`resident_columns`.

        Resident storage can only change through paths that bump
        ``insertions`` or ``ejections`` (``_append``, ``_replace_at``,
        ``_eject_random``, and every vectorized ``offer_many`` fast path
        bumps them in bulk), so those counters — plus the size, as a
        belt-and-braces guard for bespoke subclasses — identify a storage
        epoch exactly. Families whose storage mutates outside the counter
        paths (e.g. :class:`~repro.core.sliding_window.ChainSampler`)
        override this with a key that changes on every storage change.
        """
        return (self.insertions, self.ejections, self.size)

    def resident_columns(self) -> ResidentColumns:
        """Struct-of-arrays view of the residents, in storage order.

        Returns read-only ``values``/``labels``/``arrivals`` views (see
        :class:`~repro.core.columns.ResidentColumns`) onto the sampler's
        own capacity-row column buffers. The first read builds the
        buffers with one pass over the payloads; from then on every
        storage write updates its row in place, and only a compaction or
        wholesale rewrite makes the next read rebuild. The view object is
        cached against :meth:`_columns_key`, so two reads with no
        mutation between them return the same object.

        Lifetime: the views share memory with the buffers, so they stay
        valid only until the next storage change. Use them immediately
        (every estimator and the kNN classifier do); copy them to keep a
        snapshot. Requires :class:`~repro.streams.point.StreamPoint`
        payloads.
        """
        key = self._columns_key()
        cached = self._columns_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        size = self.size
        if size == 0:
            # No resident fixes the feature width; nothing to buffer yet.
            columns = build_resident_columns([], np.empty(0, np.int64))
        else:
            if self._buffers is None:
                self._buffers = self._build_buffers()
            values, labels, arrivals = self._buffers
            columns = ResidentColumns(
                values=_read_only(values[:size]),
                labels=_read_only(labels[:size]),
                arrivals=_read_only(arrivals[:size]),
            )
        self._columns_cache = (key, columns)
        return columns

    def _build_buffers(self) -> Tuple[np.ndarray, ...]:
        """Capacity-row column buffers holding the current residents."""
        built = build_resident_columns(self.payloads(), self.arrival_indices())
        size, rows = built.size, self.capacity
        values = np.empty((rows, built.values.shape[1]))
        labels = np.empty(rows, dtype=np.int64)
        arrivals = np.empty(rows, dtype=np.int64)
        values[:size] = built.values
        labels[:size] = built.labels
        arrivals[:size] = built.arrivals
        return values, labels, arrivals

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Any]:
        return iter(self.payloads())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"size={self.size}, t={self.t})"
        )


def from_state_dict(state: Dict[str, Any]) -> ReservoirSampler:
    """Rebuild a sampler from a :meth:`ReservoirSampler.state_dict` snapshot.

    Resolves the concrete class by the recorded module/class pair (importing
    the module if needed), reconstructs it with the snapshot's constructor
    parameters, then restores storage, counters, family-specific state, and
    the exact RNG state. The result behaves identically to the snapshotted
    sampler from its next ``offer`` onward.

    Snapshots missing a ``version`` field are treated as version 1 (the
    layout predating the field); any other version is rejected here with
    a clear error rather than failing deep inside family extras.
    """
    check_snapshot_version(state)
    importlib.import_module(state["module"])
    try:
        cls = _SAMPLER_CLASSES[state["class"]]
    except KeyError:
        raise ValueError(
            f"unknown sampler class {state['class']!r}; its module "
            f"{state['module']!r} did not register it"
        ) from None
    obj = cls._construct_from_state(state)
    if obj.capacity != int(state["capacity"]):
        raise ValueError(
            f"{cls.__name__}._construct_from_state rebuilt capacity "
            f"{obj.capacity}, snapshot says {state['capacity']}"
        )
    obj.t = int(state["t"])
    obj.offers = int(state["offers"])
    obj.insertions = int(state["insertions"])
    obj.ejections = int(state["ejections"])
    obj._load(*(state[name] for name in obj._slots))
    obj._restore_extra(state)
    obj.rng.bit_generator.state = state["rng_state"]
    return obj


def check_snapshot_version(state: Dict[str, Any]) -> None:
    """Reject a snapshot whose ``version`` is not :data:`SNAPSHOT_VERSION`
    (a missing field reads as version 1, the layout predating it)."""
    version = state.get("version", 1)
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {version!r} is not supported by this "
            f"library (expected {SNAPSHOT_VERSION}); it was probably "
            "written by a newer release"
        )


def check_arrivals(r: Any, t: int) -> np.ndarray:
    """Arrival indices ``r`` as float64, checked against ``1 <= r <= t``."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 1) or np.any(r > t):
        bad = r[(r < 1) | (r > t)].ravel()
        raise ValueError(f"require 1 <= r <= t, got r={bad[0]:.15g}, t={t}")
    return r


def _read_only(view: np.ndarray) -> np.ndarray:
    """Mark a buffer view non-writable (its base stays writable)."""
    view.setflags(write=False)
    return view


def object_array(items: Sequence[Any]) -> np.ndarray:
    """1-D object array with one element per item (tuples stay whole)."""
    if isinstance(items, np.ndarray) and items.ndim == 1:
        return items if items.dtype == object else items.astype(object)
    return np.fromiter(items, dtype=object, count=len(items))
