"""Sampler-owned resident columns stay byte-identical to a fresh rebuild.

Every sampler keeps one columnar copy of its residents
(:meth:`~repro.core.reservoir.ReservoirSampler.resident_columns`): the
first read builds capacity-row buffers, every storage write then updates
its row in place, and compactions or wholesale rewrites drop the buffers
so the next read rebuilds them. The family matrix below drives each
sampler family through random interleavings of every ingestion path,
multi-victim ejections and a mid-run snapshot restore, and after each
step checks the buffered view against
:func:`~repro.core.columns.build_resident_columns` over the sampler's
payloads — dtype, shape and bytes.
"""

import numpy as np
import pytest

from repro.core import (
    ChainSampler,
    ExponentialBias,
    ExponentialReservoir,
    GeneralBiasSampler,
    SkipUnbiasedReservoir,
    SpaceConstrainedReservoir,
    TimeDecayReservoir,
    TimestampedExponentialReservoir,
    UnbiasedReservoir,
    VariableReservoir,
    WindowBuffer,
    build_resident_columns,
    fold_exponential_reservoirs,
    from_state_dict,
)
from repro.mining.knn import ReservoirKnnClassifier
from repro.shard import ArrayExponentialShard
from repro.streams.point import StreamPoint

DIMS = 3


def _folded(seed):
    """A fold of two Algorithm 2.1 reservoirs: a live Algorithm 3.1 sampler."""
    rng = np.random.default_rng(seed + 500)
    inputs = []
    for k in range(2):
        res = ExponentialReservoir(capacity=20, rng=seed + k)
        res.offer_many(_points(rng, 1, 150))
        inputs.append(res)
    return fold_exponential_reservoirs(inputs, capacity=20, rng=seed)


#: name -> (factory(seed), whether `_eject_random` is a valid operation).
#: Chain samplers keep their residents inside the chains, not in slots,
#: so they are not ejected from directly.
FAMILIES = {
    "exponential": (lambda s: ExponentialReservoir(capacity=20, rng=s), True),
    "space_constrained": (
        lambda s: SpaceConstrainedReservoir(lam=0.02, capacity=20, rng=s),
        True,
    ),
    "variable": (
        lambda s: VariableReservoir(lam=0.01, capacity=20, rng=s),
        True,
    ),
    "unbiased": (lambda s: UnbiasedReservoir(20, rng=s), True),
    "skip_unbiased": (lambda s: SkipUnbiasedReservoir(20, rng=s), True),
    "timestamped": (
        lambda s: TimestampedExponentialReservoir(
            lam_time=0.02, capacity=20, rng=s
        ),
        True,
    ),
    "time_decay": (
        lambda s: TimeDecayReservoir(lam_time=0.02, capacity=20, rng=s),
        True,
    ),
    "window_buffer": (lambda s: WindowBuffer(20, rng=s), True),
    "chain": (lambda s: ChainSampler(10, window=40, rng=s), False),
    "general_bias": (
        lambda s: GeneralBiasSampler(
            ExponentialBias(0.05), target_size=12, rng=s
        ),
        True,
    ),
    "array_shard": (lambda s: ArrayExponentialShard(capacity=20, rng=s), True),
    "folded": (_folded, True),
}


def _points(rng, start, count):
    """``count`` StreamPoints from index ``start``; ~20% unlabeled."""
    values = rng.normal(size=(count, DIMS))
    labels = rng.integers(0, 4, size=count)
    unlabeled = rng.random(count) < 0.2
    return [
        StreamPoint(
            start + i, values[i], None if unlabeled[i] else int(labels[i])
        )
        for i in range(count)
    ]


def assert_matches_rebuild(sampler):
    """The buffered view equals a fresh rebuild, dtype/shape/bytes."""
    columns = sampler.resident_columns()
    expected = build_resident_columns(
        sampler.payloads(), sampler.arrival_indices()
    )
    for name in ("values", "labels", "arrivals"):
        got, want = getattr(columns, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert sampler.resident_columns() is columns


def assert_slot_columns_aligned(sampler):
    """Every declared column has ``size`` rows; snapshots round-trip."""
    state = sampler.state_dict()
    if not isinstance(sampler, ChainSampler):
        names = ["payloads", "arrivals"]
        names += [name for name, _ in sampler.slot_columns]
        for name in names:
            assert len(state[name]) == sampler.size, name
    assert from_state_dict(state).state_dict() == state


def _drive(sampler, rng, ejectable, steps=120):
    """Random interleaving of every ingestion path plus one restore."""
    index = 1
    restore_at = steps // 2
    for step in range(steps):
        op = rng.integers(4)
        if op == 0:
            sampler.offer(_points(rng, index, 1)[0])
            index += 1
        elif op == 1:
            size = int(rng.integers(1, 41))
            sampler.offer_many(_points(rng, index, size))
            index += size
        elif op == 2 and hasattr(sampler, "offer_many_at"):
            size = int(rng.integers(1, 41))
            gaps = rng.exponential(2.0, size=size)
            stamps = sampler.now + np.cumsum(gaps)
            sampler.offer_many_at(_points(rng, index, size), stamps)
            index += size
        elif op == 3 and ejectable and sampler.size >= 2:
            sampler._eject_random(int(rng.integers(2, sampler.size + 1)))
        if step == restore_at:
            sampler = from_state_dict(sampler.state_dict())
        assert_slot_columns_aligned(sampler)
        # Reading most steps keeps the buffers live through the writes;
        # skipped reads let several storage changes accumulate unread.
        if rng.random() < 0.7:
            assert_matches_rebuild(sampler)
    assert_matches_rebuild(sampler)
    return sampler


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_columns_match_rebuild_after_random_interleavings(family, seed):
    factory, ejectable = FAMILIES[family]
    sampler = factory(seed)
    final = _drive(sampler, np.random.default_rng(seed + 100), ejectable)
    assert final.t > 0


class TestBufferLifecycle:
    def test_storage_writes_update_rows_in_place(self):
        """Per-item and batch writes keep the buffers; no rebuild."""
        rng = np.random.default_rng(0)
        res = ExponentialReservoir(capacity=30, rng=0)
        res.offer_many(_points(rng, 1, 10))
        first = res.resident_columns()
        buffers = res._buffers
        assert np.shares_memory(first.values, buffers[0])
        res.offer(_points(rng, 11, 1)[0])
        res.offer_many(_points(rng, 12, 200))
        assert res._buffers is buffers
        assert_matches_rebuild(res)

    def test_compaction_drops_buffers(self):
        rng = np.random.default_rng(1)
        res = UnbiasedReservoir(20, rng=1)
        res.offer_many(_points(rng, 1, 20))
        res.resident_columns()
        res._eject_random(5)
        assert res._buffers is None
        assert_matches_rebuild(res)
        assert res.resident_columns().size == 15

    def test_views_track_storage_until_next_change(self):
        """A held view aliases the buffers; callers must read it at once."""
        rng = np.random.default_rng(2)
        res = WindowBuffer(4, rng=2)
        res.offer_many(_points(rng, 1, 4))
        held = res.resident_columns()
        snapshot = held.arrivals.copy()
        res.offer(_points(rng, 5, 1)[0])
        assert res.resident_columns() is not held
        assert not np.array_equal(held.arrivals, snapshot)

    def test_non_streampoint_payload_after_build_raises_on_read(self):
        rng = np.random.default_rng(3)
        res = ExponentialReservoir(capacity=5, rng=3)
        res.offer_many(_points(rng, 1, 3))
        res.resident_columns()
        res.offer("not a point")  # storing it must not fail
        with pytest.raises(AttributeError):
            res.resident_columns()

    @pytest.mark.parametrize(
        "bad",
        ["not a point", StreamPoint(999, np.zeros(DIMS + 1))],
        ids=["non_streampoint", "wrong_width"],
    )
    @pytest.mark.parametrize("factory", [
        lambda: ExponentialReservoir(capacity=5, rng=6),
        lambda: UnbiasedReservoir(5, rng=6),
    ], ids=["alg21", "algorithm_r"])
    def test_block_scatter_of_unrepresentable_payload_drops_buffers(
        self, factory, bad
    ):
        """A block write the buffers cannot hold drops them; the next read
        fails the way a rebuild over the same payloads fails."""
        rng = np.random.default_rng(6)
        res = factory()
        res.offer_many(_points(rng, 1, 5))
        res.resident_columns()
        assert res._buffers is not None
        # Last in the block, so the scatter stores it under either kernel
        # (Algorithm R may still reject it; keep offering until stored).
        index = 6
        while not any(p is bad for p in res.payloads()):
            res.offer_many(_points(rng, index, 3) + [bad])
            index += 3
        assert res._buffers is None
        with pytest.raises(Exception) as rebuild:
            build_resident_columns(res.payloads(), res.arrival_indices())
        with pytest.raises(type(rebuild.value)):
            res.resident_columns()
        if isinstance(bad, str):
            assert isinstance(rebuild.value, AttributeError)

    def test_empty_reservoir_has_empty_columns(self):
        res = UnbiasedReservoir(5, rng=4)
        columns = res.resident_columns()
        assert columns.size == 0
        assert res._buffers is None


def test_knn_classifier_holds_no_arrays():
    """The classifier reads the sampler's columns and stores nothing."""
    rng = np.random.default_rng(5)
    clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=5))
    for point in _points(rng, 1, 50):
        clf.predict_then_observe(point)
    assert set(vars(clf)) == {"sampler", "k"}
