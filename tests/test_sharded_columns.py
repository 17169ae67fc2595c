"""The sharded union's resident columns equal a rebuild over its payloads.

:meth:`~repro.shard.coordinator.ShardedReservoir.resident_columns`
concatenates each shard's own column buffers (``values``, ``labels``)
and its ``global_arrivals()`` slot column; both shard families
(:mod:`repro.shard.worker`) are read the same way. Both families, at
every worker count, must give exactly
:func:`~repro.core.columns.build_resident_columns` over the facade's
``payloads()`` and ``arrival_indices()`` — dtype, shape and bytes — after
block ingestion, with per-item offers still buffered, and after a
snapshot restore.
"""

import numpy as np
import pytest

from repro.core import build_resident_columns
from repro.shard import ShardedReservoir
from repro.streams.point import StreamPoint

DIMS = 3
FAMILIES = {
    "exponential": {},
    "space_constrained": {"lam": 0.01},
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


def _facade(family, workers, seed=0):
    return ShardedReservoir(
        capacity=40,
        workers=workers,
        family=family,
        rng=seed,
        flush_size=64,
        **FAMILIES[family],
    )


def assert_matches_rebuild(facade):
    """The union view equals a fresh rebuild, dtype/shape/bytes."""
    columns = facade.resident_columns()
    expected = build_resident_columns(
        facade.payloads(), facade.arrival_indices()
    )
    for name in ("values", "labels", "arrivals"):
        got, want = getattr(columns, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert facade.resident_columns() is columns
    return columns


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestShardedUnionColumns:
    def test_after_offer_many(self, family, workers):
        rng = np.random.default_rng(1)
        facade = _facade(family, workers)
        facade.offer_many(_points(rng, 1, 500))
        columns = assert_matches_rebuild(facade)
        facade.offer_many(_points(rng, 501, 100))
        assert facade.resident_columns() is not columns
        assert_matches_rebuild(facade)

    def test_with_per_item_offers_buffered(self, family, workers):
        rng = np.random.default_rng(2)
        facade = _facade(family, workers)
        facade.offer_many(_points(rng, 1, 300))
        assert_matches_rebuild(facade)
        for point in _points(rng, 301, 37):
            facade.offer(point)
        assert any(facade._pending_items)
        assert_matches_rebuild(facade)
        assert not any(facade._pending_items)

    def test_after_from_state_dict(self, family, workers):
        rng = np.random.default_rng(3)
        facade = _facade(family, workers)
        facade.offer_many(_points(rng, 1, 400))
        for point in _points(rng, 401, 9):
            facade.offer(point)
        restored = ShardedReservoir.from_state_dict(facade.state_dict())
        assert_matches_rebuild(restored)
        more = _points(rng, 410, 120)
        restored.offer_many(more)
        facade.offer_many(more)
        a, b = assert_matches_rebuild(restored), assert_matches_rebuild(facade)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.arrivals.tobytes() == b.arrivals.tobytes()

    def test_interleaved_rounds_keep_worker_buffers_in_step(
        self, family, workers
    ):
        """Reads between ingests keep the worker buffers live, so every
        later block goes through the buffered row writes."""
        rng = np.random.default_rng(4)
        facade = _facade(family, workers)
        index = 1
        for _ in range(12):
            size = int(rng.integers(1, 90))
            facade.offer_many(_points(rng, index, size))
            index += size
            for point in _points(rng, index, int(rng.integers(0, 5))):
                facade.offer(point)
                index += 1
            assert_matches_rebuild(facade)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_union_columns_build_no_entries(family, monkeypatch):
    """One worker-column path for both families: no SampleEntry rows."""
    rng = np.random.default_rng(5)
    facade = _facade(family, 2)
    facade.offer_many(_points(rng, 1, 200))

    def forbidden(*_args, **_kwargs):
        raise AssertionError("resident_columns went through entries")

    monkeypatch.setattr(ShardedReservoir, "entries", forbidden)
    columns = facade.resident_columns()
    assert columns.size == facade.size


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_empty_facade_has_empty_columns(family):
    columns = _facade(family, 4).resident_columns()
    assert columns.size == 0
    assert columns.values.shape == (0, 0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_non_streampoint_payloads_raise_attribute_error(family):
    facade = _facade(family, 2)
    facade.offer_many(list(range(1, 400)))
    with pytest.raises(AttributeError):
        facade.resident_columns()
