"""Tests for StreamPoint."""

import copy
import copyreg
import pickle

import numpy as np
import pytest

from repro.streams.point import StreamPoint


class TestStreamPoint:
    def test_basic_fields(self, labeled_point):
        assert labeled_point.index == 1
        assert labeled_point.label == 2
        assert labeled_point.dimensions == 3

    def test_values_are_read_only(self, labeled_point):
        with pytest.raises(ValueError):
            labeled_point.values[0] = 99.0

    def test_values_coerced_to_float64(self):
        p = StreamPoint(1, [1, 2, 3])
        assert p.values.dtype == np.float64

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError, match="index"):
            StreamPoint(0, np.zeros(2))

    def test_unlabeled_default(self):
        p = StreamPoint(5, np.zeros(2))
        assert p.label is None

    def test_distance(self):
        a = StreamPoint(1, np.array([0.0, 0.0]))
        b = StreamPoint(2, np.array([3.0, 4.0]))
        assert a.distance_to(b) == pytest.approx(5.0)

    def test_distance_symmetric(self):
        a = StreamPoint(1, np.array([1.0, 2.0]))
        b = StreamPoint(2, np.array([-1.0, 0.5]))
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_frozen(self, labeled_point):
        with pytest.raises(AttributeError):
            labeled_point.index = 7

    def test_repr_compact(self):
        p = StreamPoint(1, np.arange(10, dtype=float), label=3)
        text = repr(p)
        assert "index=1" in text
        assert "label=3" in text
        assert "..." in text  # truncated values


class _DataclassEraPickle:
    """Pickles in the form a point took while ``StreamPoint`` was a frozen
    dataclass: ``copyreg.__newobj__(StreamPoint)`` plus the field dict."""

    def __init__(self, point):
        self.point = point

    @property
    def __class__(self):
        # The pickler checks that `__newobj__`'s class is the object's.
        return StreamPoint

    def __reduce_ex__(self, protocol):
        point = self.point
        state = {
            "index": point.index,
            "values": np.array(point.values),
            "label": point.label,
        }
        return (copyreg.__newobj__, (StreamPoint,), state)


FIELDS = ("index", "values", "label")


class TestStreamPointRecord:
    """The slotted record: layout, immutability, identity, pickling."""

    def test_no_instance_dict(self, labeled_point):
        assert not hasattr(labeled_point, "__dict__")
        assert StreamPoint.__slots__ == FIELDS

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_assigned(self, labeled_point, name):
        with pytest.raises(AttributeError):
            setattr(labeled_point, name, 1)
        assert labeled_point.index == 1 and labeled_point.label == 2

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_deleted(self, labeled_point, name):
        with pytest.raises(AttributeError):
            delattr(labeled_point, name)
        assert getattr(labeled_point, name) is not None

    def test_new_attributes_rejected(self, labeled_point):
        with pytest.raises(AttributeError):
            labeled_point.extra = 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copies_keep_fields_and_read_only_values(self, labeled_point, clone):
        twin = clone(labeled_point)
        assert type(twin) is StreamPoint
        assert (twin.index, twin.label) == (1, 2)
        assert twin.values.tobytes() == labeled_point.values.tobytes()
        assert not twin.values.flags.writeable
        with pytest.raises(ValueError):
            twin.values[0] = 5.0

    def test_equality_and_hash_are_identity(self):
        values = np.array([1.0, 2.0])
        a = StreamPoint(3, values, 1)
        b = StreamPoint(3, values, 1)
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        assert hash(a) == hash(a) == object.__hash__(a)
        assert len({a, b, a}) == 2

    def test_pickle_round_trip_is_bitwise_and_read_only(self):
        point = StreamPoint(9, np.array([0.1, -2.5e300, np.nan, 7.0]), None)
        restored = pickle.loads(pickle.dumps(point))
        assert (restored.index, restored.label) == (9, None)
        assert restored.values.dtype == np.float64
        assert restored.values.tobytes() == point.values.tobytes()
        assert not restored.values.flags.writeable

    def test_pickle_runs_constructor_checks(self):
        from repro.streams.point import _point_from_bytes

        with pytest.raises(ValueError, match="index"):
            _point_from_bytes(0, np.zeros(2).tobytes(), None)

    def test_dataclass_era_pickle_loads_read_only(self, labeled_point):
        restored = pickle.loads(pickle.dumps(_DataclassEraPickle(labeled_point)))
        assert type(restored) is StreamPoint
        assert (restored.index, restored.label) == (1, 2)
        assert restored.values.tobytes() == labeled_point.values.tobytes()
        assert not restored.values.flags.writeable

    def test_dataclass_era_state_is_checked(self):
        point = StreamPoint.__new__(StreamPoint)
        with pytest.raises(ValueError, match="index"):
            point.__setstate__({"index": 0, "values": np.zeros(2), "label": None})

    @pytest.mark.parametrize("dims", [3, 34])
    def test_pickle_smaller_than_dataclass_pickle(self, dims):
        point = StreamPoint(12345, np.linspace(0.0, 1.0, dims), 4)
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            compact = pickle.dumps(point, protocol=protocol)
            legacy = pickle.dumps(_DataclassEraPickle(point), protocol=protocol)
            assert len(compact) < len(legacy)

    def test_restored_sampler_state_is_read_only(self):
        from repro.core import ExponentialReservoir, from_state_dict

        res = ExponentialReservoir(capacity=8, rng=0)
        res.offer_many([StreamPoint(i, np.full(2, i), i % 3) for i in range(1, 40)])
        restored = from_state_dict(pickle.loads(pickle.dumps(res.state_dict())))
        assert restored.size == 8
        for point in restored.payloads():
            assert not point.values.flags.writeable

    def test_recovered_residents_are_read_only(self, tmp_path):
        from repro.core import ExponentialReservoir
        from repro.persist import DurableReservoir

        points = [StreamPoint(i, np.full(3, float(i)), None) for i in range(1, 61)]
        engine = DurableReservoir(
            ExponentialReservoir(capacity=10, rng=1), tmp_path, wal_sync="never"
        )
        engine.offer_many(points[:30])
        engine.checkpoint()
        engine.offer_many(points[30:50])
        for point in points[50:]:
            engine.offer(point)
        engine.close(final_checkpoint=False)
        recovered = DurableReservoir.recover(tmp_path, wal_sync="never")
        assert recovered.last_recovery.records_replayed == 11
        assert recovered.size == 10
        for point in recovered.payloads():
            assert not point.values.flags.writeable
        recovered.close(final_checkpoint=False)
