"""The per-sampler slot table: every column moves with its resident.

Each sampler stores its residents in one capacity-row slot table
(``payloads``, ``arrivals`` and the family's declared ``slot_columns``).
These tests pin the storage primitives that families share — swap-remove,
keep-mask compaction, wholesale load — on the families whose extra
columns used to be kept by hand, and the cheap sharded ``size``.
"""

import numpy as np
import pytest

from repro.core import (
    ExponentialBias,
    GeneralBiasSampler,
    TimeDecayReservoir,
    TimestampedExponentialReservoir,
    UnbiasedReservoir,
    from_state_dict,
)
from repro.shard import ArrayExponentialShard, ShardedReservoir


class TestEjectRandomMovesEveryColumn:
    def test_timestamped_timestamps_follow_residents(self):
        res = TimestampedExponentialReservoir(lam_time=0.01, capacity=20, rng=1)
        res.offer_many(list(range(30)))
        assert len(res._eject_random(3)) == 3
        assert res.size == 17 == len(res.timestamps())
        # Unit-spaced offers stamp arrival r at time r.
        assert res.timestamps().tolist() == res.arrival_indices().tolist()
        res.offer_many(list(range(30, 60)))
        assert res.size == len(res.timestamps()) <= 20
        assert res.timestamps().tolist() == res.arrival_indices().tolist()

    def test_time_decay_columns_follow_residents(self):
        res = TimeDecayReservoir(lam_time=0.01, capacity=20, rng=2)
        res.extend(range(40))
        res._eject_random(4)
        state = res.state_dict()
        assert len(state["timestamps"]) == len(state["insert_probs"]) == res.size
        assert state["timestamps"] == [float(a) for a in state["arrivals"]]

    def test_general_bias_probs_follow_residents(self):
        res = GeneralBiasSampler(ExponentialBias(0.05), target_size=12, rng=1)
        res.extend(range(1, 200))
        before = res.size
        res._eject_random(3)
        state = res.state_dict()
        assert res.size == before - 3 == len(state["probs"])
        expected = [res.inclusion_probability(a) for a in state["arrivals"]]
        assert state["probs"] == pytest.approx(expected, rel=1e-12)

    def test_array_shard_ejects(self):
        res = ArrayExponentialShard(capacity=20, rng=1)
        res.offer_many(list(range(30)))
        before = res.size
        evicted = res._eject_random(3)
        assert len(evicted) == 3
        assert res.size == before - 3 == len(res.payloads())
        # W = 1: the global axis is the local one, slot for slot.
        assert res.global_arrivals().tolist() == res.arrival_indices().tolist()
        assert res.payloads() == [a - 1 for a in res.arrival_indices()]


class TestPrimitives:
    def test_single_eject_swap_removes(self):
        res = UnbiasedReservoir(5, rng=3)
        res.extend(range(5))
        before = res.payloads()
        (gone,) = res._eject_random(1)
        slot = before.index(gone.payload)
        expected = before[:-1]
        if slot < len(expected):
            expected[slot] = before[-1]
        assert res.payloads() == expected
        assert res.ejections == 1

    def test_multi_eject_keeps_storage_order(self):
        res = UnbiasedReservoir(10, rng=4)
        res.extend(range(10))
        gone = {e.payload for e in res._eject_random(4)}
        assert res.payloads() == [p for p in range(10) if p not in gone]
        assert res.arrival_indices().tolist() == [p + 1 for p in res.payloads()]

    def test_vacated_rows_release_payloads(self):
        res = UnbiasedReservoir(6, rng=5)
        res.extend(range(6))
        res._eject_random(1)
        res._eject_random(3)
        assert all(p is None for p in res._slots["payloads"][res.size :])

    def test_restored_capacity_sizes_the_table(self):
        res = GeneralBiasSampler(
            ExponentialBias(0.05), target_size=6, rng=6, capacity_slack=5.0
        )
        res.extend(range(300))
        restored = from_state_dict(res.state_dict())
        assert restored.capacity == res.capacity == 30
        assert all(len(col) == 30 for col in restored._slots.values())
        restored.extend(range(300, 600))
        res.extend(range(300, 600))
        assert restored.state_dict() == res.state_dict()

    def test_snapshot_with_too_many_residents_is_rejected(self):
        state = UnbiasedReservoir(4, rng=7).state_dict()
        state["payloads"] = list(range(5))
        state["arrivals"] = list(range(1, 6))
        with pytest.raises(ValueError, match="exceed capacity"):
            from_state_dict(state)


class TestShardedSize:
    def test_size_counts_buffered_offers(self):
        sharded = ShardedReservoir(capacity=40, workers=2, rng=8, flush_size=64)
        for item in range(150):
            sharded.offer(item)
            if item % 7 == 0:
                assert any(sharded._pending_items)
                size = sharded.size
                assert size == len(sharded.entries()) > 0
        assert sharded.size == len(sharded) == len(sharded.entries()) <= 40
        assert sharded.is_full == (sharded.size == 40)

    def test_size_of_space_constrained_family(self):
        sharded = ShardedReservoir(
            capacity=40, workers=4, lam=0.01, family="space_constrained", rng=9
        )
        for item in range(300):
            sharded.offer(item)
        assert sharded.size == len(sharded.entries()) < 40
        assert np.all(sharded.arrival_indices() >= 1)
