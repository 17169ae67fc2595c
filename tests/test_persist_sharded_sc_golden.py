"""Cross-release journal golden: a sharded Algorithm 3.1 durable journal.

``tests/data/sharded_sc_journal/journal`` is a 2-worker
``ShardedReservoir(family="space_constrained")`` journal recorded while
space-constrained shards stored every payload as a ``(global_index,
payload)`` pair. It holds checkpoint 0, a mid-run checkpoint, and
per-shard WAL tails written by ``offer_many`` dispatches and by per-item
buffer flushes (``flush_size=3``); the writer then crashed without a
final checkpoint. Recovery therefore restores pair-wrapped shard
snapshots and replays the tail through the current shard samplers.

``expected.json`` beside it holds what the recording release observed,
after recovery and again after a seeded continuation:

* the facade's ``t``, resident payload indices and global
  ``arrival_indices()``;
* per shard, its counters, local ``arrivals`` and RNG state;
* the number of WAL records replayed.

The journal and ``expected.json`` must keep passing unedited.
Regenerate them (``python -m tests.test_persist_sharded_sc_golden``)
only together with a ``WAL_VERSION`` or ``SNAPSHOT_VERSION`` bump.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.persist import DurableReservoir
from repro.shard import ShardedReservoir
from tests.test_persist_legacy_golden import _points

GOLDEN_DIR = Path(__file__).parent / "data" / "sharded_sc_journal"
JOURNAL_DIR = GOLDEN_DIR / "journal"
EXPECTED_PATH = GOLDEN_DIR / "expected.json"
SEED = 31
#: Per-shard snapshot fields whose meaning did not change with the
#: payload layout.
SHARD_KEYS = ("t", "offers", "insertions", "ejections", "arrivals", "rng_state")


def _write(directory):
    points = _points(70, 1, SEED)
    engine = DurableReservoir(
        ShardedReservoir(
            capacity=8, workers=2, lam=0.05, family="space_constrained",
            rng=SEED, flush_size=3,
        ),
        directory,
        wal_sync="never",
    )
    engine.offer_many(points[:25])
    for point in points[25:30]:
        engine.offer(point)
    engine.checkpoint()
    engine.offer_many(points[30:50])
    for point in points[50:58]:
        engine.offer(point)
    engine.offer_many(points[58:70])
    engine.close(final_checkpoint=False)


def _continue(engine):
    points = _points(30, 71, SEED + 1)
    engine.offer_many(points[:17])
    for point in points[17:]:
        engine.offer(point)
    engine.flush()


def _observe(facade):
    return {
        "t": facade.t,
        "payload_indices": [point.index for point in facade.payloads()],
        "arrival_indices": facade.arrival_indices().tolist(),
        "shards": [
            {key: state["sampler"][key] for key in SHARD_KEYS}
            for state in facade.worker_states()
        ],
    }


def _recover(directory):
    """Recover a copy (recovery may truncate and reopen segments)."""
    shutil.copytree(JOURNAL_DIR, directory)
    return DurableReservoir.recover(directory, wal_sync="never")


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text())


def test_recovered_state_matches_recording_release(expected, tmp_path):
    engine = _recover(tmp_path / "journal")
    try:
        assert engine.last_recovery.records_replayed == expected["replayed"]
        assert engine.last_recovery.truncated_tails == []
        assert _observe(engine.sampler) == expected["recovered"]
    finally:
        engine.close(final_checkpoint=False)


def test_recovered_engine_continues_like_recording_release(
    expected, tmp_path
):
    engine = _recover(tmp_path / "journal")
    try:
        _continue(engine)
        assert _observe(engine.sampler) == expected["continued"]
    finally:
        engine.close(final_checkpoint=False)


def test_recovered_facade_snapshot_round_trips(tmp_path):
    """The unwrapped shards snapshot in the current layout and restore."""
    engine = _recover(tmp_path / "journal")
    try:
        facade = engine.sampler
        restored = ShardedReservoir.from_state_dict(facade.state_dict())
        assert _observe(restored) == _observe(facade)
    finally:
        engine.close(final_checkpoint=False)


def _record():
    """Write the journal and what this release recovers from it."""
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    GOLDEN_DIR.mkdir(parents=True)
    _write(JOURNAL_DIR)
    workdir = GOLDEN_DIR / "_recover"
    engine = _recover(workdir)
    try:
        expected = {
            "replayed": engine.last_recovery.records_replayed,
            "recovered": _observe(engine.sampler),
        }
        _continue(engine)
        expected["continued"] = _observe(engine.sampler)
    finally:
        engine.close(final_checkpoint=False)
        shutil.rmtree(workdir)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True))


if __name__ == "__main__":
    _record()
