"""Cross-release journal golden: recover journals written by an earlier release.

A durable journal (checkpoints + WAL segments) holds pickled
:class:`~repro.streams.point.StreamPoint` payloads, so a change to how a
point pickles must still read every journal already on disk.
``tests/data/legacy_journal/`` holds two journal directories recorded
while ``StreamPoint`` was a frozen dataclass:

* ``serial`` — an :class:`~repro.core.biased.ExponentialReservoir`
  journal: checkpoint 0, a checkpoint after a ``("b", block)`` and
  ``("o", point)`` prefix, and a WAL tail holding both record kinds;
* ``sharded`` — a 2-worker :class:`~repro.shard.ShardedReservoir`
  journal: a checkpoint plus per-shard WAL tails written by
  ``offer_many`` dispatches and by per-item buffer flushes.

``expected.json`` beside them holds, per journal, the recovered
``state_dict()`` (every point encoded as its ``index``, ``label`` and
``values.tobytes()`` hex) and the number of WAL records replayed. The
directories must keep recovering to exactly that state unedited.
Regenerate them (``python -m tests.test_persist_legacy_golden``) only
together with a ``WAL_VERSION`` or ``SNAPSHOT_VERSION`` bump.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core import ExponentialReservoir
from repro.persist import DurableReservoir
from repro.shard import ShardedReservoir
from repro.streams.point import StreamPoint

GOLDEN_DIR = Path(__file__).parent / "data" / "legacy_journal"
EXPECTED_PATH = GOLDEN_DIR / "expected.json"
JOURNALS = ("serial", "sharded")
SEED = 23


def _points(count, start, seed):
    """Seeded 3-D points; every fifth one is unlabeled."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(count, 3))
    labels = rng.integers(0, 4, size=count).tolist()
    return [
        StreamPoint(start + i, values[i], None if i % 5 == 4 else labels[i])
        for i in range(count)
    ]


def _encode(obj):
    """JSON form of a snapshot: points by index, label and value bytes."""
    if isinstance(obj, StreamPoint):
        return {
            "index": obj.index,
            "label": obj.label,
            "values": obj.values.tobytes().hex(),
        }
    if isinstance(obj, dict):
        return {key: _encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(item) for item in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_serial(directory):
    points = _points(60, 1, SEED)
    engine = DurableReservoir(
        ExponentialReservoir(capacity=12, rng=SEED), directory,
        wal_sync="never",
    )
    engine.offer_many(points[:20])
    for point in points[20:24]:
        engine.offer(point)
    engine.checkpoint()
    engine.offer_many(points[24:40])
    for point in points[40:45]:
        engine.offer(point)
    engine.offer_many(points[45:60])
    engine.close(final_checkpoint=False)


def _write_sharded(directory):
    points = _points(70, 1, SEED + 1)
    engine = DurableReservoir(
        ShardedReservoir(capacity=8, workers=2, rng=SEED, flush_size=3),
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


WRITERS = {"serial": _write_serial, "sharded": _write_sharded}


def _recover(name, tmp_path):
    """Recover a copy (recovery may truncate and reopen segments)."""
    directory = tmp_path / name
    shutil.copytree(GOLDEN_DIR / name, directory)
    engine = DurableReservoir.recover(directory, wal_sync="never")
    return engine


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text())


@pytest.mark.parametrize("name", JOURNALS)
def test_legacy_journal_recovers_every_field(name, expected, tmp_path):
    engine = _recover(name, tmp_path)
    try:
        want = expected[name]
        assert engine.last_recovery.records_replayed == want["replayed"]
        assert engine.last_recovery.truncated_tails == []
        state = _encode(engine.state_dict())
        assert sorted(state) == sorted(want["state"])
        for key in want["state"]:
            assert state[key] == want["state"][key], key
    finally:
        engine.close(final_checkpoint=False)


@pytest.mark.parametrize("name", JOURNALS)
def test_legacy_journal_payloads(name, expected, tmp_path):
    engine = _recover(name, tmp_path)
    try:
        payloads = engine.payloads()
        want = expected[name]["payloads"]
        assert len(payloads) == len(want)
        for point, row in zip(payloads, want):
            assert isinstance(point, StreamPoint)
            assert point.index == row["index"]
            assert point.label == row["label"]
            assert point.values.tobytes().hex() == row["values"]
    finally:
        engine.close(final_checkpoint=False)


def _record():
    """Write both journals and their expected recovered state."""
    if GOLDEN_DIR.exists():
        shutil.rmtree(GOLDEN_DIR)
    expected = {}
    for name, write in WRITERS.items():
        write(GOLDEN_DIR / name)
        workdir = GOLDEN_DIR.parent / f"_recover_{name}"
        shutil.copytree(GOLDEN_DIR / name, workdir)
        try:
            engine = DurableReservoir.recover(workdir, wal_sync="never")
            expected[name] = {
                "replayed": engine.last_recovery.records_replayed,
                "payloads": _encode(engine.payloads()),
                "state": _encode(engine.state_dict()),
            }
            engine.close(final_checkpoint=False)
        finally:
            shutil.rmtree(workdir)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True))


if __name__ == "__main__":
    _record()
