"""Cross-release snapshot goldens: every family's full ``state_dict()``.

Checkpoints and write-ahead-log journals outlive the code that wrote
them, so a snapshot recorded by an earlier release must still restore and
continue exactly. ``tests/data/snapshot_goldens.json`` holds, per case,
two full ``state_dict()`` payloads as JSON literals:

* ``prefix`` — the state after a seeded run of per-item ``offer``,
  ``offer_many`` and (where the family has it) ``offer_many_at`` calls;
* ``resumed`` — the state after restoring ``prefix`` with
  ``from_state_dict`` and running a seeded continuation.

The file was recorded before the samplers' resident storage moved from
Python lists to numpy slot columns and must keep passing unedited: a
storage change that alters a snapshot's keys, value types, resident order
or RNG consumption fails here. Regenerate it (``python -m
tests.test_snapshot_golden``) only together with a ``SNAPSHOT_VERSION``
bump.
"""

import json
from pathlib import Path

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
    from_state_dict,
)
from repro.shard import ArrayExponentialShard, ShardedReservoir
from tests.test_determinism import FACTORIES

GOLDEN_PATH = Path(__file__).parent / "data" / "snapshot_goldens.json"

#: Case name -> factory(seed). The first ten mirror
#: ``tests/test_determinism.py::FACTORIES``.
CASES = {
    "unbiased": lambda seed: UnbiasedReservoir(20, rng=seed),
    "skip_unbiased": lambda seed: SkipUnbiasedReservoir(20, rng=seed),
    "exponential": lambda seed: ExponentialReservoir(capacity=30, rng=seed),
    "space_constrained": lambda seed: SpaceConstrainedReservoir(
        lam=1e-2, capacity=40, rng=seed
    ),
    "variable": lambda seed: VariableReservoir(lam=1e-2, capacity=40, rng=seed),
    "timestamped": lambda seed: TimestampedExponentialReservoir(
        lam_time=0.05, capacity=30, rng=seed
    ),
    "time_decay": lambda seed: TimeDecayReservoir(
        lam_time=0.05, capacity=30, rng=seed
    ),
    "window_buffer": lambda seed: WindowBuffer(25, rng=seed),
    "chain": lambda seed: ChainSampler(8, window=60, rng=seed),
    "general_bias": lambda seed: GeneralBiasSampler(
        ExponentialBias(1e-2), target_size=25, rng=seed
    ),
    # A non-default slack: the restored capacity is set after __init__.
    "general_bias_slack": lambda seed: GeneralBiasSampler(
        ExponentialBias(5e-2), target_size=6, rng=seed, capacity_slack=4.5
    ),
    "array_shard": lambda seed: ArrayExponentialShard(capacity=30, rng=seed),
    "sharded": lambda seed: ShardedReservoir(
        capacity=30, workers=2, rng=seed, flush_size=16
    ),
}

SEED = 11

#: (operation, count) steps; ``offer_many_at`` runs only where defined.
PREFIX = (
    ("offer", 23),
    ("offer_many", 41),
    ("offer_many_at", 17),
    ("offer", 6),
    ("offer_many", 9),
)
CONTINUATION = (
    ("offer_many", 37),
    ("offer", 11),
    ("offer_many_at", 13),
    ("offer_many", 5),
)


def _run(sampler, steps, seed):
    """Apply ``steps`` with seeded int payloads (and timestamps)."""
    rng = np.random.default_rng(seed)
    for op, count in steps:
        payloads = rng.integers(0, 10**6, size=count).tolist()
        if op == "offer":
            for payload in payloads:
                sampler.offer(payload)
        elif op == "offer_many":
            sampler.offer_many(payloads)
        elif hasattr(sampler, "offer_many_at"):
            stamps = sampler.now + np.cumsum(rng.exponential(0.7, count))
            sampler.offer_many_at(payloads, stamps.tolist())
    return sampler


def _restore(state):
    if state.get("class") == "ShardedReservoir":
        return ShardedReservoir.from_state_dict(state)
    return from_state_dict(state)


def _as_json(state):
    """Normalize a live snapshot to what the JSON file stores."""
    return json.loads(json.dumps(state))


def _record():
    """Both goldens of every case, from the current code."""
    goldens = {}
    for name, factory in CASES.items():
        prefix = _as_json(_run(factory(SEED), PREFIX, SEED).state_dict())
        resumed = _run(_restore(prefix), CONTINUATION, SEED + 1).state_dict()
        goldens[name] = {"prefix": prefix, "resumed": _as_json(resumed)}
    return goldens


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_determinism_family(goldens):
    assert set(FACTORIES) <= set(CASES) == set(goldens)


@pytest.mark.parametrize("name", sorted(CASES))
def test_live_run_matches_golden(name, goldens):
    sampler = _run(CASES[name](SEED), PREFIX, SEED)
    assert _as_json(sampler.state_dict()) == goldens[name]["prefix"]
    _run(sampler, CONTINUATION, SEED + 1)
    assert _as_json(sampler.state_dict()) == goldens[name]["resumed"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_restored_golden_continues_to_golden(name, goldens):
    restored = _restore(goldens[name]["prefix"])
    assert _as_json(restored.state_dict()) == goldens[name]["prefix"]
    _run(restored, CONTINUATION, SEED + 1)
    assert _as_json(restored.state_dict()) == goldens[name]["resumed"]


def _dump(goldens):
    """One line per snapshot, so a diff names the case that moved."""
    cases = [
        f'  "{name}": {{\n'
        + ",\n".join(
            f'    "{key}": {json.dumps(state, sort_keys=True)}'
            for key, state in snapshots.items()
        )
        + "\n  }"
        for name, snapshots in sorted(goldens.items())
    ]
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(_dump(_record()))
