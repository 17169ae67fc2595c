"""Inclusion-law goldens: one vectorized law per design, the scalar derived.

Horvitz-Thompson estimation divides by ``inclusion_probabilities``, so a
change to how a design's law is written must not move a bit of its output.
``tests/data/inclusion_law_goldens.json`` holds, per case, the float64
bytes (hex) of ``inclusion_probabilities(arrival_indices(), t)`` at the
sampler's own ``t`` and at ``t + 7``, after a seeded 700-point prefix.
The cases are every :data:`tests.test_determinism.FACTORIES` family that
models the arrival axis, the array-backed shard, and the sharded facade
at ``W = 2`` under both partitioners and both shard families.

The scalar ``inclusion_probability`` must be the one-element case of the
vector law, bit for bit, and both forms must reject ``r`` outside
``1 <= r <= t``. The wall-clock families have no arrival-axis law and
must say so from both forms.

Regenerate the goldens (``python -m tests.test_inclusion_law``) only
together with a deliberate change of a design law.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.shard import (
    ArrayExponentialShard,
    HashByKeyPartitioner,
    ShardedReservoir,
)
from tests.test_determinism import FACTORIES

GOLDEN_PATH = Path(__file__).parent / "data" / "inclusion_law_goldens.json"

#: Wall-clock families: inclusion is not a function of arrival indices.
TIME_AXIS = ("timestamped", "time_decay")


def _sharded(family, hashed):
    lam = 1e-2 if family == "space_constrained" else None

    def factory(seed):
        return ShardedReservoir(
            capacity=30,
            workers=2,
            lam=lam,
            family=family,
            partitioner=HashByKeyPartitioner(2) if hashed else None,
            rng=seed,
        )

    return factory


CASES = {
    **{
        name: factory
        for name, factory in FACTORIES.items()
        if name not in TIME_AXIS
    },
    "array_shard": lambda seed: ArrayExponentialShard(capacity=30, rng=seed),
    "sharded_round_robin": _sharded("exponential", False),
    "sharded_hash": _sharded("exponential", True),
    "sharded_round_robin_space_constrained": _sharded(
        "space_constrained", False
    ),
    "sharded_hash_space_constrained": _sharded("space_constrained", True),
}

SEED = 23
PREFIX = 700
BLOCK = 64

#: Offsets from the sampler's ``t`` at which each law is pinned.
#: GeneralBiasSampler keeps its normalizer for the current time only.
OFFSETS = {"general_bias": (0,)}
DEFAULT_OFFSETS = (0, 7)

#: Laws whose golden was recorded from a per-element ``math.exp`` loop;
#: the vectorized law may round differently by one unit in the last place.
ULP_TOLERANT = {"general_bias"}


def _prefix(name):
    """Case ``name`` after a seeded mix of per-item and block offers."""
    sampler = {**FACTORIES, **CASES}[name](SEED)
    payloads = np.random.default_rng(SEED).integers(0, 10**6, PREFIX).tolist()
    for item in payloads[:BLOCK]:
        sampler.offer(item)
    for lo in range(BLOCK, PREFIX, BLOCK):
        sampler.offer_many(payloads[lo : lo + BLOCK])
    return sampler


def _laws(name):
    """offset -> vectorized law over the residents at ``t + offset``."""
    sampler = _prefix(name)
    arrivals = sampler.arrival_indices()
    return sampler, arrivals, {
        offset: np.asarray(
            sampler.inclusion_probabilities(arrivals, sampler.t + offset),
            dtype=np.float64,
        )
        for offset in OFFSETS.get(name, DEFAULT_OFFSETS)
    }


def _record():
    return {
        name: {
            str(offset): law.tobytes().hex()
            for offset, law in _laws(name)[2].items()
        }
        for name in CASES
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_case(goldens):
    assert set(goldens) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_vectorized_law_matches_golden(name, goldens):
    _, arrivals, laws = _laws(name)
    assert len(arrivals) > 0
    assert sorted(goldens[name]) == sorted(str(o) for o in laws)
    for offset, law in laws.items():
        golden = np.frombuffer(
            bytes.fromhex(goldens[name][str(offset)]), dtype=np.float64
        )
        if name in ULP_TOLERANT:
            np.testing.assert_array_max_ulp(law, golden, maxulp=1)
        else:
            assert law.tobytes() == golden.tobytes(), (name, offset)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_is_the_one_element_vector_law(name):
    sampler, arrivals, laws = _laws(name)
    for offset, law in laws.items():
        t = sampler.t + offset
        scalar = np.array(
            [sampler.inclusion_probability(int(r), t) for r in arrivals]
        )
        mismatched = np.flatnonzero(scalar.view(np.int64) != law.view(np.int64))
        assert not len(mismatched), (offset, arrivals[mismatched][:5].tolist())


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_of_range_arrivals_rejected_by_both_forms(name):
    sampler = _prefix(name)
    for r in (0, sampler.t + 1):
        with pytest.raises(ValueError, match="require 1 <= r <= t"):
            sampler.inclusion_probability(r)
        with pytest.raises(ValueError, match="require 1 <= r <= t"):
            sampler.inclusion_probabilities(np.array([1, r]))


@pytest.mark.parametrize("name", TIME_AXIS)
def test_wall_clock_families_have_no_arrival_axis_law(name):
    sampler = _prefix(name)
    r = sampler.arrival_indices()
    with pytest.raises(NotImplementedError):
        sampler.inclusion_probability(int(r[0]))
    with pytest.raises(NotImplementedError):
        sampler.inclusion_probabilities(r)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
