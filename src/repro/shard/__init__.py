"""Sharded parallel ingestion of exponentially biased reservoir samples.

Public surface:

* :class:`ShardedReservoir` — the facade: partition a stream across ``W``
  shards, each a local biased reservoir, with the union provably
  equal in law to one global reservoir (see
  :mod:`repro.shard.coordinator` for the argument) and a ``fold()`` that
  collapses the shards into a single live sampler via Theorem 3.3
  thinning.
* :class:`RoundRobinPartitioner` / :class:`HashByKeyPartitioner` — stream
  routing policies (:mod:`repro.shard.partition`).
* :class:`ArrayExponentialShard` / :class:`SpaceConstrainedShard` — the
  shard samplers (:mod:`repro.shard.worker`): an Algorithm 2.1 and an
  Algorithm 3.1 reservoir whose slot table also records each resident's
  global arrival index.
"""

from repro.shard.coordinator import ShardedReservoir
from repro.shard.partition import (
    HashByKeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.shard.worker import ArrayExponentialShard, SpaceConstrainedShard

__all__ = [
    "ShardedReservoir",
    "Partitioner",
    "RoundRobinPartitioner",
    "HashByKeyPartitioner",
    "ArrayExponentialShard",
    "SpaceConstrainedShard",
]
