"""Batch ingestion (`offer_many`) equivalence with the per-item path.

Two tiers of guarantee, each tested here:

* Samplers on the generic fallback consume the *exact* same random
  sequence as an ``offer`` loop, so per-item and batched runs at one seed
  must be byte-identical.
* Samplers with vectorized fast paths (``ExponentialReservoir``,
  ``UnbiasedReservoir``, ``SkipUnbiasedReservoir``,
  ``TimestampedExponentialReservoir``) pre-draw their randomness in bulk,
  so only the *distribution* is guaranteed: counters and invariants match
  exactly, empirical inclusion frequencies match within statistical
  tolerance (seeded, sized to ~4-5 sigma so they pass deterministically).
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
)
from repro.mining.knn import ReservoirKnnClassifier
from repro.streams.point import StreamPoint

# ---------------------------------------------------------------------- #
# Sampler factories
# ---------------------------------------------------------------------- #

GENERIC_FALLBACK = {
    "space_constrained": lambda seed: SpaceConstrainedReservoir(
        lam=1e-2, capacity=50, rng=seed
    ),
    "variable": lambda seed: VariableReservoir(
        lam=1e-2, capacity=50, rng=seed
    ),
    "time_decay": lambda seed: TimeDecayReservoir(
        lam_time=0.02, capacity=50, rng=seed
    ),
    "window_buffer": lambda seed: WindowBuffer(50, rng=seed),
    "chain": lambda seed: ChainSampler(20, window=100, rng=seed),
    "general_bias": lambda seed: GeneralBiasSampler(
        ExponentialBias(1e-2), target_size=30, rng=seed
    ),
}

FAST_PATH = {
    "exponential": lambda seed: ExponentialReservoir(capacity=25, rng=seed),
    "unbiased": lambda seed: UnbiasedReservoir(25, rng=seed),
    "skip_unbiased": lambda seed: SkipUnbiasedReservoir(25, rng=seed),
    "timestamped": lambda seed: TimestampedExponentialReservoir(
        lam_time=0.04, capacity=25, rng=seed
    ),
}

ALL_SAMPLERS = {**GENERIC_FALLBACK, **FAST_PATH}


def _state(sampler):
    """Full observable state tuple for exactness comparisons."""
    return (
        sampler.t,
        sampler.offers,
        sampler.insertions,
        sampler.ejections,
        sampler.size,
        sampler.payloads(),
        sampler.arrival_indices().tolist(),
    )


def _run_per_item(factory, seed, stream):
    sampler = factory(seed)
    for item in stream:
        sampler.offer(item)
    return sampler


def _run_batched(factory, seed, stream, batch_size):
    sampler = factory(seed)
    for lo in range(0, len(stream), batch_size):
        sampler.offer_many(stream[lo : lo + batch_size])
    return sampler


# ---------------------------------------------------------------------- #
# Generic fallback: exact equivalence
# ---------------------------------------------------------------------- #


class TestGenericFallbackExactness:
    @pytest.mark.parametrize("name", sorted(GENERIC_FALLBACK))
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_state_identical_to_per_item(self, name, batch_size):
        factory = GENERIC_FALLBACK[name]
        stream = list(range(600))
        a = _run_per_item(factory, 99, stream)
        b = _run_batched(factory, 99, stream, batch_size)
        assert _state(a) == _state(b)

    @pytest.mark.parametrize("name", sorted(GENERIC_FALLBACK))
    def test_return_value_matches_offer_sum(self, name):
        factory = GENERIC_FALLBACK[name]
        stream = list(range(400))
        a = factory(7)
        stored_item = sum(bool(a.offer(x)) for x in stream)
        b = factory(7)
        stored_batch = b.offer_many(stream)
        assert stored_batch == stored_item


# ---------------------------------------------------------------------- #
# Universal contracts (every sampler)
# ---------------------------------------------------------------------- #


class TestOfferManyContract:
    @pytest.mark.parametrize("name", sorted(ALL_SAMPLERS))
    def test_empty_block_is_a_noop(self, name):
        sampler = ALL_SAMPLERS[name](3)
        sampler.offer_many(range(40))
        before = _state(sampler)
        assert sampler.offer_many([]) == 0
        assert sampler.offer_many(iter(())) == 0
        assert _state(sampler) == before

    @pytest.mark.parametrize("name", sorted(ALL_SAMPLERS))
    def test_counters_and_invariants(self, name):
        sampler = ALL_SAMPLERS[name](11)
        total = 0
        for size in (1, 5, 64, 300, 30):
            sampler.offer_many(range(total, total + size))
            total += size
        assert sampler.t == total
        assert sampler.offers == total
        assert sampler.size <= sampler.capacity
        assert sampler.insertions - sampler.ejections >= 0
        arrivals = sampler.arrival_indices()
        assert arrivals.size == sampler.size
        if arrivals.size:
            assert arrivals.min() >= 1
            assert arrivals.max() <= total

    @pytest.mark.parametrize("name", sorted(ALL_SAMPLERS))
    def test_accepts_any_iterable(self, name):
        exact = ALL_SAMPLERS[name](5)
        exact.offer_many(list(range(100)))
        lazy = ALL_SAMPLERS[name](5)
        lazy.offer_many(x for x in range(100))
        assert _state(exact) == _state(lazy)

    @pytest.mark.parametrize("name", sorted(ALL_SAMPLERS))
    def test_mixed_offer_and_offer_many(self, name):
        """Interleaving per-item and batched ingestion keeps counters and
        invariants whole (t is position-exact regardless of path)."""
        sampler = ALL_SAMPLERS[name](13)
        for x in range(10):
            sampler.offer(x)
        sampler.offer_many(range(10, 200))
        sampler.offer(200)
        sampler.offer_many(range(201, 230))
        assert sampler.t == 230
        assert sampler.offers == 230
        assert sampler.size <= sampler.capacity
        assert sampler.size == len(sampler.payloads())


# ---------------------------------------------------------------------- #
# Boundary batches: exact fill and the fill -> eject transition
# ---------------------------------------------------------------------- #

# Samplers that insert every pre-fill arrival deterministically, so a
# batch of exactly `capacity` items must fill the reservoir with the
# identity arrival layout. (ExponentialReservoir is *not* here: its
# F(t)-biased ejection can replace before the reservoir is full.)
DETERMINISTIC_FILL = ["unbiased", "skip_unbiased", "window_buffer"]


class TestBoundaryBatches:
    @pytest.mark.parametrize("name", DETERMINISTIC_FILL)
    def test_batch_exactly_fills_reservoir(self, name):
        sampler = ALL_SAMPLERS[name](31)
        n = sampler.capacity
        assert sampler.offer_many(range(n)) == n
        assert sampler.size == n
        assert sampler.is_full
        assert sampler.insertions == n
        assert sampler.ejections == 0
        assert sorted(sampler.arrival_indices().tolist()) == list(
            range(1, n + 1)
        )

    @pytest.mark.parametrize("name", sorted(ALL_SAMPLERS))
    def test_batch_exactly_at_capacity_never_overfills(self, name):
        sampler = ALL_SAMPLERS[name](31)
        sampler.offer_many(range(sampler.capacity))
        assert sampler.t == sampler.capacity
        assert sampler.size <= sampler.capacity

    @pytest.mark.parametrize("name", sorted(GENERIC_FALLBACK))
    def test_batch_spanning_fill_transition_matches_per_item(self, name):
        """One batch that starts below capacity and crosses into the
        eject regime must land in the exact per-item state (generic
        fallback shares the random sequence item for item)."""
        factory = GENERIC_FALLBACK[name]
        capacity = factory(0).capacity
        stream = list(range(3 * capacity))
        a = _run_per_item(factory, 41, stream)
        b = factory(41)
        b.offer_many(stream)  # single batch spans fill -> eject
        assert _state(a) == _state(b)

    @pytest.mark.parametrize("name", sorted(FAST_PATH))
    def test_batch_spanning_fill_transition_counters(self, name):
        """Fast paths pre-draw randomness in bulk, so the transition
        guarantee is on counters: stored items reconcile with
        insertions/ejections/size across the boundary."""
        sampler = ALL_SAMPLERS[name](43)
        capacity = sampler.capacity
        stored = sampler.offer_many(range(3 * capacity))
        assert sampler.t == 3 * capacity
        assert sampler.size <= capacity
        assert stored == sampler.insertions
        assert sampler.insertions - sampler.ejections == sampler.size
        arrivals = sampler.arrival_indices()
        assert arrivals.min() >= 1
        assert arrivals.max() <= 3 * capacity

    @pytest.mark.parametrize("name", sorted(FAST_PATH))
    def test_single_item_batches_advance_like_offers(self, name):
        """offer_many([x]) must advance every counter exactly as one
        offer(x) does, even on the vectorized paths."""
        sampler = ALL_SAMPLERS[name](47)
        for x in range(100):
            sampler.offer_many([x])
        assert sampler.t == 100
        assert sampler.offers == 100
        assert sampler.size <= sampler.capacity
        assert sampler.insertions - sampler.ejections == sampler.size


# ---------------------------------------------------------------------- #
# Fast paths: exact counters where deterministic
# ---------------------------------------------------------------------- #


class TestFastPathCounters:
    def test_exponential_counters_deterministic(self):
        """Algorithm 2.1 inserts every offer; ejections = insertions - size."""
        sampler = ExponentialReservoir(capacity=40, rng=3)
        stored = sampler.offer_many(range(1000))
        assert stored == 1000
        assert sampler.insertions == 1000
        assert sampler.ejections == 1000 - sampler.size
        assert sampler.is_full  # 1000 >> 40

    def test_unbiased_stored_count_matches_insertions(self):
        sampler = UnbiasedReservoir(30, rng=5)
        stored = 0
        for lo in range(0, 2000, 128):
            stored += sampler.offer_many(range(lo, lo + 128))
        assert stored == sampler.insertions
        assert sampler.insertions - sampler.ejections == sampler.size
        assert sampler.size == 30

    def test_timestamped_offer_many_at_counts(self):
        sampler = TimestampedExponentialReservoir(
            lam_time=0.1, capacity=20, rng=9
        )
        stamps = np.cumsum(np.full(500, 0.5))
        stored = sampler.offer_many_at(range(500), stamps)
        assert stored == 500
        assert sampler.t == 500
        assert sampler.now == pytest.approx(stamps[-1])
        assert sampler.insertions - sampler.ejections == sampler.size

    def test_timestamped_offer_many_at_validates(self):
        sampler = TimestampedExponentialReservoir(
            lam_time=0.1, capacity=20, rng=9
        )
        with pytest.raises(ValueError):
            sampler.offer_many_at([1, 2], [1.0])
        with pytest.raises(ValueError):
            sampler.offer_many_at([1, 2], [2.0, 1.0])
        sampler.offer_at("x", 5.0)
        with pytest.raises(ValueError):  # stamp in the past
            sampler.offer_many_at([1], [4.0])


# ---------------------------------------------------------------------- #
# Fast paths: statistical equivalence of inclusion frequencies
# ---------------------------------------------------------------------- #


def _bucketed_frequencies(factory, stream_length, trials, mode, buckets, seed0):
    """Per-bucket empirical inclusion frequency of arrival indices."""
    edges = np.linspace(0, stream_length, buckets + 1)
    counts = np.zeros(buckets)
    sizes = []
    stream = list(range(stream_length))
    for trial in range(trials):
        if mode == "item":
            sampler = _run_per_item(factory, seed0 + trial, stream)
        else:
            sampler = _run_batched(factory, seed0 + trial, stream, 97)
        arrivals = sampler.arrival_indices()
        hist, _ = np.histogram(arrivals, bins=edges)
        counts += hist
        sizes.append(sampler.size)
    return counts / trials, float(np.mean(sizes))


class TestFastPathDistribution:
    @pytest.mark.parametrize("name", sorted(FAST_PATH))
    def test_inclusion_frequencies_match_per_item(self, name):
        """Batched and per-item runs put the same expected mass in every
        arrival-index bucket (tolerance ~5 sigma of the trial noise)."""
        factory = FAST_PATH[name]
        stream_length, trials, buckets = 400, 200, 8
        item_freq, item_size = _bucketed_frequencies(
            factory, stream_length, trials, "item", buckets, seed0=10_000
        )
        batch_freq, batch_size = _bucketed_frequencies(
            factory, stream_length, trials, "batch", buckets, seed0=50_000
        )
        # Bucket counts are sums of <=50 indicator variables per trial;
        # bound each bucket's std by sqrt(mean/trials) (Poisson-like) and
        # allow 5 sigma plus a small absolute floor.
        sigma = np.sqrt(np.maximum(item_freq, 0.25) / trials)
        assert np.all(np.abs(item_freq - batch_freq) < 5.0 * sigma + 0.05), (
            f"{name}: item={item_freq}, batch={batch_freq}"
        )
        mean_size = max(item_size, 1.0)
        assert abs(item_size - batch_size) < 5.0 * np.sqrt(mean_size / trials) + 0.5

    def test_exponential_prefill_growth_matches(self):
        """Pre-fill (the F(t)-gated append regime) grows at the same rate
        on both paths: E[size] = n(1 - exp(-t/n))."""
        n, t, trials = 100, 120, 300
        expected = n * (1.0 - np.exp(-t / n))
        for mode, seed0 in (("item", 1000), ("batch", 2000)):
            sizes = []
            for trial in range(trials):
                factory = FAST_PATH["exponential"]
                sampler = ExponentialReservoir(capacity=n, rng=seed0 + trial)
                if mode == "item":
                    for x in range(t):
                        sampler.offer(x)
                else:
                    sampler.offer_many(range(t))
                sizes.append(sampler.size)
            # std of size is < sqrt(n)/2; 5 sigma over `trials` runs.
            assert abs(np.mean(sizes) - expected) < 5 * np.sqrt(n) / (
                2 * np.sqrt(trials)
            ), f"{mode}: mean={np.mean(sizes)}, expected={expected}"

    def test_exponential_recency_bias_survives_batching(self):
        """After a long batched run the resident ages are exponentially
        biased: observed mean age ~ n (for t >> n)."""
        n = 50
        ages = []
        for seed in range(60):
            sampler = ExponentialReservoir(capacity=n, rng=seed)
            sampler.offer_many(range(2000))
            ages.extend(sampler.ages().tolist())
        # Mean of Exp(1/n) truncated far from t: close to n.
        assert abs(np.mean(ages) - n) < 10


# ---------------------------------------------------------------------- #
# Column consumers over batches
# ---------------------------------------------------------------------- #


class TestBatchMutationLog:
    """Consumers of the resident columns see batch mutations."""

    @pytest.mark.parametrize("name", ["exponential", "unbiased", "timestamped"])
    def test_knn_classifier_tracks_batched_sampler(self, name):
        """The classifier sees the reservoir fed via offer_many between
        predictions (it reads the sampler's own resident columns)."""
        rng = np.random.default_rng(8)
        sampler = ALL_SAMPLERS[name](17)
        clf = ReservoirKnnClassifier(sampler, k=1)

        def points(lo, hi):
            return [
                StreamPoint(i + 1, rng.normal(size=3), label=i % 3)
                for i in range(lo, hi)
            ]

        clf.observe(points(0, 1)[0])
        sampler.offer_many(points(1, 300))  # out-of-band batch
        probe = StreamPoint(301, np.zeros(3), label=None)
        prediction = clf.predict(probe)
        assert prediction in {0, 1, 2}
        # It must agree with a freshly built classifier.
        fresh = ReservoirKnnClassifier(sampler, k=1)
        assert fresh.predict(probe) == prediction
