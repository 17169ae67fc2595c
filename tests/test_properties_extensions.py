"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_exponential_reservoirs
from repro.core.space_constrained import SpaceConstrainedReservoir
from repro.core.timestamped import TimestampedExponentialReservoir
from repro.core.unbiased import UnbiasedReservoir
from repro.queries.estimator import QueryEstimator
from repro.queries.groupby import GroupByEstimator
from repro.queries.histogram import estimate_histogram, estimate_quantiles
from repro.queries.spec import count_query, sum_query
from repro.streams.point import StreamPoint


def labeled_points(seed, n, n_groups, dims=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, dims))
    labels = rng.integers(0, n_groups, size=n)
    return [
        StreamPoint(i + 1, values[i], int(labels[i])) for i in range(n)
    ]


class TestGroupByConsistency:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=10, max_value=300),
        n_groups=st.integers(min_value=1, max_value=5),
        capacity=st.integers(min_value=5, max_value=60),
        horizon=st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_counts_sum_to_global_estimate(
        self, seed, n, n_groups, capacity, horizon
    ):
        """Partition invariant: per-group HT counts must sum *exactly* to
        the global HT count (they partition the same weighted residents)."""
        res = UnbiasedReservoir(capacity, rng=seed)
        for p in labeled_points(seed, n, n_groups):
            res.offer(p)
        query = count_query(horizon)
        global_est = QueryEstimator(res).estimate(query).estimate[0]
        groups = GroupByEstimator(res).estimate(query)
        group_total = sum(float(g.estimate[0]) for g in groups.values())
        assert group_total == pytest.approx(global_est, rel=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=20, max_value=200),
        n_groups=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_group_sums_partition_global_sum(self, seed, n, n_groups):
        res = UnbiasedReservoir(40, rng=seed)
        for p in labeled_points(seed, n, n_groups):
            res.offer(p)
        query = sum_query(None, [0, 1])
        global_est = QueryEstimator(res).estimate(query).estimate
        groups = GroupByEstimator(res).estimate(query)
        total = np.zeros(2)
        for g in groups.values():
            total += g.estimate
        np.testing.assert_allclose(total, global_est, rtol=1e-9)

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=10, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_shares_partition_unity(self, seed, n):
        res = UnbiasedReservoir(30, rng=seed)
        for p in labeled_points(seed, n, 3):
            res.offer(p)
        groups = GroupByEstimator(res).estimate(count_query())
        if groups:
            assert sum(
                g.weight_share for g in groups.values()
            ) == pytest.approx(1.0)


class TestMergeProperties:
    @given(
        seed=st.integers(min_value=0, max_value=30),
        n_points=st.integers(min_value=0, max_value=2000),
        cap_a=st.integers(min_value=10, max_value=100),
        cap_b=st.integers(min_value=10, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_invariants(self, seed, n_points, cap_a, cap_b):
        lam = 1e-3
        a = SpaceConstrainedReservoir(lam=lam, capacity=cap_a, rng=seed)
        b = SpaceConstrainedReservoir(lam=lam, capacity=cap_b, rng=seed + 1)
        a.extend(range(n_points))
        b.extend(range(n_points))
        merged = merge_exponential_reservoirs(a, b, rng=seed + 2)
        assert merged.capacity == min(cap_a, cap_b)
        assert merged.size <= merged.capacity
        assert merged.t == max(a.t, b.t)
        arrivals = merged.arrival_indices()
        if arrivals.size:
            assert arrivals.min() >= 1
            assert arrivals.max() <= merged.t
        assert merged.lam == pytest.approx(lam)


class TestTimestampedProperties:
    @given(
        seed=st.integers(min_value=0, max_value=30),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=0,
            max_size=200,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_invariants_under_arbitrary_gaps(self, seed, gaps):
        res = TimestampedExponentialReservoir(0.05, 20, rng=seed)
        now = 0.0
        for i, gap in enumerate(gaps):
            now += gap
            res.offer_at(i, now)
        assert res.size <= 20
        assert res.size == len(res.timestamps())
        assert (res.time_ages() >= -1e-9).all()
        assert res.now == pytest.approx(now if gaps else 0.0)


class TestHistogramProperties:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=0, max_value=500),
        bins=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_densities_are_distribution(self, seed, n, bins):
        rng = np.random.default_rng(seed)
        res = UnbiasedReservoir(50, rng=seed)
        for i in range(n):
            res.offer(StreamPoint(i + 1, rng.normal(size=1)))
        edges = np.linspace(-3, 3, bins + 1)
        est = estimate_histogram(res, 0, edges)
        assert np.all(est.densities >= 0.0)
        total = est.densities.sum()
        assert total == pytest.approx(1.0) or (total == 0.0 and n == 0)

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=5, max_value=300),
    )
    @settings(max_examples=30, deadline=None)
    def test_quantiles_monotone_and_within_range(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, 1))
        res = UnbiasedReservoir(40, rng=seed)
        for i in range(n):
            res.offer(StreamPoint(i + 1, values[i]))
        qs = np.linspace(0, 1, 11)
        est = estimate_quantiles(res, 0, qs)
        assert np.all(np.diff(est) >= -1e-12)
        assert est.min() >= values.min() - 1e-9
        assert est.max() <= values.max() + 1e-9


class TestKnnMirrorProperty:
    @given(
        seed=st.integers(min_value=0, max_value=60),
        n_points=st.integers(min_value=1, max_value=400),
        capacity=st.integers(min_value=1, max_value=30),
        sampler_kind=st.sampled_from(["unbiased", "biased", "variable"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_mirror_matches_reservoir_after_any_sequence(
        self, seed, n_points, capacity, sampler_kind
    ):
        """After any prequential sequence, the columns the classifier reads
        equal a fresh rebuild of the reservoir, and its predictions equal
        brute-force 1-NN over the resident payloads."""
        from repro.core.biased import ExponentialReservoir
        from repro.core.columns import build_resident_columns
        from repro.core.variable import VariableReservoir
        from repro.mining.knn import ReservoirKnnClassifier

        if sampler_kind == "unbiased":
            sampler = UnbiasedReservoir(capacity, rng=seed)
        elif sampler_kind == "biased":
            sampler = ExponentialReservoir(capacity=capacity, rng=seed)
        else:
            sampler = VariableReservoir(
                lam=1.0 / (capacity * 5), capacity=capacity, rng=seed
            )
        clf = ReservoirKnnClassifier(sampler)
        rng = np.random.default_rng(seed + 1000)
        for i in range(n_points):
            clf.predict_then_observe(
                StreamPoint(i + 1, rng.normal(size=2), int(i % 3))
            )
        payloads = sampler.payloads()
        columns = sampler.resident_columns()
        expected = build_resident_columns(
            payloads, sampler.arrival_indices()
        )
        np.testing.assert_array_equal(columns.values, expected.values)
        np.testing.assert_array_equal(columns.labels, expected.labels)
        np.testing.assert_array_equal(columns.arrivals, expected.arrivals)
        for probe in rng.normal(size=(5, 2)):
            dists = [float(np.sum((p.values - probe) ** 2)) for p in payloads]
            nearest = payloads[int(np.argmin(dists))]
            assert clf.predict(StreamPoint(1, probe)) == nearest.label
