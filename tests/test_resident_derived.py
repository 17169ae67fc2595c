"""Arrays derived once per storage epoch on the resident view.

Two readers memoize on :class:`~repro.core.columns.ResidentColumns`: the
query engine's Horvitz–Thompson horizon designs
(:func:`~repro.queries.estimator.horizon_design`) and the k-NN search's
labeled rows and squared norms (:mod:`repro.mining.knn`). These tests pin
that the memo changes no answer — every estimate equals the per-point
reference path bit for bit across every kind of storage change, and the
Gram-bounded search equals a brute-force ranking on adversarial data —
and that the memo lives exactly one storage epoch.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    ChainSampler,
    ExponentialReservoir,
    SpaceConstrainedReservoir,
    UnbiasedReservoir,
    VariableReservoir,
)
from repro.core.reservoir import from_state_dict
from repro.mining import knn
from repro.mining.knn import ReservoirKnnClassifier
from repro.queries import (
    GroupByEstimator,
    QueryEstimator,
    estimate_histogram,
    estimate_quantiles,
)
from repro.queries import estimator as estimator_module
from repro.queries.estimator import horizon_design
from repro.queries.spec import (
    average_query,
    class_count_query,
    class_distribution_query,
    count_query,
    range_selectivity_query,
    sum_query,
)
from repro.shard import ShardedReservoir
from repro.streams.point import StreamPoint
from tests.test_determinism import FACTORIES

DIMS = 3
N_CLASSES = 3
HORIZONS = (None, 15, 60)
QUERIES = [
    build(h)
    for h in HORIZONS
    for build in (
        count_query,
        lambda h: sum_query(h, range(DIMS)),
        lambda h: class_count_query(h, N_CLASSES),
        lambda h: average_query(h, range(DIMS)),
        lambda h: range_selectivity_query(h, (0, 1), (-0.5, -0.5), (0.5, 0.5)),
        lambda h: class_distribution_query(h, N_CLASSES),
    )
]
EDGES = np.linspace(-2.0, 2.0, 7)


def _points(n, seed, start=1):
    """Labeled points with ~10% unlabeled (label ``None``)."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, DIMS))
    labels = rng.integers(0, N_CLASSES, size=n)
    unlabeled = rng.random(n) < 0.1
    return [
        StreamPoint(start + i, values[i], None if unlabeled[i] else int(labels[i]))
        for i in range(n)
    ]


def _outcome(call):
    """A call's result, or the type of the exception it raised."""
    try:
        return call()
    except (ValueError, NotImplementedError) as exc:
        return type(exc)


def _same_estimate(got, want):
    if isinstance(want, type):
        return got is want
    if isinstance(got, type):
        return False
    return (
        got.sample_support == want.sample_support
        and got.estimate.tobytes() == want.estimate.tobytes()
        and (
            got.variance is None
            if want.variance is None
            else got.variance.tobytes() == want.variance.tobytes()
        )
    )


def _check_estimates(sampler):
    """Every query at ``t`` and at a later ``t``: columnar (twice, and via
    a fresh estimator) equals the per-point reference bit for bit."""
    columnar = QueryEstimator(sampler)
    reference = QueryEstimator(sampler, columnar=False)
    for t in (sampler.t, sampler.t + 7):
        for query in QUERIES:
            want = _outcome(lambda: reference.estimate(query, t))
            for est in (columnar, columnar, QueryEstimator(sampler)):
                got = _outcome(lambda: est.estimate(query, t))
                assert _same_estimate(got, want), (query.name, t)


def _check_groupby(sampler):
    query = average_query(60, range(DIMS))
    by_label = _outcome(lambda: GroupByEstimator(sampler).estimate(query))
    generic = _outcome(
        lambda: GroupByEstimator(sampler, key=lambda p: p.label).estimate(query)
    )
    if isinstance(generic, type):
        assert by_label is generic
        return
    assert set(by_label) == set(generic)
    for key, group in by_label.items():
        # The generic path accumulates point by point, so only the
        # summation order differs.
        np.testing.assert_allclose(
            group.estimate, generic[key].estimate, rtol=1e-12, atol=1e-12
        )
        assert group.support == generic[key].support
        assert group.weight_share == pytest.approx(
            generic[key].weight_share, rel=1e-12
        )


def _reference_weighted_values(sampler, dim, horizon):
    """Per-point form of the histogram estimators' (value, weight) input."""
    t = sampler.t
    arrivals = sampler.arrival_indices()
    keep = (
        np.ones(arrivals.size, dtype=bool)
        if horizon is None
        else (t - arrivals) < horizon
    )
    values = np.array(
        [p.values[dim] for p, k in zip(sampler.payloads(), keep) if k]
    )
    if values.size == 0:
        return values, values
    return values, 1.0 / sampler.inclusion_probabilities(arrivals[keep], t)


def _check_histograms(sampler):
    for horizon in HORIZONS:
        want = _outcome(lambda: _reference_weighted_values(sampler, 1, horizon))
        got = _outcome(lambda: estimate_histogram(sampler, 1, EDGES, horizon))
        if isinstance(want, type):
            assert got is want
            continue
        values, weights = want
        assert got.support == values.size
        if values.size:
            masses, __ = np.histogram(
                np.clip(values, EDGES[0], EDGES[-1]), bins=EDGES, weights=weights
            )
            assert got.densities.tobytes() == (masses / masses.sum()).tobytes()
            order = np.argsort(values)
            cdf = np.cumsum(weights[order])
            quantiles = np.interp([0.1, 0.5, 0.9], cdf / cdf[-1], values[order])
            assert (
                estimate_quantiles(sampler, 1, [0.1, 0.5, 0.9], horizon).tobytes()
                == quantiles.tobytes()
            )


def _check_all(sampler):
    _check_estimates(sampler)
    _check_groupby(sampler)
    _check_histograms(sampler)


SHARDED = {
    "sharded_w1": lambda seed: ShardedReservoir(capacity=40, workers=1, rng=seed),
    "sharded_w2": lambda seed: ShardedReservoir(capacity=40, workers=2, rng=seed),
}


class TestDesignMatchesReference:
    # Windowed families give p(r, t) = 0 past the window at the later t;
    # both paths then divide by zero alike.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family", sorted(FACTORIES) + sorted(SHARDED))
    def test_interleaved_storage_changes(self, family):
        sharded = family in SHARDED
        sampler = (SHARDED if sharded else FACTORIES)[family](3)
        points = _points(480, seed=11)
        for lo in range(0, len(points), 80):
            for point in points[lo : lo + 40]:
                sampler.offer(point)
                if point.index % 13 == 0:
                    _check_estimates(sampler)
            _check_all(sampler)
            sampler.offer_many(points[lo + 40 : lo + 80])
            _check_all(sampler)
            if not sharded:
                sampler._eject_random(3)
                _check_all(sampler)
            state = sampler.state_dict()
            sampler = (
                ShardedReservoir.from_state_dict(state)
                if sharded
                else from_state_dict(state)
            )
            _check_all(sampler)


class TestMemoLifetime:
    def _filled(self, n=200):
        sampler = ExponentialReservoir(capacity=30, rng=2)
        sampler.offer_many(_points(n, seed=4))
        return sampler

    def test_one_design_per_horizon_and_position(self):
        """Fresh estimators, both parts of a ratio query, the group-by and
        the histogram estimators all share one design per horizon."""
        sampler = self._filled()
        calls = []
        model = sampler.inclusion_probabilities

        def counting(r, t=None):
            calls.append(t)
            return model(r, t)

        sampler.inclusion_probabilities = counting
        for query in (average_query(50, range(DIMS)), count_query(50)):
            QueryEstimator(sampler).estimate(query)
        GroupByEstimator(sampler).estimate(average_query(50, range(DIMS)))
        estimate_histogram(sampler, 0, EDGES, horizon=50)
        assert len(calls) == 1
        columns = sampler.resident_columns()
        design = horizon_design(sampler, columns, sampler.t, 50)
        assert design is horizon_design(sampler, columns, sampler.t, 50)
        assert not design.probs.flags.writeable
        QueryEstimator(sampler).estimate(count_query(50), t=sampler.t + 1)
        assert len(calls) == 2

    def test_storage_change_gives_fresh_memo(self):
        sampler = self._filled()
        old = sampler.resident_columns()
        horizon_design(sampler, old, sampler.t, 40)
        old_ref = weakref.ref(old)
        sampler.offer(_points(1, seed=5, start=1000)[0])  # always stored
        new = sampler.resident_columns()
        assert new is not old
        built = []
        new.derived("probe", lambda: built.append(1))
        assert built == [1]
        del old
        gc.collect()
        assert old_ref() is None

    def test_offer_without_storage_change_refreshes_design(self):
        """A rejected arrival keeps the view but moves ``t``: the design is
        rebuilt, and only the newest position's designs are kept."""
        sampler = SpaceConstrainedReservoir(lam=1e-3, capacity=20, rng=6)
        points = _points(600, seed=7)
        sampler.offer_many(points[:500])
        columns = sampler.resident_columns()
        before = horizon_design(sampler, columns, sampler.t, 200)
        for point in points[500:]:
            if not sampler.offer(point):
                break
            columns = sampler.resident_columns()
            before = horizon_design(sampler, columns, sampler.t, 200)
        assert sampler.resident_columns() is columns
        after = horizon_design(sampler, columns, sampler.t, 200)
        assert after is not before
        designs = columns.derived(estimator_module._DESIGNS, dict)
        assert {key[:2] for key in designs} == {(sampler.t, sampler.t)}


# ---------------------------------------------------------------------- #
# Gram-bounded k-NN
# ---------------------------------------------------------------------- #


def brute_force_label(columns, x, k):
    """Reference k-NN: rank every labeled resident by the reference
    distance expression, ties by storage position, then vote."""
    labels = columns.labels
    labeled = [i for i in range(columns.size) if labels[i] != -1]
    if not labeled:
        return None
    diffs = columns.values - x
    dists = np.einsum("ij,ij->i", diffs, diffs)
    nearest = sorted(labeled, key=lambda i: (dists[i], i))[:k]
    votes = Counter(int(labels[i]) for i in nearest)
    best = max(votes.values())
    return next(int(labels[i]) for i in nearest if votes[int(labels[i])] == best)


def argmin_label(columns, x):
    """The original 1-NN: ``argmin`` over masked reference distances."""
    labeled = columns.labels != -1
    if not labeled.any():
        return None
    diffs = columns.values - x
    dists = np.where(labeled, np.einsum("ij,ij->i", diffs, diffs), np.inf)
    return int(columns.labels[np.argmin(dists)])


def adversarial_stream(rng, n, d):
    """Large offsets, tiny spreads, integer-grid ties, 10% unlabeled."""
    offset = 10.0 ** rng.uniform(0, 9) * rng.choice([-1.0, 1.0], size=d)
    scale = 10.0 ** rng.uniform(-6, 2)
    if rng.random() < 0.4:
        noise = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        noise = rng.normal(size=(n, d))
    values = offset + scale * noise
    labels = rng.integers(0, 4, size=n)
    unlabeled = rng.random(n) < 0.1
    points = [
        StreamPoint(i + 1, values[i], None if unlabeled[i] else int(labels[i]))
        for i in range(n)
    ]
    return points, offset, scale


def probes(rng, points, offset, scale, d):
    """Query points: residents' exact copies, near misses, grid points,
    far points."""
    out = []
    for __ in range(4):
        base = points[rng.integers(len(points))].values
        out.append(base.copy())
        out.append(base + scale * 1e-3 * rng.normal(size=d))
        out.append(offset + scale * rng.integers(0, 3, size=d))
        out.append(offset + scale * 50 * rng.normal(size=d))
    return out


KNN_SAMPLERS = {
    "exponential": lambda seed: ExponentialReservoir(capacity=40, rng=seed),
    "space_constrained": lambda seed: SpaceConstrainedReservoir(
        lam=5e-3, capacity=40, rng=seed
    ),
    "unbiased": lambda seed: UnbiasedReservoir(40, rng=seed),
    "variable": lambda seed: VariableReservoir(lam=5e-3, capacity=40, rng=seed),
    "chain": lambda seed: ChainSampler(15, window=60, rng=seed),
    "sharded": lambda seed: ShardedReservoir(capacity=40, workers=2, rng=seed),
}


class TestGramBoundedKnn:
    @pytest.mark.parametrize("family", sorted(KNN_SAMPLERS))
    def test_matches_brute_force_on_adversarial_data(self, family):
        rng = np.random.default_rng(sorted(KNN_SAMPLERS).index(family))
        for trial in range(12):
            d = int(rng.integers(1, 40))
            points, offset, scale = adversarial_stream(rng, 160, d)
            sampler = KNN_SAMPLERS[family](trial)
            classifiers = {k: ReservoirKnnClassifier(sampler, k) for k in (1, 3, 7)}
            for i, point in enumerate(points):
                sampler.offer(point)
                if i % 40 != 39:
                    continue
                columns = sampler.resident_columns()
                for x in probes(rng, points, offset, scale, d):
                    probe = StreamPoint(10_000, x)
                    got = classifiers[1].predict(probe)
                    assert got == argmin_label(columns, x)
                    for k, clf in classifiers.items():
                        assert clf.predict(probe) == brute_force_label(
                            columns, x, k
                        ), (family, trial, d, k)

    @pytest.mark.parametrize("k", [1, 3, 7, 60])
    def test_neighbor_order_on_duplicates(self, k):
        """Many exact duplicates and equal distances: neighbors rank by
        (distance, storage position), then the closest-first vote."""
        rng = np.random.default_rng(k)
        sampler = UnbiasedReservoir(50, rng=k)
        clf = ReservoirKnnClassifier(sampler, k)
        grid = rng.integers(0, 3, size=(300, 2)).astype(float)
        labels = rng.integers(0, 3, size=300)
        for i in range(300):
            sampler.offer(StreamPoint(i + 1, grid[i], int(labels[i])))
            if i % 25 != 24:
                continue
            residents = [(p.values.tolist(), p.label) for p in sampler.payloads()]
            for x in rng.integers(-1, 4, size=(12, 2)).astype(float):
                # Pure-Python reference: integer grids make the squared
                # distances exact, so no floating-point order is assumed.
                ranked = sorted(
                    range(len(residents)),
                    key=lambda j: (
                        sum((a - b) ** 2 for a, b in zip(residents[j][0], x)),
                        j,
                    ),
                )[:k]
                votes = Counter(residents[j][1] for j in ranked)
                best = max(votes.values())
                want = next(
                    residents[j][1] for j in ranked if votes[residents[j][1]] == best
                )
                assert clf.predict(StreamPoint(999, x)) == want

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_point_raises(self, width):
        clf = ReservoirKnnClassifier(UnbiasedReservoir(10, rng=0))
        assert clf.predict(StreamPoint(1, np.zeros(width))) is None  # empty
        for i in range(5):
            clf.observe(StreamPoint(i + 1, np.array([i, 0.0]), label=i % 2))
        with pytest.raises(ValueError, match=rf"\({width},\).*2 features"):
            clf.predict(StreamPoint(9, np.zeros(width)))

    def test_norms_memoized_per_epoch(self):
        sampler = ExponentialReservoir(capacity=20, rng=1)
        clf = ReservoirKnnClassifier(sampler)
        points = _points(60, seed=9)
        sampler.offer_many(points[:50])
        columns = sampler.resident_columns()
        clf.predict(points[50])
        built = []
        columns.derived(knn._LABELED_NORMS, lambda: built.append(1))
        assert built == []  # reused, not rebuilt
        sampler.offer(points[51])
        fresh = sampler.resident_columns()
        assert fresh is not columns
        clf.predict(points[52])
        fresh.derived(knn._LABELED_NORMS, lambda: built.append(1))
        assert built == []
