"""Tests for query specifications."""

import numpy as np
import pytest

from repro.queries.spec import (
    LinearQuery,
    RatioQuery,
    average_query,
    class_count_query,
    class_distribution_query,
    count_query,
    range_count_query,
    range_selectivity_query,
    sum_query,
)
from repro.streams.point import StreamPoint


def pt(values, label=None, index=1):
    return StreamPoint(index, np.asarray(values, dtype=float), label)


class TestLinearQuery:
    def test_horizon_coefficient(self):
        q = count_query(horizon=10)
        assert q.coefficient(95, 100) == 1.0  # age 5 < 10
        assert q.coefficient(91, 100) == 1.0  # age 9 < 10
        assert q.coefficient(90, 100) == 0.0  # age 10 not < 10

    def test_whole_stream_coefficient(self):
        q = count_query()
        assert q.coefficient(1, 10_000) == 1.0

    def test_coefficients_vectorized_matches_scalar(self):
        q = count_query(horizon=50)
        r = np.arange(1, 101)
        vec = q.coefficients(r, 100)
        scal = [q.coefficient(int(x), 100) for x in r]
        np.testing.assert_array_equal(vec, scal)

    def test_coefficient_bad_r(self):
        with pytest.raises(ValueError):
            count_query().coefficient(0, 10)

    @pytest.mark.parametrize("horizon", [None, 5])
    @pytest.mark.parametrize("bad", [0, 12])
    def test_scalar_and_vector_reject_bad_r_alike(self, horizon, bad):
        """r < 1 and r > t raise the same ValueError in both forms."""
        q = count_query(horizon)
        message = rf"require 1 <= r <= t, got r={bad}, t=10"
        with pytest.raises(ValueError, match=message):
            q.coefficient(bad, 10)
        with pytest.raises(ValueError, match=message):
            q.coefficients([3, bad], 10)

    def test_with_horizon_copies(self):
        q = sum_query(None, [0, 1])
        q2 = q.with_horizon(100)
        assert q2.horizon == 100
        assert q2.dims == q.dims
        assert q.horizon is None

    def test_invalid_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            count_query(horizon=0)

    def test_invalid_output_dim(self):
        with pytest.raises(ValueError, match="output_dim"):
            LinearQuery("x", lambda p: np.ones(1), 0)


class TestBuilders:
    def test_count_value(self):
        assert count_query().value(pt([1.0, 2.0]))[0] == 1.0

    def test_sum_selects_dims(self):
        q = sum_query(None, [1, 2])
        np.testing.assert_array_equal(
            q.value(pt([5.0, 6.0, 7.0])), [6.0, 7.0]
        )
        assert q.output_dim == 2
        assert q.dims == (1, 2)

    def test_sum_empty_dims_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sum_query(None, [])

    def test_average_is_ratio(self):
        q = average_query(100, [0])
        assert isinstance(q, RatioQuery)
        assert q.horizon == 100

    def test_range_count_inside(self):
        q = range_count_query(None, [0, 1], [0.0, 0.0], [1.0, 1.0])
        assert q.value(pt([0.5, 0.5, 9.0]))[0] == 1.0

    def test_range_count_outside(self):
        q = range_count_query(None, [0, 1], [0.0, 0.0], [1.0, 1.0])
        assert q.value(pt([0.5, 1.5]))[0] == 0.0

    def test_range_count_boundary_inclusive(self):
        q = range_count_query(None, [0], [0.0], [1.0])
        assert q.value(pt([1.0]))[0] == 1.0
        assert q.value(pt([0.0]))[0] == 1.0

    def test_range_count_validation(self):
        with pytest.raises(ValueError, match="low/high"):
            range_count_query(None, [0, 1], [0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="low must be"):
            range_count_query(None, [0], [2.0], [1.0])

    def test_range_selectivity_is_ratio(self):
        q = range_selectivity_query(50, [0], [0.0], [1.0])
        assert isinstance(q, RatioQuery)
        assert q.numerator.name == "range_count"

    def test_class_count_onehot(self):
        q = class_count_query(None, 4)
        np.testing.assert_array_equal(
            q.value(pt([0.0], label=2)), [0, 0, 1, 0]
        )

    def test_class_count_unlabeled_zero(self):
        q = class_count_query(None, 3)
        np.testing.assert_array_equal(q.value(pt([0.0])), [0, 0, 0])

    def test_class_count_out_of_range_label_zero(self):
        q = class_count_query(None, 2)
        np.testing.assert_array_equal(q.value(pt([0.0], label=7)), [0, 0])

    def test_class_count_validation(self):
        with pytest.raises(ValueError, match="n_classes"):
            class_count_query(None, 0)

    def test_class_distribution_is_ratio(self):
        q = class_distribution_query(10, 3)
        assert q.numerator.output_dim == 3
        assert q.denominator.name == "count"


class TestRatioQuery:
    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share a horizon"):
            RatioQuery("bad", count_query(10), count_query(20))

    def test_with_horizon(self):
        q = class_distribution_query(10, 3).with_horizon(99)
        assert q.horizon == 99
        assert q.numerator.horizon == 99
        assert q.denominator.horizon == 99
