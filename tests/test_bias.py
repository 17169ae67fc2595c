"""Tests for repro.core.bias: bias functions and Theorem 2.1 machinery."""

import math

import numpy as np
import pytest

from repro.core.bias import (
    BiasFunction,
    ExponentialBias,
    PolynomialBias,
    UnbiasedBias,
)


class TestExponentialBias:
    def test_newest_point_weight_is_one(self):
        bias = ExponentialBias(1e-3)
        assert bias.weight(100, 100) == 1.0

    def test_decay_per_step(self):
        bias = ExponentialBias(0.1)
        assert bias.weight(99, 100) == pytest.approx(math.exp(-0.1))

    def test_callable_form(self):
        bias = ExponentialBias(0.1)
        assert bias(99, 100) == bias.weight(99, 100)

    def test_e_fold_at_inverse_lambda(self):
        lam = 1e-2
        bias = ExponentialBias(lam)
        assert bias.weight(1, 1 + round(1 / lam)) == pytest.approx(1 / math.e)

    def test_vectorized_matches_scalar(self):
        bias = ExponentialBias(5e-3)
        r = np.array([1, 10, 50, 100])
        vec = bias.weights(r, 100)
        scal = [bias.weight(int(x), 100) for x in r]
        np.testing.assert_allclose(vec, scal)

    def test_r_greater_than_t_raises(self):
        with pytest.raises(ValueError, match="r <= t"):
            ExponentialBias(0.1).weight(5, 4)
        with pytest.raises(ValueError, match="r <= t"):
            ExponentialBias(0.1).weights([3, 12], 10)

    def test_negative_lambda_raises(self):
        with pytest.raises(ValueError, match="lambda"):
            ExponentialBias(-1e-4)

    def test_monotonicity_validates(self):
        assert ExponentialBias(1e-2).validate_monotonicity(200)

    # --- Lemma 2.1 / Corollary 2.1 / Approximation 2.1 ------------------

    def test_requirement_closed_form_matches_generic_sum(self):
        bias = ExponentialBias(0.05)
        t = 150
        generic = sum(bias.weight(i, t) for i in range(1, t + 1))
        assert bias.max_reservoir_requirement(t) == pytest.approx(generic)

    def test_requirement_bounded_by_corollary(self):
        bias = ExponentialBias(1e-3)
        bound = bias.reservoir_capacity_bound()
        for t in (10, 1_000, 100_000, 10_000_000):
            assert bias.max_reservoir_requirement(t) <= bound + 1e-9

    def test_requirement_converges_to_bound(self):
        bias = ExponentialBias(1e-3)
        # For t >> 1/lambda the requirement is essentially the bound.
        assert bias.max_reservoir_requirement(100_000) == pytest.approx(
            bias.reservoir_capacity_bound(), rel=1e-6
        )

    def test_approximation_close_for_small_lambda(self):
        bias = ExponentialBias(1e-5)
        assert bias.approximate_capacity() == pytest.approx(
            bias.reservoir_capacity_bound(), rel=1e-4
        )

    def test_natural_reservoir_size(self):
        assert ExponentialBias(1e-3).natural_reservoir_size() == 1000
        assert ExponentialBias(0.3).natural_reservoir_size() == 4  # ceil(3.33)

    def test_half_life(self):
        bias = ExponentialBias(0.01)
        h = bias.half_life()
        assert bias.weight(1, 1 + round(h)) == pytest.approx(0.5, rel=1e-2)

    def test_incremental_weight_sum_matches_direct(self):
        bias = ExponentialBias(0.02)
        s = 0.0
        for t in range(1, 200):
            s = bias.incremental_weight_sum(s, t)
        direct = sum(bias.weight(i, 199) for i in range(1, 200))
        assert s == pytest.approx(direct)

    def test_requirement_invalid_t(self):
        with pytest.raises(ValueError, match="t must be >= 1"):
            ExponentialBias(0.1).max_reservoir_requirement(0)


class TestUnbiasedBias:
    def test_all_weights_one(self):
        bias = UnbiasedBias()
        assert bias.weight(1, 1000) == 1.0
        assert bias.weight(1000, 1000) == 1.0

    def test_requirement_is_stream_length(self):
        assert UnbiasedBias().max_reservoir_requirement(500) == 500.0

    def test_capacity_bound_infinite(self):
        assert UnbiasedBias().reservoir_capacity_bound() == math.inf
        assert UnbiasedBias().approximate_capacity() == math.inf

    def test_half_life_infinite(self):
        assert UnbiasedBias().half_life() == math.inf

    def test_no_natural_reservoir_size(self):
        with pytest.raises(ValueError, match="no finite"):
            UnbiasedBias().natural_reservoir_size()


class TestPolynomialBias:
    def test_newest_point_weight_is_one(self):
        assert PolynomialBias(1.5).weight(50, 50) == 1.0

    def test_decay_shape(self):
        bias = PolynomialBias(2.0)
        assert bias.weight(1, 10) == pytest.approx(1.0 / 100)

    def test_vectorized_matches_scalar(self):
        bias = PolynomialBias(0.7)
        r = np.arange(1, 30)
        np.testing.assert_allclose(
            bias.weights(r, 30),
            [bias.weight(int(x), 30) for x in r],
        )

    def test_requirement_matches_direct_sum(self):
        bias = PolynomialBias(1.2)
        t = 200
        direct = sum(bias.weight(i, t) for i in range(1, t + 1))
        assert bias.max_reservoir_requirement(t) == pytest.approx(direct)

    def test_requirement_converges_for_alpha_gt_1(self):
        bias = PolynomialBias(2.0)
        # zeta(2) = pi^2/6
        assert bias.max_reservoir_requirement(100_000) == pytest.approx(
            math.pi**2 / 6, rel=1e-4
        )

    def test_requirement_diverges_for_alpha_le_1(self):
        bias = PolynomialBias(0.5)
        assert bias.max_reservoir_requirement(
            10_000
        ) > bias.max_reservoir_requirement(1_000)

    def test_monotonicity_validates(self):
        assert PolynomialBias(1.0).validate_monotonicity(100)

    def test_incremental_weight_sum_matches_direct(self):
        bias = PolynomialBias(1.3)
        s = 0.0
        for t in range(1, 120):
            s = bias.incremental_weight_sum(s, t)
        direct = sum(bias.weight(i, 119) for i in range(1, 120))
        assert s == pytest.approx(direct)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            PolynomialBias(alpha)

    def test_r_greater_than_t_raises(self):
        with pytest.raises(ValueError, match="r <= t"):
            PolynomialBias(1.0).weight(10, 9)
        with pytest.raises(ValueError, match="r <= t"):
            PolynomialBias(1.0).weights([3, 12], 10)


class TestGenericBiasMachinery:
    def test_generic_requirement_uses_loop_fallback(self):
        """A custom subclass without closed forms still gets Theorem 2.1."""

        class LinearDecay(BiasFunction):
            def weight(self, r, t):
                return (r / t) if t else 1.0

        bias = LinearDecay()
        # sum_{i<=t} (i/t) / (t/t) = (t+1)/2
        assert bias.max_reservoir_requirement(99) == pytest.approx(50.0)

    def test_generic_incremental_sum_not_implemented(self):
        class Opaque(BiasFunction):
            def weight(self, r, t):
                return 1.0

        with pytest.raises(NotImplementedError):
            Opaque().incremental_weight_sum(0.0, 1)
