"""Tests for repro.markov.mmpp."""

from __future__ import annotations

import numpy as np
import pytest

from repro.markov.mmpp import MMPP, fit_mmpp2_to_moments


def simple_mmpp() -> MMPP:
    """2-state: rates (1, 5), symmetric switching at 0.5."""
    generator = np.array([[-0.5, 0.5], [0.5, -0.5]])
    return MMPP(generator, np.array([1.0, 5.0]))


def poisson_as_mmpp(rate: float = 3.0) -> MMPP:
    return MMPP(np.zeros((1, 1)), np.array([rate]))


class TestConstruction:
    def test_rejects_mismatched_rates(self):
        with pytest.raises(ValueError):
            MMPP(np.zeros((2, 2)), np.array([1.0]))

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            MMPP(np.zeros((1, 1)), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        generator = np.array([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(ValueError, match="finite"):
            MMPP(generator, np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_rejects_non_finite_generator(self, bad, sparse):
        import scipy.sparse as sp

        generator = np.array([[-0.5, 0.5], [bad, -0.5]])
        if sparse:
            generator = sp.csr_matrix(generator)
        with pytest.raises(ValueError, match="finite"):
            MMPP(generator, np.array([1.0, 5.0]))

    def test_d0_d1_sum_to_generator(self):
        mmpp = simple_mmpp()
        np.testing.assert_allclose(
            mmpp.d0() + mmpp.d1(), np.array([[-0.5, 0.5], [0.5, -0.5]])
        )


class TestMoments:
    def test_mean_rate_is_weighted_average(self):
        assert simple_mmpp().mean_rate() == pytest.approx(3.0)

    def test_rate_variance(self):
        # States equally likely, rates 1 and 5 => variance 4.
        assert simple_mmpp().rate_variance() == pytest.approx(4.0)

    def test_poisson_special_case(self):
        mmpp = poisson_as_mmpp(3.0)
        assert mmpp.mean_rate() == pytest.approx(3.0)
        assert mmpp.rate_variance() == pytest.approx(0.0)
        m1, m2 = mmpp.exact_interarrival_moments()
        assert m1 == pytest.approx(1.0 / 3.0)
        assert m2 == pytest.approx(2.0 / 9.0)
        assert mmpp.interarrival_scv() == pytest.approx(1.0)

    def test_palm_distribution_weights_by_rate(self):
        palm = simple_mmpp().palm_state_distribution()
        np.testing.assert_allclose(palm, [1.0 / 6.0, 5.0 / 6.0])

    def test_palm_requires_arrivals(self):
        silent = MMPP(np.array([[-1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
        with pytest.raises(ArithmeticError):
            silent.palm_state_distribution()

    def test_exact_mean_interarrival_is_inverse_rate(self):
        # For any stationary MMPP, E[T] under Palm = 1 / mean rate.
        mmpp = simple_mmpp()
        m1 = mmpp.exact_interarrival_moments(order=1)[0]
        assert m1 == pytest.approx(1.0 / mmpp.mean_rate())

    def test_scv_exceeds_one_for_bursty_input(self):
        assert simple_mmpp().interarrival_scv() > 1.0


class TestInterarrivalMixture:
    def test_weights_sum_to_one(self):
        weights, rates = simple_mmpp().interarrival_mixture()
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(rates > 0)

    def test_zero_rate_states_dropped(self):
        generator = np.array([[-0.5, 0.5], [0.5, -0.5]])
        mmpp = MMPP(generator, np.array([0.0, 4.0]))
        weights, rates = mmpp.interarrival_mixture()
        assert len(rates) == 1
        np.testing.assert_allclose(rates, [4.0])

    def test_density_integrates_to_one(self):
        from scipy.integrate import quad

        mmpp = simple_mmpp()
        total, _ = quad(lambda t: float(mmpp.interarrival_density(t)[0]), 0, 60)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_laplace_at_zero_is_one(self):
        assert simple_mmpp().interarrival_laplace(0.0) == pytest.approx(1.0)

    def test_laplace_decreasing(self):
        mmpp = simple_mmpp()
        values = [mmpp.interarrival_laplace(s) for s in (0.0, 1.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSecondOrder:
    def test_autocovariance_at_zero_is_variance(self):
        mmpp = simple_mmpp()
        cov = mmpp.rate_autocovariance(np.array([0.0]))[0]
        assert cov == pytest.approx(mmpp.rate_variance())

    def test_autocovariance_decays(self):
        mmpp = simple_mmpp()
        cov = mmpp.rate_autocovariance(np.array([0.0, 1.0, 5.0, 20.0]))
        assert cov[0] > cov[1] > cov[2] > abs(cov[3]) - 1e-9

    def test_idc_of_poisson_is_one(self):
        assert poisson_as_mmpp().index_of_dispersion(10.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_idc_above_one_for_modulated_input(self):
        assert simple_mmpp().index_of_dispersion(10.0) > 1.5

    def test_idc_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            simple_mmpp().index_of_dispersion(0.0)


class TestSuperposition:
    def test_rates_add(self):
        a, b = simple_mmpp(), poisson_as_mmpp(2.0)
        combined = a.superpose(b)
        assert combined.mean_rate() == pytest.approx(
            a.mean_rate() + b.mean_rate()
        )

    def test_state_count_multiplies(self):
        combined = simple_mmpp().superpose(simple_mmpp())
        assert combined.num_states == 4

    def test_variances_add_for_independent_components(self):
        a, b = simple_mmpp(), simple_mmpp()
        combined = a.superpose(b)
        assert combined.rate_variance() == pytest.approx(
            a.rate_variance() + b.rate_variance()
        )


class TestTwoStateFit:
    def test_reproduces_moments(self):
        fitted = fit_mmpp2_to_moments(3.0, 4.0, decay_rate=0.5)
        assert fitted.mean_rate() == pytest.approx(3.0)
        assert fitted.rate_variance() == pytest.approx(4.0)

    def test_reproduces_decay(self):
        fitted = fit_mmpp2_to_moments(3.0, 4.0, decay_rate=0.5)
        cov = fitted.rate_autocovariance(np.array([2.0]))[0]
        assert cov == pytest.approx(4.0 * np.exp(-0.5 * 2.0), rel=1e-6)

    def test_rejects_excess_variance(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_mmpp2_to_moments(1.0, 9.0, decay_rate=1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_mmpp2_to_moments(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fit_mmpp2_to_moments(1.0, 1.0, 0.0)
