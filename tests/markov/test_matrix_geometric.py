"""Tests for repro.markov.matrix_geometric."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.markov.matrix_geometric import solve_mmpp_m1
from repro.markov.mmpp import MMPP
from repro.queueing.mm1 import solve_mm1
from repro.runtime.resilience import DegradationError


def poisson_mmpp(rate: float) -> MMPP:
    return MMPP(np.zeros((1, 1)), np.array([rate]))


def bursty_mmpp() -> MMPP:
    generator = np.array([[-0.2, 0.2], [0.3, -0.3]])
    return MMPP(generator, np.array([0.5, 4.0]))


def silent_phase_mmpp() -> MMPP:
    """Three phases, one of them silent (a zero row in ``A0``)."""
    generator = np.array([[-1.0, 0.6, 0.4], [0.2, -0.5, 0.3], [0.1, 0.4, -0.5]])
    return MMPP(generator, np.array([0.0, 2.0, 6.0]))


def hap_chain_mmpp() -> MMPP:
    """A 91-phase sparse HAP chain, the shape Solution 0 hands the solver."""
    from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
    from repro.core.params import HAPParameters

    params = HAPParameters.symmetric(
        user_arrival_rate=0.05,
        user_departure_rate=0.05,
        app_arrival_rate=0.05,
        app_departure_rate=0.05,
        message_arrival_rate=0.4,
        message_service_rate=3.0,
        num_app_types=2,
        num_message_types=1,
    )
    return symmetric_hap_to_mmpp(params, x_max=6, y_max=12).mmpp


#: ``(MMPP factory, mu)`` inputs the solver cross-checks run on.
CASES = [
    pytest.param(bursty_mmpp, 5.0, id="bursty"),
    pytest.param(silent_phase_mmpp, 6.0, id="silent-phase"),
    pytest.param(hap_chain_mmpp, 3.0, id="hap-chain"),
]


class TestAgainstMM1:
    """With one phase, MMPP/M/1 must equal M/M/1 exactly."""

    @pytest.mark.parametrize("lam,mu", [(2.0, 5.0), (0.5, 1.0), (8.25, 20.0)])
    def test_mean_delay(self, lam, mu):
        solution = solve_mmpp_m1(poisson_mmpp(lam), mu)
        assert solution.mean_delay() == pytest.approx(
            solve_mm1(lam, mu).mean_delay, rel=1e-8
        )

    def test_queue_length_distribution_geometric(self):
        lam, mu = 2.0, 5.0
        solution = solve_mmpp_m1(poisson_mmpp(lam), mu)
        pmf = solution.level_distribution(10)
        expected = solve_mm1(lam, mu).queue_length_pmf(10)
        np.testing.assert_allclose(pmf, expected, atol=1e-10)

    def test_probability_empty(self):
        solution = solve_mmpp_m1(poisson_mmpp(2.0), 5.0)
        assert solution.probability_empty() == pytest.approx(0.6, rel=1e-8)


class TestBurstyInput:
    def test_utilization(self):
        mmpp = bursty_mmpp()
        solution = solve_mmpp_m1(mmpp, 5.0)
        assert solution.utilization == pytest.approx(mmpp.mean_rate() / 5.0)

    def test_delay_exceeds_equivalent_mm1(self):
        mmpp = bursty_mmpp()
        solution = solve_mmpp_m1(mmpp, 5.0)
        mm1 = solve_mm1(mmpp.mean_rate(), 5.0)
        assert solution.mean_delay() > mm1.mean_delay

    def test_level_distribution_sums_to_one(self):
        solution = solve_mmpp_m1(bursty_mmpp(), 5.0)
        assert solution.level_distribution(4000).sum() == pytest.approx(
            1.0, abs=1e-6
        )

    @pytest.mark.parametrize("make_mmpp,mu", CASES)
    def test_methods_agree(self, make_mmpp, mu):
        # The specialised cyclic reduction against both general-block
        # oracles, on R itself and on the mean delay.
        mmpp = make_mmpp()
        cr = solve_mmpp_m1(mmpp, mu)
        lr = solve_mmpp_m1(mmpp, mu, method="lr")
        fp = solve_mmpp_m1(mmpp, mu, method="fixed-point")
        for oracle in (lr, fp):
            assert cr.mean_delay() == pytest.approx(oracle.mean_delay(), rel=1e-8)
            np.testing.assert_allclose(cr.rate_matrix, oracle.rate_matrix, atol=1e-8)

    @pytest.mark.parametrize("make_mmpp,mu", CASES)
    def test_rate_matrix_satisfies_quadratic(self, make_mmpp, mu):
        # diag(lambda) + R A1 + mu R^2 = 0 with A1 = D0 - mu I.
        mmpp = make_mmpp()
        solution = solve_mmpp_m1(mmpp, mu)
        r = solution.rate_matrix
        n = mmpp.num_states
        residual = mmpp.d1() + r @ (mmpp.d0() - mu * np.eye(n)) + mu * (r @ r)
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_spectral_radius_below_one(self):
        solution = solve_mmpp_m1(bursty_mmpp(), 5.0)
        radius = max(abs(np.linalg.eigvals(solution.rate_matrix)))
        assert radius < 1.0

    @pytest.mark.parametrize("make_mmpp,mu", CASES)
    def test_stored_mean_level_matches_its_definition(self, make_mmpp, mu):
        # E[z] = pi_0 R (I - R)^{-2} 1, computed densely from scratch.
        solution = solve_mmpp_m1(make_mmpp(), mu)
        r = solution.rate_matrix
        inverse = np.linalg.inv(np.eye(r.shape[0]) - r)
        expected = solution.boundary @ r @ inverse @ inverse @ np.ones(r.shape[0])
        assert solution.mean_queue_length() == pytest.approx(expected, rel=1e-10)
        assert solution.mean_delay() == pytest.approx(
            expected / solution.mean_rate, rel=1e-10
        )

    def test_boundary_balance(self):
        # pi_0 (D0 + R * mu I) = 0.
        mmpp = bursty_mmpp()
        mu = 5.0
        solution = solve_mmpp_m1(mmpp, mu)
        residual = solution.boundary @ (
            mmpp.d0() + solution.rate_matrix * mu
        )
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)


class TestValidation:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="unstable"):
            solve_mmpp_m1(poisson_mmpp(5.0), 4.0)

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ValueError):
            solve_mmpp_m1(poisson_mmpp(1.0), 0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            solve_mmpp_m1(poisson_mmpp(1.0), 2.0, method="nope")


class TestFailureSemantics:
    """The CR rung fails fast: a bad block never runs to the iteration cap."""

    def test_singular_block_raises_at_once(self):
        from repro.markov.matrix_geometric import _solve_rate_matrix_cr

        # mu = 0 with a silent phase makes A1 = D0 - mu I singular.
        d0 = sp.csr_matrix(np.diag([0.0, -2.0]))
        with pytest.raises(ArithmeticError, match="singular"):
            _solve_rate_matrix_cr(d0, np.array([0.0, 2.0]), 0.0, 1e-12, 10**9)

    @pytest.mark.parametrize("where", ["rates", "generator"])
    def test_non_finite_block_raises_at_once(self, where):
        from repro.markov.matrix_geometric import _solve_rate_matrix_cr

        d0 = sp.csr_matrix(np.array([[-0.7, 0.2], [0.3, -4.3]]))
        rates = np.array([0.5, 4.0])
        if where == "rates":
            rates[1] = np.nan
        else:
            d0.data[0] = np.nan
        with pytest.raises(ArithmeticError, match="non-finite"):
            _solve_rate_matrix_cr(d0, rates, 5.0, 1e-12, 10**9)

    def test_chain_reports_the_arithmetic_error(self):
        # MMPP rejects NaN on construction; a rate corrupted afterwards
        # must still fail the cr rung with ArithmeticError, not a
        # convergence timeout.
        mmpp = bursty_mmpp()
        mmpp.rates[1] = np.nan
        with pytest.raises(DegradationError) as info:
            solve_mmpp_m1(mmpp, 5.0, max_iterations=10**9)
        (attempt,) = info.value.attempts
        assert attempt.error.startswith("ArithmeticError")
        assert "non-finite" in attempt.error


class TestWorkingSet:
    """The traced peak of a solve stays a small multiple of one dense block.

    numpy reports its buffers to ``tracemalloc``, so the figure is the
    same on any machine: the specialised cyclic reduction holds nine
    ``n x n`` float64 arrays, the general-block version held 22.
    """

    def test_fig12_chain_peak_under_16_blocks(self):
        import tracemalloc

        from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
        from repro.experiments.configs import base_parameters

        # fig12 lambda = 0.002 over the exact column's 4-sigma box.
        params = base_parameters(service_rate=17.0, user_arrival_rate=0.002)
        u = params.mean_users
        c_total = sum(app.offered_instances for app in params.applications)
        x_max = int(np.ceil(u + 4.0 * np.sqrt(u)))
        y_max = int(np.ceil(u * c_total + 4.0 * np.sqrt(u * c_total * (1 + c_total))))
        mmpp = symmetric_hap_to_mmpp(params, x_max=x_max, y_max=y_max).mmpp
        n = mmpp.num_states
        assert n == 378
        tracemalloc.start()
        try:
            solve_mmpp_m1(mmpp, 17.0).mean_delay()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * n * n, f"peak {peak / (8 * n * n):.1f} n^2 float64"


class TestHeavyLoad:
    def test_near_saturation_still_converges(self):
        solution = solve_mmpp_m1(poisson_mmpp(4.9), 5.0)
        assert solution.mean_delay() == pytest.approx(
            solve_mm1(4.9, 5.0).mean_delay, rel=1e-6
        )


class TestWarmStart:
    def test_warm_start_matches_cold_solve(self):
        mmpp = bursty_mmpp()
        cold = solve_mmpp_m1(mmpp, 5.0)
        warm = solve_mmpp_m1(
            mmpp, 5.0, initial_rate_matrix=cold.rate_matrix
        )
        np.testing.assert_allclose(
            warm.rate_matrix, cold.rate_matrix, atol=1e-10
        )
        assert warm.mean_delay() == pytest.approx(
            cold.mean_delay(), rel=1e-10
        )

    def test_warm_start_from_neighbour_point(self):
        # The sweep contract: the converged R of a nearby parameter point
        # is a valid initial guess and must not change the answer.
        generator = np.array([[-0.2, 0.2], [0.3, -0.3]])
        slow = MMPP(generator, np.array([0.5, 4.0]))
        fast = MMPP(generator, np.array([0.55, 4.4]))
        neighbour = solve_mmpp_m1(slow, 5.0).rate_matrix
        warm = solve_mmpp_m1(fast, 5.0, initial_rate_matrix=neighbour)
        cold = solve_mmpp_m1(fast, 5.0)
        assert warm.mean_delay() == pytest.approx(
            cold.mean_delay(), rel=1e-9
        )

    def test_bad_guess_falls_back_to_cold_solve(self):
        # A hopeless initial matrix must not poison the result: the
        # refinement bails on its iteration budget and the cold cyclic
        # reduction solve takes over.
        mmpp = bursty_mmpp()
        cold = solve_mmpp_m1(mmpp, 5.0)
        warm = solve_mmpp_m1(
            mmpp, 5.0, initial_rate_matrix=np.full((2, 2), 0.9)
        )
        assert warm.mean_delay() == pytest.approx(
            cold.mean_delay(), rel=1e-9
        )

    def test_wrong_shape_guess_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            solve_mmpp_m1(
                bursty_mmpp(), 5.0, initial_rate_matrix=np.zeros((3, 3))
            )
