"""Cross-validation of Solutions 0, 1, 2 — the paper's Section 3/4 claims."""

from __future__ import annotations

import itertools
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

from repro.core.solution0 import solve_solution0
from repro.core.solution1 import solve_solution1
from repro.core.solution2 import condition_report, solve_solution2
from repro.queueing.mm1 import solve_mm1


class TestSolution0Backends:
    """All routes to the exact chain must agree."""

    def test_direct_equals_power(self, small_hap):
        bounds, z_max = (6, 12), 80
        direct = solve_solution0(
            small_hap, backend="direct", modulating_bounds=bounds, z_max=z_max
        )
        power = solve_solution0(
            small_hap, backend="power", modulating_bounds=bounds, z_max=z_max
        )
        assert direct.mean_delay == pytest.approx(power.mean_delay, rel=1e-6)
        assert direct.sigma == pytest.approx(power.sigma, rel=1e-6)

    def test_direct_converges_to_qbd(self, small_hap):
        qbd = solve_solution0(small_hap, backend="qbd", modulating_bounds=(9, 18))
        direct = solve_solution0(
            small_hap, backend="direct", modulating_bounds=(9, 18), z_max=600
        )
        assert direct.mean_delay == pytest.approx(qbd.mean_delay, rel=5e-3)

    def test_unknown_backend_rejected(self, small_hap):
        with pytest.raises(ValueError, match="backend"):
            solve_solution0(small_hap, backend="magic")

    def test_power_iteration_survives_periodic_uniformization(self):
        """Regression: with a zero-margin uniformization rate, a chain whose
        states share the same exit rate gets a zero self-loop everywhere and
        the uniformized DTMC can be periodic — power iteration then
        oscillates forever instead of converging (a symmetric 2-state
        generator is the textbook case; this bipartite 3-state one also has
        a non-uniform fixed point, so the oscillation is visible from the
        uniform start).  The 1.05 safety margin restores aperiodicity
        without moving the fixed point."""
        import scipy.sparse as sp

        from repro.core.solution0 import _stationary_power

        generator = sp.csr_matrix(
            np.array(
                [
                    [-1.0, 1.0, 0.0],
                    [0.5, -1.0, 0.5],
                    [0.0, 1.0, -1.0],
                ]
            )
        )
        pi = _stationary_power(generator, tol=1e-12, max_sweeps=100_000)
        assert pi == pytest.approx(np.array([0.25, 0.5, 0.25]), abs=1e-9)

    def test_power_symmetric_two_state_converges(self):
        """The issue's canonical shape: both exit rates equal — at zero
        margin the uniformized chain is a pure swap."""
        import scipy.sparse as sp

        from repro.core.solution0 import _stationary_power

        generator = sp.csr_matrix(np.array([[-2.0, 2.0], [2.0, -2.0]]))
        pi = _stationary_power(generator, tol=1e-12, max_sweeps=10_000)
        assert pi == pytest.approx(np.array([0.5, 0.5]), abs=1e-9)

    def test_boundary_mass_reported(self, small_hap):
        tight = solve_solution0(
            small_hap, backend="direct", modulating_bounds=(6, 12), z_max=30
        )
        assert tight.boundary_mass > 0
        assert tight.backend == "direct"

    def test_qbd_pmf_sums_to_one(self, small_hap):
        qbd = solve_solution0(
            small_hap, backend="qbd", modulating_bounds=(9, 18), z_max=3000
        )
        assert qbd.queue_length_pmf.sum() == pytest.approx(1.0, abs=1e-5)

    def test_littles_law_internal_consistency(self, small_hap):
        result = solve_solution0(small_hap, backend="qbd")
        assert result.mean_delay * result.effective_arrival_rate == pytest.approx(
            result.mean_queue_length, rel=1e-9
        )


class TestHAPvsPoisson:
    """The central qualitative claim: HAP queues worse than Poisson."""

    def test_exact_delay_exceeds_mm1(self, small_hap):
        exact = solve_solution0(small_hap, backend="qbd")
        mm1 = solve_mm1(
            small_hap.mean_message_rate, small_hap.common_service_rate()
        )
        assert exact.mean_delay > 1.5 * mm1.mean_delay

    def test_approximations_exceed_mm1_too(self, small_hap):
        mm1 = solve_mm1(
            small_hap.mean_message_rate, small_hap.common_service_rate()
        )
        assert solve_solution1(small_hap).mean_delay > mm1.mean_delay
        assert solve_solution2(small_hap).mean_delay > mm1.mean_delay


class TestApproximationQuality:
    """Section 4.1: Solutions 1 and 2 track each other and undershoot exact."""

    def test_solutions_1_and_2_agree_closely_under_separation(
        self, separated_hap
    ):
        # The paper: "Solution 1 and 2 are almost the same, with less than
        # 1% difference" when condition 1b (time-scale separation) holds.
        sol1 = solve_solution1(separated_hap)
        sol2 = solve_solution2(separated_hap)
        assert sol1.mean_delay == pytest.approx(sol2.mean_delay, rel=0.02)

    def test_solutions_1_and_2_disagree_without_separation(self, small_hap):
        # small_hap churns users as fast as applications, violating 1b;
        # the conditional-Poisson step of Solution 2 then visibly errs.
        sol1 = solve_solution1(small_hap)
        sol2 = solve_solution2(small_hap)
        gap = abs(sol1.mean_delay - sol2.mean_delay) / sol2.mean_delay
        assert gap > 0.05

    def test_approximations_are_optimistic_at_load(self, small_hap):
        # Losing interarrival correlation underestimates delay.
        exact = solve_solution0(small_hap, backend="qbd")
        assert solve_solution2(small_hap).mean_delay < exact.mean_delay

    def test_light_load_shrinks_the_gap(self, small_hap):
        heavy_mu = small_hap.common_service_rate()
        light = small_hap.with_service_rate(heavy_mu * 8)
        exact = solve_solution0(light, backend="qbd")
        sol2 = solve_solution2(light)
        heavy_exact = solve_solution0(small_hap, backend="qbd")
        heavy_sol2 = solve_solution2(small_hap)
        light_gap = abs(sol2.mean_delay - exact.mean_delay) / exact.mean_delay
        heavy_gap = (
            abs(heavy_sol2.mean_delay - heavy_exact.mean_delay)
            / heavy_exact.mean_delay
        )
        assert light_gap < heavy_gap
        assert light_gap < 0.05  # the paper's "within 5 %" regime


class TestSolution1:
    def test_mixture_is_probability(self, small_hap):
        result = solve_solution1(small_hap)
        assert result.weights.sum() == pytest.approx(1.0)
        assert np.all(result.rates > 0)

    def test_density_integrates_to_one(self, small_hap):
        from scipy.integrate import quad

        result = solve_solution1(small_hap)
        total, _ = quad(
            lambda t: float(result.interarrival_density(t)[0]), 0, 200, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_general_route_matches_collapsed(self, small_hap):
        collapsed = solve_solution1(small_hap, collapse_symmetric=True)
        general = solve_solution1(small_hap, collapse_symmetric=False)
        assert collapsed.mean_delay == pytest.approx(
            general.mean_delay, rel=1e-3
        )

    def test_asymmetric_hap_supported(self, asymmetric_hap):
        result = solve_solution1(asymmetric_hap)
        assert result.mean_delay > 0
        assert 0 < result.sigma < 1

    def test_paper_sigma_method(self, small_hap):
        brent = solve_solution1(small_hap, method="brent")
        paper = solve_solution1(small_hap, method="paper")
        assert brent.sigma == pytest.approx(paper.sigma, abs=1e-7)


class TestSolution2:
    def test_interarrival_mixture_agreement_with_solution1(self, separated_hap):
        """Under separation, Solutions 1 and 2 give the same density."""
        sol1 = solve_solution1(separated_hap)
        sol2 = solve_solution2(separated_hap)
        ts = np.linspace(0.01, 3.0, 30)
        density1 = sol1.interarrival_density(ts)
        density2 = sol2.interarrival.density(ts)
        np.testing.assert_allclose(density1, density2, rtol=0.08)

    def test_waiting_time_cdf_range(self, small_hap):
        sol2 = solve_solution2(small_hap)
        values = sol2.waiting_time_cdf(np.linspace(0, 10, 20))
        assert np.all((0 <= values) & (values <= 1))
        assert np.all(np.diff(values) >= 0)

    def test_sigma_in_unit_interval(self, small_hap):
        assert 0 < solve_solution2(small_hap).sigma < 1

    def test_explicit_service_rate_overrides(self, small_hap):
        faster = solve_solution2(small_hap, service_rate=10.0)
        slower = solve_solution2(small_hap, service_rate=3.0)
        assert faster.mean_delay < slower.mean_delay

    def test_unstable_load_rejected(self, small_hap):
        with pytest.raises(ValueError, match="unstable"):
            solve_solution2(small_hap, service_rate=small_hap.mean_message_rate)


class TestConditionReport:
    def test_utilization_field(self, small_hap):
        report = condition_report(small_hap)
        assert report.utilization == pytest.approx(
            small_hap.mean_message_rate / small_hap.common_service_rate()
        )

    def test_high_load_flags_unsatisfied(self, small_hap):
        report = condition_report(
            small_hap, service_rate=small_hap.mean_message_rate * 1.05
        )
        assert not report.satisfied


class TestQBDWarmStart:
    """Solution 0's sweep warm-start contract.

    The ``qbd`` tests solve chains no other test uses (``small_hap`` with
    its message arrival rate nudged): a cold call on a chain an earlier
    call already solved is answered from Solution 0's memo and reports no
    ``R``, which would leave nothing to warm-start from.
    """

    def test_qbd_exposes_rate_matrix(self, small_hap):
        params = small_hap.scaled("message", "arrival", 1.01)
        qbd = solve_solution0(params, backend="qbd", modulating_bounds=(6, 12))
        assert qbd.rate_matrix is not None
        assert qbd.rate_matrix.shape == (7 * 13, 7 * 13)

    def test_truncated_backends_do_not(self, small_hap):
        direct = solve_solution0(
            small_hap, backend="direct", modulating_bounds=(6, 12), z_max=80
        )
        assert direct.rate_matrix is None

    def test_warm_start_reproduces_cold_answer(self, small_hap):
        bounds = (6, 12)
        params = small_hap.scaled("message", "arrival", 1.02)
        cold = solve_solution0(params, backend="qbd", modulating_bounds=bounds)
        assert cold.rate_matrix is not None
        scaled = params.scaled("application", "both", 1.1)
        warm = solve_solution0(
            scaled,
            backend="qbd",
            modulating_bounds=bounds,
            qbd_initial_rate_matrix=cold.rate_matrix,
        )
        assert warm.rate_matrix is not None
        reference = solve_solution0(
            scaled, backend="qbd", modulating_bounds=bounds
        )
        assert reference.rate_matrix is not None
        assert warm.mean_delay == pytest.approx(reference.mean_delay, rel=1e-9)
        assert warm.sigma == pytest.approx(reference.sigma, rel=1e-9)


class TestSolution0Golden:
    """Solution 0 on the fig12 exact column, pinned to its recorded delays.

    The references are the mean delays (seconds) of fig12's exact column at
    mu'' = 17 over the 4-sigma modulating box, as recorded by the
    repository benchmark.  Any change to the mapping, the QBD solve or its
    boundary handling that moves them by more than 1e-9 relative fails
    here.
    """

    @pytest.mark.parametrize(
        "lam,reference",
        [(0.002, 0.08441763791406816), (0.003, 0.10209840004927159)],
    )
    def test_fig12_exact_delay(self, lam, reference):
        from repro.experiments.configs import base_parameters
        from repro.experiments.fig11_12 import exact_column_bounds

        params = base_parameters(service_rate=17.0, user_arrival_rate=lam)
        result = solve_solution0(
            params,
            17.0,
            backend="qbd",
            modulating_bounds=exact_column_bounds(params),
        )
        assert result.mean_delay == pytest.approx(reference, rel=1e-9)


class TestSolution0Memo:
    """Cold ``qbd`` answers are memoized per (mapped chain, mu'', z_max).

    Every test builds its own chain (a message arrival rate no other test
    uses), so the process-wide mapping cache cannot hand it a memo that an
    earlier test filled.
    """

    _fresh = itertools.count()
    BOUNDS = (4, 8)

    def _hap(self, **overrides):
        from repro.core.params import HAPParameters

        fields = dict(
            user_arrival_rate=0.05,
            user_departure_rate=0.05,
            app_arrival_rate=0.05,
            app_departure_rate=0.05,
            message_arrival_rate=0.4 + 1e-6 * (1 + next(self._fresh)),
            message_service_rate=3.0,
            num_app_types=2,
            num_message_types=1,
            name="memo",
        )
        fields.update(overrides)
        return HAPParameters.symmetric(**fields)

    @pytest.fixture
    def qbd_calls(self, monkeypatch):
        """Counts the QBD solves Solution 0 runs."""
        solution0 = import_module("repro.core.solution0")
        original = solution0.solve_mmpp_m1
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(solution0, "solve_mmpp_m1", counting)
        return calls

    def _solve(self, params, service_rate=3.0, **kwargs):
        kwargs.setdefault("modulating_bounds", self.BOUNDS)
        return solve_solution0(params, service_rate, backend="qbd", **kwargs)

    def test_second_cold_call_skips_the_solve(self, qbd_calls):
        params = self._hap()
        first = self._solve(params)
        second = self._solve(params)
        assert len(qbd_calls) == 1
        assert second.mean_delay == first.mean_delay
        assert second.sigma == first.sigma
        assert second.utilization == first.utilization
        np.testing.assert_array_equal(
            second.queue_length_pmf, first.queue_length_pmf
        )
        assert first.rate_matrix is not None
        assert second.rate_matrix is None

    def test_name_and_message_service_rate_share_the_answer(self, qbd_calls):
        params = self._hap()
        first = self._solve(params)
        renamed = replace(params.with_service_rate(9.0), name="renamed")
        hit = self._solve(renamed, 3.0)
        assert len(qbd_calls) == 1
        assert hit.params is renamed
        assert first.params is params
        assert hit.mean_delay == first.mean_delay

    @pytest.mark.parametrize(
        "change",
        [
            {"service_rate": 3.5},
            {"z_max": 200},
            {"modulating_bounds": (5, 8)},
            {"phase_mass_tol": 1e-9},
        ],
        ids=["service-rate", "z-max", "bounds", "phase-mass-tol"],
    )
    def test_other_inputs_miss(self, qbd_calls, change):
        params = self._hap()
        self._solve(params)
        self._solve(params, **change)
        assert len(qbd_calls) == 2

    def test_other_backends_neither_read_nor_write(self, qbd_calls):
        params = self._hap()
        direct = solve_solution0(
            params, 3.0, backend="direct", modulating_bounds=self.BOUNDS, z_max=60
        )
        assert direct.backend == "direct"
        qbd = self._solve(params, z_max=60)
        assert len(qbd_calls) == 1
        again = solve_solution0(
            params, 3.0, backend="direct", modulating_bounds=self.BOUNDS, z_max=60
        )
        assert again.backend == "direct"
        assert again.boundary_mass == direct.boundary_mass
        assert qbd.boundary_mass == 0.0

    def test_warm_started_calls_bypass_the_memo(self, qbd_calls):
        params = self._hap()
        neighbour = self._solve(params, 3.5).rate_matrix
        warm = self._solve(params, qbd_initial_rate_matrix=neighbour)
        assert warm.rate_matrix is not None
        cold = self._solve(params)  # the warm answer was not stored ...
        assert cold.rate_matrix is not None
        again = self._solve(params, qbd_initial_rate_matrix=neighbour)
        assert again.rate_matrix is not None  # ... nor read back
        assert len(qbd_calls) == 4
        assert warm.mean_delay == pytest.approx(cold.mean_delay, rel=1e-9)

    def test_unstable_rate_raises_every_call(self, qbd_calls):
        params = self._hap()
        for _ in range(2):
            with pytest.raises(ValueError, match="unstable"):
                self._solve(params, 0.5)
        assert len(qbd_calls) == 2

    def test_pmf_is_read_only(self):
        params = self._hap()
        first = self._solve(params)
        hit = self._solve(params)
        for pmf in (first.queue_length_pmf, hit.queue_length_pmf):
            with pytest.raises(ValueError):
                pmf[0] = 1.0
        assert self._solve(params).queue_length_pmf.sum() == pytest.approx(
            1.0, abs=1e-5
        )

    def test_memo_lives_on_the_shared_chain_and_is_bounded(self):
        from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
        from repro.core.solution0 import _MEMO_SIZE

        params = self._hap()
        mapped = symmetric_hap_to_mmpp(params, *self.BOUNDS)
        rates = [3.0 + 0.1 * k for k in range(_MEMO_SIZE + 1)]
        for rate in rates:
            self._solve(params, rate, z_max=20)
        assert len(mapped.solution0_memo) == _MEMO_SIZE
        assert (rates[0], 20) not in mapped.solution0_memo
        assert (rates[-1], 20) in mapped.solution0_memo
        assert all(
            entry.rate_matrix is None for entry in mapped.solution0_memo.values()
        )

    def test_concurrent_cold_calls_keep_the_memo_consistent(self):
        # Live admission solves run in worker threads: racing inserts and
        # evictions on one chain must neither raise nor overfill the memo.
        import sys
        import threading

        from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
        from repro.core.solution0 import _MEMO_SIZE

        params = self._hap()
        bounds = (2, 4)
        rates = [3.0 + 0.05 * k for k in range(2 * _MEMO_SIZE)]
        expected = {
            rate: solve_solution0(
                params, rate, backend="qbd", modulating_bounds=bounds, z_max=10
            ).mean_delay
            for rate in rates
        }
        errors, mismatches = [], []

        def worker(offset):
            try:
                for rate in rates[offset:] + rates[:offset]:
                    result = solve_solution0(
                        params, rate, backend="qbd", modulating_bounds=bounds,
                        z_max=10,
                    )
                    reference = pytest.approx(expected[rate], rel=1e-12)
                    if result.mean_delay != reference:
                        mismatches.append(rate)
            except Exception as exc:  # recorded, asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(3 * k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        memo = symmetric_hap_to_mmpp(params, *bounds).solution0_memo
        assert len(memo) <= _MEMO_SIZE
