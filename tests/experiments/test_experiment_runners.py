"""Fast smoke-and-shape tests for the per-figure experiment runners.

Full-size runs live in ``benchmarks/``; here each runner executes at a
reduced size and the *shape* of its output is asserted (columns present,
orderings that must hold at any size, paper-exact closed-form values).
"""

from __future__ import annotations

import pytest

from repro.experiments.fig08 import run_fig8
from repro.experiments.fig09_10 import run_fig9, run_fig10_tail
from repro.experiments.fig11_12 import run_fig11, run_fig12
from repro.experiments.fig19_20 import run_fig19, run_fig20


class TestFig8:
    def test_ordering_and_equal_rate(self):
        results = run_fig8(idc_horizon=None)
        rates = [r.report.mean_rate for r in results]
        assert rates[0] == pytest.approx(rates[1])
        assert rates[1] == pytest.approx(rates[2])
        delays = [r.delay_solution2 for r in results]
        assert delays[0] < delays[1] < delays[2]


class TestFig9:
    def test_paper_values(self):
        result = run_fig9(grid_points=50)
        assert result.lambda_bar == pytest.approx(7.5)
        assert result.hap_density_at_zero == pytest.approx(9.3, abs=0.01)
        assert len(result.intersections) == 2
        assert result.intersections[0] == pytest.approx(0.077, abs=0.005)
        assert result.intersections[1] == pytest.approx(0.53, abs=0.01)

    def test_densities_on_grid(self):
        result = run_fig9(grid_points=50)
        assert result.grid.shape == result.hap_density.shape
        assert result.hap_density[0] > result.poisson_density[0]

    def test_tail_window(self):
        result = run_fig10_tail(grid_points=30)
        assert result.grid[0] >= 0.45
        # Only the second crossing falls in the window.
        assert len(result.intersections) == 1

    def test_empirical_rate_matches_closed_form(self):
        from repro.experiments.fig09_10 import run_fig9_empirical

        result = run_fig9_empirical(
            horizon=8_000.0, num_replications=2, max_workers=1
        )
        assert result.lambda_bar == pytest.approx(7.5)
        # The smoke horizon is far shorter than the user-level relaxation
        # time, so the measured rate sits below lambda-bar; the full-size
        # comparison lives in benchmarks.
        assert 0.0 < result.rate_summary.mean < 1.2 * result.lambda_bar
        assert result.mean_interarrival > 0.0
        assert result.num_replications == 2
        assert "0.133" in result.describe()


class TestFig11And12:
    def test_fig11_short_run_shape(self):
        points = run_fig11(capacities=(25.0, 40.0), horizon=20_000.0)
        assert len(points) == 2
        for point in points:
            assert point.ratio_vs_mm1 > 1.0  # exact column: HAP always worse
            assert point.utilization == pytest.approx(
                8.25 / point.sweep_value, rel=1e-6
            )

    def test_fig11_gap_grows_with_utilization(self):
        points = run_fig11(capacities=(15.0, 40.0), horizon=20_000.0)
        assert points[0].ratio_vs_mm1 > points[1].ratio_vs_mm1

    def test_fig12_rate_sweep(self):
        points = run_fig12(user_rates=(0.003, 0.0055), horizon=20_000.0)
        assert points[0].sweep_value < points[1].sweep_value
        assert points[0].delay_mm1 < points[1].delay_mm1


class TestRuntimeComparison:
    def test_every_call_times_a_real_solution0_solve(self, monkeypatch):
        """A repeated call must not time Solution 0's memo lookup."""
        from repro.core import solution0
        from repro.experiments.accuracy import run_runtime_comparison

        original = solution0.solve_mmpp_m1
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(solution0, "solve_mmpp_m1", counting)
        for _ in range(2):
            run_runtime_comparison(modulating_bounds=(6, 20))
        assert calls == [20.0, 20.0]


class TestFig19:
    def test_lambda_bar_linear_in_every_level(self):
        points = run_fig19(factors=(0.9, 1.1))
        by_level = {}
        for point in points:
            by_level.setdefault(point.level, []).append(point)
        for level, level_points in by_level.items():
            ratios = [p.lambda_bar / p.factor for p in level_points]
            assert ratios[0] == pytest.approx(ratios[1], rel=1e-9), level

    def test_message_level_burstier_at_equal_rate(self):
        points = run_fig19(factors=(1.1,))
        delays = {p.level: p.delay for p in points}
        # Raising lower-level rates raises delay more at the same new rate.
        assert delays["message"] >= delays["user"]


class TestFig20:
    def test_bounding_reduces_rate_and_delay(self):
        points = run_fig20(user_rates=(0.0055, 0.0065))
        for point in points:
            assert point.lambda_bar_bounded < point.lambda_bar_unbounded
            assert point.delay_bounded < point.delay_unbounded

    def test_savings_grow_with_load(self):
        points = run_fig20(user_rates=(0.005, 0.007))
        assert points[0].delay_reduction < points[1].delay_reduction

    def test_describe_mentions_saving(self):
        points = run_fig20(user_rates=(0.0055,))
        assert "saving" in points[0].describe()
