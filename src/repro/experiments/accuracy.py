"""Section 4.1 — accuracy of Solutions 1 and 2 against the exact answer.

The paper's findings, which this experiment reproduces as a table:

* with the validity conditions satisfied and utilization under ~30 %, the
  approximations land within ~5 % of Solution 0 / simulation;
* past 30 % utilization they "drift far away" (they lose the correlation
  between successive interarrivals and go optimistic);
* Solutions 1 and 2 agree with each other to ~1 % whenever the tighter
  condition (1b) holds;
* relative runtime: Solution 0 >> Solution 1 >> Solution 2 (two weeks /
  seven hours / minutes on the 1993 hardware).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.mmpp_mapping import symmetric_hap_to_mmpp
from repro.core.solution0 import solve_solution0
from repro.core.solution1 import solve_solution1
from repro.core.solution2 import solve_solution2
from repro.experiments.configs import base_parameters

__all__ = ["AccuracyPoint", "run_accuracy_sweep", "run_runtime_comparison"]


@dataclass(frozen=True)
class AccuracyPoint:
    """Errors of Solutions 1/2 relative to the exact Solution 0."""

    service_rate: float
    utilization: float
    delay_exact: float
    delay_solution1: float
    delay_solution2: float

    @property
    def error_solution1(self) -> float:
        """Relative error of Solution 1."""
        return abs(self.delay_solution1 - self.delay_exact) / self.delay_exact

    @property
    def error_solution2(self) -> float:
        """Relative error of Solution 2."""
        return abs(self.delay_solution2 - self.delay_exact) / self.delay_exact

    @property
    def solutions_12_gap(self) -> float:
        """Relative gap between the two approximations (paper: < 1 %)."""
        return abs(self.delay_solution1 - self.delay_solution2) / self.delay_solution2

    def describe(self) -> str:
        """One accuracy-table row."""
        return (
            f"mu''={self.service_rate:<6g} rho={self.utilization:.3f} "
            f"T0={self.delay_exact:.4g} "
            f"err1={100 * self.error_solution1:.1f}% "
            f"err2={100 * self.error_solution2:.1f}% "
            f"gap12={100 * self.solutions_12_gap:.2f}%"
        )


def run_accuracy_sweep(
    service_rates: tuple[float, ...] = (30.0, 40.0, 60.0, 100.0, 20.0, 15.0),
    modulating_bounds: tuple[int, int] | None = None,
) -> list[AccuracyPoint]:
    """Compare the three solutions across utilizations.

    The first few service rates keep utilization under 30 % (the validity
    region); the last ones cross it, where the approximations go optimistic.
    """
    points = []
    for mu in service_rates:
        params = base_parameters(service_rate=mu)
        exact = solve_solution0(
            params, backend="qbd", modulating_bounds=modulating_bounds
        )
        sol1 = solve_solution1(params)
        sol2 = solve_solution2(params)
        points.append(
            AccuracyPoint(
                service_rate=mu,
                utilization=params.mean_message_rate / mu,
                delay_exact=exact.mean_delay,
                delay_solution1=sol1.mean_delay,
                delay_solution2=sol2.mean_delay,
            )
        )
    return points


@dataclass(frozen=True)
class RuntimeComparison:
    """Wall-clock seconds of each solution on a common parameter set."""

    seconds_solution0: float
    seconds_solution1: float
    seconds_solution2: float

    def describe(self) -> str:
        """The 1993 ordering (2 weeks / 7 h / 5–7 min), on today's hardware."""
        return (
            f"Solution 0: {self.seconds_solution0:.2f}s, "
            f"Solution 1: {self.seconds_solution1:.2f}s, "
            f"Solution 2: {self.seconds_solution2:.2f}s "
            "(paper: 2 weeks / 7 hours / 5-7 minutes)"
        )


def run_runtime_comparison(
    modulating_bounds: tuple[int, int] = (14, 70),
) -> RuntimeComparison:
    """Time the three solutions on the base parameters.

    A reduced modulating box keeps Solution 0 affordable while preserving
    the ordering; absolute times are hardware-bound anyway.
    """
    params = base_parameters(service_rate=20.0)
    # Time a real solve, not a lookup: drop any answer an earlier call in
    # this process left in the chain's Solution 0 memo.
    x_max, y_max = modulating_bounds
    symmetric_hap_to_mmpp(params, x_max=x_max, y_max=y_max).solution0_memo.clear()
    start = time.perf_counter()
    solve_solution0(params, backend="qbd", modulating_bounds=modulating_bounds)
    t0 = time.perf_counter() - start
    start = time.perf_counter()
    solve_solution1(params, bounds=modulating_bounds)
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    solve_solution2(params)
    t2 = time.perf_counter() - start
    return RuntimeComparison(
        seconds_solution0=t0, seconds_solution1=t1, seconds_solution2=t2
    )
