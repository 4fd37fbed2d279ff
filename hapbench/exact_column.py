"""exact-column worker: the fig11/fig12 exact column, solved serially.

One fresh process solves each point the way
``repro.experiments.fig11_12._sweep_point`` does — Solution 0 on the QBD
backend over the figures' 4-sigma modulating box, then Solution 2 and
M/M/1 — at fig12 lambda in {0.002, 0.003, 0.004, 0.0055} (mu'' = 17) and
fig11 mu'' in {17, 30} (lambda-bar = 8.25).  The seed only permutes the
order of the points.  Every delay is checked against the references in
``references.json``.

Run through ``run.py``; by hand::

    PYTHONPATH=src python3 hapbench/exact_column.py --spawned-at 0 --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import common

#: Truncation spread of the figures' exact column (fig11_12._EXACT_SPREAD).
SPREAD = 4.0
#: Relative bars: Solution 0 at the ROADMAP item-3 bar, closed forms tighter.
SOLUTION0_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-12
REFERENCES = Path(__file__).resolve().parent / "references.json"


def column_points():
    """``[(label, params, mu'')]`` for the six points of the column."""
    from repro.experiments.configs import base_parameters

    points = [
        (
            f"fig12-lambda{lam:g}",
            base_parameters(service_rate=17.0, user_arrival_rate=lam),
            17.0,
        )
        for lam in (0.002, 0.003, 0.004, 0.0055)
    ]
    fig11 = base_parameters()
    points += [(f"fig11-mu{mu:g}", fig11, mu) for mu in (17.0, 30.0)]
    return points


def modulating_bounds(params) -> tuple[int, int]:
    """The figures' 4-sigma ``(x_max, y_max)`` box."""
    import numpy as np

    u = params.mean_users
    c_total = sum(app.offered_instances for app in params.applications)
    x_max = int(np.ceil(u + SPREAD * np.sqrt(u)))
    y_var = u * c_total * (1.0 + c_total)
    y_max = int(np.ceil(u * c_total + SPREAD * np.sqrt(y_var)))
    return max(x_max, 2), max(y_max, 2)


def solve_point(params, mu: float) -> dict:
    """Solution 0 + Solution 2 + M/M/1 for one point, through the public API."""
    from repro.core import solution0, solution2
    from repro.queueing import mm1

    exact = solution0.solve_solution0(
        params, mu, backend="qbd", modulating_bounds=modulating_bounds(params)
    )
    sol2 = solution2.solve_solution2(params, mu)
    baseline = mm1.solve_mm1(params.mean_message_rate, mu)
    return {
        "solution0": exact.mean_delay,
        "solution2": sol2.mean_delay,
        "mm1": baseline.mean_delay,
    }


def check(label: str, delays: dict, references: dict) -> str:
    """'' when every delay matches its reference, else the first mismatch."""
    expected = references.get(label)
    if expected is None:
        return f"{label}: no reference"
    for key, value in delays.items():
        rtol = SOLUTION0_RTOL if key == "solution0" else CLOSED_FORM_RTOL
        ref = expected[key]
        if not abs(value - ref) <= rtol * abs(ref):
            return f"{label} {key}={value!r} vs reference {ref!r} (rtol {rtol:g})"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--span-file", type=str, default="")
    args = parser.parse_args(argv)

    import numpy as np

    import repro.core.solution0  # noqa: F401 — the layers under test
    import repro.core.solution2  # noqa: F401
    import repro.queueing.mm1  # noqa: F401

    imported = common.now()
    points = column_points()
    references = json.loads(REFERENCES.read_text())["exact-column"]
    loaded = common.now()
    setup = {
        "setup_s": loaded - args.spawned_at,
        "import_s": imported - args.spawned_at,
        "load_s": loaded - imported,
    }
    if args.setup_only:
        common.emit(setup)
        return 0

    recorder = None
    if args.trace:
        import layers
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)
        hits_before = layers.map_cache_hits()
    order = np.random.default_rng(args.seed).permutation(len(points))
    calib_before = common.calib_ms()
    results = []
    start = common.now()
    for index in order:
        label, params, mu = points[index]
        t0 = common.now()
        try:
            delays = solve_point(params, mu)
            error = check(label, delays, references)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            delays, error = {}, f"{label}: {exc!r}"
        t1 = common.now()
        results.append({"label": label, "latency_s": t1 - t0, "delays": delays, "error": error})
    end = common.now()
    calib_after = common.calib_ms()
    result = {
        **setup,
        "wall_s": end - start,
        "window": [start, end],
        "points": results,
        "vm_hwm_mib": common.proc_status_mib(),
        "calib_ms": [calib_before, calib_after],
        "provenance": common.provenance(),
    }
    if recorder is not None:
        recorder.restore()
        result["map_cache_hits"] = layers.map_cache_hits() - hits_before
        recorder.dump(args.span_file)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
