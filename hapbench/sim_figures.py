"""sim-figures worker: passes over the paper's simulated figures, heap engine.

A pass makes six calls, each at horizon ``H`` and with ``max_workers=1``:

* ``run_fig13`` — HAP and Poisson delay logs, running means, ``runtime.sweep``;
* ``run_fig14_to_17`` — queue and population traces, busy periods, peak search;
* the four fig12 simulation-column points, ``simulate_hap_mm1(params(lambda),
  H, seed, service_rate=17)`` at lambda in (0.003, 0.004, 0.007, 0.008).

Each call has a fixed simulation seed, so every pass, and every run,
simulates the same sample paths: a repeat of a call must give the same
result (its fingerprint), and the time between repeats moves only with
the host.  The workload seed draws the order of the calls in each pass.
Passes go on until ``--seconds`` have passed (at least ``MIN_PASSES``), or
number exactly ``--passes``.  Each call starts on a collected heap with a
fresh ``VmHWM`` window, and reference readings (``common.reference_gap``)
are taken between calls.

Run through ``run.py``; by hand::

    PYTHONPATH=src python3 hapbench/sim_figures.py --spawned-at 0 --seed 1
"""

from __future__ import annotations

import argparse
import math
import sys

import common

HORIZON = 5_000.0
SERVICE_RATE = 17.0
COLUMN_RATES = (0.003, 0.004, 0.007, 0.008)
#: Simulation seeds of fig13, fig14_17 and the four column points.  Fixed,
#: so every run simulates the same sample paths and does the same work.
CALL_SEEDS = (1, 2, 3, 4, 5, 6)
#: |N - lambda T| / N of every simulate_hap_mm1 run.  Not near 0 on
#: correct code: a busy period still open at the horizon counts in N but
#: not in the served delays (0.32 seen in 48 runs at lambda 0.007/0.008).
LITTLE_BAR = 0.5
#: |utilization - served rate / mu''| / utilization of every run
#: (0.0125 the largest seen in 48 runs).
UTILIZATION_BAR = 0.05
#: Passes over the six calls a run makes, however long they take.
MIN_PASSES = 3
#: Pooled served messages over the lambda-bar expectation, per pass.
POOLED_RATE_BAND = (0.8, 1.25)


def observed_window(params, horizon: float) -> float:
    """``horizon - warmup`` with ``simulate_hap_mm1``'s default warmup."""
    return horizon - min(10.0 / params.user_departure_rate, 0.1 * horizon)


def check_run(label: str, result, params) -> str:
    """'' when one simulate_hap_mm1 result passes the every-seed checks."""
    residual = result.littles_law_residual()
    if not residual <= LITTLE_BAR:
        return f"{label}: Little's-law residual {residual:.4g} > {LITTLE_BAR}"
    served_rate = result.messages_served / observed_window(params, result.horizon)
    expected = served_rate / SERVICE_RATE
    if not abs(result.utilization - expected) <= UTILIZATION_BAR * result.utilization:
        return (
            f"{label}: utilization {result.utilization:.4g} vs served rate / mu'' "
            f"{expected:.4g}"
        )
    return ""


def make_calls(seeds) -> list:
    """The six calls of a pass: ``[(label, body)]``, one seed each.

    ``body()`` returns ``(msgs, expected_msgs, error, fingerprint)``; the
    fingerprint must be the same on every repeat of the call.
    """
    import numpy as np

    from repro.experiments import configs, fig13_18
    from repro.sim import replication

    params = configs.base_parameters(service_rate=SERVICE_RATE)

    def fig13():
        result = fig13_18.run_fig13(
            horizon=HORIZON, seed=int(seeds[0]), service_rate=SERVICE_RATE, max_workers=1
        )
        hap, poisson = result.hap_running_mean, result.poisson_running_mean
        error = ""
        for name, series in (("hap", hap), ("poisson", poisson)):
            if len(series) == 0 or not np.all(np.isfinite(series)) or series[-1] <= 0:
                error = f"fig13: {name} running mean is empty or not finite"
        expected = 2 * params.mean_message_rate * HORIZON
        fingerprint = [len(hap), len(poisson), float(hap[-1]), float(poisson[-1])]
        return len(hap) + len(poisson), expected, error, fingerprint

    def fig14_17():
        mountain = fig13_18.run_fig14_to_17(
            horizon=HORIZON, seed=int(seeds[1]), service_rate=SERVICE_RATE
        )
        sim = mountain.simulation
        error = check_run("fig14_17", sim, params)
        if not error and (sim.busy_stats is None or not math.isfinite(mountain.peak_height)):
            error = "fig14_17: no busy-period statistics or peak"
        expected = params.mean_message_rate * observed_window(params, HORIZON)
        fingerprint = [sim.messages_served, sim.mean_delay, mountain.peak_height]
        return sim.messages_served, expected, error, fingerprint

    def column(lam: float, seed: int):
        column_params = configs.base_parameters(
            service_rate=SERVICE_RATE, user_arrival_rate=lam
        )

        def body():
            sim = replication.simulate_hap_mm1(
                column_params, HORIZON, seed=seed, service_rate=SERVICE_RATE
            )
            expected = column_params.mean_message_rate * observed_window(column_params, HORIZON)
            error = check_run(f"column-lambda{lam:g}", sim, column_params)
            return sim.messages_served, expected, error, [sim.messages_served, sim.mean_delay]

        return body

    calls = [("fig13", fig13), ("fig14_17", fig14_17)]
    calls += [
        (f"column-lambda{lam:g}", column(lam, int(seed)))
        for lam, seed in zip(COLUMN_RATES, seeds[2:])
    ]
    return calls


def run_pass(calls, order, records: dict, reference: list, recorder=None) -> None:
    """Run each call once, in ``order``, adding its time to ``records``.

    Reference readings (``common.reference_gap``) are taken after every
    call and appended to ``reference``; each repeat records the mean of
    the readings just before and just after it.  Each call starts on a
    collected, trimmed heap with a fresh ``VmHWM`` window, so its peak RSS
    does not depend on the calls before it.

    With a ``recorder``, the column calls are wrapped in the
    ``experiments.column`` span (the figures' own calls are patched).
    """
    for index in order:
        label, body = calls[index]
        before = reference[-common.REFERENCE_PER_GAP :]
        common.release_memory()
        common.reset_peak_rss()
        span = (
            recorder.open("experiments.column")
            if recorder is not None and label.startswith("column")
            else None
        )
        t0 = common.now()
        try:
            msgs, expected, error, fingerprint = body()
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            msgs, expected, error, fingerprint = 0, 0.0, f"{label}: {exc!r}", None
        latency = common.now() - t0
        peak_mib = common.proc_status_mib()
        if span is not None:
            recorder.close(span)
        record = records.setdefault(
            label,
            {
                "label": label,
                "latencies_s": [],
                "msgs": msgs,
                "expected_msgs": expected,
                "fingerprint": fingerprint,
                "errors": [],
                "peak_rss_mib": 0.0,
                "reference_ms": [],
            },
        )
        after = common.reference_gap(reference)
        record["latencies_s"].append(latency)
        record["reference_ms"].append(sum(before + after) / len(before + after))
        record["peak_rss_mib"] = max(record["peak_rss_mib"], peak_mib)
        if error:
            record["errors"].append(error)
        elif fingerprint != record["fingerprint"]:
            record["errors"].append(
                f"{label}: repeat {len(record['latencies_s'])} gave {fingerprint}, "
                f"the first gave {record['fingerprint']}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--passes", type=int, default=0, help="exactly this many (0: --seconds)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--span-file", type=str, default="")
    args = parser.parse_args(argv)

    common.pin_to_one_cpu()
    import numpy as np

    import repro.experiments.fig13_18  # noqa: F401 — the layers under test
    import repro.sim.replication  # noqa: F401

    imported = common.now()
    calls = make_calls(CALL_SEEDS)
    order = np.random.default_rng(args.seed)
    loaded = common.now()
    setup = {
        "setup_s": loaded - args.spawned_at,
        "import_s": imported - args.spawned_at,
        "load_s": loaded - imported,
    }
    if args.setup_only:
        common.emit(setup)
        return 0

    if args.trace:
        import layers
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)
    else:
        recorder = None
    calib_before = common.calib_ms()
    records: dict = {}
    reference = [common.reference_ms() for _ in range(common.REFERENCE_WARMUP)]
    start = common.now()
    passes = 0
    while common.more_passes(passes, args.passes, start, args.seconds, MIN_PASSES):
        run_pass(calls, order.permutation(len(calls)), records, reference, recorder)
        passes += 1
    end = common.now()
    calib_after = common.calib_ms()
    done = list(records.values())
    msgs = sum(record["msgs"] for record in done)
    expected = sum(record["expected_msgs"] for record in done)
    pooled = msgs / expected if expected > 0 else 0.0
    lo, hi = POOLED_RATE_BAND
    result = {
        **setup,
        "wall_s": end - start,
        "window": [start, end],
        "calls": done,
        "reference_ms": reference,
        "msgs": msgs,
        "pooled_rate_ratio": pooled,
        "pooled_error": "" if lo <= pooled <= hi else f"pooled served rate {pooled:.3f} x lambda-bar",
        "vm_hwm_mib": max(record["peak_rss_mib"] for record in done),
        "calib_ms": [calib_before, calib_after],
        "provenance": common.provenance(),
    }
    if recorder is not None:
        recorder.restore()
        recorder.dump(args.span_file)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
