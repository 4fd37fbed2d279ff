"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer of the package is traced at the public functions a caller
uses, under a span name ``<layer>.<what>``:

====================  =====================================================
span                  function
====================  =====================================================
core.solution0        ``repro.core.solution0.solve_solution0``
core.map              ``repro.core.mmpp_mapping.{symmetric_,}hap_to_mmpp``
markov.generator      ``repro.markov.truncation.build_generator``
markov.stationary     ``repro.markov.ctmc.CTMC.stationary_distribution``
markov.qbd            ``repro.markov.matrix_geometric.solve_mmpp_m1``
core.solution2        ``repro.core.solution2.solve_solution2``
queueing.mm1          ``repro.queueing.mm1.solve_mm1``
experiments.fig13     ``repro.experiments.fig13_18.run_fig13``
experiments.fig14_17  ``repro.experiments.fig13_18.run_fig14_to_17``
experiments.column    the benchmark's fig12 simulation-column call
sim.run               ``repro.sim.engine.Simulator.run_until``
sim.busy_periods      ``repro.sim.busy_periods.analyze_busy_periods``
analysis.running_mean ``repro.analysis.convergence.running_mean{,_fluctuation}``
runtime.sweep         ``repro.runtime.sweep.sweep``
service.admit         ``repro.service.server.AdmissionService.admit``
service.admit_batch   ``repro.service.server.AdmissionService.admit_batch``
====================  =====================================================

Every workload's traced run prints every per-layer metric.  A metric of a
layer the workload does not run reads 0 (its call count is 0), which the
sim-figures run uses as a check that no Solution 0 runs there.
"""

from __future__ import annotations

from importlib import import_module

from tracer import SpanRecorder, SpanTable

#: Per-layer metrics each workload reports from its own measurements
#: (units and directions are in BENCHMARK.json).
OWN = {
    "exact-column": (
        "core.solution0.calls",
        "core.solution0.s",
        "core.solution0.self_s",
        "core.map.calls",
        "core.map.s",
        "core.map.phases",
        "core.map.cache_hits",
        "markov.generator.s",
        "markov.stationary.s",
        "markov.qbd.calls",
        "markov.qbd.s",
        "markov.qbd.share",
        "markov.qbd.phase3",
        "markov.qbd.fallbacks",
        "core.solution2.s",
        "queueing.mm1.s",
    ),
    "sim-figures": (
        "experiments.fig13.s",
        "experiments.fig14_17.s",
        "experiments.column.s",
        "sim.run.calls",
        "sim.run.s",
        "sim.msgs",
        "sim.events",
        "sim.busy_periods.s",
        "sim.busy_periods.periods",
        "analysis.running_mean.s",
        "runtime.sweep.self_s",
        "sim.share",
    ),
    "serve-closed": (
        "setup.import_s",
        "setup.load_s",
        "setup.boot_s",
        *(
            f"service.admit.{tier}.{what}"
            for tier in ("surface", "interpolated", "solve")
            for what in ("calls", "mean_us")
        ),
        "service.admit_batch.calls",
        "service.admit_batch.rows",
        "service.admit_batch.mean_us",
        "service.server_decide_us",
        "service.client_latency_us",
        "service.server_share",
        "service.cpu_share",
        "loadgen.cpu_share",
        *(
            f"service.stats.{tier}"
            for tier in ("surface", "interpolated", "solve", "degraded", "shed")
        ),
        "client.surface.p50_ms",
        "client.interpolated.p50_ms",
        "client.solve.p50_ms",
        "serve.batch_p50_ms",
        "serve.decisions_per_s",
        "serve.decide_p99_ms",
        "serve.decide_tail_ms",
        "serve.decide_tail_pct",
        "serve.decide_samples",
    ),
}


def install(recorder: SpanRecorder, service: bool = False) -> None:
    """Wrap every traced public function (``service``: the server's too)."""
    # import_module, not ``import a.b as m``: ``repro.runtime`` re-exports
    # a function named ``sweep`` that shadows its submodule attribute.
    convergence = import_module("repro.analysis.convergence")
    mapping = import_module("repro.core.mmpp_mapping")
    solution0 = import_module("repro.core.solution0")
    solution2 = import_module("repro.core.solution2")
    fig13_18 = import_module("repro.experiments.fig13_18")
    ctmc = import_module("repro.markov.ctmc")
    matrix_geometric = import_module("repro.markov.matrix_geometric")
    truncation = import_module("repro.markov.truncation")
    mm1 = import_module("repro.queueing.mm1")
    sweep = import_module("repro.runtime.sweep")
    busy_periods = import_module("repro.sim.busy_periods")
    engine = import_module("repro.sim.engine")

    def phases(_args, mapped):
        return mapped.mmpp.num_states

    def qbd_tag(args, solution):
        depth = solution.diagnostics.fallback_depth if solution.diagnostics else 0
        return [args[0].num_states, depth]

    recorder.patch(solution0, "solve_solution0", "core.solution0")
    recorder.patch(mapping, "symmetric_hap_to_mmpp", "core.map", phases)
    recorder.patch(mapping, "hap_to_mmpp", "core.map", phases)
    recorder.patch(truncation, "build_generator", "markov.generator")
    recorder.patch(ctmc.CTMC, "stationary_distribution", "markov.stationary")
    recorder.patch(matrix_geometric, "solve_mmpp_m1", "markov.qbd", qbd_tag)
    recorder.patch(solution2, "solve_solution2", "core.solution2")
    recorder.patch(mm1, "solve_mm1", "queueing.mm1")
    recorder.patch(fig13_18, "run_fig13", "experiments.fig13")
    recorder.patch(fig13_18, "run_fig14_to_17", "experiments.fig14_17")
    recorder.patch(
        engine.Simulator,
        "run_until",
        "sim.run",
        lambda args, _result: args[0].events_processed,
    )
    recorder.patch(
        busy_periods,
        "analyze_busy_periods",
        "sim.busy_periods",
        lambda _args, result: len(result[0]),
    )
    recorder.patch(convergence, "running_mean", "analysis.running_mean")
    recorder.patch(convergence, "running_mean_fluctuation", "analysis.running_mean")
    recorder.patch(sweep, "sweep", "runtime.sweep")
    if service:
        from repro.service.server import AdmissionService

        recorder.patch(
            AdmissionService, "admit", "service.admit", lambda _a, d: d.tier
        )
        recorder.patch(
            AdmissionService,
            "admit_batch",
            "service.admit_batch",
            lambda _a, batch: batch.rows,
        )


def map_cache_hits() -> int:
    """Hits of the HAP→MMPP mapping LRUs so far in this process."""
    mapping = import_module("repro.core.mmpp_mapping")
    return (
        mapping._cached_symmetric_map.cache_info().hits
        + mapping._cached_general_map.cache_info().hits
    )


def span_metrics(table: SpanTable, wall: float) -> dict[str, float]:
    """Every per-layer metric derived from spans (0 for layers not run)."""
    qbd_tags = [tag for tag in table.tags["markov.qbd"] if tag]
    sim_self = table.self_s["sim.run"] + table.self_s["sim.busy_periods"]
    metrics = {
        "core.solution0.calls": table.calls["core.solution0"],
        "core.solution0.s": table.total["core.solution0"],
        "core.solution0.self_s": table.self_s["core.solution0"],
        "core.map.calls": table.calls["core.map"],
        "core.map.s": table.total["core.map"],
        "core.map.phases": sum(t for t in table.tags["core.map"] if t),
        "markov.generator.s": table.total["markov.generator"],
        "markov.stationary.s": table.total["markov.stationary"],
        "markov.qbd.calls": table.calls["markov.qbd"],
        "markov.qbd.s": table.total["markov.qbd"],
        "markov.qbd.share": table.total["markov.qbd"] / wall,
        "markov.qbd.phase3": sum(n**3 for n, _ in qbd_tags),
        "markov.qbd.fallbacks": sum(depth for _, depth in qbd_tags),
        "core.solution2.s": table.total["core.solution2"],
        "queueing.mm1.s": table.total["queueing.mm1"],
        "experiments.fig13.s": table.total["experiments.fig13"],
        "experiments.fig14_17.s": table.total["experiments.fig14_17"],
        "experiments.column.s": table.total["experiments.column"],
        "sim.run.calls": table.calls["sim.run"],
        "sim.run.s": table.total["sim.run"],
        "sim.events": sum(t for t in table.tags["sim.run"] if t),
        "sim.busy_periods.s": table.total["sim.busy_periods"],
        "sim.busy_periods.periods": sum(t for t in table.tags["sim.busy_periods"] if t),
        "analysis.running_mean.s": table.total["analysis.running_mean"],
        "runtime.sweep.self_s": table.self_s["runtime.sweep"],
        "sim.share": sim_self / wall,
        "service.admit_batch.calls": table.calls["service.admit_batch"],
        "service.admit_batch.rows": sum(t for t in table.tags["service.admit_batch"] if t),
        "service.admit_batch.mean_us": _mean_us(table.durations["service.admit_batch"]),
        "trace.coverage": table.self_total() / wall,
        "trace.spans": table.spans,
    }
    for tier in ("surface", "interpolated", "solve"):
        durations = [
            d
            for d, t in zip(table.durations["service.admit"], table.tags["service.admit"])
            if t == tier
        ]
        metrics[f"service.admit.{tier}.calls"] = len(durations)
        metrics[f"service.admit.{tier}.mean_us"] = _mean_us(durations)
    return metrics


def _mean_us(durations: list[float]) -> float:
    return 1e6 * sum(durations) / len(durations) if durations else 0.0
