"""Benchmark command: one workload, fresh worker processes, one JSON result.

Usage, from the repository root::

    python3 hapbench/run.py --workload exact-column --seed 1 --seconds 25 --trace 0

Workloads (see ``hapbench/README.md``):

* ``exact-column`` — the fig11/fig12 exact column (Solution 0 on the QBD
  backend, Solution 2, M/M/1), solved serially in one process;
* ``sim-figures`` — passes over figs 13, 14–17 and the four fig12
  simulation-column points on the heap engine;
* ``serve-closed`` — one closed-loop client against one admission server.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``p50_ms``, ``peak_rss_mib``); ``--trace 1`` makes an untraced and a
traced pass and prints the per-layer metrics.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the provenance record, also written to ``.bench_out/``.  sim-figures and
serve-closed repeat a fixed set of calls or requests for ``--seconds``;
exact-column always solves its whole column.  ``--seed`` picks the inputs
and the order, never the amount of work in a repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import common
import layers
from tracer import SpanRecorder, SpanTable

WORKLOADS = ("exact-column", "sim-figures", "serve-closed")
#: Extra set-up-only spawns per run; setup_s is the median over all spawns.
SETUP_PROBES = 4
#: Server spawns per serve-closed run; the last one serves the timed phase.
SERVER_SPAWNS = 3
#: Passes of the traced sim-figures and serve-closed runs: a fixed amount of
#: work, so per-layer totals move only when the layers do.
TRACED_PASSES = 3
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0


class Budget:
    """Seconds left of the run's budget, for worker timeouts."""

    def __init__(self, total: float):
        self.deadline = time.monotonic() + total

    def left(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise RuntimeError("run budget exhausted")
        return remaining


def span_file(workload: str, seed: int) -> str:
    common.OUT_DIR.mkdir(exist_ok=True)
    return str(common.OUT_DIR / f"spans-{workload}-seed{seed}-{os.getpid()}.jsonl")


def setup_probes(script: str, seed: int, budget: Budget) -> list[float]:
    return [
        common.run_worker(script, ["--seed", str(seed), "--setup-only"], budget.left())["setup_s"]
        for _ in range(SETUP_PROBES)
    ]


def traced_table(path: str, window) -> SpanTable:
    table = SpanTable(SpanRecorder.load(path), tuple(window))
    os.remove(path)
    return table


# ----------------------------------------------------------------------
# exact-column
# ----------------------------------------------------------------------
def exact_column(seed: int, seconds: int, trace: bool, budget: Budget) -> dict:
    args = ["--seed", str(seed)]
    probes = setup_probes("exact_column.py", seed, budget)
    run = common.run_worker("exact_column.py", args, budget.left())
    errors = [point["error"] for point in run["points"] if point["error"]]
    out = {
        "attempted": len(run["points"]),
        "errors": errors,
        "setup_samples": probes + [run["setup_s"]],
        "end_to_end": {
            "setup_s": common.median(probes + [run["setup_s"]]),
            "wall_s": run["wall_s"],
            "p50_ms": 1e3 * common.median(p["latency_s"] for p in run["points"]),
            "peak_rss_mib": run["vm_hwm_mib"],
        },
        "runs": [run],
    }
    if trace:
        path = span_file("exact-column", seed)
        traced = common.run_worker(
            "exact_column.py", args + ["--trace", "1", "--span-file", path], budget.left()
        )
        out["attempted"] += len(traced["points"])
        out["errors"] += [p["error"] for p in traced["points"] if p["error"]]
        table = traced_table(path, traced["window"])
        out["per_layer"] = {
            **layers.span_metrics(table, traced["wall_s"]),
            "trace.wall_s": traced["wall_s"],
            "core.map.cache_hits": traced["map_cache_hits"],
            "trace.overhead_share": traced["wall_s"] / run["wall_s"] - 1.0,
        }
        out["traced"] = traced
    return out


# ----------------------------------------------------------------------
# sim-figures
# ----------------------------------------------------------------------
def call_s(call) -> float:
    """A call's time: the median over its repeats, each host-scaled.

    Every repeat does the same work (the fingerprint check holds it to
    that); ``common.host_scaled`` takes out the host's speed at the time
    of each repeat.
    """
    return common.median(map(common.host_scaled, call["latencies_s"], call["reference_ms"]))


def sim_figures(seed: int, seconds: int, trace: bool, budget: Budget) -> dict:
    args = ["--seed", str(seed), "--seconds", str(seconds)]
    probes = setup_probes("sim_figures.py", seed, budget)
    run = common.run_worker("sim_figures.py", args, budget.left())

    def attempted_in(result):
        return sum(len(call["latencies_s"]) for call in result["calls"])

    def errors_of(result):
        found = [error for call in result["calls"] for error in call["errors"]]
        return found + ([result["pooled_error"]] if result["pooled_error"] else [])

    out = {
        "attempted": attempted_in(run),
        "errors": errors_of(run),
        "setup_samples": probes + [run["setup_s"]],
        "end_to_end": {
            "setup_s": common.median(probes + [run["setup_s"]]),
            "wall_s": sum(call_s(call) for call in run["calls"]),
            "p50_ms": 1e3 * common.median(call_s(call) for call in run["calls"]),
            "peak_rss_mib": run["vm_hwm_mib"],
        },
        "runs": [run],
    }
    if trace:
        path = span_file("sim-figures", seed)
        traced = common.run_worker(
            "sim_figures.py",
            args + ["--passes", str(TRACED_PASSES), "--trace", "1", "--span-file", path],
            budget.left(),
        )
        out["attempted"] += attempted_in(traced)
        out["errors"] += errors_of(traced)
        table = traced_table(path, traced["window"])
        # Time inside the calls: the heap collection and reference readings
        # between them are the benchmark's, not the package's.
        busy = sum(sum(call["latencies_s"]) for call in traced["calls"])
        out["per_layer"] = {
            **layers.span_metrics(table, busy),
            "trace.wall_s": busy,
            "sim.msgs": traced["msgs"],
            "trace.overhead_share": sum(map(call_s, traced["calls"])) / out["end_to_end"]["wall_s"]
            - 1.0,
        }
        out["traced"] = traced
    return out


# ----------------------------------------------------------------------
# serve-closed
# ----------------------------------------------------------------------
#: Distinct blocks of 1000 requests; each pass sends all of them.
SERVE_BLOCKS = 10


def per_block(result, key: str) -> list[float]:
    """Each distinct block's ``key``: the median over its passes, host-scaled."""
    passes: dict = {}
    for block, value, reference in zip(
        result["block_ids"], result[key], result["block_reference_ms"]
    ):
        passes.setdefault(block, []).append(common.host_scaled(value, reference))
    return [common.median(values) for values in passes.values()]


def serve_closed(seed: int, seconds: int, trace: bool, budget: Budget) -> dict:
    args = ["--seed", str(seed), "--blocks", str(SERVE_BLOCKS), "--seconds", str(seconds)]
    run = common.run_worker("serve_closed.py", args + ["--spawns", str(SERVER_SPAWNS)], budget.left())
    out = {
        "attempted": run["attempted"],
        "errors": run["errors"],
        "setup_samples": [s["setup_s"] for s in run["setups"]],
        "end_to_end": {
            "setup_s": common.median(s["setup_s"] for s in run["setups"]),
            "wall_s": sum(per_block(run, "block_wall_s")),
            "p50_ms": common.median(per_block(run, "block_p50_ms")),
            "peak_rss_mib": run["vm_hwm_mib"],
        },
        "runs": [run],
    }
    if trace:
        path = span_file("serve-closed", seed)
        traced = common.run_worker(
            "serve_closed.py",
            args
            + ["--passes", str(TRACED_PASSES), "--spawns", "1", "--trace", "1", "--span-file", path],
            budget.left(),
        )
        out["attempted"] += traced["attempted"]
        out["errors"] += traced["errors"]
        table = traced_table(path, traced["window"])
        # Time inside the requests: the reference readings between blocks
        # are the benchmark's, not the service's.
        wall = sum(traced["block_wall_s"])
        setup = traced["setups"][-1]
        decide_us = 1e6 * common.median(table.durations["service.admit"])
        client_us = 1e3 * common.median(traced["scalar_ms"])
        tail_ms, tail_pct, samples = common.tail_percentile(traced["scalar_ms"])
        out["per_layer"] = {
            **layers.span_metrics(table, wall),
            "trace.wall_s": wall,
            "setup.import_s": setup["import_s"],
            "setup.load_s": setup["load_s"],
            "setup.boot_s": setup["boot_s"],
            "service.server_decide_us": decide_us,
            "service.client_latency_us": client_us,
            "service.server_share": decide_us / client_us if client_us else 0.0,
            "service.cpu_share": traced["server_cpu_s"] / traced["wall_s"],
            "loadgen.cpu_share": traced["loadgen_cpu_s"] / traced["wall_s"],
            **{
                f"service.stats.{tier}": traced["stats"].get(tier, 0)
                for tier in ("surface", "interpolated", "solve", "degraded", "shed")
            },
            **{
                f"client.{tier}.p50_ms": common.median(traced["tier_ms"][tier])
                for tier in ("surface", "interpolated", "solve")
            },
            "serve.batch_p50_ms": common.median(traced["batch_ms"]),
            "serve.decisions_per_s": traced["decisions"] / wall,
            "serve.decide_p99_ms": common.nearest_rank(sorted(traced["scalar_ms"]), 99.0),
            "serve.decide_tail_ms": tail_ms,
            "serve.decide_tail_pct": tail_pct,
            "serve.decide_samples": samples,
            "trace.overhead_share": sum(per_block(traced, "block_wall_s"))
            / out["end_to_end"]["wall_s"]
            - 1.0,
        }
        out["traced"] = traced
    return out


RUNNERS = {"exact-column": exact_column, "sim-figures": sim_figures, "serve-closed": serve_closed}


def per_layer_metrics(workload: str, out: dict, steal: float) -> dict:
    """Every per-layer metric; layers the workload does not run read 0."""
    run, traced = out["runs"][0], out["traced"]
    values = dict(out["per_layer"])
    for other, names in layers.OWN.items():
        if other != workload:
            for name in names:
                values.setdefault(name, 0)
    values.update(
        {
            "host.steal_share": steal,
            "host.calib_ms": sum(run["calib_ms"]) / len(run["calib_ms"]),
            "failed_share": min(len(out["errors"]), out["attempted"]) / out["attempted"],
        }
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {common.ROOT / 'src'}", file=sys.stderr)
        return 2
    common.self_test_percentiles()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    budget = Budget(RUN_BUDGET_S)
    ticks = common.host_cpu_ticks()
    out = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), budget)
    steal = common.steal_share(ticks, common.host_cpu_ticks())

    if args.trace:
        values = per_layer_metrics(args.workload, out, steal)
        declared = spec["per_layer"]
    else:
        values = out["end_to_end"]
        declared = spec["end_to_end"]
    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json"
        )
    metrics = {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **out["runs"][0]["provenance"],
        "peak_rss_source": "VmHWM of the server process"
        if args.workload == "serve-closed"
        else "VmHWM of the workload process",
        "host.steal_share": steal,
        "host.calib_ms": out["runs"][0]["calib_ms"],
        "errors": out["errors"][:20],
        "setup_samples": out["setup_samples"],
        "end_to_end": out["end_to_end"],
        "timed_phase_s": out["runs"][0]["wall_s"],
        "reference_ms": out["runs"][0].get("reference_ms"),
    }
    common.OUT_DIR.mkdir(exist_ok=True)
    path = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("provenance " + json.dumps(record))
    result = {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": min(len(out["errors"]), out["attempted"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
