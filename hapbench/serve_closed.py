"""serve-closed worker: one closed-loop client against one server process.

Set-up, outside timing: build the bench-serve decision surface (the 2-type
HAP of ``benchmarks/test_bench_service.py``, delay targets 0.6/0.9/1.4,
max population 8), write it as JSON plus the ``.npz`` sidecar, generate the
request set with ``generate_queries`` and compute every expected answer
with an in-process ``AdmissionService``.  Then spawn the server
(``serve_entry.py``) ``--spawns`` times, timing spawn to first answered
``ping``; the last one serves the timed phase.  The worker and the server
run on one CPU.

The timed phase sends ``--blocks`` distinct blocks of 1000 requests
through one ``AdmissionClient`` connection, each request after the
previous answer, in passes: each pass sends every block once, in a seeded
order, until ``--seconds`` have passed (at least ``MIN_PASSES``), or
exactly ``--passes`` of them.  Each block holds 904 cached, 73
interpolated and 3 live-solve ``admit`` calls and 20 ``admit_batch``
calls of 64 rows (60 cached, 4 interpolated), shuffled by the seed.  Reference readings (``common.reference_gap``) are
taken between blocks.  Before timing, each of the 81 live-solve
population mixes is sent once (a long-running server holds those solves
in its probe cache) and then one warm-up block.

Run through ``run.py``; by hand::

    PYTHONPATH=src python3 hapbench/serve_closed.py --spawned-at 0 --seed 1
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time

import common

#: Requests per block; a block's mix is fixed, its order seeded.
BLOCK = 1000
SCALAR_MIX = {"cached": 904, "interpolated": 73, "miss": 3}
BATCHES_PER_BLOCK = 20
BATCH_MIX = {"cached": 60, "interpolated": 4}
#: Passes over the blocks a run makes, however long they take.
MIN_PASSES = 3
#: A request not answered within this many seconds counts as failed.
REQUEST_TIMEOUT_S = 5.0
#: Guard on the whole timed phase; requests left unanswered fail.
PHASE_TIMEOUT_S = 120.0
#: Spawn-to-listening limit for a server process.
READY_TIMEOUT_S = 60.0


def bench_surfaces():
    """The bench-serve surface of ``benchmarks/test_bench_service.py``."""
    from repro.core.params import HAPParameters
    from repro.service.surfaces import build_decision_surfaces

    params = HAPParameters.symmetric(
        user_arrival_rate=0.05,
        user_departure_rate=0.05,
        app_arrival_rate=0.05,
        app_departure_rate=0.05,
        message_arrival_rate=0.4,
        message_service_rate=3.0,
        num_app_types=2,
        num_message_types=1,
        name="bench-serve",
    )
    return build_decision_surfaces(params, (0.6, 0.9, 1.4), max_population=8, max_workers=1)


def request_blocks(surfaces, blocks: int, seed: int) -> list[tuple[str, object]]:
    """``blocks`` x 1000 requests: ``("admit", (n1, n2, d))`` or ``("batch", rows)``."""
    import numpy as np

    from repro.service.client import generate_queries

    rng = np.random.default_rng(seed)
    pools = {
        ("admit", tier): generate_queries(surfaces, tier, count * blocks, int(rng.integers(2**31)))
        for tier, count in SCALAR_MIX.items()
    }
    pools.update(
        {
            ("batch", tier): generate_queries(
                surfaces, tier, count * BATCHES_PER_BLOCK * blocks, int(rng.integers(2**31))
            )
            for tier, count in BATCH_MIX.items()
        }
    )
    requests: list[tuple[str, object]] = []
    for b in range(blocks):
        block: list[tuple[str, object]] = []
        for tier, count in SCALAR_MIX.items():
            block += [("admit", q) for q in pools["admit", tier][b * count : (b + 1) * count]]
        for j in range(BATCHES_PER_BLOCK):
            rows = []
            for tier, count in BATCH_MIX.items():
                k = b * BATCHES_PER_BLOCK + j
                rows += pools["batch", tier][k * count : (k + 1) * count]
            block.append(("batch", [rows[i] for i in rng.permutation(len(rows))]))
        requests += [block[i] for i in rng.permutation(len(block))]
    return requests


def live_solve_mixes(surfaces) -> list[tuple[float, float, float]]:
    """One live-solve admit per population mix (the probe cache's keys)."""
    target = 2.0 * float(surfaces.delay_targets[-1])
    size = surfaces.max_population + 1
    return [(float(n1), float(n2), target) for n1 in range(size) for n2 in range(size)]


async def expected_answers(surfaces, requests) -> list:
    """Each request's ``(admit, tier)`` (lists for a batch), answered in-process."""
    from repro.service.server import AdmissionService

    answers = []
    with AdmissionService(surfaces) as service:
        for kind, query in requests:
            if kind == "admit":
                decision = await service.admit(*query)
                answers.append((decision.admit, decision.tier))
            else:
                n1, n2, d = zip(*query)
                batch = await service.admit_batch(n1, n2, d)
                answers.append((list(batch.admit), list(batch.tier)))
    return answers


def send(client, kind: str, query):
    if kind == "admit":
        return client.admit(*query)
    n1, n2, d = zip(*query)
    return client.admit_batch(list(n1), list(n2), list(d))


class Server:
    """One spawned ``serve_entry.py`` process."""

    def __init__(self, surfaces_path: str, trace: bool, span_file: str):
        self.spawned_at = common.now()
        command = [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_entry.py"),
            "--spawned-at",
            repr(self.spawned_at),
            "--surfaces",
            surfaces_path,
            "--trace",
            str(int(trace)),
            "--span-file",
            span_file,
        ]
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=common.worker_env(), stdout=subprocess.PIPE, text=True
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stop()
            raise RuntimeError(f"server exited {self.proc.returncode} before listening")
        self.ready = json.loads(line)
        self.port = int(self.ready["port"])

    def stop(self) -> int:
        """SIGTERM, wait; SIGKILL if it will not exit.  Returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


async def boot(server: Server):
    """Connect and ping; return (client, setup parts)."""
    from repro.service.client import AdmissionClient

    client = await AdmissionClient.open("127.0.0.1", server.port)
    await client.ping()
    answered = common.now()
    setup = {
        "setup_s": answered - server.spawned_at,
        "import_s": server.ready["import_s"],
        "load_s": server.ready["load_s"],
        "boot_s": answered - server.spawned_at - server.ready["import_s"] - server.ready["load_s"],
    }
    return client, setup


async def closed_loop(client, distinct, order, args, run: dict) -> None:
    """Send passes over the distinct blocks, each request after the previous answer.

    Each pass sends every block once, in an order drawn from ``order``;
    passes go on until ``args.seconds`` have passed and at least
    ``MIN_PASSES`` are done, or number exactly ``args.passes``.
    Reference readings are taken after every block, while the server is
    idle; each block records the mean of the readings just before and
    just after it.
    """
    readings = run["reference_ms"]
    start = common.now()
    passes = 0
    while common.more_passes(passes, args.passes, start, args.seconds, MIN_PASSES):
        for block in order.permutation(len(distinct) // BLOCK):
            run["block_ids"].append(int(block))
            before = readings[-common.REFERENCE_PER_GAP :]
            for kind, query in distinct[block * BLOCK : (block + 1) * BLOCK]:
                t0 = time.perf_counter()
                try:
                    response = await send(client, kind, query)
                except (RuntimeError, ConnectionError, OSError, ValueError) as exc:
                    response = {"error": repr(exc)}
                run["latencies"].append(time.perf_counter() - t0)
                run["answers"].append(response)
            after = common.reference_gap(readings)
            run["block_reference_ms"].append(sum(before + after) / len(before + after))
        passes += 1


async def drive(args, surfaces_path: str, distinct, warmup, surfaces, order) -> dict:
    setups = []
    for _ in range(args.spawns - 1):
        server = Server(surfaces_path, False, "")
        try:
            client, setup = await boot(server)
            await client.close()
        finally:
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"set-up server exited {code}")
        setups.append(setup)
    server = Server(surfaces_path, bool(args.trace), args.span_file)
    try:
        client, setup = await boot(server)
        setups.append(setup)
        for query in live_solve_mixes(surfaces):
            await client.admit(*query)
        for kind, query in warmup:
            await send(client, kind, query)
        stats_before = await client.stats()
        run = {
            "block_ids": [],
            "latencies": [],
            "answers": [],
            "reference_ms": [common.reference_ms() for _ in range(common.REFERENCE_WARMUP)],
            "block_reference_ms": [],
        }
        calib_before = common.calib_ms()
        gc.collect()
        gc.freeze()
        gc.disable()
        server_cpu = common.proc_cpu_s(server.proc.pid)
        own_cpu = time.process_time()
        start = common.now()
        try:
            await asyncio.wait_for(
                closed_loop(client, distinct, order, args, run), PHASE_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            pass
        end = common.now()
        own_cpu = time.process_time() - own_cpu
        server_cpu = common.proc_cpu_s(server.proc.pid) - server_cpu
        gc.enable()
        gc.unfreeze()
        calib_after = common.calib_ms()
        stats_after = await client.stats()
        vm_hwm = common.proc_status_mib(server.proc.pid)
        await client.close()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited {code}")
    return {
        **run,
        "setups": setups,
        "window": [start, end],
        "wall_s": end - start,
        "server_cpu_s": server_cpu,
        "loadgen_cpu_s": own_cpu,
        "stats": {k: stats_after.get(k, 0) - stats_before.get(k, 0) for k in stats_after},
        "vm_hwm_mib": vm_hwm,
        "calib_ms": [calib_before, calib_after],
    }


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--passes", type=int, default=0, help="exactly this many (0: --seconds)")
    parser.add_argument("--spawns", type=int, default=3)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--span-file", type=str, default="")
    args = parser.parse_args(argv)

    # Client and server share one CPU: the closed loop keeps one of them
    # busy at a time, and a wake-up never crosses CPUs.
    common.pin_to_one_cpu()
    import numpy as np

    from repro.service.surfaces import save_surfaces, save_surfaces_binary

    surfaces = bench_surfaces()
    common.OUT_DIR.mkdir(exist_ok=True)
    surfaces_path = str(common.OUT_DIR / f"surfaces-{os.getpid()}.json")
    save_surfaces(surfaces, surfaces_path)
    save_surfaces_binary(surfaces, surfaces_path[: -len(".json")] + ".npz")
    distinct = request_blocks(surfaces, args.blocks, args.seed)
    warmup = request_blocks(surfaces, 1, args.seed + 1_000_003)
    answers_of = asyncio.run(expected_answers(surfaces, distinct))
    order = np.random.default_rng([args.seed, 1])
    try:
        run = asyncio.run(drive(args, surfaces_path, distinct, warmup, surfaces, order))
    finally:
        for suffix in (".json", ".npz"):
            path = surfaces_path[: -len(".json")] + suffix
            if os.path.exists(path):
                os.remove(path)

    scalar_ms, batch_ms, tier_ms = [], [], {"surface": [], "interpolated": [], "solve": []}
    errors = []
    answers = run.pop("answers")
    latencies = run.pop("latencies")
    block_ids = run.pop("block_ids")
    requests, expected = [], []
    for b in block_ids:
        requests += distinct[b * BLOCK : (b + 1) * BLOCK]
        expected += answers_of[b * BLOCK : (b + 1) * BLOCK]
    for i, (kind, _query) in enumerate(requests):
        if i >= len(answers):
            errors.append(f"request {i}: unanswered within {PHASE_TIMEOUT_S:g} s")
            continue
        response, latency = answers[i], latencies[i]
        want_admit, want_tier = expected[i]
        if "error" in response:
            errors.append(f"request {i}: {response['error']}")
        elif {"shed", "degraded"} & set(_as_list(response.get("tier"))):
            errors.append(f"request {i}: answered tier {response.get('tier')}")
        elif latency > REQUEST_TIMEOUT_S:
            errors.append(f"request {i}: answered after {latency:.3f} s")
        elif response.get("admit") != want_admit or response.get("tier") != want_tier:
            errors.append(
                f"request {i}: got admit={response.get('admit')} tier={response.get('tier')}, "
                f"expected admit={want_admit} tier={want_tier}"
            )
        if kind == "admit":
            scalar_ms.append(latency * 1e3)
            if response.get("tier") in tier_ms:
                tier_ms[response["tier"]].append(latency * 1e3)
        else:
            batch_ms.append(latency * 1e3)
    block_p50_ms = [
        common.median(
            1e3 * latency
            for (kind, _q), latency in zip(requests[b : b + BLOCK], latencies[b : b + BLOCK])
            if kind == "admit"
        )
        for b in range(0, len(latencies), BLOCK)
    ]
    block_wall_s = [sum(latencies[b : b + BLOCK]) for b in range(0, len(latencies), BLOCK)]
    common.emit(
        {
            **run,
            "block_ids": block_ids,
            "block_p50_ms": block_p50_ms,
            "block_wall_s": block_wall_s,
            "attempted": len(requests),
            "errors": errors,
            "scalar_ms": scalar_ms,
            "batch_ms": batch_ms,
            "tier_ms": tier_ms,
            "decisions": len(scalar_ms) + sum(len(q) for k, q in requests if k == "batch"),
            "provenance": common.provenance(),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
