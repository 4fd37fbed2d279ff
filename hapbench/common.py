"""Helpers shared by ``run.py`` and its worker processes.

Everything here is stdlib plus ``/proc`` reads, so ``run.py`` can use it
before (and without) importing the package under test.  Clock readings
that cross a process boundary use ``CLOCK_MONOTONIC``, which every process
on the host shares.
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

#: Checkout root (the directory holding ``src/`` and ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave surface files, span dumps and provenance records.
OUT_DIR = ROOT / ".bench_out"
#: Percentile ladder for tails: the highest rung with >= 10 samples beyond.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10
#: Simulated time of the reference loop (about 20 000 events).
REFERENCE_HORIZON = 1_000.0
#: The reference loop's time in the fast state of the 2-vCPU host the
#: bounds were set on; Python-bound timings are scaled to it.
REFERENCE_NOMINAL_MS = 11.0
#: Reference readings a worker takes before its timed phase.
REFERENCE_WARMUP = 5
#: Reference readings taken between two timed items.
REFERENCE_PER_GAP = 2


def now() -> float:
    """Seconds on the host-wide monotonic clock (comparable across processes)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    """Environment for a worker: the package importable from ``src``.

    BLAS threading is left at the library default; the provenance record
    logs the thread count the workers actually ran with.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed hash seed keeps set and dict iteration order, and so the
    # work a worker does, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(script: str, args: list[str], timeout: float) -> dict:
    """Spawn ``python3 <script> --spawned-at <t> <args>``; return its result.

    The worker prints one JSON object as its last stdout line.  A worker
    that exits non-zero, times out or prints no result raises
    ``RuntimeError`` (``run.py`` then exits without a result).
    """
    spawned_at = now()
    command = [sys.executable, str(ROOT / "hapbench" / script), "--spawned-at", repr(spawned_at), *args]
    # Own process group, so a timeout can stop the worker and any server
    # it spawned.
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{script} exceeded its {timeout:g} s budget") from None
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def more_passes(done: int, exact: int, start: float, seconds: float, least: int) -> bool:
    """Whether a worker starts another pass.

    ``exact`` passes when it is non-zero; else passes until ``seconds``
    have passed since ``start``, and at least ``least`` of them.
    """
    if exact:
        return done < exact
    return done < least or now() - start < seconds


def emit(result: dict) -> None:
    """Worker side of :func:`run_worker`: the result as the last stdout line."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def proc_status_mib(pid: int | str = "self", field: str = "VmHWM") -> float:
    """A ``/proc/<pid>/status`` memory field in MiB (``VmHWM`` = peak RSS)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU.

    The reference readings then time the CPU the timed work runs on.
    Called before numpy loads, so OpenBLAS starts one thread.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reset_peak_rss() -> None:
    """Start a new ``VmHWM`` window for this process (``/proc/self/clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def release_memory() -> None:
    """Collect garbage and hand freed heap pages back to the kernel."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)


def proc_cpu_s(pid: int | str = "self") -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user/nice.
    return steal, sum(values[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def calib_ms() -> float:
    """Time a fixed pure-Python loop (milliseconds).

    Marks slow machine periods in the provenance record; no metric is
    corrected by it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


class _Event:
    __slots__ = ("time", "kind", "born")

    def __init__(self, time: float, kind: int, born: float):
        self.time, self.kind, self.born = time, kind, born

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def reference_ms() -> float:
    """Time a fixed pure-Python M/M/1 event loop (milliseconds).

    The benchmark's own code, never the package's: a heap of event objects,
    exponential draws, a FIFO queue.  It slows with the host much as the
    package's Python code does, so :func:`host_scaled` can take the host's
    speed out of a timing.  A change to the package cannot move it.
    """
    start = time.perf_counter()
    draw = random.Random(7)
    heap = [_Event(0.0, 0, 0.0)]
    waiting: deque = deque()
    busy, served, total_delay = False, 0, 0.0
    while heap:
        event = heapq.heappop(heap)
        if event.time > REFERENCE_HORIZON:
            break
        if event.kind == 0:
            heapq.heappush(heap, _Event(event.time + draw.expovariate(8.0), 0, 0.0))
            if busy:
                waiting.append(event.time)
            else:
                busy = True
                heapq.heappush(heap, _Event(event.time + draw.expovariate(10.0), 1, event.time))
        else:
            served += 1
            total_delay += event.time - event.born
            if waiting:
                born = waiting.popleft()
                heapq.heappush(heap, _Event(event.time + draw.expovariate(10.0), 1, born))
            else:
                busy = False
    elapsed = time.perf_counter() - start
    if served == 0 or total_delay <= 0:
        raise AssertionError("reference loop served nothing")
    return elapsed * 1e3


def reference_gap(readings: list) -> list:
    """Take ``REFERENCE_PER_GAP`` reference readings, appending them to ``readings``.

    Returns the readings just taken.
    """
    taken = [reference_ms() for _ in range(REFERENCE_PER_GAP)]
    readings += taken
    return taken


def host_scaled(seconds: float, local_reference_ms: float) -> float:
    """A timing at the host speed where the reference loop takes the nominal time.

    ``local_reference_ms`` is the mean of the reference readings taken
    just before and just after the timed item.  This 2-vCPU host moves
    between a fast state and one where Python code runs 1.5-1.8x slower,
    for seconds or for whole runs; the reference loop slows with it.
    """
    return seconds * REFERENCE_NOMINAL_MS / local_reference_ms


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _rank(pct: float, n: int) -> int:
    """Nearest rank ``ceil(p/100 * n)``, in exact arithmetic (no 0.999 drift)."""
    return max(1, min(n, math.ceil(Fraction(str(pct)) * n / 100)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    if not sorted_values:
        return 0.0
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest ladder percentile with >= 10 samples beyond it.

    Returns ``(value, percentile, sample_count)``; an empty sample gives
    ``(0.0, 0.0, 0)`` and a sample too small for even the median's rung
    reports the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            chosen = pct
    return nearest_rank(ordered, chosen), chosen, n


def self_test_percentiles() -> None:
    """Check :func:`tail_percentile` on samples whose answer is known."""
    ramp = [float(i) for i in range(1, 1001)]  # 1..1000
    value, pct, n = tail_percentile(ramp)
    # p99 leaves 10 samples beyond (991..1000); p99.9 would leave 1.
    if (value, pct, n) != (990.0, 99.0, 1000):
        raise AssertionError(f"tail of 1..1000 read {(value, pct, n)}")
    value, pct, n = tail_percentile(list(reversed(ramp)) + [5000.0] * 9000)
    # 10 000 samples: p99.9 leaves 10 beyond, all 5000s.
    if (pct, n, value) != (99.9, 10_000, 5000.0):
        raise AssertionError(f"tail of mixed sample read {(value, pct, n)}")
    value, pct, n = tail_percentile([3.0, 1.0, 2.0])
    if (value, pct, n) != (2.0, 50.0, 3):
        raise AssertionError(f"tail of tiny sample read {(value, pct, n)}")
    if tail_percentile([]) != (0.0, 0.0, 0):
        raise AssertionError("empty sample must read (0, 0, 0)")
    if nearest_rank(ramp, 50.0) != 500.0 or nearest_rank(ramp, 100.0) != 1000.0:
        raise AssertionError("nearest rank is off")


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    found = {}
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(lib).name] = int(getter())
                break
    return found


def provenance() -> dict:
    """Host and library facts for the record (call after numpy/scipy load)."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }
