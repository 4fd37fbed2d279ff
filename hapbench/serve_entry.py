"""Admission server process for the serve-closed workload.

Untraced, this makes the same public calls as ``repro.cli serve
--surfaces <file> --port 0`` with its defaults: ``load_surfaces`` (which
prefers the ``.npz`` sidecar), ``AdmissionService(surfaces,
solve_timeout=10, solver_workers=1, exact=False, overload=OverloadPolicy())``
and ``start_server``.  Once listening it prints one JSON line with the
bound port and its set-up timestamps, and serves until SIGTERM.

With ``--trace 1`` it wraps the layers' public functions (including
``AdmissionService.admit`` / ``admit_batch``) and, on SIGTERM, writes its
spans to ``--span-file`` before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--surfaces", type=str, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--span-file", type=str, default="")
    args = parser.parse_args(argv)

    from repro.service.server import AdmissionService, OverloadPolicy, start_server
    from repro.service.surfaces import load_surfaces

    imported = common.now()
    surfaces = load_surfaces(args.surfaces)
    loaded = common.now()
    recorder = None
    if args.trace:
        import layers
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder, service=True)
    service = AdmissionService(
        surfaces,
        solve_timeout=10.0,
        solver_workers=1,
        exact=False,
        overload=OverloadPolicy(),
    )

    async def serve() -> None:
        server = await start_server(service, host="127.0.0.1", port=0)
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
        ready = {
            "port": server.sockets[0].getsockname()[1],
            "import_s": imported - args.spawned_at,
            "load_s": loaded - imported,
            "listening_at": common.now(),
        }
        sys.stdout.write(json.dumps(ready) + "\n")
        sys.stdout.flush()
        async with server:
            await stop.wait()

    try:
        asyncio.run(serve())
    finally:
        service.close()
        if recorder is not None:
            recorder.dump(args.span_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
