"""Start the real ``serve()`` stack for one benchmark server process.

Usage (``src`` on ``PYTHONPATH``)::

    python3 -u perfbench/launcher.py INDEX_DIR [--workers-proc N] [--trace-out PATH]

Without ``--trace-out`` this only calls :func:`repro.xksearch.server.serve`
on an ephemeral port; nothing is wrapped.  With it, the layer functions in
:data:`targets.SERVER_TARGETS` are wrapped before ``serve()`` builds
anything, so forked pool workers inherit the wrappers too.  Spans stay in
memory; the server process writes ``PATH.server`` when ``serve()``
returns (SIGTERM drains it) and each pool worker writes ``PATH.<pid>``
when the pool stops it.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, install  # noqa: E402
from targets import SERVER_DETAIL, SERVER_TARGETS  # noqa: E402


def _trace_workers(rec: Recorder, trace_out: str) -> None:
    """Have every pool worker start with no spans and dump its own at exit."""
    from repro.xksearch import parallel

    worker_main = parallel._worker_main

    def traced_worker_main(*args, **kwargs):
        rec.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            rec.dump(f"{trace_out}.{os.getpid()}", "worker")

    parallel._worker_main = traced_worker_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("index_dir")
    parser.add_argument("--workers-proc", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    rec = None
    if args.trace_out:
        rec = Recorder(detail=SERVER_DETAIL)
        install(rec, SERVER_TARGETS)
        _trace_workers(rec, args.trace_out)
    from repro.xksearch.server import serve

    try:
        serve(args.index_dir, host="127.0.0.1", port=0, workers_proc=args.workers_proc)
    finally:
        if rec is not None:
            rec.dump(f"{args.trace_out}.server", "server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
