"""`monodeform run` with the benchmark's layer tracing installed.

    python3 perfbench/traced_cli.py TRACE_OUT run --spec ... [--jobs N] ...

The import of monodeform.cli is recorded as the span cli.import.  Sweep
entries run in forked pool workers, which inherit the wrapped
functions; each worker clears what it inherited before its first entry and
writes its own spans and counters after every entry.  Once `cli.main`
returns, this process merges them with its own and writes TRACE_OUT.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    trace_out = sys.argv[1]
    t0 = perf_counter()
    from monodeform import cli

    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.add("cli.import", import_s)

    class WaitedPool(cli.ProcessPoolExecutor):
        """Pool whose results are collected inside a cli.pool_wait span, so
        that waiting for the workers is not counted as cli.main self time."""

        def map(self, fn, *iterables, **kwargs):
            collect = tracer.span("cli.pool_wait", lambda: list(super(WaitedPool, self).map(
                fn, *iterables, **kwargs)))
            return iter(collect())

    cli.ProcessPoolExecutor = WaitedPool
    parts_dir = trace_out + ".parts"
    os.makedirs(parts_dir, exist_ok=True)
    for name in os.listdir(parts_dir):
        os.remove(os.path.join(parts_dir, name))
    parent = os.getpid()
    run_one = cli._run_one
    cleared = []

    @functools.wraps(run_one)
    def traced_run_one(payload):
        pid = os.getpid()
        if pid != parent and not cleared:
            tracer.reset()
            cleared.append(pid)
        try:
            return tracer.span(tracing.ROOT, run_one)(payload)
        finally:
            if pid != parent:
                with open(os.path.join(parts_dir, f"{pid}.json"), "w") as fh:
                    json.dump(tracer.snapshot(), fh)

    cli._run_one = traced_run_one
    code = tracer.span("cli.main", cli.main)(sys.argv[2:])
    snaps = [tracer.snapshot()]
    for name in sorted(os.listdir(parts_dir)):
        with open(os.path.join(parts_dir, name)) as fh:
            snaps.append(json.load(fh))
    with open(trace_out, "w") as fh:
        json.dump(tracing.merge(snaps), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
