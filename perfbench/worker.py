"""One workload in one fresh process.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR (--seconds S | --rounds N) [--traced]

Runs the workload's seeded rounds of ops in a closed loop with a single
client, either for about S seconds (starting a round only while it should
end nearer to S than stopping would, and running at least the workload's
FIXED_ROUNDS) or for exactly the first N rounds, checks every report, and
prints one JSON line: per-op records (label, wall time, failed checks), the
loop's wall time, the peak resident memory over the first FIXED_ROUNDS
rounds (of the process itself, or for cli-sweep of its children) and, with
--traced, the layer spans and counters.  An op is one spec through
`cli.run_spec` plus the report's JSON serialisation (`cli._emit` to a
file), or for cli-sweep one `monodeform run --jobs 2` invocation in a fresh
interpreter.  Checks run outside the timed region.

Needs the checkout's `src` on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import procs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SWEEP_TIMEOUT_S = 120.0


def _in_process_op(cli, out_path: str):
    # entry points are looked up per call, so that traced wrappers apply
    def op(spec: dict) -> None:
        cli._emit(cli.run_spec(spec), out_path)

    return op


def _sweep_op(workdir: str, traced: bool, snapshots: list):
    here = os.path.dirname(os.path.abspath(__file__))
    spec_path = os.path.join(workdir, "sweep.json")
    out_path = os.path.join(workdir, "report.json")
    trace_path = os.path.join(workdir, "sweep-trace.json")
    if traced:
        prefix = [sys.executable, os.path.join(here, "traced_cli.py"), trace_path]
    else:
        prefix = [sys.executable, "-m", "monodeform.cli"]

    def op(spec: dict) -> None:
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        # the invocation stays in this process's group, which run.py kills
        code, _out, err = procs.run(prefix + ["run", "--spec", spec_path, "--jobs", "2",
                                              "--out", out_path], SWEEP_TIMEOUT_S,
                                    own_group=False)
        if code != 0:
            raise RuntimeError(f"monodeform run exited {code}: {err.strip()[-300:]}")
        if traced:
            with open(trace_path) as fh:
                snapshots.append(json.load(fh))

    return op, out_path


def _check(spec: dict, out_path: str) -> list[str]:
    try:
        with open(out_path) as fh:
            return workloads.check_report(spec, json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("workdir")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--rounds", type=int)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy

    tracer = tracing.Tracer()
    snapshots: list = []
    if args.workload == "cli-sweep":
        op, out_path = _sweep_op(args.workdir, args.traced, snapshots)
    else:
        from monodeform import cli

        out_path = os.path.join(args.workdir, "report.json")
        op = _in_process_op(cli, out_path)
        if args.traced:
            tracing.install(tracer)
            op = tracer.span(tracing.ROOT, op)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-sweep" else resource.RUSAGE_SELF
    fixed = workloads.FIXED_ROUNDS[args.workload]
    records = []
    peak_rss_mb = None
    source = workloads.rounds(args.workload, args.seed)
    t0 = perf_counter()
    done = 0

    def another_round() -> bool:
        if done < (args.rounds or fixed):
            return True
        if not args.seconds:
            return False
        # start a round only if it should end nearer the deadline than
        # stopping now would, so that a run lasts about S seconds on average
        elapsed = perf_counter() - t0
        return elapsed + 0.5 * elapsed / done < args.seconds

    # whole rounds only, so every run has the workload's full task mix
    while another_round():
        for spec in next(source):
            start = perf_counter()
            try:
                op(spec)
            except Exception as exc:  # a failed op is recorded, not fatal
                wall = perf_counter() - start
                errs = [f"{type(exc).__name__}: {exc}"]
            else:
                wall = perf_counter() - start
                errs = _check(spec, out_path)
            records.append([workloads.op_label(spec), wall, errs])
        done += 1
        if done == fixed:
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    loop_wall = perf_counter() - t0

    result = {
        "ops": records,
        "wall_s": loop_wall,
        "peak_rss_mb": peak_rss_mb,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count()},
    }
    if args.traced:
        result["trace"] = tracing.merge(snapshots) if snapshots else tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
