"""monodeform benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its `src`.

--trace 0 runs the workload in a fresh process for S seconds (closed loop,
one client), checks every report, then launches fresh interpreters that only
`import monodeform.cli` and takes the median as the set-up time.  It prints
the end-to-end metrics.

--trace 1 runs the workload's first few rounds of ops three times, each in
a fresh process: once untraced, then twice with every layer entry point
wrapped (see tracing.py).  The two traced passes must report identical work
counters.  It prints the per-layer table and metrics, and the tracing
overhead against the untraced pass.

`--workload all` does both for every workload and prints every metric.  The
last line of the output is always one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import procs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170.0        # every run ends within the 180 s the contract allows
SETUP_LAUNCHES = 3
TRACE_SETUP_LAUNCHES = 3
TAIL_BEYOND = 10        # samples the tail percentile must have beyond it


def _declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares under `kind`."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


class Run:
    """Paths, environment and the shared deadline of one benchmark run."""

    def __init__(self, root: str):
        self.workdir = os.path.join(root, ".perfbench")
        os.makedirs(self.workdir, exist_ok=True)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.begin()

    def begin(self) -> None:
        """Start the BUDGET_S allowance of one measure or trace step."""
        self.deadline = perf_counter() + BUDGET_S

    def child(self, cmd: list[str]) -> tuple[int, str, str]:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        return procs.run(cmd, left, self.env)

    def worker(self, workload: str, seed: int, *extra: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
               self.workdir, *extra]
        code, out, err = self.child(cmd)
        if code != 0:
            raise RuntimeError(f"worker {workload} exited {code}:\n{err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def setup_times(self, launches: int) -> list[float]:
        """Wall time of fresh interpreters that only import monodeform.cli."""
        times = []
        for _ in range(launches):
            t0 = perf_counter()
            code, _out, err = self.child([sys.executable, "-c", "import monodeform.cli"])
            times.append(perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"import monodeform.cli failed:\n{err.strip()[-2000:]}")
        return times


def _tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the minimum when there are too
    few samples for any."""
    xs = sorted(walls)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def _failures(records) -> list:
    return [r for r in records if r[2]]


def _print_ops(records) -> None:
    by_label: dict[str, list[float]] = {}
    for label, wall, _errs in records:
        by_label.setdefault(label, []).append(wall)
    for label, walls in sorted(by_label.items()):
        print(f"    {label:24s} n={len(walls):4d}  p50={statistics.median(walls):.4f} s"
              f"  min={min(walls):.4f} s  max={max(walls):.4f} s")
    for label, _wall, errs in _failures(records):
        print(f"    FAILED {label}: {'; '.join(errs)}")


def _print_env(env: dict) -> None:
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}")


def measure(run: Run, workload: str, seed: int, seconds: float) -> dict:
    end_to_end = _declared("end_to_end")
    res = run.worker(workload, seed, "--seconds", str(seconds))
    setup = run.setup_times(SETUP_LAUNCHES)
    records = res["ops"]
    walls = [r[1] for r in records]
    failed = len(_failures(records))
    ok = len(records) - failed
    tail, pct, beyond = _tail(walls)
    values = {
        # closed loop: ops that passed their checks over the time spent on ops
        "ops_per_s": ok / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": ok / len(records),
    }
    print(f"[{workload}] seed {seed}, {seconds:g} s closed loop, 1 client, untraced")
    _print_env(res["env"])
    print(f"  ops: {len(records)} attempted, {failed} failed, fail_ratio {failed / len(records):.4f}")
    _print_ops(records)
    print(f"  op_tail_s is p{pct:.1f} of {len(walls)} ops ({beyond} beyond it)")
    print(f"  setup_s launches: {', '.join(f'{t:.4f}' for t in setup)} s")
    for name, unit in end_to_end:
        print(f"  {name:14s} {values[name]:12.6g} {unit}")
    return {"attempted": len(records), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}}


def _layer_values(trace: dict, per_layer) -> dict:
    spans = tracing.totals(trace)
    counts = trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    hits = counts.get("hypergeom.pfq_series.hits", 0)
    misses = counts.get("hypergeom.pfq_series.misses", 0)
    attempts = counts.get("dyson.series_route.attempts", 0)
    zone = counts.get("dyson.series_route.zone_errors", 0)
    v = {
        "hypergeom.pfq_series.evals": misses,
        "hypergeom.pfq_cache.lookups": hits + misses,
        # a ratio with a zero base reads 0; its base is reported beside it
        "hypergeom.pfq_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "transport.rk.nfev": counts.get("transport.rk.nfev", 0),
        "transport.rk.steps": counts.get("transport.rk.steps", 0),
        "dyson.ode_route.nfev": counts.get("dyson.ode_route.nfev", 0),
        "dyson.series_route.attempts": attempts,
        "dyson.series_route.success_ratio": (attempts - zone) / attempts if attempts else 0.0,
        "dyson.series_sweep.nodes": counts.get("dyson.series_sweep.nodes", 0),
        "quadrature.gl_panels": counts.get("quadrature.gl_panels", 0),
        "varpar.cumulative.adaptive_calls": calls("varpar.cumulative"),
    }
    for name, _unit in per_layer:
        if name in v:
            continue
        base, _, field = name.rpartition(".")
        if field == "calls":
            v[name] = calls(base)
        elif field == "self_s":
            v[name] = self_s(base)
    return v


def _work_counters(trace: dict) -> dict:
    """Everything in a trace that repeats exactly: counters and span calls."""
    out = {f"count:{k}": v for k, v in trace["counts"].items()}
    for name, (calls, _self, _total) in tracing.totals(trace).items():
        out[f"calls:{name}"] = calls
    return out


def trace(run: Run, workload: str, seed: int) -> dict:
    per_layer = _declared("per_layer")
    n = str(workloads.FIXED_ROUNDS[workload])
    plain = run.worker(workload, seed, "--rounds", n)
    traced = [run.worker(workload, seed, "--rounds", n, "--traced") for _ in range(2)]
    records = plain["ops"] + traced[0]["ops"] + traced[1]["ops"]
    failed = len(_failures(records))

    first, second = (_work_counters(t["trace"]) for t in traced)
    mismatched = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))

    values = _layer_values(traced[0]["trace"], per_layer)
    values["trace.overhead_ratio"] = traced[0]["wall_s"] / plain["wall_s"]
    values["cli.invocation_minus_setup_s"] = 0.0
    if workload == "cli-sweep":
        setup = run.setup_times(TRACE_SETUP_LAUNCHES)
        values["cli.invocation_minus_setup_s"] = (
            statistics.median(r[1] for r in plain["ops"]) - statistics.median(setup))

    print(f"[{workload}] seed {seed}, first {n} rounds: 1 untraced pass, 2 traced passes")
    _print_env(plain["env"])
    print(f"  ops: {len(records)} attempted over 3 passes, {failed} failed")
    _print_ops(records)
    spans = tracing.totals(traced[0]["trace"])
    wall = traced[0]["wall_s"]
    print(f"  layer spans, first traced pass ({wall:.3f} s traced, "
          f"{plain['wall_s']:.3f} s untraced):")
    print(f"    {'span':34s} {'calls':>10s} {'self_s':>10s} {'total_s':>10s} {'self%':>6s}")
    ranked = sorted(spans.items(), key=lambda kv: -kv[1][1])
    for name, (calls, self_s, total_s) in ranked:
        print(f"    {name:34s} {calls:10d} {self_s:10.4f} {total_s:10.4f} "
              f"{100 * self_s / wall:6.1f}")
    # the op root and pool waiting are not layers doing work
    layers = [kv for kv in ranked if kv[0] not in (tracing.ROOT, "cli.pool_wait")]
    if layers:
        print(f"  largest self time: {layers[0][0]} ({layers[0][1][1]:.4f} s)")
    for key, count in sorted(traced[0]["trace"]["counts"].items()):
        print(f"    counter {key:40s} {count}")
    if mismatched:
        print("  SELF-CHECK FAILED: work counters differ between the traced passes:")
        for k in mismatched:
            print(f"    {k}: {first.get(k)} vs {second.get(k)}")
    else:
        print(f"  self-check: {len(first)} work counters identical in both traced passes")
    for name, unit in per_layer:
        print(f"  {name:38s} {values[name]:12.6g} {unit}")
    return {"attempted": len(records), "failed": failed + (1 if mismatched else 0),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in per_layer}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "monodeform", "cli.py")):
        print(f"no monodeform source under {os.path.join(root, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    run = Run(root)
    try:
        if args.workload != "all":
            step = trace if args.trace else measure
            extra = () if args.trace else (args.seconds,)
            res = step(run, args.workload, args.seed, *extra)
        else:
            res = {"attempted": 0, "failed": 0, "metrics": {}}
            for wl in workloads.WORKLOADS:
                for step, extra in ((measure, (args.seconds,)), (trace, ())):
                    run.begin()
                    part = step(run, wl, args.seed, *extra)
                    res["attempted"] += part["attempted"]
                    res["failed"] += part["failed"]
                    res["metrics"].update({f"{wl}.{k}": v for k, v in part["metrics"].items()})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
