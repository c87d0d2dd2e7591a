#!/usr/bin/env python3
"""Run alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B --out BENCH_<name>.json

PARENT and CHANGE are each a git revision of this repository or a directory
holding a checkout.  Each is exported into a fresh directory: a revision by
`git archive`, a directory as a copy of its `src`, `perfbench` and
`BENCHMARK.json`, in both cases without `__pycache__`.  Each exported tree
is then byte-compiled once (`compileall`), so every launch of either side
loads valid bytecode and `setup_s` measures import, not compilation (which
would favour the side with fewer lines).

For each seed N from A to B the two sides run one after the other, each its
own `perfbench/run.py --workload W --seed N --seconds S --trace 0`, where S
is the `run_seconds` of the change's BENCHMARK.json; odd seeds run the
parent first, even seeds the change.  The final line of every run is
recorded.  For each end-to-end metric of BENCHMARK.json the summary gives
each side's median and quartiles (inclusive method), the pairs the change
won (ties count for neither side), how much worse the change's median is
than the parent's relative to it, and whether that is within the metric's
bound.

Each side is recorded with a content id, a SHA-256 over the paths and bytes
of the `src`, `perfbench` and `BENCHMARK.json` it was exported to.  An --out
file that exists must hold the same content ids: the new runs are added to
it and the summary of W is computed again, so one file can collect several
workloads of one pair of trees, and runs of different trees are never mixed.
Exits 1 if a run fails.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _export(side: str, dest: str) -> str:
    """Export `side` into dest; returns how it was taken."""
    if os.path.isdir(side):
        skip = shutil.ignore_patterns("__pycache__", ".perfbench")
        for name in ("src", "perfbench"):
            shutil.copytree(os.path.join(side, name), os.path.join(dest, name), ignore=skip)
        shutil.copy(os.path.join(side, "BENCHMARK.json"), dest)
        return f"copy of src, perfbench and BENCHMARK.json from {side}"
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", side], check=True,
                         capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")
    return f"git archive of {rev}"


def _compile(tree: str) -> None:
    """Byte-compile every module of the exported tree once, before its first run."""
    if not compileall.compile_dir(tree, quiet=1):
        raise SystemExit(f"compileall failed in {tree}")


def _content_id(tree: str) -> str:
    """SHA-256 over the relative paths and bytes of what the benchmark runs."""
    digest = hashlib.sha256()
    files = [os.path.join(tree, "BENCHMARK.json")]
    for name in ("src", "perfbench"):
        for base, dirs, names in os.walk(os.path.join(tree, name)):
            dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", ".perfbench"))
            files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, tree).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"run failed in {tree} (seed {seed}): {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _summary(runs: list, workload: str, metrics: list) -> dict:
    """Per metric: the (parent, change) pairs by seed, medians, quartiles and wins."""
    by_seed = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    seeds = sorted(s for s, sides in by_seed.items() if len(sides) == 2)
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        pairs = [(by_seed[s]["parent"][name]["value"], by_seed[s]["change"][name]["value"])
                 for s in seeds]
        if not pairs:
            continue
        stats = {}
        for i, side in enumerate(("parent", "change")):
            values = [p[i] for p in pairs]
            q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
            stats.update({f"{side}_median": q2, f"{side}_q1": q1, f"{side}_q3": q3})
        worse = (sign * (stats["parent_median"] - stats["change_median"])
                 / abs(stats["parent_median"]) if stats["parent_median"] else 0.0)
        out[name] = {"pairs": [list(p) for p in pairs], **stats,
                     "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
                     "n_pairs": len(pairs), "change_worse_by": worse,
                     "parent_iqr": stats["parent_q3"] - stats["parent_q1"],
                     "within_bound": worse <= m["bound"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, both included")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))

    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(work, side) for side in ("parent", "change")}
        taken = {side: _export(getattr(args, side), tree) for side, tree in trees.items()}
        ids = {side: _content_id(tree) for side, tree in trees.items()}
        for tree in trees.values():
            _compile(tree)
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        record = {"parent": args.parent, "change": args.change, "content_ids": ids,
                  "runs": [], "summary": {}}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                record = json.load(fh)
            if record.get("content_ids") != ids:
                raise SystemExit(f"{args.out} holds runs of other trees: "
                                 f"{record.get('content_ids')} against {ids}")
        record["protocol"] = {
            "command": f"python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {seconds:g} --trace 0",
            "exports": taken,
            "bytecode": "each exported tree byte-compiled once by compileall before its runs",
            "order": "odd seeds run the parent first, even seeds the change first"}
        record["environment"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                                 "numpy": version("numpy")}
        metrics = bench["end_to_end"]
        for seed in range(first, last + 1):
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            for order, side in enumerate(sides, start=1):
                result = _run(trees[side], args.workload, seed, seconds)
                record["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                       "order": order, "result": result})
                print(f"{args.workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
            record["summary"][args.workload] = _summary(record["runs"], args.workload, metrics)
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
