#!/usr/bin/env python3
"""Write the reports of the first rounds of every benchmark workload.

    python3 scripts/dump_workload_reports.py ROOT OUT

Runs monodeform from ROOT/src on the specs of `perfbench/workloads.py` (read
from this script's checkout, so that two ROOTs get the same specs): the
rounds of a fixed-length traced pass (`workloads.FIXED_ROUNDS`) of each
workload, seeds 1 and 2, every spec through `cli.run_spec`, and every entry
of a `cli-sweep` sweep on its own.  Reports land in
OUT/<workload>/seed<N>/r<round>-<i>-<label>.json, CSV files in a directory
of the same name, and a spec that fails writes {"error": ...} instead.
Diff two trees with `scripts/compare_reports.py`.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root, out = sys.argv[1:]
    sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    import workloads
    from monodeform.cli import run_spec
    from monodeform.errors import MonodeformError

    failed = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            rounds = workloads.rounds(workload, seed)
            folder = os.path.join(out, workload, f"seed{seed}")
            os.makedirs(folder, exist_ok=True)
            for r in range(1, workloads.FIXED_ROUNDS[workload] + 1):
                specs = [e for s in next(rounds) for e in s.get("sweep", [s])]
                for i, spec in enumerate(specs):
                    name = f"r{r}-{i}-{workloads.op_label(spec).replace('/', '-')}"
                    try:
                        report = run_spec(spec, csv_dir=os.path.join(folder, name))
                    except MonodeformError as exc:
                        report = {"error": str(exc)}
                        failed += 1
                    with open(os.path.join(folder, name + ".json"), "w") as fh:
                        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
