#!/usr/bin/env python3
"""Generate the built-in worked-example specs, run them all, and print a
one-line summary per case.  Reports land in ./out/worked-examples/.  Exits
1 if any case failed (its report then holds only the error)."""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from monodeform.cli import example_specs, run_spec  # noqa: E402

OUT = os.path.join("out", "worked-examples")


def main():
    os.makedirs(OUT, exist_ok=True)
    failed = 0
    for name, spec in example_specs().items():
        t0 = time.perf_counter()
        try:
            report = run_spec(spec, csv_dir=os.path.join(OUT, name))
            status = "ok"
        except Exception as exc:  # surface, keep sweeping
            report = {"error": str(exc)}
            status = f"FAILED ({type(exc).__name__})"
            failed += 1
        elapsed = time.perf_counter() - t0
        path = os.path.join(OUT, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        summary = ""
        if status == "ok":
            if "monodromies" in report.get("results", {}):
                eigs = report["results"]["monodromies"][0]["eigenvalues"]
                summary = f"eigs[0] = {eigs}"
            elif "jumps" in report.get("results", {}):
                j = report["results"]["jumps"][0]
                summary = f"anchor={j.get('anchor')}"
                if "constancy_residual" in j:
                    summary += f" constancy={j['constancy_residual']:.2e}"
            elif "lambda1" in report.get("results", {}):
                summary = f"lambda1 = {report['results']['lambda1']}"
            elif "oracle_triangle" in report.get("diagnostics", {}):
                t = report["diagnostics"]["oracle_triangle"][0]
                summary = f"triangle max = {max(v for k, v in t.items() if k != 'x'):.2e}"
        print(f"{name:24s} {status:8s} {elapsed:6.1f}s  {summary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
