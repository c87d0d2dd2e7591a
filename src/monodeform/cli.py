"""Command-line front end: JSON problem specs in, JSON/CSV results out.

Subcommands:
    run       execute a problem spec (or a {"sweep": [...]} of them)
    validate  schema + semantic checks without running numerics
    examples  write ready-to-run spec files for the worked cases
    schema    print the problem-spec JSON schema

Exit codes: 0 success, 2 for any fault of the spec (`schema.decode` refuses
it, under `run` and `validate` alike), 3 numeric failure.  Reports are
deterministic for a fixed spec and version: no timestamps, no seeds, sorted
keys.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import math
import os
import sys as _sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from . import __version__
from .dyson import (
    closed_form_jump,
    cocycle_identity_residual,
    cocycle_jump,
    default_loop,
    deformation_delta,
    dyson_expand,
    evaluate_dyson,
    series_monodromy,
)
from .errors import (MonodeformError, NonIntegrableForcing, SchemaError, SeriesRouteUnavailable,
                     SingularPoint)
from .hypergeom import ConnectedBasis, weight_omega
from .odecore import _c2j, exclusion_radius, same_point
from .paths import BranchState, line_path, path_to_json
from .schema import Problem, decode, schema_json, semantic_diagnostics, sweep_entries
from .spectral import basis_for, builtin_profile, hierarchy_shift_residual
from .transport import (FundamentalMatrix, frobenius_basis, identity_basis, monodromy,
                        sorted_eigenvalues, transport)
from .varpar import hypergeometric_deformed_series, series_to_csv


def _jsonable(obj):
    """The one report encoder: a complex number as [re, im], a square matrix as
    {"dim", "data": [[re, im], ...] row by row}, a complex dict key as "re+imj"."""
    if isinstance(obj, complex):
        return _c2j(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        return {"dim": int(obj.shape[0]),
                "data": [[float(z.real), float(z.imag)] for z in obj.astype(complex).ravel()]}
    if isinstance(obj, dict):
        return {f"{k.real:g}{k.imag:+g}j" if isinstance(k, complex) else str(k): _jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    return obj


def config_hash(spec) -> str:
    blob = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _basis(problem: Problem) -> FundamentalMatrix:
    if problem.basis_type in ("frobenius0", "frobenius1"):
        point = 0 if problem.basis_type == "frobenius0" else 1
        return frobenius_basis(*problem.hypergeometric, point, problem.basepoint)
    if problem.basis_type == "identity":
        return identity_basis(problem.basepoint, problem.system.dim)
    return FundamentalMatrix(problem.basepoint, problem.basis_matrix, "explicit")


def _dyson_and_direct(sys, pert, rho, K, path, basis, tol, direct_from):
    """C_1..C_K along the path on the `auto` route, W (I + sum rho^k C_k) at the path end
    from the W that route carried there, and the direct perturbed transport of direct_from
    along the path: the Dyson expansion and its oracle."""
    exp = dyson_expand(sys, pert, K, path, basis, tol)
    return exp, evaluate_dyson(None, exp, rho), transport(sys, pert, rho, path, direct_from, tol)


def _turns(w: float):
    """A winding number, the nearest integer when it lies within 1e-9 of one."""
    return round(w) if abs(w - round(w)) <= 1e-9 else w


# --- task runners: a decoded problem in, (results, diagnostics) of plain values out


def _task_monodromy(problem: Problem, csv_dir):
    """Each loop on the series route (`series_monodromy`); where that is unavailable (no
    evaluator, a loop out of the two zones, a Dyson sum unconverged by its largest order),
    the RK `monodromy`, plain and perturbed, with the reason."""
    sys, pert, rho = problem.system, problem.pert, problem.rho
    basis = _basis(problem)
    loops = problem.paths or [default_loop(c, sys, basis.basepoint) for c in problem.centers]
    results, diags = [], []
    for ctr, loop in zip(problem.centers, loops):
        diag = {"center": ctr, "basis_condition": basis.cond}
        try:
            m0, m_rho, K = series_monodromy(sys, pert, rho, basis, loop, problem.tol)
            diag.update(route="series", K=K)
        except SeriesRouteUnavailable as exc:
            datum = monodromy(sys, basis, loop, problem.tol)
            m0 = datum.matrix
            diag.update(route="rk", fallback_reason=f"{type(exc).__name__}: {exc}",
                        rk_steps=datum.steps)
            if pert is not None:
                pdatum = monodromy(sys, basis, loop, problem.tol, pert=pert, rho=rho)
                m_rho = pdatum.matrix
                diag["perturbed_rk_steps"] = pdatum.steps
        entry = {"center": ctr, "matrix": m0, "eigenvalues": sorted_eigenvalues(m0)}
        if pert is not None:
            entry["perturbed_matrix"] = m_rho
            entry["perturbed_eigenvalues"] = sorted_eigenvalues(m_rho)
        results.append(entry)
        diags.append(diag)
    return {"monodromies": results}, {"per_loop": diags, "tol": problem.tol}


def _task_dyson(problem: Problem, csv_dir):
    sys, pert, rho = problem.system, problem.pert, problem.rho
    basis = _basis(problem)
    path = problem.paths[0] if problem.paths else line_path(basis.basepoint, basis.basepoint + 0.25)
    exp, approx, direct = _dyson_and_direct(sys, pert, rho, problem.K, path, basis, problem.tol,
                                            basis)
    start = BranchState.principal(path.start, [p for p, _ in direct.branch.args])
    return {"terms": exp.terms, "endpoint": exp.endpoint, "w_rho_truncated": approx}, {
        "oracle_delta_vs_direct": float(np.max(np.abs(approx - direct.w.value))),
        "rho": rho,
        "tol": problem.tol,
        "path_hash": config_hash(path_to_json(path)),
        "transport_steps": direct.steps,
        "windings": {p: _turns(direct.branch.winding(p, start)) for p, _ in direct.branch.args},
        **exp.provenance,
    }


def _task_cocycle(problem: Problem, csv_dir):
    sys, pert, centers = problem.system, problem.pert, problem.centers
    basis = _basis(problem)
    jumps, diags = [], {"tol": problem.tol}
    probe = basis.basepoint
    at_probe = []  # (delta, monodromy) of each basepoint-anchored jump, else None
    for ctr in centers:
        # meromorphic jumps around 0 anchor at 0 itself when the integral
        # converges there (the canonical choice: a well-defined C(0) forces
        # delta = 0); otherwise they are basepoint-relative, which shifts
        # delta only by a coboundary
        jump = reason = None
        if not pert.multivalued and same_point(ctr, 0j) and basis.evaluator is not None:
            try:
                jump = cocycle_jump(sys, pert, basis, ctr, probe, problem.tol,
                                    from_zero=True)
                anchor = "zero"
            except MonodeformError as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if jump is None:
            jump = cocycle_jump(sys, pert, basis, ctr, probe, problem.tol)
            anchor = "zero" if pert.multivalued else "basepoint"
        entry = {"center": ctr, "anchor": anchor, "delta": jump.delta,
                 "monodromy": jump.monodromy}
        at_probe.append((jump.delta, jump.monodromy) if anchor == "basepoint" else None)
        if reason is not None:
            entry["anchor_reason"] = reason
        if not pert.multivalued:
            entry["constancy_residual"] = jump.constancy_residual
        else:
            comparisons = []
            for p, d, ref in jump.probe_data:
                pred = closed_form_jump(pert.kind, pert.lam, ref)
                rel = float(np.max(np.abs(d - pred)) / max(np.max(np.abs(pred)), 1e-300))
                comparisons.append({"probe": p, "closed_form_rel_err": rel})
            entry["closed_form"] = comparisons
        jumps.append(entry)
    if not pert.multivalued and len(centers) >= 2:
        la, lb = (default_loop(c, sys, probe) for c in centers[:2])

        def delta(known, loops):  # a basepoint-anchored jump made this very call
            return known or deformation_delta(sys, pert, basis, probe, loops, problem.tol)[:2]

        (da, ma), (db, _) = delta(at_probe[0], [la]), delta(at_probe[1], [lb])
        dab, _ = delta(None, [lb, la])
        diags["cocycle_identity_residual"] = cocycle_identity_residual(
            {"a": da, "b": db, ("a", "b"): dab}, {"a": ma}, ("a", "b"))
    return {"jumps": jumps}, diags


def _task_eigenshift(problem: Problem, csv_dir):
    params = problem.params
    # `nodes` is the per-panel Gauss-Legendre order of the geometric rule
    nodes = min(problem.nodes, 48)
    if isinstance(problem.profile, str):
        f, fname = builtin_profile(problem.profile, params), problem.profile
    else:
        f, fname = problem.profile, "poly"
    hier = hierarchy_shift_residual(f, params, nodes)
    return {"f": fname, **asdict(hier["shift"])}, {
        "orthonormality": hier["orthonormality"],
        "hierarchy_residual_l2": hier["residual_l2"],
        "hierarchy_rhs_orthogonality": hier["rhs_orthogonality"],
    }


# the series task works on this part of (0, 1): its samples, the oracle
# triangle points and the basepoint all lie in it
SERIES_RANGE = (0.2, 0.8)


def _task_series(problem: Problem, csv_dir):
    """The coupling is f(x) = B21(x) x(1 - x), from the companion corner of H, which
    may have no pole on SERIES_RANGE."""
    sys, pert, rho = problem.system, problem.pert, problem.rho
    a, b, c = problem.params
    b21 = pert.H[sys.dim - 1][0]
    lo, hi = SERIES_RANGE
    for p in b21.poles():
        if abs(p - min(max(p.real, lo), hi)) < exclusion_radius(p):
            raise NonIntegrableForcing(
                f"forcing pole {p:.6g} lies on the series range [{lo}, {hi}]")
    f = lambda x: b21(x) * x * (1 - x)
    series = hypergeometric_deformed_series(a, b, c, f, problem.K, basepoint=0.5,
                                            tol=max(problem.tol, 1e-12), basis=basis_for(a, b, c))
    xs = np.linspace(*SERIES_RANGE, problem.samples or 13)
    corners = (0.3, 0.7)  # the oracle triangle's points
    # each term once over the samples and the corners, summed as SeriesSolution.evaluate does
    ys = [t(np.concatenate([xs, corners]))[0] for t in series.terms]
    values = sum(y * rho ** k for k, y in enumerate(ys))
    samples = [{"x": x, "terms": [y[i] for y in ys], "value": values[i]}
               for i, x in enumerate(xs)]
    basis = frobenius_basis(a, b, c, 0, 0.5)
    column = FundamentalMatrix(0.5, np.column_stack([basis.value[:, 0], [0.0, 1.0]]), "column")
    triangle, legs = [], []
    for x, vp in zip(corners, values[len(xs):]):
        exp, approx, direct = _dyson_and_direct(sys, pert, rho, problem.K, line_path(0.5, x),
                                                basis, problem.tol, column)
        dyson_val, direct_val = approx[0, 0], direct.w.value[0, 0]
        triangle.append({"x": x, "varpar_vs_dyson": abs(vp - dyson_val),
                         "varpar_vs_direct": abs(vp - direct_val),
                         "dyson_vs_direct": abs(dyson_val - direct_val)})
        legs.append({"x": x, **exp.provenance})
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        series_to_csv(xs, [y[:len(xs)] for y in ys], os.path.join(csv_dir, "series_terms.csv"))
    return {"rho": rho, "samples": samples}, {"oracle_triangle": triangle, "dyson_legs": legs}


def _task_sample(problem: Problem, csv_dir):
    sys, params = problem.system, problem.params
    nsamp = problem.samples or 101
    xs = np.linspace(0.02, 0.98, nsamp)
    if params is not None:
        a, b, c = params
        y1, y2 = ConnectedBasis(a, b, c).matrix(xs)[:, 0].T
        w = weight_omega(a, b, c, xs)
        rows = np.column_stack([xs, y1.real, y1.imag, y2.real, y2.imag, w.real,
                                abs(y1) ** 2 * w.real]).tolist()
        header = ["x", "re_y1", "im_y1", "re_y2", "im_y2", "omega", "density"]
    else:
        for s in sys.singularities:
            if np.min(np.abs(xs - s)) < exclusion_radius(s):
                raise SingularPoint(f"a sample point lies on the pole {s}")
        m = sys.evaluate(xs).reshape(nsamp, -1)  # row-major entries, each as re, im
        parts = np.stack([m.real, m.imag], axis=-1).reshape(nsamp, -1)
        rows = np.column_stack([xs, parts]).tolist()
        header = ["x"] + [f"{p}_A{i}{j}" for i in range(sys.dim)
                          for j in range(sys.dim) for p in ("re", "im")]
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        with open(os.path.join(csv_dir, "samples.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([[f"{v:.16g}" for v in r] for r in rows])
        return {"csv": "samples.csv", "count": len(rows)}, {}
    return {"header": header, "rows": rows[:200]}, {}


_TASKS = {
    "monodromy": _task_monodromy,
    "dyson": _task_dyson,
    "cocycle": _task_cocycle,
    "eigenshift": _task_eigenshift,
    "series": _task_series,
    "sample": _task_sample,
}


def run_spec(spec, csv_dir=None) -> dict:
    """Decode one problem spec, run its task and return the full report dict."""
    problem = decode(spec)
    stage = f"cli.run[{problem.task}]"
    try:
        results, diagnostics = _TASKS[problem.task](problem, csv_dir)
    except MonodeformError as exc:
        raise MonodeformError(f"{stage}: {type(exc).__name__}: {exc}") from exc
    return {
        "version": __version__,
        "config_hash": config_hash(spec),
        "inputs": spec,
        "results": _jsonable(results),
        "diagnostics": _jsonable(diagnostics),
    }


# --- example spec files --------------------------------------------------------


def _ratfn_json(num, den=(1.0,)):
    return {"num": [_c2j(complex(v)) for v in num], "den": [_c2j(complex(v)) for v in den]}


_ZERO = {"num": [], "den": [[1.0, 0.0]]}


def example_specs() -> dict[str, dict]:
    """Worked cases as ready-to-run spec files."""
    hyp = {"hypergeometric": {"a": 0.3, "b": 0.7, "c": 0.4}}
    x0 = 0.25
    w0 = [[1.0 + 0j, cmath.log(x0) / (2j * math.pi)],
          [0j, 1.0 / (2j * math.pi * x0)]]
    specs = {
        "monodromy-basic": {
            "equation": hyp, "task": "monodromy",
            "numerics": {"tol": 1e-10},
        },
        "trivial-deformation": {
            "equation": hyp, "task": "cocycle",
            "perturbation": {"kind": "meromorphic",
                             "H": [[_ZERO, _ZERO],
                                   [_ratfn_json([1.0], [0.0, 1.0, -1.0]), _ZERO]],
                             "rho": 1e-3},
        },
        "log-frame-jump": {
            "equation": {"system": {"dim": 2, "entries": [
                [_ZERO, _ratfn_json([1.0])],
                [_ZERO, _ratfn_json([-1.0], [0.0, 1.0])]]}},
            "task": "cocycle",
            "perturbation": {"kind": "meromorphic",
                             "H": [[_ratfn_json([1.0], [0.0, 1.0]), _ratfn_json([1.0], [0.0, 1.0])],
                                   [_ZERO, _ratfn_json([1.0], [0.0, 1.0])]],
                             "rho": 1e-3},
            "basis": {"type": "explicit", "basepoint": x0,
                      "matrix": [[_c2j(v) for v in row] for row in w0]},
            "centers": [0.0],
        },
        "branch-cut-jump": {
            "equation": hyp, "task": "cocycle",
            "perturbation": {"kind": "power", "lambda": 0.5,
                             "H": [[_ZERO, _ZERO], [_ratfn_json([1.0]), _ZERO]],
                             "rho": 1e-3},
            "centers": [0.0],
        },
        "log-weight-jump": {
            "equation": hyp, "task": "cocycle",
            "perturbation": {"kind": "log",
                             "H": [[_ZERO, _ZERO], [_ratfn_json([1.0]), _ZERO]],
                             "rho": 1e-3},
            "centers": [0.0],
        },
        "meromorphic-cocycle": {
            "equation": hyp, "task": "cocycle",
            "perturbation": {"kind": "meromorphic",
                             "H": [[_ZERO, _ZERO],
                                   [_ratfn_json([1.0], [0.0, 0.0, 1.0, -2.0, 1.0]), _ZERO]],
                             "rho": 1e-3},
        },
        "eigenvalue-shift": {
            "equation": {"hypergeometric": {"a": 0.3, "b": 0.7, "c": 1.2}},
            "task": "eigenshift",
            "f": {"name": "x"},
            "numerics": {"nodes": 64},
        },
        "series-oracle": {
            "equation": hyp, "task": "series",
            "perturbation": {"kind": "meromorphic",
                             "H": [[_ZERO, _ZERO],
                                   [_ratfn_json([1.0], [0.0, 1.0, -1.0]), _ZERO]],
                             "rho": 1e-3},
            "numerics": {"K": 2, "tol": 1e-11},
            "samples": 7,
        },
    }
    return specs


# --- entry point ----------------------------------------------------------------


def _emit(report, out_path: Optional[str]):
    blob = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def __getattr__(name: str):
    # PEP 562: the pool (and multiprocessing) loads only for `run --jobs N`;
    # a class assigned to the module attribute `ProcessPoolExecutor` wins
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_one(payload):
    spec, csv_dir = payload
    return run_spec(spec, csv_dir)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="monodeform",
                                     description="monodromy-deformation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a problem spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--csv", default=None, help="directory for sampled CSV output")
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--order", type=int, default=None, help="series truncation K")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel sweep entries")

    p_val = sub.add_parser("validate", help="schema + semantic checks only")
    p_val.add_argument("--spec", required=True)
    p_val.add_argument("--out", default=None)

    p_ex = sub.add_parser("examples", help="write worked-case spec files")
    p_ex.add_argument("--out", default="example-specs")

    sub.add_parser("schema", help="print the problem-spec JSON schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(schema_json())
        return 0

    if args.command == "examples":
        os.makedirs(args.out, exist_ok=True)
        for name, spec in example_specs().items():
            with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
                json.dump(spec, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"wrote {len(example_specs())} spec files to {args.out}")
        return 0

    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read spec: {exc}", file=_sys.stderr)
        return 2

    if args.command == "validate":
        _emit(semantic_diagnostics(doc), args.out)
        return 0

    # run: --tol and --order go into every spec before it is decoded
    try:
        entries = sweep_entries(doc, args.tol, args.order)
        if isinstance(doc, dict) and "sweep" in doc:
            for at, spec in entries:
                decode(spec, at)
            payloads = [(spec, args.csv) for _, spec in entries]
            if args.jobs > 1:
                with _sys.modules[__name__].ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    reports = list(pool.map(_run_one, payloads))
            else:
                reports = [_run_one(p) for p in payloads]
            report = {"version": __version__, "sweep": reports}
        else:
            report = run_spec(entries[0][1], args.csv)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=_sys.stderr)
        return 2
    except MonodeformError as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return 3
    _emit(report, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
