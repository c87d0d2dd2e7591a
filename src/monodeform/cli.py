"""Command-line front end: JSON problem specs in, JSON/CSV results out.

Subcommands:
    run       execute a problem spec (or a {"sweep": [...]} of them)
    validate  schema + semantic checks without running numerics
    examples  write ready-to-run spec files for the worked cases
    schema    print the problem-spec JSON schema

Exit codes: 0 success, 2 schema failure, 3 numeric failure.  Reports are
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
from typing import Any, Optional

import numpy as np

from . import __version__
from .dyson import (
    closed_form_jump,
    cocycle_identity_residual,
    cocycle_jump,
    default_loop_radius,
    deformation_delta,
    dyson_expand,
    evaluate_dyson,
    matrix_to_json,
    windings_json,
)
from .errors import MonodeformError, NonIntegrableForcing, SchemaError, SingularPoint
from .hypergeom import ConnectedBasis, hypergeometric_system, weight_omega
from .odecore import (
    MeromorphicSystem,
    PerturbationSpec,
    _c2j,
    _j2c,
    companion,
    exclusion_radius,
    perturbation_from_json,
    poly_from_json,
    scalar_ode_from_json,
    system_from_json,
)
from .paths import line_path, loop_around, path_from_json, path_to_json
from .schema import schema_json, semantic_diagnostics, validate_schema
from .spectral import basis_for, builtin_profile, hierarchy_shift_residual
from .transport import FundamentalMatrix, frobenius_basis, identity_basis, monodromy, transport
from .varpar import hypergeometric_deformed_series, series_to_csv


def _jsonable(obj):
    if isinstance(obj, complex):
        return _c2j(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj) if obj.ndim == 2 else [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def config_hash(spec) -> str:
    blob = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --- spec -> objects ---------------------------------------------------------


def build_equation(spec) -> tuple[MeromorphicSystem, Optional[tuple[float, float, float]]]:
    eq = spec["equation"]
    if "hypergeometric" in eq:
        h = eq["hypergeometric"]
        return hypergeometric_system(*(_j2c(h[k]) for k in "abc")), _real_triple(h)
    if "scalar" in eq:
        return companion(scalar_ode_from_json(eq["scalar"])), None
    return system_from_json(eq["system"]), None


def _real_triple(h) -> Optional[tuple[float, float, float]]:
    """(a, b, c) when the hypergeometric parameters `h` are all real, else None."""
    a, b, c = (_j2c(h[k]) for k in "abc")
    return (a.real, b.real, c.real) if max(abs(a.imag), abs(b.imag), abs(c.imag)) < 1e-14 else None


def build_basis(spec, sys: MeromorphicSystem) -> FundamentalMatrix:
    b = spec.get("basis", {"type": "frobenius0"} if "hypergeometric" in spec["equation"]
                 else {"type": "identity"})
    basepoint = _j2c(b.get("basepoint", 0.5))
    kind = b["type"]
    if kind in ("frobenius0", "frobenius1"):
        h = spec["equation"].get("hypergeometric")
        if h is None:
            raise SchemaError("Frobenius bases need a hypergeometric equation", "$.basis")
        a, bb, c = (_j2c(h[k]) for k in ("a", "b", "c"))
        return frobenius_basis(a, bb, c, 0 if kind == "frobenius0" else 1, basepoint)
    if kind == "identity":
        return identity_basis(basepoint, sys.dim)
    m = np.array([[_j2c(p) for p in row] for row in b["matrix"]])
    return FundamentalMatrix(basepoint, m, "explicit")


def build_perturbation(spec) -> tuple[Optional[PerturbationSpec], complex]:
    p = spec.get("perturbation")
    if p is None:
        return None, 0j
    pert = perturbation_from_json({k: v for k, v in p.items() if k != "rho"})
    rho = _j2c(p.get("rho", 1e-3))
    return pert, rho


def _numerics(spec, args) -> dict:
    n = dict(spec.get("numerics", {}))
    if args is not None and args.tol is not None:
        n["tol"] = args.tol
    if args is not None and args.order is not None:
        n["K"] = args.order
    return {"tol": float(n.get("tol", 1e-10)), "K": int(n.get("K", 2)),
            "nodes": int(n.get("nodes", 64))}


def _loops_for_centers(spec, sys, basis, centers):
    loops = []
    if spec.get("paths"):
        for pj in spec["paths"]:
            loops.append(path_from_json(pj))
        return loops
    for ctr in centers:
        r = default_loop_radius(ctr, sys, basis.basepoint)
        loops.append(loop_around(ctr, r, basis.basepoint, avoid=sys.singularities))
    return loops


# --- task runners -------------------------------------------------------------


def _task_monodromy(spec, args, csv_dir) -> dict:
    sys, _ = build_equation(spec)
    basis = build_basis(spec, sys)
    pert, rho = build_perturbation(spec)
    num = _numerics(spec, args)
    centers = [_j2c(c) for c in spec.get("centers", [])] or list(sys.singularities)
    loops = _loops_for_centers(spec, sys, basis, centers)
    results, diags = [], []
    for ctr, loop in zip(centers, loops):
        datum = monodromy(sys, basis, loop, num["tol"])
        entry = {
            "center": ctr,
            "matrix": matrix_to_json(datum.matrix),
            "eigenvalues": [_c2j(e) for e in datum.eigenvalues],
        }
        diag = {"center": ctr, "basis_condition": basis.cond, "rk_steps": datum.steps}
        if pert is not None:
            pdatum = monodromy(sys, basis, loop, num["tol"], pert=pert, rho=rho)
            entry["perturbed_matrix"] = matrix_to_json(pdatum.matrix)
            entry["perturbed_eigenvalues"] = [_c2j(e) for e in pdatum.eigenvalues]
            diag["perturbed_rk_steps"] = pdatum.steps
        results.append(entry)
        diags.append(diag)
    return {"results": {"monodromies": _jsonable(results)},
            "diagnostics": _jsonable({"per_loop": diags, "tol": num["tol"]})}


def _task_dyson(spec, args, csv_dir) -> dict:
    sys, _ = build_equation(spec)
    basis = build_basis(spec, sys)
    pert, rho = build_perturbation(spec)
    num = _numerics(spec, args)
    if spec.get("paths"):
        path = path_from_json(spec["paths"][0])
    else:
        path = line_path(basis.basepoint, basis.basepoint + 0.25)
    exp = dyson_expand(sys, pert, num["K"], path, basis, num["tol"], route="ode")
    w_end = transport(sys, None, 0, path, basis, num["tol"])
    approx = evaluate_dyson(w_end.w.value, exp, rho)
    direct = transport(sys, pert, rho, path, basis, num["tol"])
    delta = float(np.max(np.abs(approx - direct.w.value)))
    return {
        "results": {
            "terms": [matrix_to_json(t) for t in exp.terms],
            "endpoint": _c2j(exp.endpoint),
            "w_rho_truncated": matrix_to_json(approx),
        },
        "diagnostics": _jsonable({
            "oracle_delta_vs_direct": delta,
            "rho": rho,
            "tol": num["tol"],
            "path_hash": config_hash(path_to_json(path)),
            "transport_steps": direct.steps,
            "windings": windings_json(direct.branch, path.start),
        }),
    }


def _task_cocycle(spec, args, csv_dir) -> dict:
    sys, _ = build_equation(spec)
    basis = build_basis(spec, sys)
    pert, rho = build_perturbation(spec)
    num = _numerics(spec, args)
    centers = [_j2c(c) for c in spec.get("centers", [])] or list(sys.singularities)
    results = {"jumps": []}
    diags: dict[str, Any] = {}
    probe = basis.basepoint
    for ctr in centers:
        # meromorphic jumps around 0 anchor at 0 itself when the integral
        # converges there (the canonical choice: a well-defined C(0) forces
        # delta = 0); otherwise they are basepoint-relative, which shifts
        # delta only by a coboundary
        jump = reason = None
        if not pert.multivalued and abs(ctr) < 1e-9 and basis.evaluator is not None:
            try:
                jump = cocycle_jump(sys, pert, basis, ctr, probe, num["tol"],
                                    from_zero=True)
                anchor = "zero"
            except MonodeformError as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if jump is None:
            jump = cocycle_jump(sys, pert, basis, ctr, probe, num["tol"])
            anchor = "zero" if pert.multivalued else "basepoint"
        entry = {
            "center": ctr,
            "anchor": anchor,
            "delta": matrix_to_json(jump.delta),
            "monodromy": matrix_to_json(jump.monodromy),
        }
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
        results["jumps"].append(entry)
    if pert is not None and not pert.multivalued and len(centers) >= 2:
        a_c, b_c = centers[0], centers[1]
        la = _loops_for_centers({}, sys, basis, [a_c])[0]
        lb = _loops_for_centers({}, sys, basis, [b_c])[0]
        da, ma, _, _ = deformation_delta(sys, pert, basis, probe, [la], num["tol"])
        db, mb, _, _ = deformation_delta(sys, pert, basis, probe, [lb], num["tol"])
        dab, _, _, _ = deformation_delta(sys, pert, basis, probe, [lb, la], num["tol"])
        resid = cocycle_identity_residual({"a": da, "b": db, ("a", "b"): dab}, {"a": ma}, ("a", "b"))
        diags["cocycle_identity_residual"] = resid
    diags["tol"] = num["tol"]
    return {"results": _jsonable(results), "diagnostics": _jsonable(diags)}


def _f_profile(spec, params):
    fspec = spec.get("f", {"name": "one"})
    if "name" in fspec:
        return builtin_profile(fspec["name"], params), fspec["name"]
    return poly_from_json(fspec["poly"]), "poly"


def _task_eigenshift(spec, args, csv_dir) -> dict:
    eq = spec["equation"]
    params = _real_triple(eq["hypergeometric"]) if "hypergeometric" in eq else None
    if params is None:
        raise SchemaError("eigenshift needs real hypergeometric parameters", "$.equation")
    num = _numerics(spec, args)
    # `nodes` is the per-panel Gauss-Legendre order of the geometric rule
    nodes = min(num["nodes"], 48)
    f, fname = _f_profile(spec, params)
    hier = hierarchy_shift_residual(f, params, nodes)
    shift = hier["shift"]
    return {
        "results": _jsonable({
            "f": fname,
            "lambda1": shift.lambda1,
            "lambda1_raw": shift.lambda1_raw,
            "norm_y1": shift.norm_y1,
            "bound": shift.bound,
            "saturation": shift.saturation,
        }),
        "diagnostics": _jsonable({
            "orthonormality": hier["orthonormality"],
            "hierarchy_residual_l2": hier["residual_l2"],
            "hierarchy_rhs_orthogonality": hier["rhs_orthogonality"],
        }),
    }


# the series task works on this part of (0, 1): its samples, the oracle
# triangle points and the basepoint all lie in it
SERIES_RANGE = (0.2, 0.8)


def _series_coupling(spec, sys) -> tuple:
    """For the series task the perturbation must live in the companion corner
    B[n-1][0]; the scalar coupling is f(x) = B21(x) * x(1-x) for the
    hypergeometric case, and B21 may have no pole on SERIES_RANGE."""
    pert, rho = build_perturbation(spec)
    n = sys.dim
    for i, row in enumerate(pert.H):
        for j, e in enumerate(row):
            if (i, j) != (n - 1, 0) and not e.is_zero:
                raise SchemaError(
                    "series task needs the perturbation in the companion corner "
                    f"(found H[{i}][{j}] nonzero)", "$.perturbation.H")
    lo, hi = SERIES_RANGE
    for p in pert.H[n - 1][0].poles():
        if abs(p - min(max(p.real, lo), hi)) < exclusion_radius(p):
            raise NonIntegrableForcing(
                f"forcing pole {p:.6g} lies on the series range [{lo}, {hi}]")
    return pert, rho


def _task_series(spec, args, csv_dir) -> dict:
    sys, params = build_equation(spec)
    if params is None:
        raise SchemaError("series task needs real hypergeometric parameters", "$.equation")
    a, b, c = params
    num = _numerics(spec, args)
    pert, rho = _series_coupling(spec, sys)
    b21 = pert.H[sys.dim - 1][0]
    f = lambda x: b21(x) * x * (1 - x)
    series = hypergeometric_deformed_series(a, b, c, f, num["K"], basepoint=0.5,
                                            tol=max(num["tol"], 1e-12), basis=basis_for(a, b, c))
    nsamp = int(spec.get("samples", 13))
    xs = list(np.linspace(*SERIES_RANGE, nsamp))
    samples = [{"x": x, "terms": [_c2j(series.term(k)(x)[0]) for k in range(num["K"] + 1)],
                "value": _c2j(series.evaluate(x, rho))} for x in xs]
    basis = frobenius_basis(a, b, c, 0, 0.5)
    triangle = []
    for x in (0.3, 0.7):
        path = line_path(0.5, x)
        exp = dyson_expand(sys, pert, num["K"], path, basis, num["tol"], route="ode")
        wx = transport(sys, None, 0, path, basis, num["tol"]).w.value
        dyson_val = evaluate_dyson(wx, exp, rho)[0, 0]
        psi0 = np.asarray(basis.value) @ np.array([1.0, 0.0])
        col = np.column_stack([psi0, [0.0, 1.0]])
        direct = transport(sys, pert, rho, path, FundamentalMatrix(0.5, col, "column"),
                           num["tol"]).w.value[0, 0]
        vp = series.evaluate(x, rho)
        triangle.append({"x": x, "varpar_vs_dyson": abs(vp - dyson_val),
                         "varpar_vs_direct": abs(vp - direct),
                         "dyson_vs_direct": abs(dyson_val - direct)})
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        series_to_csv(series, xs, os.path.join(csv_dir, "series_terms.csv"))
    return {"results": _jsonable({"rho": rho, "samples": samples}),
            "diagnostics": _jsonable({"oracle_triangle": triangle})}


def _task_sample(spec, args, csv_dir) -> dict:
    sys, params = build_equation(spec)
    nsamp = int(spec.get("samples", 101))
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
        rows = np.column_stack([xs, np.stack([m.real, m.imag], axis=-1).reshape(nsamp, -1)])
        header = ["x"] + [f"{p}_A{i}{j}" for i in range(sys.dim)
                          for j in range(sys.dim) for p in ("re", "im")]
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        with open(os.path.join(csv_dir, "samples.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([[f"{v:.16g}" for v in r] for r in rows])
        return {"results": {"csv": "samples.csv", "count": len(rows)}, "diagnostics": {}}
    return {"results": {"header": header, "rows": [[float(v) for v in r] for r in rows[:200]]},
            "diagnostics": {}}


_TASKS = {
    "monodromy": _task_monodromy,
    "dyson": _task_dyson,
    "cocycle": _task_cocycle,
    "eigenshift": _task_eigenshift,
    "series": _task_series,
    "sample": _task_sample,
}


def run_spec(spec, args=None, csv_dir=None) -> dict:
    """Dispatch one validated problem spec; returns the full report dict."""
    validate_schema(spec)
    task = spec["task"]
    stage = f"cli.run[{task}]"
    try:
        body = _TASKS[task](spec, args, csv_dir)
    except MonodeformError as exc:
        raise MonodeformError(f"{stage}: {type(exc).__name__}: {exc}") from exc
    return {
        "version": __version__,
        "config_hash": config_hash(spec),
        "inputs": spec,
        "results": body["results"],
        "diagnostics": body["diagnostics"],
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
    return run_spec(spec, None, csv_dir)


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
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read spec: {exc}", file=_sys.stderr)
        return 2

    if args.command == "validate":
        if "sweep" in spec:
            diags = [d for entry in spec["sweep"] for d in semantic_diagnostics(entry)]
        else:
            diags = semantic_diagnostics(spec)
        _emit(diags, args.out)
        return 0

    # run
    try:
        if "sweep" in spec:
            entries = spec["sweep"]
            for e in entries:
                validate_schema(e)
            payloads = [(e, args.csv) for e in entries]
            if args.jobs > 1:
                with _sys.modules[__name__].ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    reports = list(pool.map(_run_one, payloads))
            else:
                reports = [_run_one(p) for p in payloads]
            report = {"version": __version__, "sweep": reports}
        else:
            report = run_spec(spec, args, args.csv)
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
