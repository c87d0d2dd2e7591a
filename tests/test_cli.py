import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from monodeform.cli import (_emit, _jsonable, _ratfn_json, config_hash, example_specs, main,
                            run_spec)
from monodeform.dyson import correction_C
from monodeform.errors import SchemaError
from monodeform.hypergeom import hypergeometric_system
from monodeform.odecore import perturbation_from_json, system_from_json
from monodeform.paths import line_path, loop_around, path_to_json
from monodeform.schema import semantic_diagnostics, validate_schema
from monodeform.spectral import basis_for
from monodeform.transport import frobenius_basis


def _write(tmp_path, name, spec):
    p = tmp_path / name
    p.write_text(json.dumps(spec))
    return str(p)


HYP = {"hypergeometric": {"a": 0.3, "b": 0.7, "c": 0.4}}


def test_schema_rejects_missing_parameter():
    spec = {"equation": {"hypergeometric": {"a": 0.3, "b": 0.7}}, "task": "monodromy"}
    with pytest.raises(SchemaError) as err:
        validate_schema(spec)
    assert "c" in str(err.value) or "equation" in err.value.pointer


def test_schema_requires_perturbation_for_dyson():
    with pytest.raises(SchemaError):
        validate_schema({"equation": HYP, "task": "dyson"})


def test_schema_power_kind_needs_lambda():
    zero = {"num": [], "den": [[1.0, 0.0]]}
    spec = {"equation": HYP, "task": "cocycle",
            "perturbation": {"kind": "power", "H": [[zero, zero], [zero, zero]]}}
    with pytest.raises(SchemaError):
        validate_schema(spec)


def test_validate_clean_spec_has_no_diagnostics():
    assert semantic_diagnostics({"equation": HYP, "task": "monodromy"}) == []


def test_validate_integer_c_warns():
    spec = {"equation": {"hypergeometric": {"a": 0.3, "b": 0.7, "c": 1.0}},
            "task": "monodromy"}
    diags = semantic_diagnostics(spec)
    assert any(d["level"] == "warning" and "integer" in d["message"] for d in diags)


def test_validate_path_clearance_error():
    # a closed loop from 0.5 through the singularity at 1
    spec = {
        "equation": HYP, "task": "monodromy",
        "paths": [{"segments": [{"line": [[0.5, 0.0], [1.5, 0.0]]},
                                {"line": [[1.5, 0.0], [0.5, 0.0]]}]}],
        "centers": [1.0],
    }
    diags = semantic_diagnostics(spec)
    assert any(d["level"] == "error" and "singularity" in d["message"] for d in diags)


def test_validate_path_clearance_to_perturbation_poles(tmp_path, capsys):
    # H21 = 1/(x - 0.75) has its pole at the end of the path 0.5 -> 0.75
    spec = {"equation": HYP, "task": "dyson",
            "perturbation": _corner_pole([[-0.75, 0.0], [1.0, 0.0]]),
            "paths": [{"segments": [{"line": [[0.5, 0.0], [0.75, 0.0]]}]}]}
    assert main(["validate", "--spec", _write(tmp_path, "spec.json", spec)]) == 0
    diags = json.loads(capsys.readouterr().out)
    assert [(d["level"], d["where"]) for d in diags] == [("error", "$.paths[0]")]
    for name, example in example_specs().items():
        assert semantic_diagnostics(example) == [], name


def test_run_monodromy_eigenvalues(tmp_path):
    out = tmp_path / "report.json"
    spec_file = _write(tmp_path, "spec.json", {"equation": HYP, "task": "monodromy"})
    rc = main(["run", "--spec", spec_file, "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    ent = rep["results"]["monodromies"][0]
    eigs = [complex(p[0], p[1]) for p in ent["eigenvalues"]]
    expect = [1.0, cmath.exp(-2j * math.pi * 0.4)]
    for e in expect:
        assert min(abs(z - e) for z in eigs) < 1e-6
    assert rep["version"] and rep["config_hash"]


def _perturbed_monodromy(rho=1e-3):
    """monodromy-basic with H21 = 1/x."""
    return dict(example_specs()["monodromy-basic"], perturbation={
        "kind": "meromorphic", "rho": rho, "H": _corner_pole([[0.0, 0.0], [1.0, 0.0]])["H"]})


def test_monodromy_diagnostics_per_loop():
    # loops inside the two zones take the series route: each records the
    # route and the Dyson order K it summed (0 without a perturbation), and
    # no RK step count, since RK did not run
    for spec, orders in ((example_specs()["monodromy-basic"], [0, 0]),
                         (_perturbed_monodromy(), [4, 3])):
        per_loop = run_spec(spec)["diagnostics"]["per_loop"]
        assert [d["center"] for d in per_loop] == [[0.0, 0.0], [1.0, 0.0]]
        for d, K in zip(per_loop, orders):
            assert d["basis_condition"] > 1
            assert (d["route"], d["K"]) == ("series", K)
            assert not {"rk_steps", "perturbed_rk_steps", "fallback_reason"} & d.keys()
    # with rho = 1 the sum round 0 has not converged by K = 8, so RK runs
    # both monodromies there and counts its steps; round 1 it has, at K = 8
    zero, one = run_spec(_perturbed_monodromy(1.0))["diagnostics"]["per_loop"]
    assert zero["route"] == "rk" and "K" not in zero
    assert zero["fallback_reason"].startswith(
        "SeriesRouteUnavailable: Dyson sum not converged by K = 8"), zero
    assert zero["rk_steps"] > 0 and zero["perturbed_rk_steps"] > 0
    assert (one["route"], one["K"]) == ("series", 8) and "rk_steps" not in one


def _rk_entry(spec, loop):
    """The monodromy entry that RK alone gives for the spec's basis round the loop."""
    from monodeform.cli import _basis
    from monodeform.schema import decode
    from monodeform.transport import monodromy, sorted_eigenvalues

    problem = decode(spec)
    basis = _basis(problem)
    plain = monodromy(problem.system, basis, loop, problem.tol).matrix
    pert = monodromy(problem.system, basis, loop, problem.tol, pert=problem.pert,
                     rho=problem.rho).matrix
    return _jsonable({"matrix": plain, "eigenvalues": sorted_eigenvalues(plain),
                      "perturbed_matrix": pert, "perturbed_eigenvalues": sorted_eigenvalues(pert)})


def test_monodromy_fallback_is_the_rk_monodromy():
    # rho = 1 round 0, and a user loop round 1 out to |z| = |1 - z| = 1.118,
    # beyond |z| <= 0.88 and |1 - z| <= 0.88: each entry is the RK one, bit
    # for bit, never a truncated sum, and its diagnostics say why
    from monodeform.dyson import default_loop
    from monodeform.paths import path_from_json

    square = {"segments": [{"line": [p, q]} for p, q in zip(
        [[0.5, 0.0], [0.5, 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0]],
        [[0.5, 1.0], [1.5, 1.0], [1.5, -1.0], [0.5, -1.0], [0.5, 0.0]])]}
    cases = [(dict(_perturbed_monodromy(1.0), centers=[0.0]), None,
              "SeriesRouteUnavailable: Dyson sum not converged by K = 8"),
             (dict(_perturbed_monodromy(), centers=[1.0], paths=[square]), square,
              "SeriesRouteUnavailable: contour leaves the series convergence zone")]
    for spec, path, reason in cases:
        report = run_spec(spec)
        [entry], [diag] = report["results"]["monodromies"], report["diagnostics"]["per_loop"]
        loop = (path_from_json(path) if path else
                default_loop(0j, hypergeometric_system(0.3, 0.7, 0.4), 0.5))
        assert {k: v for k, v in entry.items() if k != "center"} == _rk_entry(spec, loop)
        assert diag["route"] == "rk" and diag["fallback_reason"].startswith(reason), diag


@pytest.mark.parametrize("gap", [1e-4, 1e-6])
def test_monodromy_near_integer_c_keeps_its_eigenvalues(gap):
    # near c = 1 the monodromy round 0 is close to a Jordan block, so its
    # eigenvalues move like the square root of an error in M: RK at tol
    # 1e-10 is off by 3.2e-8 and 4.2e-6 here.  On the series route M is
    # diagonal in the basis at 0 up to rounding
    c = 1 + gap
    spec = {"equation": {"hypergeometric": {"a": 0.3, "b": 0.7, "c": c}},
            "task": "monodromy", "centers": [0.0]}
    report = run_spec(spec)
    assert report["diagnostics"]["per_loop"][0]["route"] == "series"
    got = [complex(*e) for e in report["results"]["monodromies"][0]["eigenvalues"]]
    want = [1.0, cmath.exp(-2j * math.pi * c)]
    assert min(max(abs(got[0] - want[i]), abs(got[1] - want[1 - i])) for i in (0, 1)) <= 1e-11


def test_monodromy_specs_make_no_rk_call(monkeypatch):
    # a Frobenius basis on loops inside the two zones takes M_0 and M(rho)
    # from the series route, plain (monodromy-basic) or perturbed (the
    # benchmark's cli-sweep shape): no DOP853 call
    from monodeform import transport

    calls = []
    rk = transport._dop853
    monkeypatch.setattr(transport, "_dop853", lambda *a: calls.append(1) or rk(*a))
    zero = {"num": [], "den": [[1.0, 0.0]]}
    perturbed = {"equation": {"hypergeometric": {"a": 0.62, "b": 0.28, "c": 1.37}},
                 "task": "monodromy", "basis": {"type": "frobenius0"},
                 "perturbation": {"kind": "meromorphic", "rho": 1e-3, "H": [
                     [zero, zero], [{"num": [[0.9, 0.0]], "den": [[1.0, 0.0]]}, zero]]},
                 "numerics": {"tol": 1e-10}}
    for spec in (example_specs()["monodromy-basic"], perturbed):
        per_loop = run_spec(spec)["diagnostics"]["per_loop"]
        assert [d["route"] for d in per_loop] == ["series", "series"]
    assert calls == []


def test_cocycle_records_why_the_anchor_fell_back():
    # the correction integrand of 1/(x^2 (1-x)^2) is not integrable at 0, so
    # the jump at 0 falls back to the basepoint anchor and says why; the jump
    # at 1 never tries the zero anchor
    jumps = run_spec(example_specs()["meromorphic-cocycle"])["results"]["jumps"]
    assert [j["center"] for j in jumps] == [[0.0, 0.0], [1.0, 0.0]]
    assert jumps[0]["anchor"] == "basepoint"
    assert jumps[0]["anchor_reason"].startswith("NonIntegrableEndpoint: ")
    assert "anchor_reason" not in jumps[1]
    # a jump that anchors at zero has nothing to explain
    [zero, _] = run_spec(example_specs()["trivial-deformation"])["results"]["jumps"]
    assert zero["anchor"] == "zero" and "anchor_reason" not in zero


def test_run_cocycle_log_frame(tmp_path):
    spec = example_specs()["log-frame-jump"]
    out = tmp_path / "report.json"
    spec_file = _write(tmp_path, "spec.json", spec)
    rc = main(["run", "--spec", spec_file, "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    data = rep["results"]["jumps"][0]["delta"]["data"]
    delta = np.array([complex(p[0], p[1]) for p in data]).reshape(2, 2)
    assert np.max(np.abs(delta - 2j * math.pi * np.eye(2))) < 1e-6


def test_run_is_deterministic(tmp_path):
    spec_file = _write(tmp_path, "spec.json", {"equation": HYP, "task": "monodromy"})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", "--spec", spec_file, "--out", str(out1)]) == 0
    assert main(["run", "--spec", spec_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_2_on_malformed_spec(tmp_path):
    spec_file = _write(tmp_path, "bad.json",
                       {"equation": {"hypergeometric": {"a": 0.3, "b": 0.7}},
                        "task": "monodromy"})
    assert main(["run", "--spec", spec_file]) == 2


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
def test_exit_code_2_on_non_finite_numbers(tmp_path, capsys, number):
    # json.load reads NaN, Infinity and -Infinity; each is a schema error at
    # its JSON path, in the equation parameters and in a path point alike
    cases = {
        "$.equation.hypergeometric.a": {
            "equation": {"hypergeometric": {"a": number, "b": 0.7, "c": 0.4}},
            "task": "monodromy"},
        "$.paths[0].segments[0].line[1][0]": {
            "equation": HYP, "task": "monodromy",
            "paths": [{"segments": [{"line": [[0.5, 0.0], [number, 0.5]]}]}]},
    }
    for where, spec in cases.items():
        spec_file = _write(tmp_path, "spec.json", spec)
        assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.strip().endswith(f"(at {where})"), err


def test_exit_code_3_on_numeric_failure(tmp_path):
    # a path through the singularity at 1 makes the transport fail
    spec = {"equation": HYP, "task": "monodromy",
            "paths": [{"segments": [
                {"line": [[0.5, 0.0], [1.5, 0.0]]},
                {"line": [[1.5, 0.0], [0.5, 0.0]]}]}],
            "centers": [1.0]}
    spec_file = _write(tmp_path, "spec.json", spec)
    assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 3


def _power_cocycle_spec(basis):
    zero = {"num": [], "den": [[1.0, 0.0]]}
    one = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}
    return {"equation": HYP, "task": "cocycle", "centers": [0.0], "basis": basis,
            "perturbation": {"kind": "power", "lambda": 0.5, "rho": 1e-3,
                             "H": [[zero, zero], [one, zero]]}}


def test_exit_code_3_on_cocycle_series_route_failures(tmp_path, capsys):
    # power-weight jumps at 0 need the series route from 0; each basis below
    # passes validation but cannot give it
    bases = {
        "identity": ({"type": "identity"}, "series evaluator"),
        "off-axis": ({"type": "frobenius0", "basepoint": [0.5, 0.2]}, "positive real axis"),
    }
    for name, (basis, reason) in bases.items():
        spec = _power_cocycle_spec(basis)
        assert semantic_diagnostics(spec) == [], name
        spec_file = _write(tmp_path, f"{name}.json", spec)
        assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: cli.run[cocycle]: SeriesRouteUnavailable: "), err
        assert reason in err, err


def test_cocycle_from_zero_runs_through_both_zones(tmp_path):
    # from 0.9 the head from 0 and the probe lines cross into the zone at 1,
    # where the series route continues W through the basis at 1
    spec = _power_cocycle_spec({"type": "frobenius0", "basepoint": 0.9})
    assert semantic_diagnostics(spec) == []
    out = tmp_path / "r.json"
    assert main(["run", "--spec", _write(tmp_path, "spec.json", spec), "--out", str(out)]) == 0
    [jump] = json.loads(out.read_text())["results"]["jumps"]
    assert len(jump["closed_form"]) == 4
    assert max(c["closed_form_rel_err"] for c in jump["closed_form"]) <= 1e-6


def test_cocycle_specs_make_no_rk_call(monkeypatch):
    # the benchmark's cocycle shapes: H21 = k/(x(1-x)) with centers 0 and 1,
    # and a power weight at 0; every loop stays in the two series zones
    from monodeform import transport

    calls = []
    rk = transport._dop853
    monkeypatch.setattr(transport, "_dop853", lambda *a: calls.append(1) or rk(*a))
    zero = {"num": [], "den": [[1.0, 0.0]]}
    mero = {"equation": HYP, "task": "cocycle", "basis": {"type": "frobenius0"},
            "perturbation": {"kind": "meromorphic", "rho": 1e-3, "H": [
                [zero, zero],
                [{"num": [[0.8, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}, zero]]}}
    report = run_spec(mero)
    assert [j["center"] for j in report["results"]["jumps"]] == [[0.0, 0.0], [1.0, 0.0]]
    assert report["diagnostics"]["cocycle_identity_residual"] <= 1e-9
    run_spec(_power_cocycle_spec({"type": "frobenius0"}))
    assert calls == []


def test_cocycle_identity_reuses_the_jumps_sweeps(monkeypatch):
    # each jump sweeps its probes 0.3, 0.5 and 0.7; the identity then needs
    # delta and M round a and b at the basepoint, and delta round b then a.
    # A basepoint-anchored jump has swept its own loop there already: the
    # jump at 1 always, the jump at 0 when it falls back from the zero anchor
    from monodeform import dyson

    calls = []
    sweep = dyson._series_sweep
    monkeypatch.setattr(dyson, "_series_sweep", lambda *a: calls.append(1) or sweep(*a))
    for name, count in (("trivial-deformation", 8), ("meromorphic-cocycle", 7)):
        calls.clear()
        run_spec(example_specs()[name])
        assert len(calls) == count, name


def test_sweep_nodes_are_head_levels_and_path_pieces(monkeypatch):
    # trivial-deformation: each sweep lays HEAD_NODES per zero-head panel and
    # PATH_NODES per path piece.  The pieces do not depend on the node count, so
    # 32-node path panels lay the same head and exactly twice the path nodes
    from monodeform import dyson

    sweep, nodes = dyson._series_sweep, []

    def counted(evaluator, pert, groups, points, K, dim, want_plain, from_zero, *rest):
        head = sum(len(panel.zs) for panel in groups[0]) if from_zero else 0
        nodes.append((head, sum(len(panel.zs) for group in groups for panel in group) - head))
        return sweep(evaluator, pert, groups, points, K, dim, want_plain, from_zero, *rest)

    monkeypatch.setattr(dyson, "_series_sweep", counted)
    assert (dyson.HEAD_NODES, dyson.PATH_NODES) == (32, 16)
    counts = {}
    for path_nodes in (16, 32):
        nodes.clear()
        monkeypatch.setattr(dyson, "PATH_NODES", path_nodes)
        run_spec(example_specs()["trivial-deformation"])
        counts[path_nodes] = list(nodes)
    assert len(counts[16]) == len(counts[32]) == 8 and any(head for head, _ in counts[16])
    for (head, path), (head_32, path_32) in zip(counts[16], counts[32]):
        assert head % 32 == 0 and path % 16 == 0 and path > 0
        assert head == head_32 and path_32 == 2 * path


def _dyson_spec(basis, paths=None):
    zero = {"num": [], "den": [[1.0, 0.0]]}
    h21 = {"num": [[1.0, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}
    spec = {"equation": HYP, "task": "dyson", "basis": {"type": basis},
            "perturbation": {"kind": "meromorphic", "H": [[zero, zero], [h21, zero]],
                             "rho": 1e-3},
            "numerics": {"K": 2, "tol": 1e-11}}
    if paths is not None:
        spec["paths"] = [path_to_json(p) for p in paths]
    return spec


def test_rk_calls_are_the_direct_legs(monkeypatch):
    # a Frobenius basis on a contour in the two zones takes the Dyson terms
    # and W at the end from one series sweep, so RK runs only the direct
    # leg of the oracle (one DOP853 call per segment of each leg)
    from monodeform import transport

    calls = []
    rk = transport._dop853
    monkeypatch.setattr(transport, "_dop853", lambda *a: calls.append(1) or rk(*a))
    line = [line_path(0.5, 0.75)]
    for spec, count in [(example_specs()["series-oracle"], 2),
                        (_dyson_spec("frobenius0", line), 1),
                        (_dyson_spec("identity", line), 2)]:
        calls.clear()
        report = run_spec(spec)
        assert len(calls) == count, spec["task"]
    assert report["diagnostics"]["route"] == "ode"
    assert "fallback_reason" not in report["diagnostics"]


def _corner_pole(den):
    """Perturbation with H21 = 1/den(x) and zeros elsewhere."""
    zero = {"num": [], "den": [[1.0, 0.0]]}
    return {"kind": "meromorphic", "rho": 1e-3,
            "H": [[zero, zero], [{"num": [[1.0, 0.0]], "den": den}, zero]]}


def test_exit_code_3_on_pole_at_basepoint(tmp_path, capsys):
    # H21 = 1/(x - 0.5) has its pole at the default basepoint 0.5, where the
    # paths of these tasks start
    pert = _corner_pole([[-0.5, 0.0], [1.0, 0.0]])
    for task in ("monodromy", "cocycle", "dyson"):
        spec_file = _write(tmp_path, f"{task}.json",
                           {"equation": HYP, "task": task, "perturbation": pert})
        assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 3, task
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: cli.run[{task}]: PathThroughSingularity: "), err


_Z = {"num": [], "den": [[1.0, 0.0]]}
_ONE = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}
_SYSTEM = {"system": {"dim": 2, "entries": [
    [_Z, _ONE], [_Z, {"num": [[-1.0, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0]]}]]}}
_LOOP_0, _LOOP_1 = (path_to_json(loop_around(c, 0.25, 0.5, avoid=(0, 1))) for c in (0, 1))


def _line(*points):
    return {"segments": [{"line": [[a, 0.0], [b, 0.0]]} for a, b in points]}


# specs that are wrong on their face, each with the JSON path of its fault
SPEC_FAULTS = {
    "frobenius-basis-on-a-system": ("$.basis.type", {
        "equation": _SYSTEM, "task": "monodromy", "basis": {"type": "frobenius0"}}),
    "eigenshift-complex-a": ("$.equation.hypergeometric", {
        "equation": {"hypergeometric": {"a": [0.3, 0.1], "b": 0.7, "c": 1.2}},
        "task": "eigenshift"}),
    "series-off-the-corner": ("$.perturbation.H[0][1]", {
        "equation": HYP, "task": "series",
        "perturbation": {"kind": "meromorphic", "H": [[_Z, _ONE], [_ONE, _Z]]}}),
    "dyson-path-off-the-basepoint": ("$.paths[0]", {
        "equation": HYP, "task": "dyson", "paths": [_line((0.6, 0.7))],
        "perturbation": {"kind": "meromorphic", "H": [[_Z, _Z], [_ONE, _Z]]}}),
    "monodromy-open-path": ("$.paths[0]", {
        "equation": HYP, "task": "monodromy", "paths": [_line((0.5, 0.7))], "centers": [1.0]}),
    "monodromy-loop-off-the-basepoint": ("$.paths[0]", {
        "equation": HYP, "task": "monodromy", "centers": [1.0],
        "paths": [path_to_json(loop_around(1, 0.25, 0.6, avoid=(0, 1)))]}),
    "explicit-basis-3x3": ("$.basis.matrix", {
        "equation": HYP, "task": "monodromy",
        "basis": {"type": "explicit",
                  "matrix": [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]}}),
    "explicit-basis-ragged": ("$.basis.matrix", {
        "equation": HYP, "task": "monodromy",
        "basis": {"type": "explicit", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]}}),
    "segments-that-do-not-chain": ("$.paths[0]", {
        "equation": HYP, "task": "monodromy", "paths": [_line((0.5, 0.7), (0.8, 0.5))],
        "centers": [1.0]}),
    "arc-without-radius": ("$.paths[0]", {
        "equation": HYP, "task": "monodromy", "centers": [1.0],
        "paths": [{"segments": [{"arc": {"center": [1.0, 0.0], "r": 0.0,
                                         "th0": 0.0, "th1": 6.283185307179586}}]}]}),
    "zero-denominator-in-h": ("$.perturbation", {
        "equation": HYP, "task": "cocycle",
        "perturbation": {"kind": "meromorphic",
                         "H": [[_Z, _Z], [{"num": [[1.0, 0.0]], "den": [[0.0, 0.0]]}, _Z]]}}),
    "system-entries-not-square": ("$.equation.system", {
        "equation": {"system": {"dim": 2, "entries": [[_ONE]]}}, "task": "monodromy"}),
    "1x1-h-on-a-2x2-equation": ("$.perturbation.H", {
        "equation": HYP, "task": "monodromy",
        "perturbation": {"kind": "meromorphic", "H": [[_ONE]], "rho": 1e-3}}),
    "monodromy-paths-without-centers": ("$.centers", {
        "equation": HYP, "task": "monodromy", "paths": [_LOOP_1, _LOOP_0, _LOOP_1]}),
    "monodromy-paths-with-too-few-centers": ("$.centers", {
        "equation": HYP, "task": "monodromy", "paths": [_LOOP_1, _LOOP_0, _LOOP_1],
        "centers": [1.0, 0.0]}),
}


@pytest.mark.parametrize("name", SPEC_FAULTS)
def test_every_spec_fault_exits_2_at_its_json_path(tmp_path, capsys, name):
    # each spec passes the JSON Schema; `validate` names its fault and `run` exits 2 with it
    where, spec = SPEC_FAULTS[name]
    validate_schema(spec)
    diags = semantic_diagnostics(spec)
    assert [(d["level"], d["where"]) for d in diags] == [("error", where)], diags
    spec_file = _write(tmp_path, "spec.json", spec)
    assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and err.strip().endswith(f"(at {where})"), err
    sweep_file = _write(tmp_path, "sweep.json", {"sweep": [example_specs()["monodromy-basic"],
                                                           spec]})
    assert main(["run", "--spec", sweep_file, "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.strip().endswith(f"(at $.sweep[1]{where[1:]})"), err
    assert main(["validate", "--spec", sweep_file]) == 0
    diags = json.loads(capsys.readouterr().out)
    assert [(d["level"], d["where"]) for d in diags] == [("error", f"$.sweep[1]{where[1:]}")]


_SERIES, _MONODROMY = example_specs()["series-oracle"], example_specs()["monodromy-basic"]

# faults of the document around the specs, and of the command-line numerics, each with
# the flags, the document and the JSON path of its fault
DOCUMENT_FAULTS = {
    "sweep-of-a-number": ([], {"sweep": 5}, "$.sweep"),
    "sweep-beside-a-task": ([], {"sweep": [], "task": "x"}, "$"),
    "sweep-entry-not-an-object": ([], {"sweep": [_MONODROMY, 5]}, "$.sweep[1]"),
    "order-0": (["--order", "0"], _SERIES, "$.numerics.K"),
    "order-50": (["--order", "50"], _SERIES, "$.numerics.K"),
    "tol-1": (["--tol", "1"], _MONODROMY, "$.numerics.tol"),
    "tol-nan": (["--tol", "nan"], _MONODROMY, "$.numerics.tol"),
    "order-9-in-a-sweep": (["--order", "9"], {"sweep": [_MONODROMY, _SERIES]},
                           "$.sweep[0].numerics.K"),
    "tol-1e-3-in-a-sweep": (["--tol", "1e-3"], {"sweep": [_SERIES]}, "$.sweep[0].numerics.tol"),
}


@pytest.mark.parametrize("name", DOCUMENT_FAULTS)
def test_every_document_and_flag_fault_exits_2_at_its_json_path(tmp_path, capsys, name):
    flags, doc, where = DOCUMENT_FAULTS[name]
    spec_file = _write(tmp_path, "doc.json", doc)
    assert main(["run", "--spec", spec_file, "--out", os.devnull, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and err.strip().endswith(f"(at {where})"), err
    if not flags:
        assert main(["validate", "--spec", spec_file]) == 0
        diags = json.loads(capsys.readouterr().out)
        assert [(d["level"], d["where"]) for d in diags] == [("error", where)], diags


def test_flags_reach_every_spec_and_its_report(tmp_path):
    # --tol and --order go into each spec's numerics, so the report records them and
    # its config hash follows; without flags the report is the spec's own
    plain, tight = tmp_path / "plain.json", tmp_path / "tight.json"
    spec_file = _write(tmp_path, "spec.json", _MONODROMY)
    assert main(["run", "--spec", spec_file, "--out", str(plain)]) == 0
    assert main(["run", "--spec", spec_file, "--out", str(tight), "--tol", "1e-12"]) == 0
    plain, tight = json.loads(plain.read_text()), json.loads(tight.read_text())
    assert plain["inputs"] == _MONODROMY and plain["config_hash"] == config_hash(_MONODROMY)
    assert tight["inputs"]["numerics"] == {"tol": 1e-12}
    assert tight["config_hash"] == config_hash(tight["inputs"]) != plain["config_hash"]
    assert tight["diagnostics"]["tol"] == 1e-12
    sweep_out = tmp_path / "sweep-out.json"
    sweep_file = _write(tmp_path, "sweep.json", {"sweep": [_MONODROMY, _SERIES]})
    assert main(["run", "--spec", sweep_file, "--out", str(sweep_out), "--order", "3"]) == 0
    reports = json.loads(sweep_out.read_text())["sweep"]
    assert [r["inputs"]["numerics"]["K"] for r in reports] == [3, 3]
    assert len(reports[1]["results"]["samples"][0]["terms"]) == 4


@pytest.mark.parametrize("spec", [
    # H21 = 1/(x - p) on the connector 0.5 -> 0.625 of the default loop round 1, and 1e-7
    # off its circle of radius 0.375: the cocycle loops take the series route
    {"equation": HYP, "task": "cocycle", "perturbation": _corner_pole([[-0.6, 0.0], [1.0, 0.0]])},
    {"equation": HYP, "task": "cocycle",
     "perturbation": _corner_pole([[-1.3750001, 0.0], [1.0, 0.0]])},
    # a power-weight jump from 0: its zero head runs from 0 to the probe 0.45 through 0.3
    dict(_power_cocycle_spec({"type": "frobenius0", "basepoint": 0.45}),
         perturbation={"kind": "power", "lambda": 0.5, "rho": 1e-3,
                       "H": _corner_pole([[-0.3, 0.0], [1.0, 0.0]])["H"]}),
], ids=["connector", "circle", "zero-head"])
def test_exit_code_3_on_series_route_through_a_pole(tmp_path, capsys, spec):
    assert main(["run", "--spec", _write(tmp_path, "spec.json", spec), "--out", os.devnull]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: cli.run[cocycle]: SingularPoint: "), err


def test_matrix_json_roundtrip():
    m = np.array([[1 + 2j, 3.5], [0.0, -1j]], dtype=complex)
    blob = _jsonable(m)
    assert blob == {
        "dim": 2,
        "data": [[1.0, 2.0], [3.5, 0.0], [0.0, 0.0], [0.0, -1.0]],
    }
    back = np.array([complex(re, im) for re, im in blob["data"]]).reshape(blob["dim"], -1)
    assert np.max(np.abs(back - m)) < 1e-15


def test_correction_json_carries_metadata():
    pert = _corner_pole([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    path = line_path(0.5, 0.7)
    corr = correction_C(hypergeometric_system(0.3, 0.7, 0.4), perturbation_from_json(pert),
                        frobenius_basis(0.3, 0.7, 0.4, 0, 0.5), path, tol=1e-11, route="ode")
    assert corr.path is path and corr.branch is not None
    assert _jsonable(corr.value)["dim"] == 2
    assert len(config_hash(path_to_json(corr.path))) == 16
    spec = {"equation": HYP, "task": "dyson", "perturbation": pert,
            "paths": [path_to_json(path)], "numerics": {"tol": 1e-11}}
    windings = run_spec(spec)["diagnostics"]["windings"]
    assert len(windings) >= 2
    assert all(w == 0 for w in windings.values())


def test_exit_code_3_on_series_forcing_pole(tmp_path, capsys):
    # double poles of H21 on the series range: at the basepoint 0.5, and at
    # the triangle point 0.7, where the u_i quadrature would never converge
    dens = {"at-0.5": [[0.25, 0.0], [-1.0, 0.0], [1.0, 0.0]],
            "at-0.7": [[0.49, 0.0], [-1.4, 0.0], [1.0, 0.0]]}
    for name, den in dens.items():
        spec_file = _write(tmp_path, f"{name}.json", {"equation": HYP, "task": "series",
                                                      "perturbation": _corner_pole(den)})
        assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: cli.run[series]: NonIntegrableForcing: "), err


def test_series_forcing_pole_just_off_the_range(tmp_path):
    # simple poles of H21 just outside [0.2, 0.8]: the u_i lattice's first
    # panel ends are the range ends, so no forcing sample crosses a pole
    for p in (0.19, 0.199, 0.81):
        spec_file = _write(tmp_path, f"{p}.json", {"equation": HYP, "task": "series",
                                                   "perturbation": _corner_pole([[-p, 0.0], [1.0, 0.0]])})
        out = tmp_path / f"{p}-rep.json"
        assert main(["run", "--spec", spec_file, "--out", str(out)]) == 0, p
        tri = json.loads(out.read_text())["diagnostics"]["oracle_triangle"]
        assert max(v for t in tri for k, v in t.items() if k != "x") <= 1e-8, p


def test_exit_code_3_on_non_integrable_profile_moment(tmp_path, capsys):
    # the density profile |y1|^2 omega makes f |y1|^2 omega ~ x^(2c-2) at 0:
    # only that component of the stacked moments pass fails at c = 0.35
    for c, code in ((0.35, 3), (0.75, 0)):
        spec_file = _write(tmp_path, f"density-{c}.json",
                           {"equation": {"hypergeometric": {"a": 0.3, "b": 0.4, "c": c}},
                            "task": "eigenshift", "f": {"name": "density"}})
        assert main(["run", "--spec", spec_file, "--out", os.devnull]) == code, c
        err = capsys.readouterr().err
        if code == 3:
            assert err.startswith("numeric failure: cli.run[eigenshift]: NonIntegrableEndpoint: "
                                  "f|y1|^2 omega has endpoint exponent -1.300 <= -1 at 0"), err


def test_exit_code_2_on_unreadable_file(tmp_path):
    assert main(["run", "--spec", str(tmp_path / "missing.json")]) == 2


def test_examples_and_validate_roundtrip(tmp_path):
    d = tmp_path / "specs"
    assert main(["examples", "--out", str(d)]) == 0
    files = sorted(os.listdir(d))
    assert len(files) == 8
    for name in files:
        rc = main(["validate", "--spec", str(d / name), "--out", str(tmp_path / "diag.json")])
        assert rc == 0
        assert json.loads((tmp_path / "diag.json").read_text()) == []


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    blob = capsys.readouterr().out
    parsed = json.loads(blob)
    assert parsed["title"].startswith("monodeform")


def test_series_task_csv_and_triangle(tmp_path):
    spec = example_specs()["series-oracle"]
    spec_file = _write(tmp_path, "spec.json", spec)
    out = tmp_path / "rep.json"
    csv_dir = tmp_path / "csv"
    rc = main(["run", "--spec", spec_file, "--out", str(out), "--csv", str(csv_dir)])
    assert rc == 0
    rep = json.loads(out.read_text())
    tri = rep["diagnostics"]["oracle_triangle"]
    assert all(t["varpar_vs_dyson"] < 1e-8 for t in tri)
    csv_text = (csv_dir / "series_terms.csv").read_text()
    assert csv_text.splitlines()[0].startswith("x,re_y0,im_y0")
    assert "\r" not in csv_text  # LF endings
    # the CSV's rows are the report's samples, at 16 significant digits
    rows = [[float(v) for v in line.split(",")] for line in csv_text.splitlines()[1:]]
    want = [[s["x"]] + [p for y in s["terms"] for p in y] for s in rep["results"]["samples"]]
    assert np.allclose(rows, want, rtol=1e-15, atol=0)


def test_series_csv_evaluates_no_term_twice(tmp_path, monkeypatch):
    # the CSV takes the term values the report sampled: one _Cumulative call
    # per u_i integral either way
    from monodeform import varpar

    calls = []
    call = varpar._Cumulative.__call__
    monkeypatch.setattr(varpar._Cumulative, "__call__",
                        lambda self, x: calls.append(1) or call(self, x))
    for csv_dir in (None, str(tmp_path)):
        calls.clear()
        run_spec(example_specs()["series-oracle"], csv_dir)
        assert len(calls) == 5, csv_dir


def test_eigenshift_report_independent_of_history(tmp_path):
    # one triple's series op and six eigenshifts share a basis and its W
    # memo: the report of a shift is the same bytes cold, after the other
    # ops of its triple, and on a second run
    hyp = {"hypergeometric": {"a": 0.3, "b": 0.7, "c": 1.2}}
    series = dict(example_specs()["series-oracle"], equation=hyp)
    profiles = [{"name": n} for n in ("one", "x", "x(1-x)")]
    profiles += [{"poly": [[0.2, 0], [-0.7, 0], [v, 0]]} for v in (0.4, -0.9, 0.1)]
    shifts = [{"equation": hyp, "task": "eigenshift", "f": f, "numerics": {"nodes": 24}}
              for f in profiles]

    def emitted(spec):
        path = tmp_path / "report.json"
        _emit(run_spec(spec), str(path))
        return path.read_bytes()

    basis_for.cache_clear()
    cold = emitted(shifts[4])
    for spec in [series] + shifts[:4] + shifts[5:]:
        run_spec(spec)
    assert emitted(shifts[4]) == cold
    assert emitted(shifts[4]) == cold
    # the series samples read the same memo through one array call per term
    basis_for.cache_clear()
    cold = emitted(series)
    for spec in shifts:
        run_spec(spec)
    assert emitted(series) == cold
    assert emitted(series) == cold


def test_sample_task_csv(tmp_path):
    spec = {"equation": HYP, "task": "sample", "samples": 11}
    spec_file = _write(tmp_path, "spec.json", spec)
    csv_dir = tmp_path / "csv"
    rc = main(["run", "--spec", spec_file, "--out", str(tmp_path / "rep.json"),
               "--csv", str(csv_dir)])
    assert rc == 0
    lines = (csv_dir / "samples.csv").read_text().splitlines()
    assert lines[0] == "x,re_y1,im_y1,re_y2,im_y2,omega,density"
    assert len(lines) == 12


def test_sample_task_on_a_system_equation():
    # A(x) at every sample from one array evaluation: re, im of each entry
    # row by row, equal to the entrywise rational-function calls
    entries = [[_ratfn_json([0.3 - 0.2j], [1.0, 1.0]), _ratfn_json([1.0])],
               [_ratfn_json([1j, 2.0], [0.5j, -2.0, 1.0]), _ratfn_json([])]]
    spec = {"equation": {"system": {"dim": 2, "entries": entries}},
            "task": "sample", "samples": 9}
    rep = run_spec(spec)["results"]
    assert rep["header"] == ["x", "re_A00", "im_A00", "re_A01", "im_A01",
                             "re_A10", "im_A10", "re_A11", "im_A11"]
    sys_ = system_from_json(spec["equation"]["system"])
    assert [row[0] for row in rep["rows"]] == np.linspace(0.02, 0.98, 9).tolist()
    for x, *parts in rep["rows"]:
        got = np.array(parts[::2]) + 1j * np.array(parts[1::2])
        want = np.array([e(complex(x)) for row in sys_.entries for e in row])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_exit_code_3_on_sample_point_at_a_pole(tmp_path, capsys):
    # samples 0.02, 0.5, 0.98: the middle one is the pole of 1/(x - 0.5)
    spec = {"equation": {"system": {"dim": 1, "entries": [[_ratfn_json([1.0], [-0.5, 1.0])]]}},
            "task": "sample", "samples": 3}
    assert main(["run", "--spec", _write(tmp_path, "spec.json", spec), "--out", os.devnull]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: cli.run[sample]: SingularPoint: "), err


def test_sweep_runs_sequentially(tmp_path):
    sweep = {"sweep": [{"equation": HYP, "task": "monodromy"},
                       {"equation": HYP, "task": "monodromy", "centers": [0.0]}]}
    spec_file = _write(tmp_path, "sweep.json", sweep)
    out = tmp_path / "rep.json"
    assert main(["run", "--spec", spec_file, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["sweep"]) == 2


def test_dyson_task_oracle_delta(tmp_path):
    spec = _dyson_spec("frobenius0")
    rep = run_spec(spec)
    assert rep["diagnostics"]["oracle_delta_vs_direct"] < 1e-8
    assert len(rep["results"]["terms"]) == 2
    assert len(rep["diagnostics"]["path_hash"]) == 16
    # a loop from 0.5 winds once round its center; within 1e-9 of a whole
    # turn a winding is that integer (round 1 the argument about 0 comes
    # back to within 1.3e-17 turns).  W at a loop's end is the series W on
    # the tracked end branch, W M; its oracle delta sits too close to 1e-8
    # to hold it to that bound
    for center, windings in ((0, {"0+0j": 1, "1+0j": 0}), (1, {"0+0j": 0, "1+0j": 1})):
        spec["paths"] = [path_to_json(loop_around(center, 0.25, 0.5, avoid=(0, 1)))]
        diags = run_spec(spec)["diagnostics"]
        assert diags["windings"] == windings
        assert all(type(w) is int for w in diags["windings"].values())
        assert diags["oracle_delta_vs_direct"] < 1e-7
        assert isinstance(diags["path_hash"], str) and len(diags["path_hash"]) == 16


def test_dyson_task_reports_its_route():
    # the default frobenius0 basis on a line inside the zones takes the
    # series route; a line out to |z| = |1 - z| = 1.118 leaves both zones,
    # so `auto` falls back to the ODE route and says why; an open path
    # keeps its fractional turns
    diags = run_spec(_dyson_spec("frobenius0", [line_path(0.5, 0.75)]))["diagnostics"]
    assert diags["route"] == "series" and "fallback_reason" not in diags
    diags = run_spec(_dyson_spec("frobenius0", [line_path(0.5, 0.5 + 1j)]))["diagnostics"]
    assert diags["route"] == "ode"
    assert diags["fallback_reason"].startswith(
        "SeriesRouteUnavailable: contour leaves the series convergence zone"), diags
    assert diags["oracle_delta_vs_direct"] < 1e-8
    turn = math.atan2(1.0, 0.5) / (2 * math.pi)
    assert diags["windings"] == pytest.approx({"0+0j": turn, "1+0j": -turn}, rel=1e-12)
    legs = run_spec(example_specs()["series-oracle"])["diagnostics"]["dyson_legs"]
    assert legs == [{"x": 0.3, "route": "series"}, {"x": 0.7, "route": "series"}]


def test_runtime_path_imports_neither_scipy_nor_jsonschema(tmp_path):
    # scipy and jsonschema are test-only references: neither the CLI import
    # nor a monodromy or eigenvalue-shift run nor a parallel sweep may load
    # them; multiprocessing is for the parallel sweep alone
    import monodeform

    examples = example_specs()
    sweep = _write(tmp_path, "sweep.json", {"sweep": [examples["monodromy-basic"],
                                                      examples["branch-cut-jump"]]})
    code = (
        "import sys\n"
        "import monodeform.cli as cli\n"
        "def check(stage, mods=('scipy', 'jsonschema', 'multiprocessing')):\n"
        "    for mod in mods:\n"
        "        assert mod not in sys.modules, (mod, stage)\n"
        "check('import')\n"
        "for name in ('monodromy-basic', 'eigenvalue-shift'):\n"
        "    cli.run_spec(cli.example_specs()[name])\n"
        "    check(name)\n"
        f"assert cli.main(['run', '--spec', {sweep!r}, '--jobs', '2',\n"
        f"                 '--out', {str(tmp_path / 'sweep-report.json')!r}]) == 0\n"
        "check('sweep', ('scipy', 'jsonschema'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(monodeform.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads((tmp_path / "sweep-report.json").read_text())["sweep"]) == 2
