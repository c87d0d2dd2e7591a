import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from monodeform.cli import example_specs, main, run_spec
from monodeform.errors import SchemaError
from monodeform.paths import loop_around, path_to_json
from monodeform.schema import semantic_diagnostics, validate_schema


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
    spec = {
        "equation": HYP, "task": "monodromy",
        "paths": [{"segments": [{"line": [[0.5, 0.0], [1.0, 0.0]]}]}],
    }
    diags = semantic_diagnostics(spec)
    assert any(d["level"] == "error" and "singularity" in d["message"] for d in diags)


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


def test_exit_code_3_on_numeric_failure(tmp_path):
    # a path through the singularity at 1 makes the transport fail
    spec = {"equation": HYP, "task": "monodromy",
            "paths": [{"segments": [
                {"line": [[0.5, 0.0], [1.5, 0.0]]},
                {"line": [[1.5, 0.0], [0.5, 0.0]]}]}],
            "centers": [1.0]}
    spec_file = _write(tmp_path, "spec.json", spec)
    assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 3


def test_exit_code_3_on_cocycle_series_route_failures(tmp_path, capsys):
    # power-weight jumps at 0 need the series route from 0; each basis below
    # passes validation but cannot give it
    zero = {"num": [], "den": [[1.0, 0.0]]}
    one = {"num": [[1.0, 0.0]], "den": [[1.0, 0.0]]}
    base = {"equation": HYP, "task": "cocycle", "centers": [0.0],
            "perturbation": {"kind": "power", "lambda": 0.5, "rho": 1e-3,
                             "H": [[zero, zero], [one, zero]]}}
    bases = {
        "identity": ({"type": "identity"}, "series evaluator"),
        "off-axis": ({"type": "frobenius0", "basepoint": [0.5, 0.2]}, "positive real axis"),
        "outside-zone": ({"type": "frobenius0", "basepoint": 0.9}, "convergence zone"),
    }
    for name, (basis, reason) in bases.items():
        spec = dict(base, basis=basis)
        assert semantic_diagnostics(spec) == [], name
        spec_file = _write(tmp_path, f"{name}.json", spec)
        assert main(["run", "--spec", spec_file, "--out", os.devnull]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: cli.run[cocycle]: SeriesRouteUnavailable: "), err
        assert reason in err, err


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


def test_sweep_runs_sequentially(tmp_path):
    sweep = {"sweep": [{"equation": HYP, "task": "monodromy"},
                       {"equation": HYP, "task": "monodromy", "centers": [0.0]}]}
    spec_file = _write(tmp_path, "sweep.json", sweep)
    out = tmp_path / "rep.json"
    assert main(["run", "--spec", spec_file, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["sweep"]) == 2


def test_dyson_task_oracle_delta(tmp_path):
    zero = {"num": [], "den": [[1.0, 0.0]]}
    h21 = {"num": [[1.0, 0.0]], "den": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}
    spec = {"equation": HYP, "task": "dyson",
            "perturbation": {"kind": "meromorphic", "H": [[zero, zero], [h21, zero]],
                             "rho": 1e-3},
            "numerics": {"K": 2, "tol": 1e-11}}
    rep = run_spec(spec)
    assert rep["diagnostics"]["oracle_delta_vs_direct"] < 1e-8
    assert len(rep["results"]["terms"]) == 2
    assert len(rep["diagnostics"]["path_hash"]) == 16
    # a loop around 0 from 0.5 winds once around 0; its oracle delta sits
    # too close to 1e-8 to hold it to that bound
    spec["paths"] = [path_to_json(loop_around(0, 0.25, 0.5, avoid=(0, 1)))]
    diags = run_spec(spec)["diagnostics"]
    assert diags["windings"]["0+0j"] == 1
    assert isinstance(diags["path_hash"], str) and len(diags["path_hash"]) == 16


def test_runtime_path_does_not_import_scipy():
    # scipy is a test-only reference: neither the CLI import nor a monodromy
    # or eigenvalue-shift run may load it
    import monodeform

    code = (
        "import sys\n"
        "import monodeform.cli as cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "for name in ('monodromy-basic', 'eigenvalue-shift'):\n"
        "    cli.run_spec(cli.example_specs()[name])\n"
        "    assert 'scipy' not in sys.modules, name\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(monodeform.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
