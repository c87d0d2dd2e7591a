"""Problem-specification schema, the one spec decoder, and semantic validation for the CLI.

`PROBLEM_SCHEMA` is a JSON Schema (Draft 2020-12).  `validate_schema` checks
it in-repo, keyword for keyword as Draft 2020-12 defines the ten keywords it
uses, so a spec gets the same verdict and the same first error location as
from a general-purpose validator, without one on the import path.  `decode`
runs it, builds the equation, perturbation, paths, centers and basis
description once, and applies every rule across fields; it is the one place
that refuses a spec, always as SchemaError at a JSON path, and both
`monodeform run` and `monodeform validate` go through it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

import numpy as np

from .errors import SchemaError
from .hypergeom import hypergeometric_system, is_near_integer
from .odecore import (MeromorphicSystem, PerturbationSpec, _dedup, _j2c, companion,
                      perturbation_from_json, poly_from_json, scalar_ode_from_json,
                      system_from_json)
from .paths import PathSpec, path_from_json, validate_clearance
from .ratfun import ComplexPoly
from .transport import BASEPOINT_TOL

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_CNUM = {"oneOf": [{"type": "number"}, _PAIR]}
_POLY = {"type": "array", "items": _PAIR}
_RATFN = {
    "type": "object",
    "properties": {"num": _POLY, "den": _POLY},
    "required": ["num", "den"],
    "additionalProperties": False,
}
_MATRIX_RATFN = {"type": "array", "items": {"type": "array", "items": _RATFN}}

_SEGMENT = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"line": {"type": "array", "items": _PAIR, "minItems": 2, "maxItems": 2}},
            "required": ["line"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "arc": {
                    "type": "object",
                    "properties": {"center": _PAIR, "r": {"type": "number"},
                                   "th0": {"type": "number"}, "th1": {"type": "number"}},
                    "required": ["center", "r", "th0", "th1"],
                    "additionalProperties": False,
                }
            },
            "required": ["arc"],
            "additionalProperties": False,
        },
    ]
}
_PATH = {
    "type": "object",
    "properties": {"segments": {"type": "array", "items": _SEGMENT, "minItems": 1}},
    "required": ["segments"],
    "additionalProperties": False,
}

PROBLEM_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "monodeform problem specification",
    "type": "object",
    "properties": {
        "equation": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {
                        "hypergeometric": {
                            "type": "object",
                            "properties": {"a": _CNUM, "b": _CNUM, "c": _CNUM},
                            "required": ["a", "b", "c"],
                            "additionalProperties": False,
                        }
                    },
                    "required": ["hypergeometric"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "scalar": {
                            "type": "object",
                            "properties": {"order": {"type": "integer", "minimum": 1},
                                           "coeffs": {"type": "array", "items": _RATFN}},
                            "required": ["order", "coeffs"],
                            "additionalProperties": False,
                        }
                    },
                    "required": ["scalar"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {
                        "system": {
                            "type": "object",
                            "properties": {"dim": {"type": "integer", "minimum": 1},
                                           "entries": _MATRIX_RATFN},
                            "required": ["dim", "entries"],
                            "additionalProperties": False,
                        }
                    },
                    "required": ["system"],
                    "additionalProperties": False,
                },
            ]
        },
        "task": {"enum": ["monodromy", "dyson", "cocycle", "eigenshift", "series", "sample"]},
        "perturbation": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["meromorphic", "power", "log"]},
                "H": _MATRIX_RATFN,
                "lambda": _CNUM,
                "rho": _CNUM,
            },
            "required": ["kind", "H"],
            "additionalProperties": False,
        },
        "numerics": {
            "type": "object",
            "properties": {
                "tol": {"type": "number", "minimum": 1e-14, "maximum": 1e-4},
                "K": {"type": "integer", "minimum": 1, "maximum": 8},
                "nodes": {"type": "integer", "minimum": 8, "maximum": 512},
            },
            "additionalProperties": False,
        },
        "paths": {"type": "array", "items": _PATH},
        "basis": {
            "type": "object",
            "properties": {
                "type": {"enum": ["frobenius0", "frobenius1", "identity", "explicit"]},
                "basepoint": _CNUM,
                "matrix": {"type": "array", "items": {"type": "array", "items": _PAIR}},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        "f": {
            "oneOf": [
                {
                    "type": "object",
                    "properties": {"name": {"enum": ["one", "x", "x(1-x)", "density"]}},
                    "required": ["name"],
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "properties": {"poly": _POLY},
                    "required": ["poly"],
                    "additionalProperties": False,
                },
            ]
        },
        "centers": {"type": "array", "items": _CNUM},
        "samples": {"type": "integer", "minimum": 2, "maximum": 100000},
    },
    "required": ["equation", "task"],
    "additionalProperties": False,
}

TASKS_NEEDING_PERTURBATION = ("dyson", "cocycle", "series")


def schema_json() -> str:
    return json.dumps(PROBLEM_SCHEMA, indent=2, sort_keys=True)


# Draft 2020-12 types: a bool is not a number, and a float with no
# fractional part is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}


def _violations(schema: dict, value: Any, path: str) -> Iterator[tuple[str, str]]:
    """(JSON path, message) of every violation of schema by value, in the
    order of the schema's keywords; the object and array keywords pass over
    values of other types, as do minimum and maximum over non-numbers."""
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "oneOf":
            valid = sum(next(_violations(sub, value, path), None) is None for sub in arg)
            if valid != 1:
                yield path, f"{value!r} is valid under {valid} of the {len(arg)} given schemas"
        elif key in ("minimum", "maximum"):
            if _TYPES["number"](value) and (value < arg if key == "minimum" else value > arg):
                yield path, f"{value!r} is out of range ({key} {arg!r})"
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _violations(sub, value[name], f"{path}.{name}")
        elif key == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":
            if isinstance(value, dict) and arg is False:
                extra = sorted(set(value) - set(schema.get("properties", ())), key=str)
                if extra:
                    yield path, f"unexpected properties {', '.join(map(repr, extra))}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _violations(arg, item, f"{path}[{i}]")
        elif key in ("minItems", "maxItems"):
            n = len(value) if isinstance(value, list) else None
            if n is not None and (n < arg if key == "minItems" else n > arg):
                yield path, f"{value!r} has {n} items ({key} {arg})"
        elif key not in ("$schema", "title"):
            raise ValueError(f"schema keyword {key!r} is not supported")


def _non_finite(value: Any, path: str) -> Iterator[tuple[str, str]]:
    """(JSON path, message) of each NaN or infinity json.load read into value."""
    if isinstance(value, float) and not abs(value) < float("inf"):
        yield path, f"{value!r} is not a finite number"
    elif isinstance(value, (dict, list)):
        step = ".{}" if isinstance(value, dict) else "[{}]"
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, path + step.format(key))


def validate_schema(spec: Any) -> None:
    """Raise SchemaError (with a JSON-path location) on structural problems:
    of all the violations, the first by JSON path, else the first NaN or infinity."""
    first = (min(_violations(PROBLEM_SCHEMA, spec, "$"), key=lambda v: v[0], default=None)
             or next(_non_finite(spec, "$"), None))
    if first is not None:
        path, message = first
        _refuse(message, path)
    task = spec["task"]
    if task in TASKS_NEEDING_PERTURBATION and "perturbation" not in spec:
        _refuse(f"task {task!r} requires a perturbation", "$.perturbation")
    if task == "eigenshift" and "hypergeometric" not in spec["equation"]:
        _refuse("eigenshift needs a hypergeometric equation", "$.equation")
    if "perturbation" in spec:
        p = spec["perturbation"]
        if p["kind"] == "power" and "lambda" not in p:
            _refuse("power kind requires lambda", "$.perturbation.lambda")


def _refuse(message: str, pointer: str):
    raise SchemaError(f"{message} (at {pointer})", pointer)


def _built(pointer: str, make: Callable, *args):
    """make(*args), with a constructor's ValueError or ZeroDivisionError refused at pointer."""
    try:
        return make(*args)
    except (ValueError, ZeroDivisionError) as exc:
        _refuse(str(exc), pointer)


# --- spec -> objects ---------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """A spec decoded into the objects the task runners compute with."""

    task: str
    system: MeromorphicSystem
    hypergeometric: Optional[tuple[complex, complex, complex]]  # (a, b, c)
    params: Optional[tuple[float, float, float]]  # (a, b, c) when all are real
    pert: Optional[PerturbationSpec]
    rho: complex
    basis_type: str  # frobenius0 | frobenius1 | identity | explicit
    basepoint: complex
    basis_matrix: Optional[np.ndarray]  # the value of an explicit basis
    paths: tuple[PathSpec, ...]
    centers: tuple[complex, ...]  # as given, else the system's singularities
    profile: Union[str, ComplexPoly]  # the name of a built-in eigenshift profile, or a poly
    samples: Optional[int]
    tol: float
    K: int  # the series truncation order
    nodes: int


def _square(grid, dim: int) -> bool:
    return len(grid) == dim and all(len(row) == dim for row in grid)


def sweep_entries(doc: Any, tol: Optional[float] = None,
                  order: Optional[int] = None) -> list[tuple[str, Any]]:
    """(JSON path, spec) of each spec a document holds: the document itself, or each entry
    of a sweep, an object whose one key "sweep" holds a list.  The command line's --tol and
    --order go into each spec's numerics, so `decode` checks them with the rest."""
    if isinstance(doc, dict) and "sweep" in doc:
        if set(doc) != {"sweep"}:
            extra = sorted(set(doc) - {"sweep"}, key=str)
            _refuse(f"a sweep holds only 'sweep', not {', '.join(map(repr, extra))}", "$")
        if not isinstance(doc["sweep"], list):
            _refuse(f"{doc['sweep']!r} is not of type 'array'", "$.sweep")
        entries = [(f"$.sweep[{i}]", spec) for i, spec in enumerate(doc["sweep"])]
    else:
        entries = [("$", doc)]
    flags = {key: v for key, v in (("tol", tol), ("K", order)) if v is not None}
    return [(at, {**spec, "numerics": {**spec.get("numerics", {}), **flags}})
            if flags and isinstance(spec, dict) and isinstance(spec.get("numerics", {}), dict)
            else (at, spec) for at, spec in entries]


def decode(spec: Any, at: str = "$") -> Problem:
    """The spec as a Problem, or SchemaError at the JSON path of its first fault: the schema
    first, then field by field each constructor, shape and rule across fields.  `at` is
    where the spec sits in its document, the root or an entry of a sweep."""
    try:
        return _decode(spec)
    except SchemaError as exc:
        _refuse(str(exc).removesuffix(f" (at {exc.pointer})"), at + exc.pointer[1:])


def _decode(spec: Any) -> Problem:
    validate_schema(spec)
    task, eq = spec["task"], spec["equation"]
    abc = params = None
    if "hypergeometric" in eq:
        abc = tuple(_j2c(eq["hypergeometric"][k]) for k in "abc")
        system = hypergeometric_system(*abc)
        if max(abs(v.imag) for v in abc) < 1e-14:
            params = tuple(v.real for v in abc)
    elif "scalar" in eq:
        system = companion(_built("$.equation.scalar", scalar_ode_from_json, eq["scalar"]))
    else:
        system = _built("$.equation.system", system_from_json, eq["system"])
    pert, rho = None, 0j
    if "perturbation" in spec:
        p = spec["perturbation"]
        pert = _built("$.perturbation", perturbation_from_json, p)
        rho = _j2c(p.get("rho", 1e-3))
        if not _square(p["H"], system.dim):
            _refuse(f"H must be {system.dim} x {system.dim}, the size of the system",
                    "$.perturbation.H")
    b = spec.get("basis", {"type": "frobenius0" if abc is not None else "identity"})
    basepoint, matrix = _j2c(b.get("basepoint", 0.5)), None
    if b["type"].startswith("frobenius") and abc is None:
        _refuse("Frobenius bases need a hypergeometric equation", "$.basis.type")
    if b["type"] == "explicit":
        if not _square(b.get("matrix", ()), system.dim):
            _refuse(f"an explicit basis needs a {system.dim} x {system.dim} matrix",
                    "$.basis.matrix")
        matrix = np.array([[_j2c(v) for v in row] for row in b["matrix"]])
    paths = tuple(_built(f"$.paths[{i}]", path_from_json, pj)
                  for i, pj in enumerate(spec.get("paths", [])))
    centers = tuple(_j2c(c) for c in spec.get("centers", []))
    f = spec.get("f", {"name": "one"})
    profile = f["name"] if "name" in f else poly_from_json(f["poly"])

    if task in ("eigenshift", "series") and params is None:
        _refuse(f"task {task!r} needs real hypergeometric parameters",
                "$.equation.hypergeometric" if abc is not None else "$.equation")
    if task == "series":
        for i, row in enumerate(pert.H):
            for j, e in enumerate(row):
                if (i, j) != (system.dim - 1, 0) and not e.is_zero:
                    _refuse("the series task takes the perturbation in the companion corner "
                            f"H[{system.dim - 1}][0] only", f"$.perturbation.H[{i}][{j}]")
    if task == "monodromy" and paths:
        for i, path in enumerate(paths):
            if not path.is_closed:
                _refuse("a monodromy path must be a closed loop", f"$.paths[{i}]")
            if abs(path.start - basepoint) > BASEPOINT_TOL:
                _refuse(f"a monodromy loop must start at the basepoint {basepoint}",
                        f"$.paths[{i}]")
        if len(centers) != len(paths):
            _refuse(f"{len(paths)} monodromy paths need one center each, "
                    f"not {len(centers)}", "$.centers")
    if task == "dyson" and paths and abs(paths[0].start - basepoint) > BASEPOINT_TOL:
        _refuse(f"the dyson path must start at the basepoint {basepoint}", "$.paths[0]")
    numerics = spec.get("numerics", {})
    return Problem(task, system, abc, params, pert, rho, b["type"], basepoint, matrix, paths,
                   centers or system.singularities, profile,
                   int(spec["samples"]) if "samples" in spec else None,
                   float(numerics.get("tol", 1e-10)), int(numerics.get("K", 2)),
                   int(numerics.get("nodes", 64)))


def semantic_diagnostics(doc: Any) -> list[dict]:
    """For a spec, or for each entry of a sweep: the first fault that `decode` refuses,
    else genericity, integrability and path-clearance checks without numerics; paths keep
    clear of the equation's singularities and the perturbation's poles.  Each diagnostic
    names its JSON path in the document."""
    try:
        entries = sweep_entries(doc)
    except SchemaError as e:
        return [{"level": "error", "where": e.pointer, "message": str(e)}]
    return [d for at, spec in entries for d in _diagnostics(spec, at)]


def _diagnostics(spec: Any, at: str) -> list[dict]:
    try:
        problem = decode(spec, at)
    except SchemaError as e:
        return [{"level": "error", "where": e.pointer, "message": str(e)}]
    found = []  # (level, where, message)
    if problem.hypergeometric is not None:
        a, b, c = problem.hypergeometric
        if is_near_integer(c):
            found.append(("warning", "$.equation.hypergeometric.c",
                          f"c={c} is within 1e-8 of an integer; the power-type local solution "
                          "at 0 degenerates and Frobenius bases fail"))
        if is_near_integer(c - a - b):
            found.append(("warning", "$.equation.hypergeometric",
                          f"c-a-b={c - a - b} is within 1e-8 of an integer; the local basis "
                          "at 1 degenerates"))
        if problem.task == "eigenshift" and (c.real <= 0 or (a + b - c).real <= -1):
            found.append(("error", "$.equation.hypergeometric", "weight exponents (c-1, a+b-c) "
                          "violate endpoint integrability on [0,1]"))
    poles = _dedup([*problem.system.singularities, *(problem.pert.poles if problem.pert else ())])
    for i, path in enumerate(problem.paths):
        found += [("error", f"$.paths[{i}]", message)
                  for message in validate_clearance(path, poles, skip=path.arc_centers())]
    return [{"level": level, "where": at + where[1:], "message": message}
            for level, where, message in found]
