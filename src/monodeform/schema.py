"""Problem-specification schema and semantic validation for the CLI."""

from __future__ import annotations

import json
from typing import Any

import jsonschema

from .errors import SchemaError
from .hypergeom import is_near_integer
from .odecore import _dedup, _j2c, perturbation_from_json, system_from_json
from .paths import path_from_json, validate_clearance

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


def validate_schema(spec: Any) -> None:
    """Raise SchemaError (with a JSON-pointer location) on structural problems."""
    validator = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
    errors = sorted(validator.iter_errors(spec), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise SchemaError(f"{e.message} (at {e.json_path})", e.json_path)
    task = spec["task"]
    if task in TASKS_NEEDING_PERTURBATION and "perturbation" not in spec:
        raise SchemaError(f"task {task!r} requires a perturbation", "$.perturbation")
    if task == "eigenshift" and "hypergeometric" not in spec["equation"]:
        raise SchemaError("eigenshift needs a hypergeometric equation", "$.equation")
    if "perturbation" in spec:
        p = spec["perturbation"]
        if p["kind"] == "power" and "lambda" not in p:
            raise SchemaError("power kind requires lambda", "$.perturbation.lambda")


def semantic_diagnostics(spec: Any) -> list[dict]:
    """Genericity / integrability / path-clearance checks without numerics;
    paths keep clear of the equation's singularities and the perturbation's poles."""
    out: list[dict] = []
    try:
        validate_schema(spec)
    except SchemaError as e:
        return [{"level": "error", "where": e.pointer, "message": str(e)}]
    eq = spec["equation"]
    singularities: list[complex] = []
    if "hypergeometric" in eq:
        a = _j2c(eq["hypergeometric"]["a"])
        b = _j2c(eq["hypergeometric"]["b"])
        c = _j2c(eq["hypergeometric"]["c"])
        singularities = [0j, 1 + 0j]
        if is_near_integer(c):
            out.append({
                "level": "warning", "where": "$.equation.hypergeometric.c",
                "message": f"c={c} is within 1e-8 of an integer; the power-type "
                           "local solution at 0 degenerates and Frobenius bases fail",
            })
        if is_near_integer(c - a - b):
            out.append({
                "level": "warning", "where": "$.equation.hypergeometric",
                "message": f"c-a-b={c - a - b} is within 1e-8 of an integer; the "
                           "local basis at 1 degenerates",
            })
        if spec["task"] == "eigenshift":
            if c.real <= 0 or (a + b - c).real <= -1:
                out.append({
                    "level": "error", "where": "$.equation.hypergeometric",
                    "message": "weight exponents (c-1, a+b-c) violate endpoint "
                               "integrability on [0,1]",
                })
    elif "system" in eq:
        try:
            singularities = list(system_from_json(eq["system"]).singularities)
        except Exception as exc:
            out.append({"level": "error", "where": "$.equation.system", "message": str(exc)})
    if "perturbation" in spec:
        try:
            pert = perturbation_from_json(spec["perturbation"])
            singularities = _dedup(singularities + list(pert.poles))
        except Exception as exc:
            out.append({"level": "error", "where": "$.perturbation", "message": str(exc)})
    for i, pj in enumerate(spec.get("paths", [])):
        try:
            path = path_from_json(pj)
        except Exception as exc:
            out.append({"level": "error", "where": f"$.paths[{i}]", "message": str(exc)})
            continue
        for msg in validate_clearance(path, singularities, skip=path.arc_centers()):
            out.append({"level": "error", "where": f"$.paths[{i}]", "message": msg})
    return out
