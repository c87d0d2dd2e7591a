"""Problem-specification schema and semantic validation for the CLI.

`PROBLEM_SCHEMA` is a JSON Schema (Draft 2020-12).  `validate_schema` checks
it in-repo, keyword for keyword as Draft 2020-12 defines the ten keywords it
uses, so a spec gets the same verdict and the same first error location as
from a general-purpose validator, without one on the import path.
"""

from __future__ import annotations

import json
import numbers
from typing import Any, Iterator

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
        raise SchemaError(f"{message} (at {path})", path)
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
