"""The in-repo schema check against jsonschema's Draft 2020-12 validator:
the same verdict, and for an invalid spec the same JSON path, on the worked
examples, on every spec the benchmark workloads generate, and on seeded
mutations of both."""

import copy
import importlib.util
import itertools
import json
import os

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodeform.cli import example_specs
from monodeform.errors import SchemaError
from monodeform.schema import PROBLEM_SCHEMA, _violations, schema_json, validate_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
HYP = {"hypergeometric": {"a": 0.3, "b": 0.7, "c": 0.4}}


def _workload_specs() -> list[dict]:
    """Every problem spec in the first 5 rounds of each workload, seeds 1-3."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    loader = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    specs = []
    for name, seed in itertools.product(workloads.WORKLOADS, (1, 2, 3)):
        for round_ in itertools.islice(workloads.rounds(name, seed), 5):
            for spec in round_:
                specs.extend(spec.get("sweep", [spec]))
    return specs


EXAMPLES = list(example_specs().values())
WORKLOAD_SPECS = _workload_specs()


def _assert_parity(spec) -> bool:
    """Assert that validate_schema agrees with the reference; True if the
    spec is valid."""
    errors = sorted(REFERENCE.iter_errors(spec), key=lambda e: e.json_path)
    if not errors:
        assert next(_violations(PROBLEM_SCHEMA, spec, "$"), None) is None
        return True
    with pytest.raises(SchemaError) as err:
        validate_schema(spec)
    assert err.value.pointer == errors[0].json_path, str(err.value)
    return False


def test_examples_and_workload_specs_are_valid():
    assert len(EXAMPLES) == 8 and len(WORKLOAD_SPECS) == 3 * 5 * (3 + 7 + 2)
    for spec in EXAMPLES + WORKLOAD_SPECS:
        assert _assert_parity(spec)
        validate_schema(spec)


_DROP = object()


def _with(spec, trail, value):
    """A copy of spec with the value at trail replaced, or dropped."""
    spec = copy.deepcopy(spec)
    node = spec
    for key in trail[:-1]:
        node = node[key]
    if value is _DROP:
        del node[trail[-1]]
    else:
        node[trail[-1]] = value
    return spec


_MONO = {"equation": HYP, "task": "monodromy", "numerics": {"tol": 1e-10, "K": 2}}


@pytest.mark.parametrize("trail, value, valid", [
    (("equation", "hypergeometric", "c"), _DROP, False),   # a required key
    (("task",), _DROP, False),
    (("extra",), 1.0, False),                              # an unknown key
    (("equation", "hypergeometric", "extra"), 1.0, False),
    (("equation", "hypergeometric", "a"), True, False),    # a bool is no number
    (("equation", "hypergeometric", "a"), [0.3], False),   # neither oneOf branch
    (("equation", "hypergeometric", "a"), [0.3, 0.1], True),
    (("numerics", "K"), 2.0, True),                        # 2.0 is an integer
    (("numerics", "K"), 2.5, False),
    (("numerics", "K"), True, False),
    (("numerics", "K"), 9, False),                         # out of range
    (("numerics", "tol"), 1e-15, False),
    (("numerics", "tol"), 1e-4, True),
    (("task",), "solve", False),                           # an enum miss
    (("equation", "scalar"), {"order": 2, "coeffs": []}, False),  # both equation keys
    (("paths",), [{"segments": []}], False),               # minItems
    (("paths",), [{"segments": [{"line": [[0, 0], [1, 0], [2, 0]]}]}], False),  # maxItems
])
def test_named_mutations_match_draft_2020_12(trail, value, valid):
    assert _assert_parity(_with(_MONO, trail, value)) is valid


def test_one_of_counts_every_branch():
    # no spec matches two branches of PROBLEM_SCHEMA's oneOfs, so a toy
    # schema checks that a value valid under both is rejected
    schema = {"oneOf": [{"type": "number"}, {"type": "integer", "minimum": 1}]}
    reference = jsonschema.Draft202012Validator(schema)
    for value in (2, 2.0, 0.5, 0, True, "x"):
        assert (next(_violations(schema, value, "$"), None) is None) == reference.is_valid(value)


def _nodes(value, trail=()):
    """(trail, node) of every node below the root of a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield trail + (key,), sub
        yield from _nodes(sub, trail + (key,))


_REPLACEMENTS = (True, False, None, 2, 2.0, 2.5, -1, 0, 10**6, 1e-20, "x", "monodromy",
                 "power", [], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], {}, {"line": []})


def test_first_violation_by_path_wins():
    # the schema visits properties before required and paths before basis;
    # the reported violation is the first by JSON path all the same
    spec = _with(_with(_MONO, ("task",), _DROP), ("numerics", "K"), 9)
    assert not _assert_parity(spec)
    spec = dict(_MONO, paths=[{"segments": []}], basis={"type": "nowhere"})
    assert not _assert_parity(spec)


@settings(max_examples=300)
@given(st.data())
def test_seeded_mutations_match_draft_2020_12(data):
    # one to three mutations of a valid spec: drop a key, add an unknown
    # one, or replace a value
    spec = data.draw(st.sampled_from(EXAMPLES + WORKLOAD_SPECS))
    for _ in range(data.draw(st.integers(1, 3))):
        trail, node = data.draw(st.sampled_from(list(_nodes(spec))))
        kind = data.draw(st.sampled_from(("drop", "unknown", "replace")))
        if kind == "replace" or not isinstance(node, dict):
            spec = _with(spec, trail, data.draw(st.sampled_from(_REPLACEMENTS)))
        elif kind == "drop" and node:
            spec = _with(spec, trail + (data.draw(st.sampled_from(sorted(node))),), _DROP)
        else:
            spec = _with(spec, trail + ("unknown",), 1.0)
    _assert_parity(spec)


def test_schema_doc_matches_the_program():
    # README points users at docs/problem_schema.json: it must hold the
    # schema that `monodeform schema` prints
    with open(os.path.join(ROOT, "docs", "problem_schema.json")) as fh:
        assert json.load(fh) == json.loads(schema_json())
