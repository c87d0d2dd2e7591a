import math

import numpy as np
import pytest

from monodeform.cli import config_hash
from monodeform.errors import PathThroughSingularity
from monodeform.paths import (
    Arc,
    ArgTracker,
    BranchState,
    Line,
    PathSpec,
    line_path,
    loop_around,
    path_from_json,
    path_to_json,
    validate_clearance,
)


def test_loop_three_segments_closed():
    loop = loop_around(0, 0.1, 0.5)
    assert len(loop.segments) == 3
    assert loop.is_closed
    assert abs(loop.start - 0.5) < 1e-15


def test_loop_through_basepoint_is_pure_circle():
    loop = loop_around(0, 0.5, 0.5)
    assert len(loop.segments) == 1
    assert isinstance(loop.segments[0], Arc)
    assert loop.is_closed


def test_loop_composition_concatenates():
    g0 = loop_around(0, 0.2, 0.5)
    g1 = loop_around(1, 0.2, 0.5)
    both = g0 + g1
    assert len(both.segments) == len(g0.segments) + len(g1.segments)
    assert both.is_closed


def test_loop_annulus_guard():
    with pytest.raises(PathThroughSingularity):
        loop_around(0, 0.3, 0.9, avoid=[0.45 + 0j])


def test_endpoint_continuity_enforced():
    with pytest.raises(ValueError):
        PathSpec((Line(0, 1), Line(2, 3)))


def test_path_json_roundtrip_format():
    loop = loop_around(0, 0.25, 0.5)
    data = path_to_json(loop)
    assert "segments" in data
    assert "line" in data["segments"][0]
    assert "arc" in data["segments"][1]
    arc = data["segments"][1]["arc"]
    assert set(arc) == {"center", "r", "th0", "th1"}
    back = path_from_json(data)
    assert abs(back.start - loop.start) < 1e-15
    assert path_to_json(back) == path_to_json(loop)


def test_branch_winding_exact_2pi():
    loop = loop_around(0, 0.25, 0.5)
    tracker = ArgTracker(loop, [0j])
    w = tracker.end_state.winding(0j, BranchState.principal(loop.start, [0j]))
    assert abs(w - 1.0) < 1e-12 / (2 * math.pi)


def test_winding_around_offcenter_point():
    # a circle of radius 2 around 0 also winds once around any interior
    # point, and zero times around exterior points
    circle = PathSpec((Arc(0, 2.0, 0.0, 2 * math.pi),))
    inner, outer = 0.7 + 0.3j, 3.0 + 1.0j
    tracker = ArgTracker(circle, [inner, outer])
    start = BranchState.principal(circle.start, [inner, outer])
    assert abs(tracker.end_state.winding(inner, start) - 1.0) < 1e-12
    assert abs(tracker.end_state.winding(outer, start) - 0.0) < 1e-12


def test_reversed_path_unwinds():
    loop = loop_around(0, 0.25, 0.5)
    back = PathSpec((Line(0.5, 0.25), Arc(0, 0.25, 2 * math.pi, 0.0), Line(0.25, 0.5)))
    tracker = ArgTracker(loop + back, [0j])
    assert abs(tracker.end_state.winding(0j, BranchState.principal(0.5, [0j]))) < 1e-12


def test_line_winding_less_than_half_turn():
    path = line_path(1.0, -1.0 + 0.4j)
    tracker = ArgTracker(path, [0j])
    assert abs(tracker.end_state.winding(0j, BranchState.principal(path.start, [0j]))) < 0.5


def test_segment_starting_on_tracked_point_raises():
    with pytest.raises(PathThroughSingularity):
        ArgTracker(line_path(0.5, 0.7), [0j, 0.5 + 1e-7j])
    # an arc centred on the point is the one segment that may track it
    tracker = ArgTracker(loop_around(0.5, 0.1, 0.6), [0.5 + 0j])
    assert abs(tracker.end_state.arg(0.5) - 2 * math.pi) < 1e-12


def test_branch_state_lookup():
    st = BranchState.principal(0.5, [0j, 1 + 0j])
    assert abs(st.arg(0j) - 0.0) < 1e-15
    assert abs(st.arg(1 + 0j) - math.pi) < 1e-15
    with pytest.raises(KeyError):
        st.arg(5j)


@pytest.mark.parametrize("center", [0.0, 1.0])
def test_arg_tracker_array_lookup_matches_scalar(center):
    # each loop has an arc centred on one tracked point and passing the other
    loop = loop_around(center, 0.25, 0.5, avoid=[0j, 1 + 0j])
    points = [0j, 1 + 0j]
    tracker = ArgTracker(loop, points)
    for i in range(len(loop.segments)):
        ts = np.concatenate([np.linspace(0.0, 1.0, 41), [0.25, 0.5 - 1e-16, 0.75]])
        table = tracker.args_at(i, ts)
        assert table.shape == (len(ts), 2)
        for j, p in enumerate(points):
            scalar = np.array([tracker.arg(i, t, p) for t in ts])
            assert np.max(np.abs(table[:, j] - scalar)) <= 1e-15


@pytest.mark.parametrize("seg", [Line(0.5 + 0.1j, 0.2 - 0.3j),
                                 Arc(1.0 + 0j, 0.25, 2.0, 2.0 + 2 * math.pi)],
                         ids=["line", "arc"])
def test_segment_on_parameter_array_matches_scalar_calls(seg):
    ts = np.concatenate([np.linspace(0.0, 1.0, 17), [1 / 3, 0.7071]])
    for method in (seg.point, seg.velocity):
        values = method(ts)
        assert isinstance(values, np.ndarray) and values.shape == ts.shape
        scalars = [method(float(t)) for t in ts]
        assert all(type(v) is complex for v in scalars)
        assert np.array_equal(values, scalars)


def test_arg_tracker_one_call_per_segment_matches_pieces():
    loop = loop_around(0.0, 0.25, 0.5, avoid=[0j, 1 + 0j])
    tracker = ArgTracker(loop, [0j, 1 + 0j])
    pieces = [np.linspace(lo, hi, 9) for lo, hi in ((0.0, 0.3), (0.3, 0.8), (0.8, 1.0))]
    for i in range(len(loop.segments)):
        whole = tracker.args_at(i, np.concatenate(pieces))
        assert np.array_equal(whole, np.concatenate([tracker.args_at(i, ts) for ts in pieces]))


def test_validate_clearance_reports_violation():
    path = line_path(0.0 + 1e-9j, 1.0 + 1e-9j)  # grazes both 0 and 1
    msgs = validate_clearance(path, [0j, 1 + 0j])
    assert len(msgs) == 2


def test_arc_distance():
    arc = Arc(0, 1.0, 0.0, math.pi / 2)
    assert abs(arc.distance_to(2.0 + 0j) - 1.0) < 1e-12
    assert abs(arc.distance_to(0.5 + 0j) - 0.5) < 1e-12
    # point angularly outside the sweep: nearest endpoint
    far = arc.distance_to(-2.0 + 0j)
    assert abs(far - abs(-2 - arc.point(1.0))) < 1e-12


def test_path_hash_is_stable():
    # a report's path_hash is the config hash of the path's JSON
    l1 = loop_around(0, 0.25, 0.5)
    l2 = loop_around(0, 0.25, 0.5)
    path_hash = lambda p: config_hash(path_to_json(p))
    assert path_hash(l1) == path_hash(l2)
    l3 = loop_around(0, 0.26, 0.5)
    assert path_hash(l1) != path_hash(l3)
