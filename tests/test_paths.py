import cmath
import math

import numpy as np
import pytest

from monodeform import paths as paths_module
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
    _turn,
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


def _dense_turns(seg, p, ts, per_piece=20_000):
    """The reference: the turn of arg(z - p) from t = 0 to each of ts (ascending), summed
    from principal phase increments between dense nodes.  On an arc a chord of angle h
    strays r h^2 / 8 from it, far below the distance to p here, so each increment is exact
    up to rounding; the increments of each piece are summed pairwise by numpy."""
    out, total, t_prev = [], 0.0, 0.0
    for t in ts:
        z = seg.point(np.linspace(t_prev, t, per_piece + 1)) - p
        total += float(np.sum(np.angle(z[1:] / z[:-1])))
        out.append(total)
        t_prev = t
    return np.array(out)


def _seeded_arcs(n, seed=7):
    """(arc, tracked points) with points inside, outside, 1e-5 to 1e-2 off the circle on
    either side, and at the centre; sweeps up to 4 pi either way."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        center = complex(*rng.uniform(-1, 1, 2))
        r = rng.uniform(0.1, 1.5)
        th0 = rng.uniform(-4, 4)
        arc = Arc(center, r, th0, th0 + rng.uniform(-4 * math.pi, 4 * math.pi))
        scale = [rng.uniform(0, 0.95), rng.uniform(1.05, 3.0),
                 1 + rng.choice([-1, 1]) * 10 ** rng.uniform(-5, -2), 0.0]
        yield arc, [center + s * r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                    for s in scale]


def test_turn_matches_dense_phase_accumulation_on_arcs():
    ts = np.array([0.1, 0.37, 0.5, 0.81, 1.0])
    for arc, points in _seeded_arcs(40):
        tracker = ArgTracker(PathSpec((arc,)), points)
        start = BranchState.principal(arc.point(0.0), points)
        for j, p in enumerate(points):
            want = _dense_turns(arc, p, ts)
            assert np.max(np.abs(_turn(arc, p, ts) - want)) <= 1e-11, (arc, p)
            assert abs(_turn(arc, p, 1.0) - want[-1]) <= 1e-11, (arc, p)
            got = tracker.args_at(0, ts)[:, j] - start.arg(p)
            assert np.max(np.abs(got - want)) <= 1e-11, (arc, p)
            assert abs(tracker.end_state.arg(p) - start.arg(p) - want[-1]) <= 1e-11


def test_turn_matches_dense_phase_accumulation_on_lines():
    rng = np.random.default_rng(11)
    ts = np.array([0.2, 0.5, 0.9, 1.0])
    for _ in range(40):
        z0, z1, mid = (complex(*rng.uniform(-2, 2, 2)) for _ in range(3))
        seg = Line(z0, z1)
        # a point 1e-5 to 1 off the line's midpoint, and one anywhere
        d = z1 - z0
        near = 0.5 * (z0 + z1) + 1j * d / abs(d) * 10 ** rng.uniform(-5, 0)
        for p in (near, mid):
            want = _dense_turns(seg, p, ts)
            assert np.max(np.abs(_turn(seg, p, ts) - want)) <= 1e-11, (seg, p)


def test_centred_arc_turns_by_its_exact_sweep():
    arc = Arc(0.3 + 0.2j, 0.4, 1.1, 1.1 - 6 * math.pi)
    ts = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(_turn(arc, arc.center, ts), arc.angle(ts) - arc.theta0)
    assert _turn(arc, arc.center, 1.0) == arc.angle(1.0) - arc.theta0


def test_arc_through_a_tracked_point_raises():
    arc = Arc(0j, 0.5, 0.0, math.pi)
    with pytest.raises(PathThroughSingularity):
        ArgTracker(PathSpec((arc,)), [0.5j * (1 + 1e-13)])


def test_tracker_by_a_point_off_the_circle_costs_o1(monkeypatch):
    # a point 3e-6 off the circle of the default loop round 1 from 0.5 (r = 0.375):
    # per-node tables laid 500,002 nodes here; the closed form needs none
    calls = []
    point = Arc.point
    monkeypatch.setattr(paths_module.Arc, "point",
                        lambda self, t: calls.append(t) or point(self, t))
    loop = loop_around(1, 0.375, 0.5)
    tracker = ArgTracker(loop, [0j, 1 + 0j, 1.375003 + 0j])
    state, start = tracker.end_state, BranchState.principal(0.5, [0j, 1 + 0j, 1.375003 + 0j])
    assert len(calls) <= 4
    for p, winding in ((0j, 0.0), (1 + 0j, 1.0), (1.375003 + 0j, 0.0)):
        assert abs(state.winding(p, start) - winding) < 1e-15, p
