"""Piecewise paths in the complex plane with continuous branch tracking.

A path is a chain of Line and Arc segments, each parameterized on t in [0,1]
at constant speed (`point` and `velocity` take one t or an array of them).
For every tracked branch point p, the argument of z - p is accumulated
continuously along the path: straight segments change the argument by less
than pi (so a single principal-phase increment is exact), and arcs are
subdivided finely enough that the same holds per piece.  Arcs centered on a
tracked point accumulate their parameter sweep exactly, so a full positive
circle contributes exactly 2*pi.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import PathThroughSingularity
from .odecore import _c2j, _j2c, exclusion_radius

ENDPOINT_TOL = 1e-12
POINT_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Line:
    z0: complex
    z1: complex

    def point(self, t: float) -> complex:
        return self.z0 + t * (self.z1 - self.z0)

    def velocity(self, t: float) -> complex:
        d = self.z1 - self.z0
        return np.full(t.shape, d) if isinstance(t, np.ndarray) else d

    def distance_to(self, p: complex) -> float:
        d = self.z1 - self.z0
        if abs(d) == 0:
            return abs(p - self.z0)
        rel = p - self.z0
        t = (rel.real * d.real + rel.imag * d.imag) / (abs(d) ** 2)
        t = min(1.0, max(0.0, t))
        return abs(p - self.point(t))


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")

    def angle(self, t: float) -> float:
        return self.theta0 + t * (self.theta1 - self.theta0)

    def point(self, t: float) -> complex:
        exp = np.exp if isinstance(t, np.ndarray) else cmath.exp
        return self.center + self.radius * exp(1j * self.angle(t))

    def velocity(self, t: float) -> complex:
        exp = np.exp if isinstance(t, np.ndarray) else cmath.exp
        return 1j * self.radius * (self.theta1 - self.theta0) * exp(1j * self.angle(t))

    def distance_to(self, p: complex) -> float:
        rel = p - self.center
        if abs(self.theta1 - self.theta0) >= 2 * math.pi - 1e-15:
            return abs(abs(rel) - self.radius)
        phi = cmath.phase(rel) if abs(rel) > 0 else self.theta0
        lo, hi = sorted((self.theta0, self.theta1))
        k = math.floor((lo - phi) / (2 * math.pi))
        inside = any(lo <= phi + 2 * math.pi * (k + j) <= hi for j in range(4))
        if inside:
            return abs(abs(rel) - self.radius)
        return min(abs(p - self.point(0.0)), abs(p - self.point(1.0)))


Segment = Union[Line, Arc]


def _centered_on(seg: Segment, p: complex) -> bool:
    """Whether seg is an arc centred on the tracked point p."""
    return isinstance(seg, Arc) and abs(seg.center - p) <= POINT_MATCH_TOL * (1 + abs(p))


@dataclass(frozen=True)
class PathSpec:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("empty path")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > ENDPOINT_TOL:
                raise ValueError("consecutive segments do not share endpoints")

    @property
    def start(self) -> complex:
        return self.segments[0].point(0.0)

    @property
    def end(self) -> complex:
        return self.segments[-1].point(1.0)

    @property
    def is_closed(self) -> bool:
        return abs(self.start - self.end) <= ENDPOINT_TOL

    def __add__(self, other: "PathSpec") -> "PathSpec":
        if abs(self.end - other.start) > ENDPOINT_TOL:
            raise ValueError("paths do not chain: endpoint mismatch")
        return PathSpec(self.segments + other.segments)

    def arc_centers(self) -> list[complex]:
        return [s.center for s in self.segments if isinstance(s, Arc)]


def line_path(z0: complex, z1: complex) -> PathSpec:
    return PathSpec((Line(z0, z1),))


def loop_around(
    center: complex,
    radius: float,
    basepoint: complex,
    avoid: Sequence[complex] = (),
) -> PathSpec:
    """Positively oriented loop: line in from the basepoint, full circle, line back."""
    d = basepoint - center
    if abs(d) < radius - ENDPOINT_TOL:
        raise PathThroughSingularity("basepoint lies inside the loop circle")
    for s in avoid:
        if abs(s - center) <= POINT_MATCH_TOL * (1 + abs(s)):
            continue
        if abs(s - center) < 2 * radius * (1 - 1e-12):
            raise PathThroughSingularity(
                f"singularity {s} within 2x loop radius of center {center}"
            )
    theta0 = cmath.phase(d)
    entry = center + radius * cmath.exp(1j * theta0)
    arc = Arc(center, radius, theta0, theta0 + 2 * math.pi)
    segs: list[Segment] = []
    if abs(basepoint - entry) > ENDPOINT_TOL:
        segs.append(Line(basepoint, entry))
    segs.append(arc)
    if abs(basepoint - entry) > ENDPOINT_TOL:
        segs.append(Line(entry, basepoint))
    path = PathSpec(tuple(segs))
    clearance_violations = validate_clearance(path, [s for s in avoid], skip=(center,))
    if clearance_violations:
        raise PathThroughSingularity(str(clearance_violations[0]))
    return path


def validate_clearance(
    path: PathSpec, points: Sequence[complex], skip: Sequence[complex] = ()
) -> list[str]:
    """Report tracked points the path approaches within the exclusion radius.

    Points listed in `skip` are exempt from their own centered arcs (a loop
    circles around its center by construction); connector segments are still
    checked against them.
    """
    out = []
    for p in points:
        skipped = any(abs(p - s) <= POINT_MATCH_TOL * (1 + abs(p)) for s in skip)
        segs = [seg for seg in path.segments if not (skipped and _centered_on(seg, p))]
        if not segs:
            continue
        dist = min(seg.distance_to(p) for seg in segs)
        if dist < exclusion_radius(p):
            out.append(f"path passes within {dist:.3e} of singularity {p}")
    return out


# --- branch tracking ------------------------------------------------------


@dataclass(frozen=True)
class BranchState:
    """Continuously tracked arguments of z - p at one point of a path, or at
    every node of an array: then each argument is an array over the nodes,
    which `arg` returns."""

    args: tuple[tuple[complex, float], ...]

    def arg(self, point: complex) -> float:
        for p, a in self.args:
            if abs(p - point) <= POINT_MATCH_TOL * (1 + abs(point)):
                return a
        raise KeyError(f"no tracked branch point at {point}")

    @staticmethod
    def principal(z: complex, points: Sequence[complex]) -> "BranchState":
        phase = np.angle if isinstance(z, np.ndarray) else cmath.phase
        return BranchState(tuple((p, phase(z - p)) for p in points))

    def winding(self, point: complex, reference: "BranchState") -> float:
        return (self.arg(point) - reference.arg(point)) / (2 * math.pi)


def _arc_nodes(seg: Arc, p: complex) -> list[float]:
    """Parameter nodes fine enough that each piece turns < pi/2 seen from p."""
    if _centered_on(seg, p):
        return [0.0, 1.0]
    d_min = abs(abs(p - seg.center) - seg.radius)
    if d_min <= 1e-12 * (1 + abs(p)):
        raise PathThroughSingularity(f"arc passes through tracked point {p}")
    sweep = abs(seg.theta1 - seg.theta0)
    n = max(1, math.ceil(sweep * max(1.0, seg.radius / d_min) / (0.5 * math.pi)))
    return [i / n for i in range(n + 1)]


def _bracket(nodes: Sequence[float], t):
    """Index of the last table node at or below t, for one parameter or an
    array of them; every table starts at parameter 0."""
    if isinstance(t, np.ndarray):
        return np.searchsorted(nodes, t + 1e-15, side="right") - 1
    return bisect.bisect_right(nodes, t + 1e-15) - 1


class ArgTracker:
    """Per-segment tables of accumulated arguments along a path, built on first
    use.  A segment that starts within the exclusion radius of a tracked point
    (other than its own arc centre) raises PathThroughSingularity at once, so a
    caller can check the path's clearance before an arc close to a point lays
    its many table nodes."""

    def __init__(self, path: PathSpec, points: Sequence[complex],
                 start: Optional[BranchState] = None):
        self.path = path
        self.points = list(points)
        self._start = BranchState.principal(path.start, self.points) if start is None else start
        for i, seg in enumerate(path.segments):
            z0 = seg.point(0.0)
            for p in self.points:
                if not _centered_on(seg, p) and abs(z0 - p) < exclusion_radius(p):
                    raise PathThroughSingularity(
                        f"segment {i} starts at {z0}, on the tracked point {p}")

    @cached_property
    def tables(self) -> list[list[tuple[list[float], list[complex], list[float]]]]:
        """tables[i][j] = (t_nodes, z_nodes, arg_nodes) for segment i, point j."""
        tables = []
        current = [self._start.arg(p) for p in self.points]
        for seg in self.path.segments:
            row = []
            for j, p in enumerate(self.points):
                nodes = _arc_nodes(seg, p) if isinstance(seg, Arc) else [0.0, 1.0]
                zs = [seg.point(t) for t in nodes]
                args = [current[j]]
                centered = _centered_on(seg, p)
                for t_prev, t_next, z_prev, z_next in zip(nodes, nodes[1:], zs, zs[1:]):
                    if centered:
                        inc = seg.angle(t_next) - seg.angle(t_prev)
                    else:
                        inc = cmath.phase((z_next - p) / (z_prev - p))
                    args.append(args[-1] + inc)
                row.append((nodes, zs, args))
                current[j] = args[-1]
            tables.append(row)
        return tables

    def arg(self, seg_index: int, t: float, point: complex) -> float:
        j = next(
            i for i, p in enumerate(self.points)
            if abs(p - point) <= POINT_MATCH_TOL * (1 + abs(point))
        )
        nodes, zs, args = self.tables[seg_index][j]
        seg = self.path.segments[seg_index]
        k = _bracket(nodes, t)
        if _centered_on(seg, point):
            return args[k] + (seg.angle(t) - seg.angle(nodes[k]))
        return args[k] + cmath.phase((seg.point(t) - point) / (zs[k] - point))

    def args_at(self, seg_index: int, ts: np.ndarray) -> np.ndarray:
        """The array form of `arg`: the tracked argument of z(t) - p for every
        parameter in ts and every tracked point, shape (len(ts), len(points))."""
        seg = self.path.segments[seg_index]
        zt = seg.point(ts)
        out = np.empty((len(ts), len(self.points)))
        for j, p in enumerate(self.points):
            nodes, zs, args = (np.array(col) for col in self.tables[seg_index][j])
            k = _bracket(nodes, ts)
            if _centered_on(seg, p):
                out[:, j] = args[k] + (seg.angle(ts) - seg.angle(nodes[k]))
            else:
                out[:, j] = args[k] + np.angle((zt - p) / (zs[k] - p))
        return out

    @property
    def end_state(self) -> BranchState:
        return BranchState(tuple((p, args[-1]) for p, (_, _, args)
                                 in zip(self.points, self.tables[-1])))


# --- JSON ------------------------------------------------------------------


def path_to_json(path: PathSpec) -> dict:
    segs = []
    for s in path.segments:
        if isinstance(s, Line):
            segs.append({"line": [_c2j(s.z0), _c2j(s.z1)]})
        else:
            segs.append({"arc": {"center": _c2j(s.center), "r": s.radius,
                                 "th0": s.theta0, "th1": s.theta1}})
    return {"segments": segs}


def path_from_json(data) -> PathSpec:
    segs: list[Segment] = []
    for s in data["segments"]:
        if "line" in s:
            (a, b) = s["line"]
            segs.append(Line(_j2c(a), _j2c(b)))
        elif "arc" in s:
            d = s["arc"]
            segs.append(Arc(_j2c(d["center"]),
                            float(d["r"]), float(d["th0"]), float(d["th1"])))
        else:
            raise ValueError(f"unknown segment {s}")
    return PathSpec(tuple(segs))
