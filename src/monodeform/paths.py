"""Piecewise paths in the complex plane with continuous branch tracking.

A path is a chain of Line and Arc segments, each parameterized on t in [0,1]
at constant speed (`point` and `velocity` take one t or an array of them).
For every tracked branch point p, the argument of z - p is continued along
the path in closed form, segment by segment, with no per-node table: a line
turns by one principal phase (less than pi), and an arc by the change of a
bracket that stays in the right half-plane (`_turn`).  An arc centred on a
tracked point turns by exactly its parameter sweep, so a full positive circle
contributes exactly 2*pi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import SingularPoint
from .odecore import _c2j, _j2c, exclusion_radius, same_point

ENDPOINT_TOL = 1e-12


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
    return isinstance(seg, Arc) and same_point(p, seg.center)


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
        raise SingularPoint("basepoint lies inside the loop circle")
    for s in avoid:
        if not same_point(s, center) and abs(s - center) < 2 * radius * (1 - 1e-12):
            raise SingularPoint(f"singularity {s} within 2x loop radius of center {center}")
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
    clash = validate_clearance(path, avoid)
    if clash:
        raise SingularPoint(clash[0])
    return path


def validate_clearance(path: PathSpec, points: Sequence[complex]) -> list[str]:
    """Report the points the path approaches within their exclusion radius.  No arc is
    exempt: an arc's distance to its own centre is its radius."""
    out = []
    for p in points:
        dist = min(seg.distance_to(p) for seg in path.segments)
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
            if same_point(point, p):
                return a
        raise KeyError(f"no tracked branch point at {point}")

    @staticmethod
    def principal(z: complex, points: Sequence[complex]) -> "BranchState":
        phase = np.angle if isinstance(z, np.ndarray) else cmath.phase
        return BranchState(tuple((p, phase(z - p)) for p in points))

    def winding(self, point: complex, reference: "BranchState") -> float:
        return (self.arg(point) - reference.arg(point)) / (2 * math.pi)


def _turn(seg: Segment, p: complex, t):
    """The continuous change of arg(z - p) from the start of seg to its parameter t (one t
    or an array).  A line turns by less than pi seen from p, so one principal phase is
    exact.  On an arc with q = p - center, arg(z - p) is b(theta) plus a constant, with
    b = theta + Arg(r - q e^{-i theta}) when |q| < r and b = Arg(1 - (r/q) e^{i theta})
    when |q| > r: either bracket keeps in the right half-plane, so its principal argument
    is continuous.  An arc centred on p turns by exactly theta(t) - theta0."""
    phase, exp = (np.angle, np.exp) if isinstance(t, np.ndarray) else (cmath.phase, cmath.exp)
    if isinstance(seg, Line):
        return phase((seg.point(t) - p) / (seg.z0 - p))
    r, q = seg.radius, 0j if _centered_on(seg, p) else p - seg.center
    if abs(abs(q) - r) <= 1e-12 * (1 + abs(p)):
        raise SingularPoint(f"arc passes through tracked point {p}")
    if abs(q) < r:
        b = lambda th: th + phase(r - q * exp(-1j * th))
    else:
        b = lambda th: phase(1 - r / q * exp(1j * th))
    return b(seg.angle(t)) - b(seg.theta0)


class ArgTracker:
    """Continuous arguments of z - p along a path for every tracked point p: the argument
    where each segment starts, one row per segment computed here, plus the segment's
    closed-form `_turn`; there is no per-node table.  A segment that starts within the
    exclusion radius of a tracked point (other than its own arc centre) raises
    SingularPoint, and so does an arc through one."""

    def __init__(self, path: PathSpec, points: Sequence[complex],
                 start: Optional[BranchState] = None):
        self.path = path
        self.points = list(points)
        for i, seg in enumerate(path.segments):
            z0 = seg.point(0.0)
            for p in self.points:
                if not _centered_on(seg, p) and abs(z0 - p) < exclusion_radius(p):
                    raise SingularPoint(
                        f"segment {i} starts at {z0}, on the tracked point {p}")
        start = BranchState.principal(path.start, self.points) if start is None else start
        self._starts = [[start.arg(p) for p in self.points]]
        for seg in path.segments:
            self._starts.append([a + _turn(seg, p, 1.0)
                                 for a, p in zip(self._starts[-1], self.points)])

    def arg(self, seg_index: int, t: float, point: complex) -> float:
        j = next(i for i, p in enumerate(self.points) if same_point(point, p))
        return self._starts[seg_index][j] + _turn(self.path.segments[seg_index], point, t)

    def args_at(self, seg_index: int, ts: np.ndarray) -> np.ndarray:
        """The array form of `arg`: the tracked argument of z(t) - p for every
        parameter in ts and every tracked point, shape (len(ts), len(points))."""
        seg = self.path.segments[seg_index]
        out = np.empty((len(ts), len(self.points)))
        for j, p in enumerate(self.points):
            out[:, j] = self._starts[seg_index][j] + _turn(seg, p, ts)
        return out

    @property
    def end_state(self) -> BranchState:
        return BranchState(tuple(zip(self.points, self._starts[-1])))


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
