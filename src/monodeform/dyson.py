"""Gauge-correction integrals, first-order monodromy deformations, and
cocycle jumps.

For a perturbed system psi' = (A + rho B) psi with unperturbed fundamental
matrix W, the nested path-ordered integrals

    C_1(x) = int_{x0}^{x} G dt,   C_k(x) = int_{x0}^{x} G(t) C_{k-1}(t) dt,
    G = W^{-1} B W,

build the expansion W_rho = W (I + C_1 rho + C_2 rho^2 + ...); the repeated
integrals share their lower limit on paper but the path-ordered nesting is
the reading consistent with the ordered-exponential solution operator, and
is validated here against direct integration.  The first-order change of a
monodromy matrix is M_rho = M + (M C(loop.x) M^{-1} - C(x)) M rho + O(rho^2),
and the jump delta(loop) = M C(loop.x) M^{-1} - C(x) satisfies the cocycle
identity delta(g) - delta(g h) + M_g delta(h) M_g^{-1} = 0, where the
composite g h traverses h first (function-style composition, making loop ->
monodromy a homomorphism).

Two integration routes are implemented and cross-checked: an augmented
adaptive ODE transport (any basis; the blocks are integrated by `transport`),
and piecewise-Chebyshev quadrature with W evaluated from the Frobenius series
of the zones at 0 and 1 (needed for integrals anchored at the singular point 0
itself), which `auto` takes for any contour inside those two zones.  On that route
`series_monodromy` reads a loop's monodromy and its deformation off one sweep,
M(rho) = M_0 (I + sum_k rho^k C_k(loop)), which the RK `transport.monodromy` checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SeriesRouteUnavailable, ShapeMismatch, UnsupportedKind
from .hypergeom import SERIES_TOL
from .odecore import (KIND_LOG, KIND_MEROMORPHIC, KIND_POWER, MeromorphicSystem, PerturbationSpec,
                      same_point)
from .paths import (ArgTracker, Arc, BranchState, PathSpec, Segment, _centered_on, line_path,
                    loop_around)
from .quadrature import (cheb_cumulative, cheb_nodes, geometric_levels, geometric_panels,
                         geometric_tail)
from .transport import (FundamentalMatrix, _check_clearance, _gauge_matrix, _integrate,
                        check_condition, singular_points, tracked_points)

# Chebyshev nodes per panel: a zero-head panel [x/4, x] converges at rho = 3, 3^-32 ~ 5e-16
HEAD_NODES = 32
# a `_pieces` path panel converges at rho = 4 + sqrt(15) ~ 7.9, 7.9^-16 ~ 4e-15
PATH_NODES = 16
CONSTANCY_FRACTIONS = (0.3, 0.5, 0.7)


# the name the benchmark harness catches to count zone errors
_ZoneError = SeriesRouteUnavailable


# --- result types -----------------------------------------------------------


@dataclass(frozen=True)
class CorrectionC:
    """C at the end of a path (zero at the contour start by convention)."""

    value: np.ndarray
    path: PathSpec
    branch: Optional[BranchState]


@dataclass(frozen=True)
class DysonExpansion:
    order: int
    terms: tuple[np.ndarray, ...]  # C_1..C_K at the endpoint (term 0 = identity)
    basepoint: complex
    endpoint: complex
    path: Optional[PathSpec]
    branch: Optional[BranchState]
    # W at the endpoint on the tracked end branch, as the route carried it there
    w_end: Optional[np.ndarray] = field(default=None, compare=False)
    # {"route": "series" or "ode"}, with the "fallback_reason" of an unavailable series route
    provenance: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class CocycleJump:
    delta: np.ndarray
    constancy_residual: float
    monodromy: np.ndarray = field(default=None, compare=False)
    # (probe, delta, reference) for every probe evaluated, main probe first
    probe_data: tuple = field(default=(), compare=False)


# --- small linear algebra helpers -------------------------------------------


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


# --- series-quadrature route -------------------------------------------------


@dataclass(frozen=True)
class _Panel:
    """The Chebyshev panels of one path segment or of the whole head, end to end."""

    zs: np.ndarray
    dzdtau: np.ndarray
    args: np.ndarray  # (len(zs), len(points)) tracked arguments of zs - p
    n: int  # Chebyshev nodes in each panel


def _pieces(seg: Segment, cuts: Sequence[float], points: Sequence[complex]) -> list[float]:
    """The parameter cuts of seg, each piece halved while its length exceeds half the
    distance from its midpoint to the nearest tracked point (an arc's own centre is
    skipped), down to length 1e-9.  A Chebyshev panel on such a piece converges at
    rho = 4 + sqrt(15) ~ 7.9 per node (the Bernstein-ellipse bound, Trefethen, ATAP Thm 8.2),
    so PATH_NODES = 16 nodes reach 7.9^-16 ~ 4e-15."""
    speed = abs(seg.velocity(0.0))
    others = [p for p in points if not _centered_on(seg, p)]
    out, stack = [cuts[0]], list(zip(cuts[:-1], cuts[1:]))[::-1]
    while stack:
        a, b = stack.pop()
        mid, length = 0.5 * (a + b), speed * (b - a)
        if length < 1e-9 or length <= 0.5 * min((abs(seg.point(mid) - p) for p in others),
                                                default=math.inf):
            out.append(b)
        else:
            stack += [(mid, b), (a, mid)]
    return out


def _panels_for_path(path: PathSpec, points: Sequence[complex], start: BranchState,
                     singular: Sequence[complex]) -> tuple[list[_Panel], BranchState]:
    """One `_Panel` per path segment, its arguments tracked from `start`;
    returns them and the branch state at the path end.  The path must clear
    the singular points, as on the ODE route.  A line starts from one piece and an arc from
    uniform pieces of at most pi/4, and of at most half its distance to the nearest
    tracked point where that is above 0.05 rad; `_pieces` grades both, and each piece
    gets PATH_NODES Chebyshev nodes (7.9^-16 ~ 4e-15)."""
    taus = cheb_nodes(PATH_NODES)
    tracker = ArgTracker(path, points, start)
    _check_clearance(path, singular)
    panels: list[_Panel] = []
    for i, seg in enumerate(path.segments):
        cuts = [0.0, 1.0]
        if isinstance(seg, Arc):
            dists = [seg.radius] + [abs(abs(p - seg.center) - seg.radius) for p in points
                                    if not _centered_on(seg, p)]
            dtheta = min(max(0.5 * min(dists) / seg.radius, 0.05), math.pi / 4)
            n = max(1, math.ceil(abs(seg.theta1 - seg.theta0) / dtheta))
            cuts = [j / n for j in range(n + 1)]
        cuts = _pieces(seg, cuts, points)
        t0, width = np.array(cuts[:-1])[:, None], np.diff(cuts)[:, None]
        ts = (t0 + 0.5 * (taus + 1.0) * width).ravel()
        dz = seg.velocity(ts) * 0.5 * np.repeat(width.ravel(), PATH_NODES)
        panels.append(_Panel(seg.point(ts), dz, tracker.args_at(i, ts), PATH_NODES))
    return panels, tracker.end_state


def _panels_for_head(end: complex, points: Sequence[complex], levels: int) -> list[_Panel]:
    """One `_Panel` of `levels` geometric panels along the ray from 0 to `end`
    (innermost first), on the principal branch.  A panel [x/4, x] converges at only rho = 3
    per node, so each gets HEAD_NODES = 32 Chebyshev nodes (3^-32 ~ 5e-16)."""
    taus = cheb_nodes(HEAD_NODES)
    u = end / abs(end)
    lo, hi = (bound[::-1, None] for bound in geometric_panels(abs(end), levels))
    zs = ((lo + 0.5 * (taus + 1.0) * (hi - lo)) * u).ravel()
    dz = np.repeat((u * 0.5 * (hi - lo)).ravel(), HEAD_NODES)
    return [_Panel(zs, dz, np.angle(zs[:, None] - np.asarray(points)), HEAD_NODES)]


def _running_integral(values: np.ndarray, start):
    """Node values of the integral over a stack of P panels, (P, n, m) values, each panel
    starting where the one before ends; the first at `start`, or with None at the tail closed
    from the first two."""
    local = cheb_cumulative(values, 1.0)
    local[0] += geometric_tail(local[1, -1], local[0, -1]) if start is None else start
    ends = np.cumsum(local[:, -1], axis=0)
    starts = np.concatenate([np.zeros_like(ends[:1]), ends[:-1]])
    return (starts[:, None] + local).reshape(-1, values.shape[-1])


def _series_sweep(
    evaluator: Callable,
    pert: PerturbationSpec,
    panel_groups: Sequence[list[_Panel]],
    points: Sequence[complex],
    K: int,
    dim: int,
    want_plain: bool,
    from_zero: bool,
    stop: Optional[Callable] = None,
):
    """Run the nested cumulative sweeps; returns per-group markers
    (W, [C_1..C_K], plain, branch) at each group boundary.

    The integrand is built once over every node of every group: one
    evaluator call gives the stack of W, and H, the gauge product and the
    weight follow as arrays.  Each order is then one cumulative integral per stack of
    consecutive panels with one node count (a zero head's, then the paths'), the first from
    the head's closed tail with from_zero, each other from where the one before ends;
    C_k at the nodes feeds order k + 1.  With `stop`, the orders end at the first k <= K
    with stop(W, k, C_k) true, both at the last group's end."""
    panels = [panel for group in panel_groups for panel in group]
    zs = np.concatenate([panel.zs for panel in panels])
    args = np.concatenate([panel.args for panel in panels])
    dz = np.concatenate([panel.dzdtau for panel in panels])
    w, pv, gv = _correction_integrand(evaluator, pert, zs,
                                      BranchState(tuple(zip(points, args.T))), dz[:, None, None])
    stacks = []  # [nodes per panel, nodes in all] of each stack
    for panel in panels:
        if stacks and stacks[-1][0] == panel.n:
            stacks[-1][1] += len(panel.zs)
        else:
            stacks.append([panel.n, len(panel.zs)])

    def integral(values):
        out, start, first = [], None if from_zero else 0.0, 0
        for n, size in stacks:
            out.append(_running_integral(values[first:first + size].reshape(-1, n, dim * dim),
                                         start))
            start, first = out[-1][-1], first + size
        return np.concatenate(out).reshape(-1, dim, dim)

    group_ends = np.cumsum([sum(len(panel.zs) for panel in group) for group in panel_groups]) - 1
    terms, nodes = [], None  # C_k at the group ends; C_k at every node
    for k in range(1, K + 1):
        nodes = integral(gv if nodes is None else np.einsum("nij,njk->nik", gv, nodes))
        terms.append(nodes[group_ends])
        if stop is not None and stop(w[-1], k, terms[-1][-1]):
            break
    plain = integral(pv)[group_ends] if want_plain else np.zeros_like(terms[0])
    return [(w[end], [c[g] for c in terms], plain[g],
             BranchState(tuple(zip(points, args[end].tolist()))))
            for g, end in enumerate(group_ends)]


def _series_groups(sys, pert, basis, paths, from_zero):
    """The panel groups of the series route and their tracked points: with from_zero the
    head piece (ending at the contour start itself) first, then one group per path.  pert
    None tracks and clears the system singularities alone."""
    if basis.evaluator is None:
        raise SeriesRouteUnavailable("series route needs a basis with a series evaluator")
    pts = tracked_points(sys, pert, paths)
    start_z = paths[0].start if paths else basis.basepoint
    if from_zero:
        if not (abs(start_z.imag) < 1e-12 and start_z.real > 0):
            raise SeriesRouteUnavailable("from-zero contours start on the positive real axis")
        levels = _head_levels(basis, pert, pts, start_z)
    state = BranchState.principal(start_z, pts)
    groups = [_panels_for_head(start_z, pts, levels)] if from_zero else []
    singular = singular_points(sys, pert)
    for p in paths:
        panels, state = _panels_for_path(p, pts, state, singular)
        groups.append(panels)
    if from_zero:  # the head's ray ends at 0 by design, and clears every other singular point
        _check_clearance(line_path(0j, start_z), [p for p in singular if not same_point(p, 0j)])
    return groups, pts


def _series_route_markers(
    sys: MeromorphicSystem,
    pert: PerturbationSpec,
    basis: FundamentalMatrix,
    paths: Sequence[PathSpec],
    K: int,
    want_plain: bool,
    from_zero: bool,
    stop: Optional[Callable] = None,
):
    groups, pts = _series_groups(sys, pert, basis, paths, from_zero)
    return _series_sweep(basis.evaluator, pert, groups, pts, K, basis.dim, want_plain, from_zero,
                         stop)


def _correction_integrand(evaluator, pert, zs, branch, dz):
    """W, W^{-1} H W dz and weight * W^{-1} H W dz at the nodes zs, each a stack over them."""
    w = evaluator(zs, branch)
    pv = _gauge_matrix(w, np.einsum("nij,njk->nik", pert.h_matrix(zs), w)) * dz
    return w, pv, np.reshape(pert.weight(zs, branch), (-1, 1, 1)) * pv


def _endpoint_exponent(f: Callable, probe: float) -> float:
    """Smallest per-component growth exponent at 0 of f (values with the points on the
    leading axis): the slope of log|f| between s = probe and probe/4, from one call of f."""
    v1, v2 = np.abs(np.asarray(f(probe / np.array([1.0, 4.0])), dtype=complex)).reshape(2, -1)
    seen = np.maximum(v1, v2) >= 1e-13 * max(np.max(v1), np.max(v2), 1e-300)
    slopes = np.log(np.maximum(v1[seen], 1e-300) / np.maximum(v2[seen], 1e-300)) / math.log(4.0)
    return float(np.min(slopes)) if seen.any() else 0.0


def _head_levels(basis, pert, pts, start_z) -> int:
    """`geometric_levels` for the correction integrand's exponent e at 0, measured, since
    entries of W^{-1} H W cancel: the next exponent is e + 1, or e under a log weight."""
    u = start_z / abs(start_z)

    def probe(s: np.ndarray):
        z = s * u
        return _correction_integrand(basis.evaluator, pert, z, BranchState.principal(z, pts), u)[2]

    expo = _endpoint_exponent(probe, 1e-5 * abs(start_z))
    return geometric_levels(expo, expo + (1 if pert.kind == KIND_LOG else 2), SERIES_TOL,
                            "correction integrand", 0)


# --- augmented ODE route ------------------------------------------------------


def _ode_route_markers(
    sys: MeromorphicSystem,
    pert: PerturbationSpec,
    basis: FundamentalMatrix,
    paths: Sequence[PathSpec],
    K: int,
    want_plain: bool,
    tol: float,
):
    """Chain of transports carrying (W, C_1..C_K, plain) across the paths."""
    rtol = max(tol, 1e-13)
    markers, _ = _integrate(sys, pert, 0, paths, basis.value, K, want_plain, rtol, rtol * 1e-2)
    return markers


def _route_markers(sys, pert, basis, paths, K, want_plain, tol, from_zero, route):
    """The markers of `route`, and their provenance: {"route": "series"} or {"route": "ode"},
    the latter with the "fallback_reason" when `auto` found the series route unavailable."""
    fallback = {}
    if route == "series" or (route == "auto" and (from_zero or basis.evaluator is not None)):
        try:
            return (_series_route_markers(sys, pert, basis, paths, K, want_plain, from_zero),
                    {"route": "series"})
        except SeriesRouteUnavailable as exc:
            if route == "series" or from_zero:
                raise
            fallback["fallback_reason"] = f"{type(exc).__name__}: {exc}"
    if from_zero:
        raise SeriesRouteUnavailable("from-zero contours require the series route")
    markers = _ode_route_markers(sys, pert, basis, paths, K, want_plain, tol)
    return markers, {"route": "ode", **fallback}


# --- public operations --------------------------------------------------------


def correction_C(
    sys: MeromorphicSystem,
    pert: PerturbationSpec,
    basis: FundamentalMatrix,
    path: PathSpec,
    tol: float = 1e-10,
    route: str = "auto",
) -> CorrectionC:
    """C = int W^{-1} B W dt along the path, with W continued from the basis
    and B branch-tracked."""
    markers, _ = _route_markers(sys, pert, basis, [path], 1, False, tol, False, route)
    _, c_list, _, branch = markers[-1]
    return CorrectionC(c_list[0], path, branch)


def dyson_expand(
    sys: MeromorphicSystem,
    pert: PerturbationSpec,
    K: int,
    path: Optional[PathSpec],
    basis: FundamentalMatrix,
    tol: float = 1e-10,
    from_zero: bool = False,
    route: str = "auto",
) -> DysonExpansion:
    """Nested path-ordered terms C_1..C_K of W_rho = W (I + sum C_k rho^k), with W at the
    endpoint and the provenance of the route that gave them."""
    if K < 1:
        raise ValueError("K must be at least 1")
    paths = [path] if path is not None else []
    if not paths and not from_zero:
        raise ValueError("need a path or a from-zero contour")
    markers, provenance = _route_markers(sys, pert, basis, paths, K, False, tol, from_zero, route)
    w_end, c_list, _, branch = markers[-1]
    endpoint = paths[-1].end if paths else basis.basepoint
    return DysonExpansion(K, tuple(c_list), basis.basepoint, endpoint, path, branch, w_end,
                          provenance)


def evaluate_dyson(basis_value: Optional[np.ndarray], expansion: DysonExpansion,
                   rho: complex) -> np.ndarray:
    """W_rho at the endpoint from W (the continued basis value) there; None takes the W
    that the expansion's route carried to the endpoint."""
    if basis_value is None:
        basis_value = expansion.w_end
    acc = np.eye(basis_value.shape[0], dtype=complex)
    for k, c in enumerate(expansion.terms, start=1):
        acc = acc + c * rho**k
    return np.asarray(basis_value) @ acc


def perturbed_monodromy_first_order(
    m0: np.ndarray, c_at_x: np.ndarray, c_at_looped: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(M0, first-order coefficient): M_rho = M0 + coeff * rho + O(rho^2),
    coeff = (M0 C(loop.x) M0^{-1} - C(x)) M0."""
    m0 = np.asarray(m0, dtype=complex)
    c1 = np.asarray(c_at_x, dtype=complex)
    c2 = np.asarray(c_at_looped, dtype=complex)
    if not (m0.shape == c1.shape == c2.shape) or m0.shape[0] != m0.shape[1]:
        raise ShapeMismatch(f"incompatible shapes {m0.shape}, {c1.shape}, {c2.shape}")
    coeff = (m0 @ c2 @ np.linalg.inv(m0) - c1) @ m0
    return m0, coeff


# the largest Dyson order a series-route monodromy sums: the schema's largest K
MONODROMY_MAX_ORDER = 8


def series_monodromy(
    sys: MeromorphicSystem,
    pert: Optional[PerturbationSpec],
    rho: complex,
    basis: FundamentalMatrix,
    loop: PathSpec,
    tol: float = 1e-10,
) -> tuple[np.ndarray, Optional[np.ndarray], int]:
    """(M_0, M(rho), K) round a closed loop on the series route, in the frame of
    `transport.monodromy`: M_0 = W(x0)^-1 W_loop and M(rho) = M_0 (I + sum_{k<=K} rho^k C_k).

    One sweep gives W_loop and then C_1, C_2, ... up to the least order K with
    |rho|^K ||C_K|| <= tol max(1, ||M_0||) in the max-entry norm, M_0 known before the
    first order.  Without a perturbation W_loop is the basis evaluator over the loop's
    panel nodes in path order, since `ConnectedBasis.along` re-anchors at each zone switch
    (at the end point alone it would miss the turn round the loop); M(rho) is then None
    and K 0.  Raises SeriesRouteUnavailable when the basis has no evaluator, the loop
    leaves the two zones or no K up to MONODROMY_MAX_ORDER meets the bound: never a
    truncated sum."""
    if not loop.is_closed:
        raise ValueError("monodromy needs a closed loop")
    check_condition(basis)
    if pert is None:
        [panels], pts = _series_groups(sys, None, basis, [loop], False)
        args = np.concatenate([panel.args for panel in panels])
        w_loop = basis.evaluator(np.concatenate([panel.zs for panel in panels]),
                                 BranchState(tuple(zip(pts, args.T))))[-1]
        return np.linalg.solve(basis.value, w_loop), None, 0

    def size(k, c_k):
        return abs(rho) ** k * _maxabs(c_k)

    def bound(w_end):
        return tol * max(1.0, _maxabs(np.linalg.solve(basis.value, w_end)))

    [(w_loop, terms, _, _)] = _series_route_markers(
        sys, pert, basis, [loop], MONODROMY_MAX_ORDER, False, False,
        lambda w_end, k, c_k: size(k, c_k) <= bound(w_end))
    m0, K = np.linalg.solve(basis.value, w_loop), len(terms)
    if size(K, terms[-1]) > bound(w_loop):
        raise SeriesRouteUnavailable(
            f"Dyson sum not converged by K = {MONODROMY_MAX_ORDER}: |rho|^K ||C_K|| = "
            f"{size(K, terms[-1]):.3e} > {bound(w_loop):.3e}")
    total = np.eye(basis.dim) + sum(c * rho**k for k, c in enumerate(terms, start=1))
    return m0, m0 @ total, K


def _nearest_other(sys: MeromorphicSystem, center: complex, default: float) -> float:
    """The distance from the center to the nearest other singularity of sys, else default."""
    return min((abs(s - center) for s in sys.singularities if not same_point(s, center)),
               default=default)


def default_loop(center: complex, sys: MeromorphicSystem, basepoint: complex) -> PathSpec:
    """The loop from the basepoint round the center that cocycle jumps and the CLI take: its
    radius is half the distance to the nearest other singularity, at most 3/4 of the
    distance to the basepoint."""
    radius = min(0.5 * _nearest_other(sys, center, math.inf), 0.75 * abs(basepoint - center))
    return loop_around(center, radius, basepoint, avoid=sys.singularities)


def deformation_delta(
    sys: MeromorphicSystem,
    pert: PerturbationSpec,
    basis: FundamentalMatrix,
    probe: complex,
    loops: Sequence[PathSpec],
    tol: float = 1e-10,
    from_zero: bool = False,
    route: str = "auto",
):
    """delta = M C(kappa.x) M^{-1} - C(x) for the loop sequence kappa
    (traversed in list order) based at the probe.  Returns
    (delta, M_kappa, C_at_probe, plain_at_probe)."""
    pre_paths: list[PathSpec] = []
    if not from_zero and abs(probe - basis.basepoint) > 1e-12:
        pre_paths.append(line_path(basis.basepoint, probe))
    joined = None
    for lp in loops:
        joined = lp if joined is None else joined + lp
    all_paths = pre_paths + [joined]
    want_plain = pert.kind == KIND_LOG
    markers, _ = _route_markers(sys, pert, basis, all_paths, 1, want_plain, tol,
                                from_zero, route)
    # marker layout: [head (series from-zero only)] + one per path, where a
    # from-zero contour has no pre-path: either way the first is at the probe
    if pre_paths or from_zero:
        w_x, c_x_list, d_x, _ = markers[0]
        c_x = c_x_list[0]
    else:
        w_x = np.asarray(basis.value)
        c_x = np.zeros((basis.dim, basis.dim), dtype=complex)
        d_x = np.zeros((basis.dim, basis.dim), dtype=complex)
    w_loop, c_loop_list, d_loop, branch = markers[-1]
    m = _gauge_matrix(w_x, w_loop)
    delta = m @ c_loop_list[0] @ np.linalg.inv(m) - c_x
    return delta, m, c_x, d_x


def cocycle_jump(
    sys: MeromorphicSystem,
    pert: PerturbationSpec,
    basis: FundamentalMatrix,
    center: complex,
    probe: complex,
    tol: float = 1e-10,
    from_zero: Optional[bool] = None,
    constancy_probes: Optional[Sequence[complex]] = None,
    route: str = "auto",
) -> CocycleJump:
    """Delta_a C at the probe plus a constancy residual over nearby probes.

    The residual checks meromorphic kinds only: power and log jumps vary
    with x by law, and their probes feed the closed-form comparisons.  For
    multivalued kinds the correction integrals are anchored at 0 itself (the
    jump laws compare against the from-zero C); for meromorphic kinds the
    anchor is the basis basepoint, which shifts delta only by a coboundary."""
    if from_zero is None:
        from_zero = pert.multivalued
    if constancy_probes is None:
        d_other = _nearest_other(sys, center, 1.0)
        direction = basis.basepoint - center
        direction = direction / abs(direction) if abs(direction) > 0 else 1.0
        constancy_probes = [center + f * d_other * direction for f in CONSTANCY_FRACTIONS]

    def one(p: complex):
        d, m, c_x, d_x = deformation_delta(sys, pert, basis, p, [default_loop(center, sys, p)],
                                           tol, from_zero, route)
        ref = d_x if pert.kind == KIND_LOG else c_x
        return d, m, ref

    delta, m, reference = one(probe)
    probe_data = [(probe, delta, reference)]
    for p in constancy_probes:
        if abs(p - probe) < 1e-12:
            continue
        d_i, _, ref_i = one(p)
        probe_data.append((p, d_i, ref_i))
    residual = 0.0
    for i in range(len(probe_data)):
        for j in range(i + 1, len(probe_data)):
            residual = max(residual, _maxabs(probe_data[i][1] - probe_data[j][1]))
    return CocycleJump(delta, residual, m, tuple(probe_data))


def closed_form_jump(kind: str, lam: Optional[complex], c_at_probe: np.ndarray) -> np.ndarray:
    """Predicted Delta_0 C: (e^{2 pi i lam} - 1) C for the power kind,
    2 pi i C for the log kind (pass the log-free reference integral
    int W^{-1} H W there), and 0 for meromorphic kinds whose C(0) exists."""
    c = np.asarray(c_at_probe, dtype=complex)
    if kind == KIND_POWER:
        return (cmath.exp(2j * math.pi * lam) - 1.0) * c
    if kind == KIND_LOG:
        return 2j * math.pi * c
    if kind == KIND_MEROMORPHIC:
        return np.zeros_like(c)
    raise UnsupportedKind(kind)


def cocycle_identity_residual(deltas: dict, monodromies: dict, pair) -> float:
    """max-entry norm of delta(a) - delta(ab) + M_a delta(b) M_a^{-1}.

    `deltas` maps loop keys to matrices, and must contain the composite under
    the key (a, b); the composite contour traverses b first.  All entries must
    share one basepoint/branch convention."""
    a, b = pair
    da, db, dab = (np.asarray(deltas[key], dtype=complex) for key in (a, b, (a, b)))
    ma = np.asarray(monodromies[a], dtype=complex)
    return _maxabs(da - dab + ma @ db @ np.linalg.inv(ma))
