"""Numerical analytic continuation of fundamental matrices along paths.

Transport integrates W' = (A + rho B)(z) W along each path segment with the
embedded Dormand-Prince 5(4) pair and the step control of Hairer, Norsett &
Wanner, Solving ODEs I, II.4 (constant-speed segment parameters, so the
control is arclength-equivalent).  The same integrator carries the
augmented blocks of the Dyson expansion for the ODE route in `dyson`: the
corrections C_k' = G C_{k-1} with G = W^{-1} B W, and the log-free integral
of W^{-1} H W.  Branch arguments of multivalued perturbation weights come
from the exact per-segment argument tables, not from the integrator state.
The monodromy of a closed loop is read off in the convention
W(loop . x) = W(x) M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import IllConditioned, NonFiniteValue, StepSizeUnderflow
from .hypergeom import local_basis_0, local_basis_1
from .odecore import MeromorphicSystem, PerturbationSpec, _dedup
from .paths import ArgTracker, BranchState, PathSpec

COND_LIMIT = 1e12
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class FundamentalMatrix:
    """Value of a fundamental solution matrix at a basepoint."""

    basepoint: complex
    value: np.ndarray
    provenance: str = "identity-at-basepoint"
    # optional direct evaluator (z, branch) -> matrix for series-backed bases
    evaluator: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        v = np.asarray(self.value, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "value", v)
        if abs(np.linalg.det(v)) == 0:
            raise IllConditioned("fundamental matrix is singular at the basepoint")

    @property
    def dim(self) -> int:
        return self.value.shape[0]

    @property
    def cond(self) -> float:
        return float(np.linalg.cond(self.value))


@dataclass(frozen=True)
class MonodromyDatum:
    center: Optional[complex]
    loop: PathSpec
    matrix: np.ndarray
    eigenvalues: tuple[complex, ...]


class TransportResult(NamedTuple):
    w: FundamentalMatrix
    branch: BranchState
    steps: int


def identity_basis(basepoint: complex, dim: int) -> FundamentalMatrix:
    return FundamentalMatrix(basepoint, np.eye(dim, dtype=complex), "identity-at-basepoint")


def frobenius_basis(a: complex, b: complex, c: complex, point: int,
                    x0: complex) -> FundamentalMatrix:
    """Fundamental matrix with columns (y_i, y_i') of the local basis at 0 or 1.

    The attached evaluator recomputes W(z) from the series on any branch,
    which is what makes quadrature-based correction integrals possible near
    the expansion point.
    """
    if point not in (0, 1):
        raise ValueError("Frobenius bases are built at the points 0 or 1")
    basis = local_basis_0(a, b, c) if point == 0 else local_basis_1(a, b, c)

    def evaluator(z: complex, branch: Optional[BranchState] = None) -> np.ndarray:
        if branch is None:
            return basis.matrix(z)
        # the tracked arg of z-1 maps to the local variable w = 1-z by -pi,
        # chosen so real z < 1 stays on the principal branch; the arg of z
        # passes untouched (adding 0.0 would turn -0.0 into +0.0)
        arg = branch.arg(basis.point)
        return basis.matrix(z, arg - math.pi if point == 1 else arg)

    tag = "frobenius-at-0" if point == 0 else "frobenius-at-1"
    return FundamentalMatrix(complex(x0), evaluator(complex(x0)), tag, evaluator)


def tracked_points(sys: MeromorphicSystem, pert: Optional[PerturbationSpec],
                   paths: Sequence[PathSpec] = ()) -> list[complex]:
    """Branch points whose arguments are tracked along the paths: the system
    singularities, the perturbation poles (and 0 for multivalued weights),
    and every arc centre."""
    pts = list(sys.singularities)
    if pert is not None:
        pts.extend(pert.poles)
        if pert.multivalued:
            pts.append(0j)
    for path in paths:
        pts.extend(path.arc_centers())
    return _dedup(pts)


def _gauge_matrix(w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """W^{-1} @ rhs via the adjugate for 2x2 (avoids cond-limited solves on
    the wildly scaled columns near a singular point); an (n, 2, 2) stack
    is handled matrix by matrix."""
    if w.shape[-2:] == (2, 2):
        # entries of one matrix stay numpy scalars; over an (n, 2, 2) stack
        # they are arrays, and the transposes put the stack axis in front
        lead = (slice(None),) * (w.ndim - 2)
        w00, w01, w10, w11 = w[lead + (0, 0)], w[lead + (0, 1)], w[lead + (1, 0)], w[lead + (1, 1)]
        det = w00 * w11 - w01 * w10
        adj = np.array([[w11, -w10], [-w01, w00]], dtype=complex).T
        return ((adj @ rhs).T / det).T
    return np.linalg.solve(w, rhs)


# Dormand-Prince 5(4): nodes, stage matrix, 5th-order weights, and the
# difference of the embedded 4th-order weights (with the FSAL stage last)
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1 / 5


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(fun, y, rtol, atol):
    """Integrate y' = fun(t, y) over t in [0, 1] with Dormand-Prince 5(4).

    The first step is the Hairer-Norsett-Wanner estimate; the error of each
    step is the RMS of the embedded difference over atol + max(|y|, |y_new|)
    rtol.  Each step repeats scipy's RK45 operation for operation, so the
    two agree bit for bit.  Returns the end state and the accepted step
    count; raises StepSizeUnderflow once the step falls below ten float
    spacings of t."""
    t, f = 0.0, fun(0.0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, 1.0)
    K = np.empty((7, y.size), dtype=y.dtype)
    steps = 0
    while t < 1.0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops a NaN step size
                raise StepSizeUnderflow(f"step size fell below {min_step:.1e} at t = {t:.17g}")
            t_new = min(t + h_abs, 1.0)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _DP_C[s] * h, y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        t, y, f = t_new, y_new, f_new
        steps += 1
    return y, steps


def _integrate(sys, pert, rho, paths, w0, K, want_plain, rtol, atol):
    """Continue W' = (A + rho B) W from w0 along the chained paths.

    With K > 0 the state also carries C_k' = G C_{k-1} (C_0 = I,
    G = W^{-1} B W) for k = 1..K, and with want_plain the log-free integral
    of W^{-1} H W.  Returns one marker (W, [C_1..C_K], plain, branch) per
    path, and the accepted step count."""
    pts = tracked_points(sys, pert, paths)
    dim = w0.shape[0]
    n2 = dim * dim
    augmented = K > 0 or want_plain
    perturbed = pert is not None and rho != 0
    weighted = augmented or perturbed
    y = np.zeros((1 + K + int(want_plain)) * n2, dtype=complex)
    y[:n2] = np.asarray(w0).ravel()
    state = BranchState.principal(paths[0].start, pts)
    markers, steps = [], 0
    for path in paths:
        tracker = ArgTracker(path, pts, state)
        for i, seg in enumerate(path.segments):

            def rhs(t, yy, seg=seg, i=i):
                z = seg.point(t)
                v = seg.velocity(t)
                a = sys.evaluate(z)
                if weighted:
                    branch = (BranchState(z, ((0j, tracker.arg(i, t, 0j)),))
                              if pert.multivalued else None)
                    wt = pert.weight(z, branch)
                if perturbed:
                    a = a + rho * wt * pert.h_matrix(z)
                if not augmented:
                    return (a @ yy.reshape(dim, dim)).ravel() * v
                w = yy[:n2].reshape(dim, dim)
                out = np.empty_like(yy)
                out[:n2] = (a @ w).ravel() * v
                plain = _gauge_matrix(w, pert.h_matrix(z) @ w) * v
                g = wt * plain
                for k in range(1, K + 1):
                    dc = g if k == 1 else g @ yy[(k - 1) * n2:k * n2].reshape(dim, dim)
                    out[k * n2:(k + 1) * n2] = dc.ravel()
                if want_plain:
                    out[(K + 1) * n2:] = plain.ravel()
                return out

            try:
                y, n = _rk45(rhs, y, rtol, atol)
            except StepSizeUnderflow as exc:
                raise StepSizeUnderflow(f"integrator failed on segment {i}: {exc}") from None
            steps += n
            if not np.all(np.isfinite(y.view(float))):
                raise NonFiniteValue(f"non-finite transport state on segment {i}")
        state = tracker.end_state
        blocks = [y[k * n2:(k + 1) * n2].reshape(dim, dim).copy() for k in range(1 + K)]
        plain = y[(K + 1) * n2:].reshape(dim, dim).copy() if want_plain else None
        markers.append((blocks[0], blocks[1:], plain, state))
    return markers, steps


def transport(
    sys: MeromorphicSystem,
    pert: Optional[PerturbationSpec],
    rho: complex,
    path: PathSpec,
    w0: FundamentalMatrix,
    tol: float = DEFAULT_TOL,
) -> TransportResult:
    """Continue w0 along the path; returns the end value, the branch state,
    and the accepted step count."""
    if abs(path.start - w0.basepoint) > 1e-9:
        raise ValueError("w0 is not based at the path start")
    rtol = max(tol, 1e-13)
    scale = max(1.0, float(np.max(np.abs(w0.value))))
    [(w_end, _, _, branch)], steps = _integrate(sys, pert, rho, [path], w0.value, 0, False,
                                                rtol, rtol * 1e-2 * scale)
    return TransportResult(FundamentalMatrix(path.end, w_end, w0.provenance, w0.evaluator),
                           branch, steps)


def monodromy(
    sys: MeromorphicSystem,
    basis: FundamentalMatrix,
    loop: PathSpec,
    tol: float = DEFAULT_TOL,
    pert: Optional[PerturbationSpec] = None,
    rho: complex = 0,
) -> MonodromyDatum:
    """M = W(basepoint)^-1 W(after loop), so that W(loop . x) = W(x) M."""
    if not loop.is_closed:
        raise ValueError("monodromy needs a closed loop")
    if basis.cond > COND_LIMIT:
        raise IllConditioned(f"basis condition number {basis.cond:.3e} exceeds {COND_LIMIT:.0e}")
    res = transport(sys, pert, rho, loop, basis, tol)
    m = np.linalg.solve(np.asarray(basis.value), np.asarray(res.w.value))
    eigs = tuple(sorted((complex(e) for e in np.linalg.eigvals(m)),
                        key=lambda z: (round(z.real, 12), round(z.imag, 12))))
    centers = loop.arc_centers()
    return MonodromyDatum(centers[0] if centers else None, loop, m, eigs)
