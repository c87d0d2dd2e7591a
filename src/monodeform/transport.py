"""Numerical analytic continuation of fundamental matrices along paths.

Transport integrates W' = (A + rho B)(z) W along each path segment with the
embedded Dormand-Prince 8(5,3) pair (DOP853) and the step control of
Hairer, Norsett & Wanner, Solving ODEs I, II.4 and II.10 (constant-speed
segment parameters, so the control is arclength-equivalent).  The same integrator carries the
augmented blocks of the Dyson expansion for the ODE route in `dyson`: the
corrections C_k' = G C_{k-1} with G = W^{-1} B W, and the log-free integral
of W^{-1} H W.  Branch arguments of multivalued perturbation weights come
from the closed-form argument of each segment (`paths.ArgTracker`, no
table), not from the integrator state.
The monodromy of a closed loop is read off in the convention
W(loop . x) = W(x) M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (DegenerateParams, IllConditioned, NonFiniteValue, SingularPoint,
                     StepSizeUnderflow)
from .hypergeom import ConnectedBasis, check_zone, local_basis
from .odecore import MeromorphicSystem, PerturbationSpec, _dedup
from .paths import ArgTracker, BranchState, PathSpec, validate_clearance

COND_LIMIT = 1e12
DEFAULT_TOL = 1e-10
# how far a path may start from the basepoint of the matrix it continues
BASEPOINT_TOL = 1e-9


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
    matrix: np.ndarray
    eigenvalues: tuple[complex, ...]
    steps: int  # accepted integrator steps round the loop


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
    continued through both local zones by `ConnectedBasis.along` (only
    through its own zone when the basis at the other point degenerates),
    which is what makes quadrature-based correction integrals possible.
    """
    if point not in (0, 1):
        raise ValueError("Frobenius bases are built at the points 0 or 1")
    basis = local_basis(a, b, c, point)
    try:
        zones = ConnectedBasis(a, b, c)
    except DegenerateParams:  # at the other point: W keeps to this basis's zone
        zones = None

    def evaluator(z: complex, branch: Optional[BranchState] = None) -> np.ndarray:
        if branch is None:  # the basis takes its local variable, z or 1 - z
            return basis(1 - z if point else z)
        # arg(z-1) maps to arg(1-z) by -pi or +pi, principal at the first node;
        # arg(z) passes untouched (adding 0.0 would turn -0.0 into +0.0)
        arg1 = branch.arg(1.0)
        args = (branch.arg(0j), arg1 - math.copysign(math.pi, np.ravel(arg1)[0]))
        if zones is None:
            check_zone(np.asarray(z), point)
            return basis(1 - z if point else z, args[point])
        return zones.along(z, *args, point)

    tag = "frobenius-at-0" if point == 0 else "frobenius-at-1"
    return FundamentalMatrix(complex(x0), evaluator(complex(x0)), tag, evaluator)


def singular_points(sys: MeromorphicSystem, pert: Optional[PerturbationSpec]) -> list[complex]:
    """The points a contour must avoid: the singularities of A, the poles of H and, for a
    power or log weight, its branch point 0, deduplicated."""
    pts = list(sys.singularities)
    if pert is not None:
        pts.extend(pert.poles)
        if pert.multivalued:
            pts.append(0j)
    return _dedup(pts)


def tracked_points(sys: MeromorphicSystem, pert: Optional[PerturbationSpec],
                   paths: Sequence[PathSpec] = ()) -> list[complex]:
    """The points whose arguments are tracked along the paths: the singular points and
    every arc centre."""
    return _dedup(singular_points(sys, pert) + [c for path in paths for c in path.arc_centers()])


def _gauge_matrix(w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """W^{-1} @ rhs via the adjugate for 2x2 (avoids cond-limited solves on
    the wildly scaled columns near a singular point); over an (n, 2, 2)
    stack as elementwise arithmetic on the entries."""
    if w.shape == (2, 2):
        (w00, w01), (w10, w11) = w.tolist()
        return (np.array([[w11, -w01], [-w10, w00]]) @ rhs) / (w00 * w11 - w01 * w10)
    if w.shape[1:] != (2, 2):
        return np.linalg.solve(w, rhs)
    w00, w01, w10, w11 = (w[:, i, j, None] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    top, bottom = rhs[:, 0], rhs[:, 1]
    out = np.stack([w11 * top - w01 * bottom, w00 * bottom - w10 * top], axis=1)
    return out / (w00 * w11 - w01 * w10)[:, :, None]


# Dormand-Prince 8(5,3), the 12 stages of Hairer, Norsett & Wanner's DOP853
# without its dense-output stages: nodes, the strictly lower stage matrix
# (row s holds the weights of stages 0..s-1), the 8th-order weights, and
# the 5th- and 3rd-order error weights (with the FSAL stage last)
_C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510, 0.281649658092772603273242802490,
               0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
               0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
_A_ROWS = (
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
)
_A = np.array([[0.0] * 12] + [row + [0] * (12 - len(row)) for row in _A_ROWS])
_B = np.array([5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
               1.89151789931450038304281599044, -5.8012039600105847814672114227,
               3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
               2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2])
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_E5 = np.array([0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290, 0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1 / 8


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(fun, y, rtol, atol):
    """Integrate y' = fun(t, y) over t in [0, 1] with Dormand-Prince 8(5,3).

    The first step is the Hairer-Norsett-Wanner estimate; the error of each
    step is |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), with e5 and e3 the
    two embedded differences over atol + max(|y|, |y_new|) rtol.  Each step
    repeats scipy's DOP853 operation for operation, so the two agree bit for
    bit.  Returns the end state and the accepted step count; raises
    StepSizeUnderflow once the step falls below ten float spacings of t."""
    t, f = 0.0, fun(0.0, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, 1.0)
    K = np.empty((13, y.size), dtype=y.dtype)
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
            for s in range(1, 12):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(K.T, _E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K.T, _E3) / scale) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else h_abs * e5 / np.sqrt((e5 + 0.01 * e3) * y.size)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        t, y, f = t_new, y_new, f_new
        steps += 1
    return y, steps


def _check_clearance(path: PathSpec, points: Sequence[complex]) -> None:
    """Raise SingularPoint when the path passes within the exclusion radius of one of the
    points; no arc is exempt.  Both routes run it on each path after its ArgTracker,
    which keeps no per-node table and has refused a segment that starts on a tracked point."""
    clash = validate_clearance(path, points)
    if clash:
        raise SingularPoint(clash[0])


def _integrate(sys, pert, rho, paths, w0, K, want_plain, rtol, atol):
    """Continue W' = (A + rho B) W from w0 along the chained paths.

    With K > 0 the state also carries C_k' = G C_{k-1} (C_0 = I,
    G = W^{-1} B W) for k = 1..K, and with want_plain the log-free integral
    of W^{-1} H W.  Returns one marker (W, [C_1..C_K], plain, branch) per
    path, and the accepted step count.  A path that passes within the
    exclusion radius of a singularity of sys, or, when the right-hand side
    evaluates B, of a pole of H or a weight's branch point 0, raises
    SingularPoint before its first step."""
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
        _check_clearance(path, singular_points(sys, pert if weighted else None))
        for i, seg in enumerate(path.segments):

            def rhs(t, yy, seg=seg, i=i):
                z = seg.point(t)
                v = seg.velocity(t)
                a = sys.evaluate(z)
                if weighted:
                    branch = (BranchState(((0j, tracker.arg(i, t, 0j)),))
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
                y, n = _dop853(rhs, y, rtol, atol)
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
    and the accepted step count.  The end value carries no evaluator: round
    a loop it is W M, no longer the W that w0's series evaluates there."""
    if abs(path.start - w0.basepoint) > BASEPOINT_TOL:
        raise ValueError("w0 is not based at the path start")
    rtol = max(tol, 1e-13)
    scale = max(1.0, float(np.max(np.abs(w0.value))))
    [(w_end, _, _, branch)], steps = _integrate(sys, pert, rho, [path], w0.value, 0, False,
                                                rtol, rtol * 1e-2 * scale)
    return TransportResult(FundamentalMatrix(path.end, w_end, w0.provenance), branch, steps)


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
    check_condition(basis)
    res = transport(sys, pert, rho, loop, basis, tol)
    m = np.linalg.solve(np.asarray(basis.value), np.asarray(res.w.value))
    return MonodromyDatum(m, sorted_eigenvalues(m), res.steps)


def check_condition(basis: FundamentalMatrix) -> None:
    """IllConditioned when the basis is too ill-conditioned to read a monodromy off."""
    if basis.cond > COND_LIMIT:
        raise IllConditioned(f"basis condition number {basis.cond:.3e} exceeds {COND_LIMIT:.0e}")


def sorted_eigenvalues(m: np.ndarray) -> tuple[complex, ...]:
    """The eigenvalues of m, by real then imaginary part (each rounded to 12 places)."""
    return tuple(sorted((complex(e) for e in np.linalg.eigvals(m)),
                        key=lambda z: (round(z.real, 12), round(z.imag, 12))))
