"""Hypergeometric series, local solution bases, and operator assembly.

The generalized hypergeometric equation of order p is assembled from Stirling
numbers of the second kind and elementary symmetric polynomials of the
parameters; its order-2 case is

    x(1-x) y'' + [c - (a+b+1)x] y' - ab y = 0

with local bases at 0 and 1 built from 2F1 series.  Each point is evaluated in
the basis of its zone times a constant change of frame: on (0, 1) the one
matched at the midpoint, along a tracked contour re-anchored at zone switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateParams, InvalidLower, NoConvergence, SeriesRouteUnavailable
from .odecore import MeromorphicSystem, ScalarODE, companion
from .ratfun import ComplexPoly, RationalFn

INT_TOL = 1e-8  # distance-to-integer threshold for genericity checks
SERIES_TOL = 1e-14
MAX_TERMS = 10**6


def is_near_integer(z: complex, tol: float = INT_TOL) -> bool:
    return abs(z.imag) <= tol and abs(z.real - round(z.real)) <= tol


@dataclass(frozen=True)
class HypergeomParams:
    """Upper parameters a_1..a_p and lower parameters b_1..b_q."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]

    def __post_init__(self):
        for b in self.lower:
            if is_near_integer(b, 1e-12) and round(b.real) <= 0:
                raise InvalidLower(f"lower parameter {b} is a non-positive integer")

    @staticmethod
    def f21(a: complex, b: complex, c: complex) -> "HypergeomParams":
        return HypergeomParams((complex(a), complex(b)), (complex(c),))


def pochhammer(a: complex, m: int) -> complex:
    """Rising factorial a (a+1) ... (a+m-1); empty product for m=0."""
    acc = 1.0 + 0j
    for i in range(m):
        acc *= a + i
    return acc


def stirling2(k: int, n: int) -> int:
    """Stirling number of the second kind via c(k+1,m) = m c(k,m) + c(k,m-1)."""
    if n < 0 or n > k:
        return 0
    row = [1]  # k = 0
    for _ in range(k):
        prev = row + [0]
        row = [0] * len(prev)
        for m in range(len(prev)):
            row[m] = m * prev[m] + (prev[m - 1] if m > 0 else 0)
    return row[n]


def elem_sym(vals: Sequence[complex], k: int) -> complex:
    """Elementary symmetric polynomial e_k via the product recurrence."""
    if k < 0 or k > len(vals):
        raise IndexError(f"e_{k} undefined for {len(vals)} arguments")
    e = [1.0 + 0j] + [0j] * k
    for v in vals:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


BLOCK_ENTRIES = 1 << 15  # the power matrix of one block of nodes holds at most this many


@lru_cache(maxsize=256)
def _series_table(params: tuple, radius: float, tol: float) -> np.ndarray:
    """Row 2i: the coefficients c_0..c_{n-1} of the i-th pFq of `params`,
    sum c_m x^m; row 2i + 1: its derivative weights (m + 1) c_{m+1}; both
    zero-padded to the longest table.  n is the fewest terms after which, at
    |x| = radius, the value terms |c_m| r^m and the derivative terms m |c_m| r^m
    each stay below tol times the largest term so far for three consecutive
    terms; a zero coefficient (an upper parameter 0 or -k) ends the series."""
    coefs = []
    for upper, lower in ((p.upper, p.lower) for p in params):
        size = 64
        while True:
            m = np.arange(size - 1)
            ratio = (np.prod([a + m for a in upper], axis=0)
                     / np.prod([b + m for b in lower], axis=0) / (m + 1))
            # in Python arithmetic, so that the derivative at 0 is exactly prod a / prod b
            ratio[0] = prod(upper) / prod(lower)
            coef = np.cumprod(np.concatenate(([1.0 + 0j], ratio)))
            if not np.isfinite(coef).all():
                raise NoConvergence(f"pFq coefficients lost finiteness (params {upper}, {lower})")
            zero = np.flatnonzero(coef == 0)
            if zero.size:
                coefs.append(coef[: zero[0]])
                break
            mag = np.abs(coef) * radius ** np.arange(size)
            ends = []
            for t in (mag, np.arange(size) * mag):
                quiet = t < tol * np.maximum(np.maximum.accumulate(t), 1e-300)
                ends.append(np.flatnonzero(quiet[:-2] & quiet[1:-1] & quiet[2:]))
            if all(e.size for e in ends):
                coefs.append(coef[: max(e[0] for e in ends) + 3])
                break
            if size >= MAX_TERMS:
                raise NoConvergence(f"pFq series at |x|={radius} exceeded {MAX_TERMS} terms")
            size = min(2 * size, MAX_TERMS)
    table = np.zeros((2 * len(coefs), max(coef.size for coef in coefs)), dtype=complex)
    for i, coef in enumerate(coefs):
        table[2 * i, : coef.size] = coef
        table[2 * i + 1, : coef.size - 1] = np.arange(1, coef.size) * coef[1:]
    return table


def _pfq_nodes(params: tuple[HypergeomParams, ...], x, tol: float) -> np.ndarray:
    """Values and derivatives of each pFq of `params` at x (a scalar or any
    array, |x| < 1), shape (len(params), 2) + x.shape; 1 and prod a / prod b
    at x = 0.  One pass serves every series: nodes sorted by |x| once, each
    block sums all the tables for its largest |x| r, rounded up to 1/256 (near
    1, 1 - r down to a power of 2), against one power matrix, by einsum rather
    than BLAS, whose threads would compete with the CLI's worker processes."""
    flat = np.ravel(np.asarray(x, dtype=complex))
    radii = np.abs(flat)
    if flat.size and radii.max() >= 1:
        raise NoConvergence(f"pFq series diverges at |x|={radii.max()}")
    order = np.argsort(radii)
    xs, out = flat[order], np.empty((2 * len(params), flat.size), dtype=complex)
    hi = flat.size
    while hi:
        r = float(radii[order[hi - 1]])
        key = math.ceil(r * 256) / 256
        key = key if key < 1 else 1 - 2.0 ** math.floor(math.log2(1 - r))
        table = _series_table(params, key, tol)
        lo = max(0, hi - max(1, BLOCK_ENTRIES // table.shape[1]))
        powers = np.empty((hi - lo, table.shape[1]), dtype=complex)
        powers[:, 0], powers[:, 1:] = 1.0, xs[lo:hi, None]
        np.cumprod(powers, axis=1, out=powers)
        out[:, order[lo:hi]] = np.einsum("nm,km->kn", powers, table)
        hi = lo
    if not np.isfinite(out).all():
        raise NoConvergence(f"pFq series lost finiteness at |x|<={radii.max()}")
    return out.reshape((len(params), 2) + np.shape(x))


def _power(base, arg, mu: complex):
    """base^mu on the branch where arg(base) = arg, the principal one when arg
    is None."""
    theta = np.angle(base) if arg is None else arg
    return np.exp(mu * (np.log(np.abs(base)) + 1j * theta))


def _w_matrix(v1, v2, d1, d2) -> np.ndarray:
    """[[v1, v2], [d1, d2]] at every point: the shape of v2 plus (2, 2)."""
    w = np.empty(np.shape(v2) + (2, 2), dtype=complex)
    w[..., 0, 0], w[..., 0, 1], w[..., 1, 0], w[..., 1, 1] = v1, v2, d1, d2
    return w


def local_basis(a: complex, b: complex, c: complex, point: int) -> Callable[..., np.ndarray]:
    """Basis at `point` (0 or 1) in its local variable u (x at 0, w = 1-x at 1), as the
    function W(u, arg=None) = [[y1, y2], [y1', y2']] with x-derivatives and `arg` the
    tracked argument of u, None for the principal branch.  At 0, y1 = 2F1(a,b;c;x) and
    y2 = x^(1-c) 2F1(a-c+1,b-c+1;2-c;x); at 1, y1 = 2F1(a,b;a+b-c+1;w) and
    y2 = w^(c-a-b) 2F1(c-a,c-b;c-a-b+1;w).  c (at 0) or c-a-b (at 1) must not be
    (near-)integer.  An array of u (with an array of arguments) gives the stack of
    shape u.shape + (2, 2)."""
    if point == 0:
        p1, p2 = HypergeomParams.f21(a, b, c), HypergeomParams.f21(a - c + 1, b - c + 1, 2 - c)
        name, value, mu = "c", c, 1 - c
    else:
        p1 = HypergeomParams.f21(a, b, a + b - c + 1)
        p2 = HypergeomParams.f21(c - a, c - b, c - a - b + 1)
        name, value, mu = "c-a-b", c - a - b, c - a - b
    if is_near_integer(value):
        raise DegenerateParams(f"{name}={value} is (near-)integer; the basis at {point} degenerates")

    def matrix(u, arg=None) -> np.ndarray:
        (v1, d1), (g, dg) = _pfq_nodes((p1, p2), u, SERIES_TOL)
        front = _power(u, arg, mu)
        lead = -front if point else front  # dw/dx = -1
        return _w_matrix(v1, front * g, -d1 if point else d1, lead * (mu * g / u + dg))

    return matrix


ZONE_RADIUS = 0.88  # each local series is summed only this close to its point
MEMO_BYTES = 1 << 18  # node and stack bytes one ConnectedBasis.matrix keeps


def _near0(x):
    """The zone rule: the nodes the basis at 0 evaluates; the basis at 1
    takes the rest."""
    return (np.abs(x) <= 0.6) | (np.abs(x) <= np.abs(1 - x))


def check_zone(x: np.ndarray, zone) -> None:
    """SeriesRouteUnavailable unless each node is within ZONE_RADIUS of its zone's point."""
    reach = np.max(np.abs(x - zone), initial=0.0)
    if reach > ZONE_RADIUS:
        raise SeriesRouteUnavailable(f"contour leaves the series convergence zone (reach {reach:.3f})")


class ConnectedBasis:
    """The local pairs at 0 and 1 joined across their zones: each node takes
    W_zone(x) K, its zone's local matrix times a constant K.  `matrix` is the
    principal-branch basis-at-0 pair, with K = I near 0 and, near 1, the
    `connection` W0 = W1 K matched at 0.5; `along` tracks branches."""

    def __init__(self, a: complex, b: complex, c: complex):
        self.a, self.b, self.c = complex(a), complex(b), complex(c)
        self.basis0 = local_basis(a, b, c, 0)
        self.basis1 = local_basis(a, b, c, 1)
        self.connection = np.linalg.solve(self.basis1(0.5), self.basis0(0.5))
        self._memo, self._held = {}, 0

    def matrix(self, x, side: int = 0) -> np.ndarray:
        """W(x) = [[y1, y2], [y1', y2']] of the basis-at-0 pair: (2, 2) at one point, the
        (n, 2, 2) stack over a node array; with side=1, W at the points 1 - x, x their
        distance to 1, on which the basis at 1 sums its series.  Read-only, kept per node set
        (dtype, shape, bytes, side) within MEMO_BYTES: 256 KiB a basis, 8 MiB over the 32
        spectral.basis_for keeps."""
        x = np.asarray(x)
        key = (x.dtype.str, x.shape, x.tobytes(), side)
        if key in self._memo:
            return self._memo[key]
        at0, at1 = (x, 1 - x) if side == 0 else (1 - x, x)
        near0 = _near0(at0)
        w = np.empty(x.shape + (2, 2), dtype=complex)
        for zone, u, evaluate in ((near0, at0, self.basis0), (~near0, at1, self._matrix1)):
            if zone.any():
                w[zone] = evaluate(u[zone])
        w.flags.writeable = False
        self._memo[key], self._held = w, self._held + len(key[2]) + w.nbytes
        while self._held > MEMO_BYTES:  # oldest first, so a stack above the bound last
            old = next(iter(self._memo))
            self._held -= len(old[2]) + self._memo.pop(old).nbytes
        return w

    def _matrix1(self, w) -> np.ndarray:
        w1 = self.basis1(w)
        return (w1.reshape(-1, 2) @ self.connection).reshape(w1.shape)  # one product

    def along(self, x, arg0, arg1, point: int) -> np.ndarray:
        """W of the pair at `point` (0 or 1) along the nodes x in path order,
        with arg0, arg1 the tracked arguments of x, 1 - x (principal at x[0],
        where K is the principal one).  At each zone switch K <- W_new(z*)^-1
        W_old(z*) K, with z* the first node of the new zone, where both series
        must converge; one call per zone over its nodes and the switch nodes."""
        shape, x = np.shape(x), np.ravel(x)
        zone = np.where(_near0(x), 0, 1)
        check_zone(x, zone)
        new = np.flatnonzero(zone[1:] != zone[:-1]) + 1  # each the z* of its switch
        check_zone(x[new], [[0], [1]])
        w = np.empty((2,) + x.shape + (2, 2), dtype=complex)
        for z, basis, arg in ((0, self.basis0, arg0), (1, self.basis1, arg1)):
            take = zone == z
            take[new] = True
            u = x[take] if z == 0 else 1 - x[take]
            w[z, take] = basis(u, np.broadcast_to(np.ravel(arg), x.shape)[take])
        k = np.eye(2) if zone[0] == point else np.linalg.matrix_power(self.connection, 1 - 2 * point)
        out = np.empty(x.shape + (2, 2), dtype=complex)
        ends = [0, *new, x.size]
        for lo, hi in zip(ends, ends[1:]):
            if lo:
                k = np.linalg.solve(w[zone[lo], lo], w[1 - zone[lo], lo] @ k)
            out[lo:hi] = (w[zone[lo], lo:hi].reshape(-1, 2) @ k).reshape(-1, 2, 2)  # one product
        return out.reshape(shape + (2, 2))


def ghe_coefficient_polys(upper: Sequence[complex], lower: Sequence[complex]) -> list[ComplexPoly]:
    """Raw polynomial coefficients [Q_0, ..., Q_p] of the order-p operator,
    scaled so that Q_p(z) = z^(p-1) (z_target - z) matches the classical sign
    (for p=2 this is exactly x(1-x), c-(a+b+1)x, -ab).

    The y^(n) coefficient combines the Stirling expansion of (z d/dz)^k on
    the left with the binomial-shifted expansion on the right:
        Q_n = -[ L_n z^n - R_n z^(n-1) ],
        L_n = sum_{k=n}^{p} c(k,n) e_{p-k}(upper),
        R_n = sum_{k=n-1}^{p-1} e_{p-k-1}(lower-1) sum_{j=n-1}^{k} C(k,j) c(j,n-1).
    """
    p = len(upper)
    if p < 1:
        raise ValueError("need at least one upper parameter")
    if len(lower) != p - 1:
        raise ValueError("expect q = p-1 lower parameters")
    shifted = [b - 1 for b in lower]
    polys: list[ComplexPoly] = []
    for n in range(p + 1):
        ln = sum(stirling2(k, n) * elem_sym(upper, p - k) for k in range(n, p + 1))
        coeffs = [0j] * (p + 1)
        coeffs[n] -= ln
        if n >= 1:
            rn = 0j
            for k in range(n - 1, p):
                inner = sum(comb(k, j) * stirling2(j, n - 1) for j in range(n - 1, k + 1))
                rn += elem_sym(shifted, p - k - 1) * inner
            coeffs[n - 1] += rn
        polys.append(ComplexPoly.make(coeffs))
    return polys


def ghe_operator(upper: Sequence[complex], lower: Sequence[complex]) -> ScalarODE:
    """Monic ScalarODE for the order-p generalized hypergeometric equation."""
    polys = ghe_coefficient_polys(upper, lower)
    leading = polys[-1]
    coeffs = tuple(RationalFn.make(q, leading) for q in polys[:-1])
    return ScalarODE(len(upper), coeffs)


def hypergeometric_ode(a: complex, b: complex, c: complex) -> ScalarODE:
    return ghe_operator([a, b], [c])


def hypergeometric_system(a: complex, b: complex, c: complex) -> MeromorphicSystem:
    return companion(hypergeometric_ode(a, b, c))


def weight_omega(a: complex, b: complex, c: complex, x, side: int = 0):
    """Weight x^(c-1) (1-x)^(a+b-c) at x, a point or a node array of the real interval
    (0, 1); with side=1 at the points 1 - x, x their distance to 1, as in
    ConnectedBasis.matrix."""
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 < x) & (x < 1.0)):
        raise ValueError("weight is defined on the open interval (0, 1)")
    near0, near1 = (x, 1.0 - x) if side == 0 else (1.0 - x, x)
    return np.exp((c - 1) * np.log(near0 + 0j) + (a + b - c) * np.log(near1 + 0j))
