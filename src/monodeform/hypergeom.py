"""Hypergeometric series, local solution bases, and operator assembly.

The generalized hypergeometric equation of order p is assembled from Stirling
numbers of the second kind and elementary symmetric polynomials of the
parameters; its order-2 case is

    x(1-x) y'' + [c - (a+b+1)x] y' - ab y = 0

with local bases at 0 and 1 built from 2F1 series.  Evaluation anywhere on
(0, 1) routes through whichever expansion point is closer, with the constant
change of basis between the two frames computed once at a midpoint.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateParams, InvalidLower, NoConvergence
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


@lru_cache(maxsize=1 << 18)
def _pfq_series(upper: tuple, lower: tuple, x: complex, tol: float) -> tuple[complex, complex]:
    """(value, derivative) at x != 0 from one pass over the terms t_m: the
    value sums t_m, the derivative (1/x) sum m t_m, and each sum stops once
    its own term drops below tol * |sum| for three consecutive terms."""
    term = 1.0 + 0j
    acc = 1.0 + 0j
    dacc = 0j
    quiet = dquiet = 0
    for m in range(MAX_TERMS):
        ratio = x / (m + 1)
        for a in upper:
            ratio *= a + m
        for b in lower:
            ratio /= b + m
        term = term * ratio
        dterm = (m + 1) * term
        try:
            if quiet < 3:
                acc += term
                quiet = quiet + 1 if abs(term) < tol * max(abs(acc), 1e-300) else 0
            if dquiet < 3:
                dacc += dterm
                dquiet = dquiet + 1 if abs(dterm) < tol * max(abs(dacc), 1e-300) else 0
        except OverflowError:
            raise NoConvergence(f"pFq series diverges at x={x}") from None
        if not (term.real == term.real and term.imag == term.imag):  # NaN guard
            raise NoConvergence(f"pFq series lost finiteness at x={x}")
        if quiet == dquiet == 3:
            return acc, dacc / x
    raise NoConvergence(f"pFq series at x={x} exceeded {MAX_TERMS} terms")


def _pfq_nodes(upper: tuple, lower: tuple, x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, derivatives) at a 1-D array of nonzero x from one numpy term
    loop over all nodes, with the per-node rules of `_pfq_series`: each sum
    stops after its own three quiet terms, and a node leaves the live arrays
    once both of its sums have stopped."""
    vals = np.empty(x.shape, dtype=complex)
    ders = np.empty(x.shape, dtype=complex)
    live = np.arange(x.size)
    xs = x
    term = np.ones(x.shape, dtype=complex)
    sums = np.zeros((2,) + x.shape, dtype=complex)  # value, x * derivative
    sums[0] = 1.0
    quiet = np.zeros(sums.shape, dtype=np.int8)
    with np.errstate(all="ignore"):
        for m in range(MAX_TERMS):
            if not live.size:
                return vals, ders
            ratio = xs / (m + 1)
            for a in upper:
                ratio *= a + m
            for b in lower:
                ratio /= b + m
            term = term * ratio
            terms = term * np.array([[1.0], [m + 1.0]])
            finite = np.isfinite(terms).all(axis=0)
            if not finite.all():
                raise NoConvergence(f"pFq series lost finiteness at x={xs[~finite][0]}")
            on = quiet < 3
            sums = np.where(on, sums + terms, sums)
            small = np.abs(terms) < tol * np.maximum(np.abs(sums), 1e-300)
            quiet = np.where(small | ~on, quiet + on, 0)
            done = (quiet == 3).all(axis=0)
            if done.any():
                vals[live[done]] = sums[0, done]
                ders[live[done]] = sums[1, done] / xs[done]
                keep = ~done
                live, xs, term = live[keep], xs[keep], term[keep]
                sums, quiet = sums[:, keep], quiet[:, keep]
    raise NoConvergence(f"pFq series at x={xs[0]} exceeded {MAX_TERMS} terms")


def _pfq_pair(params: HypergeomParams, x, tol: float):
    """(value, derivative) of pFq at x; at x = 0 they are 1 and prod a / prod b.
    A scalar x reads the cached `_pfq_series`; a 1-D array of x gives two
    arrays from the uncached `_pfq_nodes`."""
    if not isinstance(x, np.ndarray):
        if x == 0:
            return 1.0 + 0j, prod(params.upper) / prod(params.lower)
        return _pfq_series(params.upper, params.lower, complex(x), tol)
    x = np.asarray(x, dtype=complex)
    zero = x == 0
    vals, ders = (np.full(x.shape, v) for v in _pfq_pair(params, 0, tol))
    vals[~zero], ders[~zero] = _pfq_nodes(params.upper, params.lower, x[~zero], tol)
    return vals, ders


def _power(base, arg, mu: complex):
    """base^mu on the branch where arg(base) = arg, the principal one when arg
    is None: numpy over a node array, cmath at one point."""
    if isinstance(base, np.ndarray):
        theta = np.angle(base) if arg is None else arg
        return np.exp(mu * (np.log(np.abs(base)) + 1j * theta))
    theta = cmath.phase(base) if arg is None else arg
    return cmath.exp(mu * (cmath.log(abs(base)) + 1j * theta))


def _w_matrix(v1, v2, d1, d2) -> np.ndarray:
    """[[v1, v2], [d1, d2]]: (2, 2) at one point, (n, 2, 2) over a node array."""
    if not isinstance(v1, np.ndarray):
        return np.array([[v1, v2], [d1, d2]], dtype=complex)
    w = np.empty(v1.shape + (2, 2), dtype=complex)
    w[:, 0, 0], w[:, 0, 1], w[:, 1, 0], w[:, 1, 1] = v1, v2, d1, d2
    return w


@dataclass(frozen=True)
class LocalBasis:
    """Solution pair (y1, y2) of the order-2 equation at an expansion point:
    `matrix(x, arg=None)` is W(x) = [[y1, y2], [y1', y2']], with `arg` the tracked
    argument of the local variable (x at 0, 1-x at 1), None for the principal branch.
    A 1-D array of x (with an array of arguments) gives the (n, 2, 2) stack."""

    point: complex
    matrix: Callable[..., np.ndarray]
    exponent_pair: tuple[complex, complex]


def local_basis_0(a: complex, b: complex, c: complex) -> LocalBasis:
    """Basis at 0: y1 = 2F1(a,b;c;x), y2 = x^(1-c) 2F1(a-c+1,b-c+1;2-c;x)."""
    if is_near_integer(c):
        raise DegenerateParams(f"c={c} is (near-)integer; the basis at 0 degenerates")
    p1 = HypergeomParams.f21(a, b, c)
    p2 = HypergeomParams.f21(a - c + 1, b - c + 1, 2 - c)
    mu = 1 - c

    def matrix(x, arg=None) -> np.ndarray:
        v1, d1 = _pfq_pair(p1, x, SERIES_TOL)
        front = _power(x, arg, mu)
        f, df = _pfq_pair(p2, x, SERIES_TOL)
        v2 = front * f
        d2 = front * (mu * f / x + df)
        return _w_matrix(v1, v2, d1, d2)

    return LocalBasis(0j, matrix, (0j, 1 - c))


def local_basis_1(a: complex, b: complex, c: complex) -> LocalBasis:
    """Basis at 1 in w = 1-x: exponents 0 and c-a-b (needs c-a-b non-integer)."""
    if is_near_integer(c - a - b):
        raise DegenerateParams(f"c-a-b={c - a - b} is (near-)integer; the basis at 1 degenerates")
    p1 = HypergeomParams.f21(a, b, a + b - c + 1)
    p2 = HypergeomParams.f21(c - a, c - b, c - a - b + 1)
    mu = c - a - b

    def matrix(x, arg=None) -> np.ndarray:
        w = 1 - x
        v1, d1 = _pfq_pair(p1, w, SERIES_TOL)
        front = _power(w, arg, mu)
        g, dg = _pfq_pair(p2, w, SERIES_TOL)
        v2 = front * g
        d2 = -front * (mu * g / w + dg)
        return _w_matrix(v1, v2, -d1, d2)

    return LocalBasis(1.0 + 0j, matrix, (0j, c - a - b))


class ConnectedBasis:
    """Global evaluator for the basis-at-0 pair across (0, 1).

    Near 1 the series at 0 converges too slowly, so the pair is re-expressed
    in the basis at 1 through the constant matrix K with W0(x) = W1(x) K,
    fixed by matching both frames at the midpoint 0.5, where both series
    converge quickly.  Evaluation is principal-branch; use the local bases
    directly for branch-tracked continuation.
    """

    def __init__(self, a: complex, b: complex, c: complex):
        self.a, self.b, self.c = complex(a), complex(b), complex(c)
        self.basis0 = local_basis_0(a, b, c)
        self.basis1 = local_basis_1(a, b, c)
        self.connection = np.linalg.solve(self.basis1.matrix(0.5), self.basis0.matrix(0.5))
        # (x, W(x)) of the latest matrix call, matched by identity so that
        # equal values with different signed zeros never share a matrix
        self._last = (None, None)

    def matrix(self, x: complex) -> np.ndarray:
        """W(x) = [[y1, y2], [y1', y2']] of the basis-at-0 pair; a call with
        the same x object as the latest call returns that call's matrix."""
        last_x, w = self._last
        if last_x is x:
            return w
        if abs(x) <= 0.6 or abs(x) <= abs(1 - x):
            w = self.basis0.matrix(x)
        else:
            w = self.basis1.matrix(x) @ self.connection
        self._last = (x, w)
        return w

    def y1(self, x: complex) -> tuple[complex, complex]:
        w = self.matrix(x)
        return complex(w[0, 0]), complex(w[1, 0])

    def y2(self, x: complex) -> tuple[complex, complex]:
        w = self.matrix(x)
        return complex(w[0, 1]), complex(w[1, 1])


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


def weight_omega(a: complex, b: complex, c: complex, x: float) -> complex:
    """Weight x^(c-1) (1-x)^(a+b-c) on the real interval (0, 1)."""
    if not (0.0 < x < 1.0):
        raise ValueError("weight is defined on the open interval (0, 1)")
    return cmath.exp((c - 1) * cmath.log(x) + (a + b - c) * cmath.log(1.0 - x))
