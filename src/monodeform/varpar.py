"""Series solutions of the deformed hypergeometric equation by variation
of parameters.

The deformation x(1-x)y'' + [c-(a+b+1)x]y' - (ab + rho f(x)) y = 0 expands
as y = sum_k y_k rho^k, where y_0 solves the undeformed equation and, with L
the monic order-2 hypergeometric operator, L[y_k] = f y_{k-1} / (x(1-x)).
One solver handles every level: y_k = u_1 y_1 + u_2 y_2 over the connected
basis-at-0 pair, with the u_i' from Cramer's rule and the Wronskian pinned by
Abel's formula, integrated from a fixed basepoint so every term beyond the
zeroth carries zero initial data there.  This module is the independent
oracle for the Dyson-type expansion: both must agree to O(rho^(K+1)) against
direct integration.

Solution callables used throughout map x -> (value, derivative), each of
the shape of x; profiles are called on node arrays, forcings as
forcing(x, w) with w = W(x) as u' has just built it on the same nodes.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonIntegrableForcing, WronskianVanishes
from .hypergeom import ConnectedBasis
from .quadrature import gauss_legendre_panels

SolutionFn = Callable[..., tuple]

MAX_DEPTH = 42  # interval halvings before a u_i quadrature gives up


class _Cumulative:
    """Cached cumulative integral of a vector integrand from a basepoint.

    Values at previously requested points serve as anchors; a new request
    integrates adaptively (Gauss-Legendre with interval halving) only over
    the gap to the nearest anchor.  The integrand maps a node array to
    values with the nodes on the leading axis.
    """

    def __init__(self, integrand: Callable, basepoint: float, tol: float = 1e-11):
        self.integrand = integrand
        self.tol = tol
        probe = np.asarray(integrand(np.array([float(basepoint)])), dtype=complex)[0]
        self._xs = [float(basepoint)]
        self._vals = {float(basepoint): np.zeros_like(probe)}

    def _adaptive(self, a: float, b: float, depth: int = 0) -> np.ndarray:
        mid = 0.5 * (a + b)
        whole, left, right = gauss_legendre_panels(self.integrand, ((a, b), (a, mid), (mid, b)), 16)
        split = left + right
        err = np.max(np.abs(whole - split))
        if err <= self.tol * max(1.0, float(np.max(np.abs(split)))):
            return split
        if depth >= MAX_DEPTH:
            raise NonIntegrableForcing(
                f"quadrature for u_i failed to converge on [{a}, {b}]"
            )
        return (self._adaptive(a, mid, depth + 1)
                + self._adaptive(mid, b, depth + 1))

    def __call__(self, x) -> np.ndarray:
        """Values at x, a point or a node array, point by point in the order given."""
        x = np.asarray(x, dtype=float)
        return np.array([self._at(float(t)) for t in x.ravel()]).reshape(x.shape + (-1,))

    def _at(self, x: float) -> np.ndarray:
        got = self._vals.get(x)
        if got is not None:
            return got
        i = bisect.bisect_left(self._xs, x)
        anchors = [self._xs[j] for j in (i - 1, i) if 0 <= j < len(self._xs)]
        a = min(anchors, key=lambda t: abs(t - x))
        val = self._vals[a] + self._adaptive(a, x)
        bisect.insort(self._xs, x)
        self._vals[x] = val
        return val


@dataclass
class ParticularSolution:
    """y_p = u_1 y_1 + u_2 y_2 with u_i(basepoint) = 0; the Cramer
    construction enforces u_1' y_1 + u_2' y_2 = 0 pointwise, so
    y_p' = u_1 y_1' + u_2 y_2'."""

    basis: ConnectedBasis
    u: _Cumulative

    def __call__(self, x) -> tuple:
        uv = self.u(x)
        w = self.basis.matrix(x)
        val = uv[..., 0] * w[..., 0, 0] + uv[..., 1] * w[..., 0, 1]
        der = uv[..., 0] * w[..., 1, 0] + uv[..., 1] * w[..., 1, 1]
        return val, der


def particular_solution(
    cb: ConnectedBasis,
    forcing: Callable,
    basepoint: float = 0.5,
    tol: float = 1e-11,
) -> ParticularSolution:
    """Solution of L[y] = G over the pair (y1, y2) of `cb`, zero at the
    basepoint together with its derivative.  `forcing(x, w)` gives G on a
    node array x, with w = cb.matrix(x).

    The Wronskian is pinned by Abel's formula, det W = A x^-c (1-x)^(c-a-b-1)
    with the constant A measured at the basepoint, so Cramer's rule reads
    u1' = -G y2 / det W and u2' = +G y1 / det W."""
    a, b, c = cb.a, cb.b, cb.c
    w0 = cb.matrix(basepoint)
    det0 = complex(np.linalg.det(w0))
    if abs(det0) < 1e-13 * max(np.max(np.abs(w0)), 1e-300) ** 2:
        raise WronskianVanishes(f"Wronskian ~ {det0} at x={basepoint}")
    abel_const = det0 * cmath.exp(c * cmath.log(basepoint)
                                  + (a + b + 1 - c) * cmath.log(1 - basepoint))

    # (n, 2) values of u' over a node array of real x
    def uprime(x: np.ndarray) -> np.ndarray:
        inv_detw = np.exp(c * np.log(x + 0j) + (a + b + 1 - c) * np.log(1 - x + 0j)) / abel_const
        w = cb.matrix(x)
        g = forcing(x, w)
        return np.stack([-g * w[:, 0, 1] * inv_detw, g * w[:, 0, 0] * inv_detw], axis=-1)

    return ParticularSolution(cb, _Cumulative(uprime, basepoint, tol))


@dataclass(frozen=True)
class SeriesTerm:
    k: int
    fn: SolutionFn

    def __call__(self, x) -> tuple:
        return self.fn(x)


@dataclass(frozen=True)
class SeriesSolution:
    order: int
    terms: tuple[SeriesTerm, ...]

    def term(self, k: int) -> SeriesTerm:
        return self.terms[k]

    def evaluate(self, x, rho: complex):
        return sum(t(x)[0] * rho ** t.k for t in self.terms)


def hypergeometric_deformed_series(
    a: complex,
    b: complex,
    c: complex,
    f: Callable,
    K: int,
    init_coeffs: Sequence[complex] = (1.0, 0.0),
    basepoint: float = 0.5,
    tol: float = 1e-11,
    basis: Optional[ConnectedBasis] = None,
) -> SeriesSolution:
    """Series for x(1-x)y'' + [c-(a+b+1)x]y' - (ab + rho f(x)) y = 0.

    The zeroth term is the homogeneous combination with the given basis
    coefficients; term k >= 1 is the particular solution of
    L[y_k] = f * y_{k-1} / (x(1-x)) with zero initial data at the basepoint,
    which makes the series unique and directly comparable to the
    gauge-transform expansion."""
    if K < 1:
        raise ValueError("K must be at least 1")
    cb = basis if basis is not None else ConnectedBasis(a, b, c)

    def y0(x) -> tuple:
        w = cb.matrix(x)
        return (init_coeffs[0] * w[..., 0, 0] + init_coeffs[1] * w[..., 0, 1],
                init_coeffs[0] * w[..., 1, 0] + init_coeffs[1] * w[..., 1, 1])

    # level k reads y_{k-1} = coef(x) . (y1, y2): init_coeffs, then level k-1's u
    terms = [SeriesTerm(0, y0)]
    coef = lambda x: np.asarray(init_coeffs)
    for k in range(1, K + 1):
        forcing = lambda x, w, coef=coef: (f(x) / (x * (1 - x))
                                           * np.sum(coef(x) * w[..., 0, :], axis=-1))
        terms.append(SeriesTerm(k, particular_solution(cb, forcing, basepoint, tol)))
        coef = terms[-1].fn.u
    return SeriesSolution(K, tuple(terms))


def series_to_csv(series: SeriesSolution, xs: Sequence[float], path: str) -> None:
    """Sampled terms as CSV columns (x, Re y_k, Im y_k for each k)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x"]
        for k in range(series.order + 1):
            header += [f"re_y{k}", f"im_y{k}"]
        writer.writerow(header)
        for x in xs:
            row = [f"{x:.16g}"]
            for t in series.terms:
                v, _ = t(x)
                row += [f"{v.real:.16g}", f"{v.imag:.16g}"]
            writer.writerow(row)
