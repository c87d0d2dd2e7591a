"""Series solutions of the deformed hypergeometric equation by variation
of parameters.

The deformation x(1-x)y'' + [c-(a+b+1)x]y' - (ab + rho f(x)) y = 0 expands
as y = sum_k y_k rho^k, where y_0 solves the undeformed equation and, with L
the monic order-2 hypergeometric operator, L[y_k] = f y_{k-1} / (x(1-x)).
One solver handles every level: y_k = u_1 y_1 + u_2 y_2 over the connected
basis-at-0 pair, with the u_i' from Cramer's rule and the Wronskian pinned by
Abel's formula, integrated from a fixed basepoint so every term beyond the
zeroth carries zero initial data there, on a fixed lattice of Chebyshev
panels so each value depends on x alone.  This module is the independent
oracle for the Dyson-type expansion: both must agree to O(rho^(K+1)) against
direct integration.

Solution callables used throughout map x -> (value, derivative), each of
the shape of x; profiles are called on node arrays, forcings as
forcing(x, w) with w = W(x) as u' has just built it on the same nodes.
"""

from __future__ import annotations

import cmath
import csv
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonIntegrableForcing, PathThroughSingularity, WronskianVanishes
from .hypergeom import ConnectedBasis
from .quadrature import cheb_leaf_maps

# u_i panel ends bp*r^j toward 0 and 1-(1-bp)*r^j toward 1: at bp = 0.5 the
# first are 0.2 and 0.8, the ends of cli.SERIES_RANGE, so the series task
# never samples a forcing outside the range its pole check covers
LATTICE_RATIO = 0.4
CHEB_DEGREE = 31  # one integrand call per leaf, on CHEB_DEGREE + 1 points
MAX_DEPTH = 42  # leaf halvings before a u_i integral gives up


class _Cumulative:
    """Cumulative integral of a vector integrand (nodes on the leading axis)
    from a basepoint, on a fixed lattice of panels, each built outward the
    first time a point on or beyond it is asked for (Greengard, SIAM J.
    Numer. Anal. 28, 1991).  A leaf holds the Chebyshev interpolant of one
    integrand call, halved while its last two coefficients exceed
    tol * max(1, max|c|) (Aurentz & Trefethen, ACM TOMS 43, 2017).  An end
    belongs to the piece on the basepoint side, so u(x) depends on x alone."""

    def __init__(self, integrand: Callable, basepoint: float, tol: float = 1e-11):
        self.integrand = integrand
        self.tol = tol
        self._bp = float(basepoint)
        probe = np.asarray(integrand(np.array([self._bp])), dtype=complex)[0]
        # per side, toward 0 and toward 1: the built edge and the value there,
        # and the leaves outward as (far end, mid, signed half width, start, antiderivative)
        self._edge = [(self._bp, np.zeros_like(probe))] * 2
        self._leaves = ([], [])
        self._stacks = [None, None]  # per side, the leaf fields as arrays

    def _build(self, side: int) -> None:
        t, fit, integ = cheb_leaf_maps(CHEB_DEGREE + 1)
        near, start = self._edge[side]
        todo = [(near, 1.0 - (1.0 - near) * LATTICE_RATIO if side else near * LATTICE_RATIO, 0)]
        while todo:  # nearer half first, so leaves come out outward and the panel's end last
            near, far, depth = todo.pop()
            mid, half = 0.5 * (near + far), 0.5 * (far - near)
            coef = fit @ self.integrand(mid + half * t)
            if np.max(np.abs(coef[-2:])) <= self.tol * max(1.0, np.max(np.abs(coef))):
                anti = half * (integ @ coef)
                self._leaves[side].append((far, mid, half, start, anti))
                start = start + anti.sum(axis=0)  # T_k(1) = 1
            elif depth < MAX_DEPTH:
                todo += [(mid, far, depth + 1), (near, mid, depth + 1)]
            else:
                raise NonIntegrableForcing(f"quadrature for u_i failed to converge at x = {mid}")
        self._edge[side] = (far, start)
        self._stacks[side] = tuple(map(np.array, zip(*self._leaves[side])))

    def __call__(self, x) -> np.ndarray:
        """Values at x, a point or a node array in (0, 1): the start value of
        x's leaf plus the integral of its interpolant up to x."""
        flat = np.asarray(x, dtype=float).ravel()
        if not np.all((0 < flat) & (flat < 1)):
            raise PathThroughSingularity("u_i is integrated on (0, 1) only")
        out = np.zeros(flat.shape + self._edge[0][1].shape, dtype=complex)
        for side, sgn in ((0, -1.0), (1, 1.0)):
            on = sgn * (flat - self._bp) > 0
            if on.any():
                while np.max(sgn * flat[on]) > sgn * self._edge[side][0]:
                    self._build(side)
                ends, mids, halves, starts, antis = self._stacks[side]
                k = np.searchsorted(sgn * ends, sgn * flat[on])
                tau = (flat[on] - mids[k]) / halves[k]
                vander = np.polynomial.chebyshev.chebvander(tau, CHEB_DEGREE + 1)
                out[on] = starts[k] + np.einsum("nk,nk...->n...", vander, antis[k])
        return out.reshape(np.shape(x) + self._edge[0][1].shape)


def _combine(coef, w) -> tuple:
    """(value, derivative) of coef . (y1, y2) from w = W(x)."""
    return tuple(np.sum(coef * w[..., i, :], axis=-1) for i in (0, 1))


@dataclass
class ParticularSolution:
    """y_p = u_1 y_1 + u_2 y_2 with u_i(basepoint) = 0; the Cramer
    construction enforces u_1' y_1 + u_2' y_2 = 0 pointwise, so
    y_p' = u_1 y_1' + u_2 y_2'."""

    basis: ConnectedBasis
    u: _Cumulative

    def __call__(self, x) -> tuple:
        return _combine(self.u(x), self.basis.matrix(x))


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
class SeriesSolution:
    """Terms y_0..y_K of the expansion in rho, each a solution callable."""

    order: int
    terms: tuple[Callable[..., tuple], ...]

    def evaluate(self, x, rho: complex):
        return sum(t(x)[0] * rho ** k for k, t in enumerate(self.terms))


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

    # level k reads y_{k-1} = coef(x) . (y1, y2): init_coeffs, then level k-1's u
    terms = [lambda x: _combine(np.asarray(init_coeffs), cb.matrix(x))]
    coef = lambda x: np.asarray(init_coeffs)
    for k in range(1, K + 1):
        forcing = lambda x, w, coef=coef: (f(x) / (x * (1 - x))
                                           * np.sum(coef(x) * w[..., 0, :], axis=-1))
        terms.append(particular_solution(cb, forcing, basepoint, tol))
        coef = terms[-1].u
    return SeriesSolution(K, tuple(terms))


def series_to_csv(xs: Sequence[float], ys: Sequence[np.ndarray], path: str) -> None:
    """Sampled terms as CSV columns (x, Re y_k, Im y_k for each k), from the values ys[k]
    of y_k at xs that the caller has already computed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"{p}_y{k}" for k in range(len(ys)) for p in ("re", "im")])
        for x, *vals in zip(xs, *ys):
            writer.writerow([f"{x:.16g}"] + [f"{p:.16g}" for v in vals for p in (v.real, v.imag)])
