"""Quadrature engines: geometric refinement toward an integrable endpoint
singularity, and Chebyshev cumulative integration used by the nested
path-ordered integrals.

The geometric rule lays panels on the distance t to the singular end,
shrinking by a fixed ratio toward it, applies Gauss-Legendre on each (where
the integrand is analytic), and closes the remaining tail with a
per-component geometric extrapolation, exact on a pure power of t.  The
caller hands it the depth: `geometric_levels` takes the integrand's least
endpoint exponent and the next one, which set the verdict and the number of
panels after which the extrapolation leaves the target error.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonIntegrableEndpoint

GEOMETRIC_RATIO = 0.25  # width ratio of consecutive panels toward the singular end
GEOMETRIC_LEVELS = 48
TAIL_RATIO = 0.9  # a component whose panels shrink slower than this gets no closed tail
# the least endpoint exponent whose panels shrink by less than TAIL_RATIO: -0.924
LEAST_EXPONENT = math.log(TAIL_RATIO, GEOMETRIC_RATIO) - 1.0


@lru_cache(maxsize=128)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_panels(f: Callable, parts, n: int) -> np.ndarray:
    """The n-point rule on each (lo, hi) of `parts`, from one call of f on
    all their nodes in that order and one contraction: the panel sums on the
    leading axis.  f returns values with the nodes on the leading axis, or a
    constant."""
    x, w = _gl_rule(n)
    lo, hi = np.array(parts, dtype=float).T
    nodes = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * x).ravel()
    vals = np.asarray(f(nodes))
    vals = np.broadcast_to(vals, nodes.shape) if vals.ndim == 0 else vals
    sums = np.tensordot(vals.reshape((len(lo), n) + vals.shape[1:]), w, axes=([1], [0]))
    return (0.5 * (hi - lo)).reshape((-1,) + (1,) * (sums.ndim - 1)) * sums


def geometric_levels(least: float, power: float, tol: float, what: str, end) -> int:
    """Panels toward the end `end` for `what`, an integrand whose least endpoint exponent
    is `least` and whose next one is power - 1: the least L, at least 2 and at most
    GEOMETRIC_LEVELS, with (GEOMETRIC_RATIO^L)^power <= tol, past which the next power's
    share of the closed tail is below tol.  Raises NonIntegrableEndpoint for
    least <= LEAST_EXPONENT, where the tail does not close."""
    if least <= LEAST_EXPONENT:
        reason = "<= -1" if least <= -0.999 else "too close to -1 to close its tail"
        raise NonIntegrableEndpoint(f"{what} has endpoint exponent {least:.3f} {reason} at {end}")
    return min(max(math.ceil(math.log(tol, GEOMETRIC_RATIO) / power), 2), GEOMETRIC_LEVELS)


def geometric_panels(length: float, levels: int):
    """(lo, hi) of the `levels` panels of [0, length] shrinking by GEOMETRIC_RATIO toward 0,
    outermost first."""
    cuts = GEOMETRIC_RATIO ** np.arange(levels + 1.0) * length
    return cuts[1:], cuts[:-1]


def geometric_tail(prev, last):
    """Sum of the panels past `last` at the per-component ratio of the last two (exact on t^e)."""
    decays = np.abs(last) < TAIL_RATIO * np.abs(prev)
    r = np.where(decays, last / np.where(decays, prev, 1), 0)
    return last * r / (1.0 - r)


def geometric_endpoint_integral(f: Callable, length: float, levels: int, nodes: int):
    """integral_0^length f(t) dt, with t the distance to an integrable singular end.

    f is called once, on the `nodes` Gauss-Legendre nodes of each of the `levels`
    (at least 2) geometric panels (values with the nodes on the leading axis, or a
    constant), and the rest (0, length GEOMETRIC_RATIO^levels] is closed by
    `geometric_tail`.  `geometric_levels` gives the depth.
    """
    pieces = gauss_legendre_panels(f, np.stack(geometric_panels(length, levels), axis=1), nodes)
    return pieces.sum(axis=0) + geometric_tail(pieces[-2], pieces[-1])


# --- Chebyshev cumulative integration ---------------------------------------


@lru_cache(maxsize=64)
def cheb_nodes(n: int) -> np.ndarray:
    """Chebyshev points of the second kind on [-1, 1], ascending."""
    return np.polynomial.chebyshev.chebpts2(n)


@lru_cache(maxsize=64)
def _cheb_integration_matrix(n: int) -> np.ndarray:
    """Real n x n matrix taking samples at cheb_nodes(n) to the integral of
    their interpolant from -1 to each node: the identity put through the
    fit / integrate / evaluate route once."""
    x = cheb_nodes(n)
    integ = np.polynomial.chebyshev.chebint(np.polynomial.chebyshev.chebfit(x, np.eye(n), n - 1))
    vals = np.polynomial.chebyshev.chebval(x, integ, tensor=True)
    q = vals.T - np.polynomial.chebyshev.chebval(-1.0, integ, tensor=True)
    q.flags.writeable = False
    return q


@lru_cache(maxsize=8)
def cheb_leaf_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-kind points t, and the identity put through chebinterpolate at t and chebint from -1."""
    cheb = np.polynomial.chebyshev
    maps = (cheb.chebpts1(n), cheb.chebinterpolate(lambda t: np.eye(n), n - 1),
            cheb.chebint(np.eye(n), lbnd=-1))
    for m in maps:
        m.flags.writeable = False
    return maps


def cheb_cumulative(values: np.ndarray, half_length: complex) -> np.ndarray:
    """Cumulative integral at the Chebyshev nodes from the first node.

    `values` has shape (..., n, m): samples of m components at
    cheb_nodes(n) on one segment, or on each of a stack of them, whose
    parameterization has constant complex velocity; multiply by
    `half_length` = velocity * (t-range)/2 to account for the change of
    variables.  Returns the shape of `values`.
    """
    return (_cheb_integration_matrix(values.shape[-2]) @ values) * half_length
