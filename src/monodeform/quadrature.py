"""Quadrature engines: endpoint-weighted Gauss-Jacobi rules, geometric
refinement toward integrable endpoint singularities, and Chebyshev cumulative
integration used by the nested path-ordered integrals.

The geometric rule splits [a, b] into panels shrinking by a fixed ratio
toward the singular end, applies Gauss-Legendre on each (where the integrand
is analytic), and closes the remaining tail with a per-component geometric
extrapolation.  It converges for any integrable algebraic/logarithmic
endpoint behavior without needing the exponent in advance.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import NonIntegrableEndpoint


@lru_cache(maxsize=128)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    return x, w


def gauss_legendre_panel(f: Callable, a: float, b: float, n: int = 24):
    """Gauss-Legendre on [a, b]; f may return scalars or ndarrays."""
    x, w = _gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    acc = None
    for xi, wi in zip(x, w):
        val = np.asarray(f(mid + half * xi))
        acc = wi * val if acc is None else acc + wi * val
    return half * acc


@lru_cache(maxsize=256)
def gauss_jacobi_01(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral_0^1 (1-x)^alpha x^beta f(x) dx.

    Mapped from the standard Jacobi rule on [-1, 1] with weight
    (1-t)^alpha (1+t)^beta; the map t -> (1+t)/2 contributes 2^-(alpha+beta+1).
    """
    if alpha <= -1 or beta <= -1:
        raise NonIntegrableEndpoint(f"Jacobi exponents ({alpha}, {beta}) not integrable")
    t, w = roots_jacobi(n, alpha, beta)
    x = 0.5 * (t + 1.0)
    return x, w * 0.5 ** (alpha + beta + 1.0)


def estimate_endpoint_exponent(f: Callable, end: float, side: float, probe: float = 1e-6) -> float:
    """Smallest per-component growth exponent of f near `end`.

    Samples at distances probe and probe/4 along `side` (+1 for a left
    endpoint, -1 for a right endpoint) and reads off the slope of log|f|.
    """
    t1 = end + side * probe
    t2 = end + side * probe / 4.0
    v1 = np.atleast_1d(np.asarray(f(t1), dtype=complex)).ravel()
    v2 = np.atleast_1d(np.asarray(f(t2), dtype=complex)).ravel()
    scale = max(np.max(np.abs(v1)), np.max(np.abs(v2)), 1e-300)
    slopes = []
    for a, bb in zip(np.abs(v1), np.abs(v2)):
        if a < 1e-13 * scale and bb < 1e-13 * scale:
            continue
        slopes.append(math.log(max(a, 1e-300) / max(bb, 1e-300)) / math.log(4.0))
    return min(slopes) if slopes else 0.0


def geometric_endpoint_integral(
    f: Callable,
    a: float,
    b: float,
    singular_at: float,
    ratio: float = 0.25,
    max_levels: int = 48,
    nodes: int = 20,
    atol: float = 1e-12,
    check_integrable: bool = True,
):
    """integral_a^b f(t) dt with an integrable singularity at one endpoint.

    `singular_at` must equal a or b.  Panels shrink geometrically toward the
    singular end; once panel contributions decay geometrically the remaining
    tail is closed by extrapolating the observed ratio.
    """
    if singular_at not in (a, b):
        raise ValueError("singular_at must be one of the endpoints")
    toward_left = singular_at == a
    length = b - a
    side = +1.0 if toward_left else -1.0
    if check_integrable:
        expo = estimate_endpoint_exponent(f, singular_at, side, probe=min(1e-6, 0.01 * length))
        if expo <= -0.999:
            raise NonIntegrableEndpoint(
                f"measured endpoint exponent {expo:.3f} <= -1 at t={singular_at}"
            )
    acc = None
    prev = None
    last = None
    cut = 1.0
    for level in range(max_levels):
        nxt = cut * ratio
        if toward_left:
            lo, hi = a + nxt * length, a + cut * length
        else:
            lo, hi = b - cut * length, b - nxt * length
        if not (lo < hi) or (toward_left and lo <= a) or (not toward_left and hi >= b):
            break  # panel collapsed onto the singular endpoint in float
        piece = gauss_legendre_panel(f, lo, hi, nodes)
        acc = piece if acc is None else acc + piece
        prev, last = last, piece
        cut = nxt
        if prev is not None:
            pn, ln = np.max(np.abs(np.asarray(prev))), np.max(np.abs(np.asarray(last)))
            if ln < atol and ln < pn:
                break
    # close the tail assuming per-component geometric decay
    if prev is not None:
        p = np.atleast_1d(np.asarray(prev, dtype=complex))
        l = np.atleast_1d(np.asarray(last, dtype=complex))
        tail = np.zeros_like(l)
        for idx in np.ndindex(l.shape):
            if abs(p[idx]) > 0 and abs(l[idx]) < 0.9 * abs(p[idx]):
                r = l[idx] / p[idx]
                tail[idx] = l[idx] * r / (1.0 - r)
        acc = acc + tail.reshape(np.asarray(last).shape)
    return acc


def adaptive_subdivision_01(f: Callable, nodes: int = 24, atol: float = 1e-12,
                            max_levels: int = 48):
    """integral_0^1 f(t) dt allowing integrable singularities at both ends."""
    left = geometric_endpoint_integral(f, 0.0, 0.5, 0.0, nodes=nodes, atol=atol,
                                       max_levels=max_levels)
    right = geometric_endpoint_integral(f, 0.5, 1.0, 1.0, nodes=nodes, atol=atol,
                                        max_levels=max_levels)
    return left + right


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


def cheb_cumulative(values: np.ndarray, half_length: complex) -> np.ndarray:
    """Cumulative integral at the Chebyshev nodes from the first node.

    `values` has shape (n, m): samples of m components at cheb_nodes(n) on a
    segment whose parameterization has constant complex velocity; multiply by
    `half_length` = velocity * (t-range)/2 to account for the change of
    variables.  Returns shape (n, m).
    """
    return (_cheb_integration_matrix(values.shape[0]) @ values) * half_length
