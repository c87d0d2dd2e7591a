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

from .errors import NonIntegrableEndpoint

GEOMETRIC_RATIO = 0.25  # width ratio of consecutive panels toward the singular end
GEOMETRIC_LEVELS = 48
GEOMETRIC_ATOL = 1e-13  # a panel below this, and below the one before, ends the refinement


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


@lru_cache(maxsize=256)
def gauss_jacobi_01(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for integral_0^1 (1-x)^alpha x^beta f(x) dx.

    Golub-Welsch (Math. Comp. 23, 1969) for the Jacobi weight
    (1-t)^alpha (1+t)^beta on [-1, 1], mapped by x = (1+t)/2: the nodes are
    the eigenvalues of the symmetric Jacobi matrix, polished by one Newton
    step on P_n, and the weights are B(alpha+1, beta+1) times the squared
    first eigenvector components.  Unlike the Christoffel form
    1 / (P_{n-1} P_n'), these do not inherit the rounding of the nodes, which
    near an endpoint exponent close to -1 costs that form two orders of
    magnitude in the weights.
    """
    if alpha <= -1 or beta <= -1:
        raise NonIntegrableEndpoint(f"Jacobi exponents ({alpha}, {beta}) not integrable")
    ab = alpha + beta
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)  # the k = 0 term is 0/0 at ab = 0
    diag[1:] = (beta * beta - alpha * alpha) / ((2 * k + ab) * (2 * k + ab + 2))
    off = 2.0 / (2 * k + ab) * np.sqrt((k + alpha) * (k + beta) / (2 * k + ab + 1))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + ab) / (2 * k[1:] + ab - 1))  # 0/0 at k = 1
    t, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    t -= _jacobi_newton_step(n, alpha, beta, t)
    mass = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0))
    return 0.5 * (t + 1.0), mass * vec[0] ** 2


def _jacobi_newton_step(n: int, alpha: float, beta: float, t: np.ndarray) -> np.ndarray:
    """P_n / P_n' of the Jacobi family at t, by the three-term recurrence
    and its derivative."""
    ab = alpha + beta
    p_prev, p = np.ones_like(t), 0.5 * ((ab + 2.0) * t + alpha - beta)
    dp_prev, dp = np.zeros_like(t), np.full_like(t, 0.5 * (ab + 2.0))
    for j in range(2, n + 1):
        s = 2 * j + ab
        den = 2 * j * (j + ab) * (s - 2)
        lin = (s - 1) * (s * (s - 2) * t + alpha * alpha - beta * beta) / den
        back = 2 * (j + alpha - 1) * (j + beta - 1) * s / den
        p_prev, p = p, lin * p - back * p_prev
        dp_prev, dp = dp, (s - 1) * s * (s - 2) / den * p_prev + lin * dp - back * dp_prev
    return p / dp


def estimate_endpoint_exponent(f: Callable, end: float, side: float, probe: float = 1e-6) -> float:
    """Smallest per-component growth exponent of f near `end`.

    Samples at distances probe and probe/4 along `side` (+1 for a left
    endpoint, -1 for a right endpoint), from one call of f on both points
    (values with the points on the leading axis, or a constant), and reads
    off the slope of log|f|.
    """
    vals = np.abs(np.asarray(f(end + side * probe / np.array([1.0, 4.0])), dtype=complex))
    v1, v2 = (np.broadcast_to(vals, (2,)) if vals.ndim == 0 else vals).reshape(2, -1)
    seen = np.maximum(v1, v2) >= 1e-13 * max(np.max(v1), np.max(v2), 1e-300)
    slopes = np.log(np.maximum(v1[seen], 1e-300) / np.maximum(v2[seen], 1e-300)) / math.log(4.0)
    return float(np.min(slopes)) if seen.any() else 0.0


def geometric_panels(a: float, b: float, singular_at: float, levels: int):
    """(lo, hi) of the `levels` panels of [a, b] shrinking by GEOMETRIC_RATIO toward singular_at."""
    cuts = GEOMETRIC_RATIO ** np.arange(levels + 1.0) * (b - a)
    return (a + cuts[1:], a + cuts[:-1]) if singular_at == a else (b - cuts[:-1], b - cuts[1:])


def geometric_tail(prev, last):
    """Sum of the panels past `last` at the per-component ratio of the last two (exact on x^e)."""
    decays = np.abs(last) < 0.9 * np.abs(prev)
    r = np.where(decays, last / np.where(decays, prev, 1), 0)
    return last * r / (1.0 - r)


def geometric_endpoint_integral(
    f: Callable,
    a: float,
    b: float,
    singular_at: float,
    nodes: int,
):
    """integral_a^b f(t) dt with an integrable singularity at one endpoint.

    `singular_at` must equal a or b.  Panels shrink geometrically toward the
    singular end; f is called once on the nodes of all of them.  Once panel
    contributions decay geometrically the remaining tail is closed by
    extrapolating the observed ratio, and the later panels are discarded.
    """
    if singular_at not in (a, b):
        raise ValueError("singular_at must be one of the endpoints")
    toward_left = singular_at == a
    length = b - a
    side = +1.0 if toward_left else -1.0
    expo = estimate_endpoint_exponent(f, singular_at, side, probe=min(1e-6, 0.01 * length))
    if expo <= -0.999:
        raise NonIntegrableEndpoint(
            f"measured endpoint exponent {expo:.3f} <= -1 at t={singular_at}"
        )
    lo, hi = geometric_panels(a, b, singular_at, GEOMETRIC_LEVELS)
    # the panels before the first that collapses onto the singular endpoint in float
    kept = (lo < hi) & ((lo > a) if toward_left else (hi < b))
    parts = np.stack([lo, hi], axis=1)[: kept.size if kept.all() else np.argmin(kept)]
    pieces = gauss_legendre_panels(f, parts, nodes)
    # the panels up to the first one below GEOMETRIC_ATOL and below the one before it
    mags = np.abs(pieces).reshape(len(parts), -1).max(axis=1)
    quiet = np.flatnonzero((mags[1:] < GEOMETRIC_ATOL) & (mags[1:] < mags[:-1]))
    count = quiet[0] + 2 if quiet.size else len(parts)
    acc = pieces[:count].sum(axis=0)
    return acc + geometric_tail(pieces[count - 2], pieces[count - 1]) if count > 1 else acc


def adaptive_subdivision_01(f: Callable, nodes: int):
    """integral_0^1 f(t) dt allowing integrable singularities at both ends."""
    return (geometric_endpoint_integral(f, 0.0, 0.5, 0.0, nodes)
            + geometric_endpoint_integral(f, 0.5, 1.0, 1.0, nodes))


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
