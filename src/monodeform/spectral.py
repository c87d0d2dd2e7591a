"""Weighted inner products on [0,1] and first-order eigenvalue shifts.

The operator x(1-x) d^2 + [c-(a+b+1)x] d has the hypergeometric solution y1
as an eigenfunction with eigenvalue ab.  Deforming it by rho*f(x) shifts the
eigenvalue by rho*lambda1 with

    lambda1_raw = int_0^1 |y1|^2 omega f dx,   omega = x^(c-1) (1-x)^(a+b-c).

The literal formula assumes <y1, y1>_omega = 1, which fails for generic
parameters, so the shift is reported both raw and normalized by the measured
<y1, y1>_omega; tests and bounds target the normalized value.

Every inner product uses one rule: geometric subdivision toward both ends
of [0, 1] with `nodes` Gauss-Legendre points per panel.  Integrands
containing y1 carry (1-x)^(c-a-b)-type endpoint families that no single
Jacobi weight absorbs (node-doubling stalls near 1e-5 relative), and the
geometric rule resolves any integrable endpoint algebra to near machine
precision.  The Gauss-Jacobi rule with the weight's own exponents only lays
the nodes at which the hierarchy residual is sampled.  Profiles f are
called once per side of [0, 1], on the node array of all its panels, and
one pass gives every moment the shift, its bound and the Gram matrix need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonIntegrableWeight
from .hypergeom import ConnectedBasis, weight_omega
from .quadrature import adaptive_subdivision_01, gauss_jacobi_01
from .varpar import particular_solution

# the hierarchy residual is sampled on this part of (0, 1), with y11''
# from Richardson differences of y11' at this step
RESIDUAL_WINDOW = (0.05, 0.95)
RESIDUAL_FD_STEP = 1e-3


@dataclass(frozen=True)
class ShiftResult:
    lambda1: complex       # normalized by the measured <y1, y1>_omega
    lambda1_raw: complex   # literal unnormalized value
    norm_y1: float         # measured <y1, y1>_omega
    bound: float           # (int |y1|^4 omega)^(1/2)
    saturation: float      # lambda1_raw / bound (sharp iff f prop. to |y1|^2)


def _check_integrable(a: float, b: float, c: float) -> None:
    if c <= 0 or (a + b - c) <= -1:
        raise NonIntegrableWeight(
            f"weight exponents (c-1, a+b-c) = ({c - 1}, {a + b - c}) not integrable"
        )


@lru_cache(maxsize=32)
def basis_for(a: float, b: float, c: float) -> ConnectedBasis:
    return ConnectedBasis(a, b, c)


def _moments(f: Callable, params: tuple[float, float, float], nodes: int,
             gram: bool) -> np.ndarray:
    """The omega-moments (f|y1|^2, |y1|^2, |y1|^4) and, with `gram`, the
    rest of the Gram matrix (y1 conj(y2), |y2|^2), from one geometric pass
    whose integrand builds W once per side.  Without `gram` the pass does
    not need |y2|^2 omega ~ x^(1-c) to be integrable, which fails for c >= 2."""
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    a, b, c = params
    _check_integrable(a, b, c)
    cb = basis_for(a, b, c)

    def integrand(x):
        w = cb.matrix(x)
        y1, y2 = w[..., 0, 0], w[..., 0, 1]
        om = weight_omega(a, b, c, x)
        y1sq = abs(y1) ** 2
        cols = [f(x) * y1 * np.conj(y1) * om, y1 * np.conj(y1) * om, y1sq * y1sq * om]
        if gram:
            cols += [y1 * np.conj(y2) * om, y2 * np.conj(y2) * om]
        return np.stack(cols, axis=-1)

    return adaptive_subdivision_01(integrand, nodes)


def _shift_result(moments) -> ShiftResult:
    raw, n1, fourth = (complex(m) for m in moments[:3])
    bound = math.sqrt(fourth.real)
    return ShiftResult(lambda1=raw / n1, lambda1_raw=raw, norm_y1=n1.real, bound=bound,
                       saturation=raw.real / bound)


def _gram_report(moments) -> dict:
    g11, g12, g22 = (complex(m) for m in moments[[1, 3, 4]])
    near = abs(g11 - 1) < 1e-6 and abs(g12) < 1e-6 and abs(g22 - 1) < 1e-6
    return {"<y1,y1>": g11, "<y1,y2>": g12, "<y2,y2>": g22, "orthonormal_within_1e-6": near}


def eigenvalue_shift(f: Callable, params: tuple[float, float, float],
                     nodes: int = 24) -> ShiftResult:
    """First-order shift of the eigenvalue ab under the deformation rho*f."""
    return _shift_result(_moments(f, params, nodes, gram=False))


def shift_bound(params: tuple[float, float, float], nodes: int = 24) -> float:
    """Sharp bound for lambda1_raw over omega-normalized f: (int |y1|^4 omega)^(1/2)."""
    return eigenvalue_shift(lambda x: 0.0, params, nodes).bound


def density(params: tuple[float, float, float]) -> Callable:
    """The shift functional's density |y1(x)|^2 omega(x)."""
    a, b, c = params
    cb = basis_for(a, b, c)
    return lambda x: abs(cb.matrix(x)[..., 0, 0]) ** 2 * weight_omega(a, b, c, x).real


def normalized_density_profile(params: tuple[float, float, float]) -> Callable:
    """f = |y1|^2 / ||y1^2||_omega, the omega-normalized equality case."""
    cb = basis_for(*params)
    bound = shift_bound(params)
    return lambda x: abs(cb.matrix(x)[..., 0, 0]) ** 2 / bound


def orthonormality_report(params: tuple[float, float, float], nodes: int = 24) -> dict:
    """Measured Gram matrix of (y1, y2) in the omega inner product.

    The claimed orthonormality does not hold for generic parameters; callers
    get the measured values and the toolkit normalizes by <y1, y1> wherever
    the literal formula would assume 1.
    """
    return _gram_report(_moments(lambda x: 0.0, params, nodes, gram=True))


def hierarchy_shift_residual(
    f: Callable,
    params: tuple[float, float, float],
    nodes: int = 24,
) -> dict:
    """Consistency oracle for the first-order shift.

    Solves the level-1 equation (L - ab) y11 = (lambda1 - f) y1 by variation
    of parameters and reports (i) the weighted-L2 residual of that equation
    with y11'' taken from Richardson finite differences of y11' (so the check
    is independent of the construction identities), and (ii) the omega-inner
    product of the right-hand side with y1, which vanishes exactly when
    lambda1 carries the measured normalization; (ii) is a quadrature of its
    own, not an identity of the moments.  The ShiftResult it checks is
    returned under "shift" and the Gram matrix of orthonormality_report,
    from the same moments pass, under "orthonormality".
    """
    a, b, c = params
    cb = basis_for(a, b, c)
    moments = _moments(f, params, nodes, gram=True)
    shift = _shift_result(moments)
    lam = shift.lambda1

    def forcing(x, w):
        return (lam - f(x)) * w[..., 0, 0] / (x * (1 - x))

    y11 = particular_solution(cb, forcing)

    # y11 at x + h/2, x - h/2, x + h, x - h and x for each window node x, in
    # one call
    x, wts = gauss_jacobi_01(nodes, a + b - c, c - 1.0)
    keep = (RESIDUAL_WINDOW[0] <= x) & (x <= RESIDUAL_WINDOW[1])
    x, wts = x[keep], wts[keep]
    h = RESIDUAL_FD_STEP
    v, d = y11(np.stack([x + h / 2, x - h / 2, x + h, x - h, x], axis=-1))
    ypp = (4.0 * (d[:, 0] - d[:, 1]) / h - (d[:, 2] - d[:, 3]) / (2 * h)) / 3.0
    lhs = x * (1 - x) * ypp + (c - (a + b + 1) * x) * d[:, 4] - a * b * v[:, 4]
    resid = lhs - (lam - f(x)) * cb.matrix(x)[..., 0, 0]
    acc = float(np.sum(wts * abs(resid) ** 2))

    def rhs_integrand(t):
        y1 = cb.matrix(t)[..., 0, 0]
        return (lam - f(t)) * y1 * np.conj(y1) * weight_omega(a, b, c, t)

    rhs_orth = complex(adaptive_subdivision_01(rhs_integrand, nodes))
    return {
        "residual_l2": math.sqrt(acc),
        "rhs_orthogonality": abs(rhs_orth),
        "shift": shift,
        "orthonormality": _gram_report(moments),
    }


def builtin_profile(name: str, params: tuple[float, float, float]) -> Callable:
    """Named test profiles accepted by the CLI: one | x | x(1-x) | density."""
    if name == "one":
        return lambda x: 1.0
    if name == "x":
        return lambda x: x
    if name == "x(1-x)":
        return lambda x: x * (1 - x)
    if name == "density":
        return density(params)
    raise ValueError(f"unknown builtin profile {name!r}")
