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
the nodes at which the hierarchy residual is sampled.  Profiles f and the
functions passed in are called once per panel, on its node array.
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


def _solution(cb: ConnectedBasis, j: int) -> Callable:
    """x -> y1(x) (j = 0) or y2(x) (j = 1) of `cb`, over node arrays."""
    return lambda x: cb.matrix(x)[..., 0, j]


def inner_product(
    f: Callable,
    g: Callable,
    params: tuple[float, float, float],
    nodes: int = 24,
) -> complex:
    """<f, g>_omega = int_0^1 f(x) conj(g(x)) omega(x) dx."""
    if nodes < 8:
        raise ValueError("need at least 8 quadrature nodes")
    a, b, c = params
    _check_integrable(a, b, c)
    integrand = lambda x: f(x) * np.conj(g(x)) * weight_omega(a, b, c, x)
    return complex(adaptive_subdivision_01(integrand, nodes))


def eigenvalue_shift(
    f: Callable,
    params: tuple[float, float, float],
    nodes: int = 24,
) -> ShiftResult:
    """First-order shift of the eigenvalue ab under the deformation rho*f."""
    a, b, c = params
    _check_integrable(a, b, c)
    y1 = _solution(basis_for(a, b, c), 0)
    fy1 = lambda x: f(x) * y1(x)
    raw = inner_product(fy1, y1, params, nodes)
    n1 = inner_product(y1, y1, params, nodes)
    bound = shift_bound(params, nodes)
    lam = raw / n1
    return ShiftResult(
        lambda1=complex(lam),
        lambda1_raw=complex(raw),
        norm_y1=float(n1.real),
        bound=bound,
        saturation=float(raw.real / bound),
    )


def shift_bound(params: tuple[float, float, float], nodes: int = 24) -> float:
    """Sharp bound for lambda1_raw over omega-normalized f: (int |y1|^4 omega)^(1/2)."""
    a, b, c = params
    _check_integrable(a, b, c)
    y1 = _solution(basis_for(a, b, c), 0)
    y1sq = lambda x: abs(y1(x)) ** 2
    val = inner_product(y1sq, y1sq, params, nodes)
    return math.sqrt(val.real)


def density(params: tuple[float, float, float]) -> Callable:
    """The shift functional's density |y1(x)|^2 omega(x)."""
    a, b, c = params
    y1 = _solution(basis_for(a, b, c), 0)
    return lambda x: abs(y1(x)) ** 2 * weight_omega(a, b, c, x).real


def normalized_density_profile(params: tuple[float, float, float]) -> Callable:
    """f = |y1|^2 / ||y1^2||_omega, the omega-normalized equality case."""
    y1 = _solution(basis_for(*params), 0)
    bound = shift_bound(params)
    return lambda x: abs(y1(x)) ** 2 / bound


def orthonormality_report(params: tuple[float, float, float], nodes: int = 24) -> dict:
    """Measured Gram matrix of (y1, y2) in the omega inner product.

    The claimed orthonormality does not hold for generic parameters; callers
    get the measured values and the toolkit normalizes by <y1, y1> wherever
    the literal formula would assume 1.
    """
    cb = basis_for(*params)
    y1, y2 = _solution(cb, 0), _solution(cb, 1)
    g11 = inner_product(y1, y1, params, nodes)
    g12 = inner_product(y1, y2, params, nodes)
    g22 = inner_product(y2, y2, params, nodes)
    return {
        "<y1,y1>": complex(g11),
        "<y1,y2>": complex(g12),
        "<y2,y2>": complex(g22),
        "orthonormal_within_1e-6": bool(abs(g11 - 1) < 1e-6 and abs(g12) < 1e-6
                                        and abs(g22 - 1) < 1e-6),
    }


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
    lambda1 carries the measured normalization.  The ShiftResult it checks
    is returned under "shift".
    """
    a, b, c = params
    cb = basis_for(a, b, c)
    y1 = _solution(cb, 0)
    shift = eigenvalue_shift(f, params, nodes)
    lam = shift.lambda1

    def forcing(x):
        return (lam - f(x)) * y1(x) / (x * (1 - x))

    y11 = particular_solution(cb, forcing)

    def residual_at(x: float) -> complex:
        def d1(h):
            return (y11(x + h)[1] - y11(x - h)[1]) / (2 * h)

        ypp = (4.0 * d1(RESIDUAL_FD_STEP / 2) - d1(RESIDUAL_FD_STEP)) / 3.0
        v, d = y11(x)
        lhs = x * (1 - x) * ypp + (c - (a + b + 1) * x) * d - a * b * v
        return lhs - (lam - f(x)) * y1(x)

    x, w = gauss_jacobi_01(nodes, a + b - c, c - 1.0)
    acc = 0.0
    for xi, wi in zip(x, w):
        if RESIDUAL_WINDOW[0] <= xi <= RESIDUAL_WINDOW[1]:
            acc += wi * abs(residual_at(xi)) ** 2
    rhs_orth = inner_product(lambda t: (lam - f(t)) * y1(t), y1, params, nodes)
    return {
        "residual_l2": math.sqrt(acc),
        "rhs_orthogonality": abs(rhs_orth),
        "shift": shift,
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
