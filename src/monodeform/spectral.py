"""Weighted inner products on [0,1] and first-order eigenvalue shifts.

The operator x(1-x) d^2 + [c-(a+b+1)x] d has the hypergeometric solution y1
as an eigenfunction with eigenvalue ab.  Deforming it by rho*f(x) shifts the
eigenvalue by rho*lambda1 with

    lambda1_raw = int_0^1 |y1|^2 omega f dx,   omega = x^(c-1) (1-x)^(a+b-c).

The literal formula assumes <y1, y1>_omega = 1, which fails for generic
parameters, so the shift is reported both raw and normalized by the measured
<y1, y1>_omega; tests and bounds target the normalized value.

Two quadrature rules are available.  The endpoint-weighted Gauss-Jacobi rule
with the weight's own exponents is exact for smooth-times-omega integrands
and is the default for inner_product.  Integrands containing y1 additionally
carry (1-x)^(c-a-b)-type endpoint families that no single Jacobi weight
absorbs (node-doubling stalls near 1e-5 relative), so the shift computations
default to the adaptive geometric-subdivision rule, which resolves arbitrary
integrable endpoint algebra to near machine precision; the Jacobi rule
remains the smooth-integrand cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NonIntegrableWeight
from .hypergeom import ConnectedBasis, weight_omega
from .quadrature import adaptive_subdivision_01, gauss_jacobi_01
from .varpar import particular_solution

RULE_ENDPOINT = "gauss-jacobi-endpoint"
RULE_ADAPTIVE = "adaptive-subdivision"


@dataclass(frozen=True)
class QuadratureSpec:
    rule: str = RULE_ENDPOINT
    nodes: int = 64

    def __post_init__(self):
        if self.rule not in (RULE_ENDPOINT, RULE_ADAPTIVE):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if self.nodes < 8:
            raise ValueError("need at least 8 quadrature nodes")


@dataclass(frozen=True)
class ShiftResult:
    lambda1: complex       # normalized by the measured <y1, y1>_omega
    lambda1_raw: complex   # literal unnormalized value
    norm_y1: float         # measured <y1, y1>_omega
    bound: float           # (int |y1|^4 omega)^(1/2)
    saturation: float      # lambda1_raw / bound (sharp iff f prop. to |y1|^2)


# shift integrands carry y1's own endpoint families; the geometric rule
# resolves them regardless of exponent
SHIFT_QUAD = QuadratureSpec(rule=RULE_ADAPTIVE, nodes=24)


def _check_integrable(a: float, b: float, c: float) -> None:
    if c <= 0 or (a + b - c) <= -1:
        raise NonIntegrableWeight(
            f"weight exponents (c-1, a+b-c) = ({c - 1}, {a + b - c}) not integrable"
        )


@lru_cache(maxsize=32)
def basis_for(a: float, b: float, c: float) -> ConnectedBasis:
    return ConnectedBasis(a, b, c)


def inner_product(
    f: Callable[[float], complex],
    g: Callable[[float], complex],
    params: tuple[float, float, float],
    quad: QuadratureSpec = QuadratureSpec(),
) -> complex:
    """<f, g>_omega = int_0^1 f(x) conj(g(x)) omega(x) dx."""
    a, b, c = params
    _check_integrable(a, b, c)
    if quad.rule == RULE_ENDPOINT:
        x, w = gauss_jacobi_01(quad.nodes, a + b - c, c - 1.0)
        return complex(sum(wi * f(xi) * np.conj(g(xi)) for xi, wi in zip(x, w)))
    integrand = lambda x: f(x) * np.conj(g(x)) * weight_omega(a, b, c, x)
    return complex(adaptive_subdivision_01(integrand, nodes=quad.nodes, atol=1e-13))


def eigenvalue_shift(
    f: Callable[[float], complex],
    params: tuple[float, float, float],
    quad: Optional[QuadratureSpec] = None,
) -> ShiftResult:
    """First-order shift of the eigenvalue ab under the deformation rho*f."""
    a, b, c = params
    _check_integrable(a, b, c)
    if quad is None:
        quad = SHIFT_QUAD
    cb = basis_for(a, b, c)
    y1 = lambda x: cb.y1(x)[0]
    fy1 = lambda x: f(x) * cb.y1(x)[0]
    raw = inner_product(fy1, y1, params, quad)
    n1 = inner_product(y1, y1, params, quad)
    bound = shift_bound(params, quad)
    lam = raw / n1
    return ShiftResult(
        lambda1=complex(lam),
        lambda1_raw=complex(raw),
        norm_y1=float(n1.real),
        bound=bound,
        saturation=float(raw.real / bound),
    )


def shift_bound(
    params: tuple[float, float, float], quad: Optional[QuadratureSpec] = None
) -> float:
    """Sharp bound for lambda1_raw over omega-normalized f: (int |y1|^4 omega)^(1/2)."""
    a, b, c = params
    _check_integrable(a, b, c)
    if quad is None:
        quad = SHIFT_QUAD
    cb = basis_for(a, b, c)
    y1sq = lambda x: abs(cb.y1(x)[0]) ** 2
    val = inner_product(y1sq, y1sq, params, quad)
    return math.sqrt(val.real)


def density(params: tuple[float, float, float]) -> Callable[[float], float]:
    """The shift functional's density |y1(x)|^2 omega(x)."""
    a, b, c = params
    cb = basis_for(a, b, c)
    return lambda x: abs(cb.y1(x)[0]) ** 2 * weight_omega(a, b, c, x).real


def normalized_density_profile(
    params: tuple[float, float, float], quad: Optional[QuadratureSpec] = None
) -> Callable[[float], float]:
    """f = |y1|^2 / ||y1^2||_omega, the omega-normalized equality case."""
    a, b, c = params
    cb = basis_for(a, b, c)
    bound = shift_bound(params, quad)
    return lambda x: abs(cb.y1(x)[0]) ** 2 / bound


def orthonormality_report(
    params: tuple[float, float, float], quad: Optional[QuadratureSpec] = None
) -> dict:
    """Measured Gram matrix of (y1, y2) in the omega inner product.

    The claimed orthonormality does not hold for generic parameters; callers
    get the measured values and the toolkit normalizes by <y1, y1> wherever
    the literal formula would assume 1.
    """
    if quad is None:
        quad = SHIFT_QUAD
    a, b, c = params
    cb = basis_for(a, b, c)
    y1 = lambda x: cb.y1(x)[0]
    y2 = lambda x: cb.y2(x)[0]
    g11 = inner_product(y1, y1, params, quad)
    g12 = inner_product(y1, y2, params, quad)
    g22 = inner_product(y2, y2, params, quad)
    return {
        "<y1,y1>": complex(g11),
        "<y1,y2>": complex(g12),
        "<y2,y2>": complex(g22),
        "orthonormal_within_1e-6": bool(abs(g11 - 1) < 1e-6 and abs(g12) < 1e-6
                                        and abs(g22 - 1) < 1e-6),
    }


def hierarchy_shift_residual(
    f: Callable[[float], complex],
    params: tuple[float, float, float],
    quad: Optional[QuadratureSpec] = None,
    window: tuple[float, float] = (0.05, 0.95),
    fd_step: float = 1e-3,
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
    if quad is None:
        quad = SHIFT_QUAD
    a, b, c = params
    cb = basis_for(a, b, c)
    shift = eigenvalue_shift(f, params, quad)
    lam = shift.lambda1

    def forcing(x: float) -> complex:
        return (lam - f(x)) * cb.y1(x)[0] / (x * (1 - x))

    y11 = particular_solution(cb, forcing)

    def residual_at(x: float) -> complex:
        def d1(h):
            return (y11(x + h)[1] - y11(x - h)[1]) / (2 * h)

        ypp = (4.0 * d1(fd_step / 2) - d1(fd_step)) / 3.0
        v, d = y11(x)
        lhs = x * (1 - x) * ypp + (c - (a + b + 1) * x) * d - a * b * v
        return lhs - (lam - f(x)) * cb.y1(x)[0]

    x, w = gauss_jacobi_01(quad.nodes, a + b - c, c - 1.0)
    acc = 0.0
    for xi, wi in zip(x, w):
        if window[0] <= xi <= window[1]:
            acc += wi * abs(residual_at(xi)) ** 2
    rhs_orth = inner_product(lambda t: (lam - f(t)) * cb.y1(t)[0],
                             lambda t: cb.y1(t)[0], params, quad)
    return {
        "residual_l2": math.sqrt(acc),
        "rhs_orthogonality": abs(rhs_orth),
        "shift": shift,
    }


def builtin_profile(name: str, params: tuple[float, float, float]) -> Callable[[float], complex]:
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
