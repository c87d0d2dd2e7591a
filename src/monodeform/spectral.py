"""Weighted inner products on [0,1] and first-order eigenvalue shifts.

The operator x(1-x) d^2 + [c-(a+b+1)x] d has the hypergeometric solution y1
as an eigenfunction with eigenvalue ab.  Deforming it by rho*f(x) shifts the
eigenvalue by rho*lambda1 with

    lambda1_raw = int_0^1 |y1|^2 omega f dx,   omega = x^(c-1) (1-x)^(a+b-c).

The literal formula assumes <y1, y1>_omega = 1, which fails for generic
parameters, so the shift is reported both raw and normalized by the measured
<y1, y1>_omega; tests and bounds target the normalized value.

Every inner product uses one rule: geometric subdivision toward both ends
of [0, 1] with `nodes` Gauss-Legendre points per panel, on the distance t to
each end, so that W and omega near 1 are summed on t itself, not on a 1 - x
that rounds.  The endpoint exponents of each integrand are exact functions
of (a, b, c): omega has x^(c-1) and (1-x)^(a+b-c), y1 and y2 have the Gauss
exponents {0, 1-c} at 0 and {0, c-a-b} at 1.  They set the verdict and, per
(triple, end), the number of panels, so every pass over a triple lays the
same node sets and the W memo serves them.  A profile f is bounded on
[0, 1] unless it carries `endpoint_exponents`, as `density` and
`normalized_density_profile` do.  Profiles are called once per side of
[0, 1], on the node array of all its panels, and one pass gives every
moment the shift, its bound and the Gram matrix need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonIntegrableWeight
from .hypergeom import SERIES_TOL, ConnectedBasis, weight_omega
from .quadrature import (LEAST_EXPONENT, gauss_legendre_panels, geometric_endpoint_integral,
                         geometric_levels)
from .varpar import particular_solution

# the hierarchy residual is sampled on this part of (0, 1), with y11''
# from Richardson differences of y11' at this step
RESIDUAL_WINDOW = (0.05, 0.95)
RESIDUAL_FD_STEP = 1e-3
COLUMNS = ("f|y1|^2 omega", "|y1|^2 omega", "|y1|^4 omega", "y1 conj(y2) omega", "|y2|^2 omega")


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


def _levels(params: tuple[float, float, float], f: Callable, gram: bool) -> list[int]:
    """Panels toward 0 and toward 1.  Each of COLUMNS is a sum of series in t, the distance
    to the end, that start at the powers `cols` lists: at 1 some of (a+b-c) + k (c-a-b).  The
    verdict comes from the least power of the columns computed (the first three, all five
    with `gram`), the depth from the next power of every column whose tail closes, so that
    passes with and without `gram` share nodes."""
    a, b, c = params
    s = c - a - b
    pair = (-s, 0.0, s)  # y_i conj(y_j) omega at 1
    levels = []
    for end, fe in enumerate(getattr(f, "endpoint_exponents", (0.0, 0.0))):
        cols = ([(fe + c - 1,), (c - 1,), (c - 1,), (0.0,), (1 - c,)] if end == 0 else
                [tuple(fe + e for e in pair), pair, (-s, 0.0, s, 2 * s, 3 * s), pair, pair])
        least, what = min((min(col), name) for col, name in zip(cols[: 5 if gram else 3], COLUMNS))
        nexts = [sorted({*col, *(e + 1 for e in col)})[1] for col in cols
                 if min(col) > LEAST_EXPONENT]
        levels.append(geometric_levels(least, 1 + min(nexts, default=0.0), SERIES_TOL, what, end))
    return levels


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

    def integrand(t, side):
        w = cb.matrix(t, side)
        y1, y2 = w[..., 0, 0], w[..., 0, 1]
        om = weight_omega(a, b, c, t, side)
        y1sq = abs(y1) ** 2
        # f at t (side 0) or 1 - t (side 1), on t itself if f carries its exponents
        ft = f(t) if side == 0 else f(t, 1) if hasattr(f, "endpoint_exponents") else f(1 - t)
        cols = [ft * y1 * np.conj(y1) * om, y1 * np.conj(y1) * om, y1sq * y1sq * om]
        if gram:
            cols += [y1 * np.conj(y2) * om, y2 * np.conj(y2) * om]
        return np.stack(cols, axis=-1)

    levels = _levels(params, f, gram)
    return sum(geometric_endpoint_integral(lambda t: integrand(t, side), 0.5, levels[side], nodes)
               for side in (0, 1))


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
    """The shift functional's density |y1(x)|^2 omega(x), at the points 1 - x with
    side=1 as in ConnectedBasis.matrix; it carries its endpoint exponents."""
    a, b, c = params
    cb = basis_for(a, b, c)

    def profile(x, side=0):
        return abs(cb.matrix(x, side)[..., 0, 0]) ** 2 * weight_omega(a, b, c, x, side).real

    profile.endpoint_exponents = (c - 1, -abs(c - a - b))
    return profile


def normalized_density_profile(params: tuple[float, float, float]) -> Callable:
    """f = |y1|^2 / ||y1^2||_omega, the omega-normalized equality case, at the points
    1 - x with side=1; it carries its endpoint exponents."""
    a, b, c = params
    cb = basis_for(a, b, c)
    bound = shift_bound(params)

    def profile(x, side=0):
        return abs(cb.matrix(x, side)[..., 0, 0]) ** 2 / bound

    profile.endpoint_exponents = (0.0, min(0.0, 2 * (c - a - b)))
    return profile


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
    product of the right-hand side with y1, |lambda1 <y1, y1> - <f y1, y1>|,
    read from the moments: it is zero up to rounding when lambda1 carries the
    measured normalization, as it does.  The ShiftResult it checks is
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

    def weighted_square(x):
        # y11 at x + h/2, x - h/2, x + h, x - h and x for each node x, in one call
        h = RESIDUAL_FD_STEP
        v, d = y11(np.stack([x + h / 2, x - h / 2, x + h, x - h, x], axis=-1))
        ypp = (4.0 * (d[:, 0] - d[:, 1]) / h - (d[:, 2] - d[:, 3]) / (2 * h)) / 3.0
        lhs = x * (1 - x) * ypp + (c - (a + b + 1) * x) * d[:, 4] - a * b * v[:, 4]
        resid = lhs - (lam - f(x)) * cb.matrix(x)[..., 0, 0]
        return abs(resid) ** 2 * weight_omega(a, b, c, x).real

    acc = float(gauss_legendre_panels(weighted_square, [RESIDUAL_WINDOW], nodes)[0])
    raw, n1 = (complex(m) for m in moments[:2])
    return {
        "residual_l2": math.sqrt(acc),
        "rhs_orthogonality": abs(lam * n1 - raw),
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
