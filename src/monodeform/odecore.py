"""Rational-coefficient linear ODE systems and their perturbations.

A scalar equation y^(n) + A_{n-1} y^(n-1) + ... + A_0 y = 0 with rational
coefficients reduces to the first-order system psi' = A(x) psi in the
standard companion frame (state (y, y', ..., y^(n-1)), superdiagonal ones,
last row -A_0 ... -A_{n-1}).  Perturbed systems psi' = (A + rho*B) psi carry
B in one of three shapes: meromorphic H(x), power-weighted x^lam * H(x), or
logarithmic log(x) * H(x); the multivalued weights are evaluated on a
continuously tracked branch.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import BranchRequired, UnsupportedKind
from .ratfun import ComplexPoly, RationalFn

DEDUP_TOL = 1e-9

KIND_MEROMORPHIC = "meromorphic"
KIND_POWER = "power"
KIND_LOG = "log"
KINDS = (KIND_MEROMORPHIC, KIND_POWER, KIND_LOG)


def exclusion_radius(x: complex) -> float:
    """Radius around a pole at x that paths and sample points keep clear of."""
    return 1e-6 * (1.0 + abs(x))


def _dedup(points: Sequence[complex]) -> list[complex]:
    out: list[complex] = []
    for p in points:
        if not any(abs(p - q) <= DEDUP_TOL * (1.0 + abs(p)) for q in out):
            out.append(p)
    return sorted(out, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _poles(grid) -> tuple[complex, ...]:
    """The poles of a square grid of rational functions, deduplicated."""
    return tuple(_dedup([p for row in grid for e in row for p in e.poles()]))


def _evaluate(grid, x) -> np.ndarray:
    """A square grid of rational functions at x: (dim, dim) at one point, in
    Python complex arithmetic, or the stack x.shape + (dim, dim) over a node
    array; zero entries are left at zero."""
    out = np.zeros(getattr(x, "shape", ()) + (len(grid), len(grid)), dtype=complex)
    for i, row in enumerate(grid):
        for j, e in enumerate(row):
            if not e.is_zero:
                out[..., i, j] = e(x)
    return out


@dataclass(frozen=True)
class ScalarODE:
    """Monic scalar equation y^(n) + coeffs[n-1] y^(n-1) + ... + coeffs[0] y = 0."""

    order: int
    coeffs: tuple[RationalFn, ...]  # A_0, ..., A_{n-1}

    def __post_init__(self):
        if self.order < 1 or len(self.coeffs) != self.order:
            raise ValueError("ScalarODE needs exactly `order` coefficients A_0..A_{n-1}")

    def residual(self, x: complex, derivs: Sequence[complex]) -> complex:
        """y^(n) + sum A_k y^(k) given derivs = (y, y', ..., y^(n))."""
        if len(derivs) != self.order + 1:
            raise ValueError("need derivatives up to order n")
        acc = derivs[self.order]
        for k, a in enumerate(self.coeffs):
            acc += a(x) * derivs[k]
        return acc


@dataclass(frozen=True)
class MeromorphicSystem:
    """First-order system psi' = A(x) psi with rational entries."""

    dim: int
    entries: tuple[tuple[RationalFn, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise ValueError("entries must form a dim x dim grid")

    @cached_property
    def singularities(self) -> tuple[complex, ...]:
        return _poles(self.entries)

    def evaluate(self, x) -> np.ndarray:
        """A(x); a node array of x gives the stack x.shape + (dim, dim)."""
        return _evaluate(self.entries, x)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation matrix B(x): H, x^lam * H, or log(x) * H."""

    kind: str
    H: tuple[tuple[RationalFn, ...], ...]
    lam: Optional[complex] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedKind(f"unknown perturbation kind {self.kind!r}")
        if self.kind == KIND_POWER and self.lam is None:
            raise ValueError("power-weighted perturbation needs an exponent")

    @property
    def multivalued(self) -> bool:
        return self.kind in (KIND_POWER, KIND_LOG)

    @cached_property
    def poles(self) -> tuple[complex, ...]:
        return _poles(self.H)

    def h_matrix(self, x) -> np.ndarray:
        """H(x); a node array of x gives the stack x.shape + (dim, dim)."""
        return _evaluate(self.H, x)

    def weight(self, x, branch=None):
        """The scalar factor at x: x^lam or log x on the tracked branch, 1 for
        meromorphic kinds.  Over a node array (a branch state whose arguments
        are arrays) numpy gives the factor at every node; one point uses cmath."""
        if self.kind == KIND_MEROMORPHIC:
            return 1.0 + 0j
        if branch is None:
            raise BranchRequired(f"kind {self.kind!r} needs a branch state at x={x}")
        xp = np if isinstance(x, np.ndarray) else cmath
        logx = xp.log(abs(x)) + 1j * branch.arg(0j)
        if self.kind == KIND_LOG:
            return logx
        return xp.exp(self.lam * logx)


def companion(ode: ScalarODE) -> MeromorphicSystem:
    """Companion system: superdiagonal ones, last row (-A_0, ..., -A_{n-1})."""
    n = ode.order
    zero, one = RationalFn.zero(), RationalFn.const(1.0)
    rows = []
    for i in range(n - 1):
        rows.append(tuple(one if j == i + 1 else zero for j in range(n)))
    rows.append(tuple(a.scale(-1.0) for a in ode.coeffs))
    return MeromorphicSystem(n, tuple(rows))


# --- JSON decoding -------------------------------------------------------
# Polynomials are read as [[re, im], ...] ascending in degree; kinds use the
# string tags "meromorphic" | "power" | "log"; scalars as [re, im].


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _j2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def poly_from_json(data) -> ComplexPoly:
    return ComplexPoly.make([_j2c(v) for v in data])


def ratfn_from_json(data) -> RationalFn:
    return RationalFn.make(poly_from_json(data["num"]), poly_from_json(data["den"]))


def scalar_ode_from_json(data) -> ScalarODE:
    return ScalarODE(int(data["order"]), tuple(ratfn_from_json(c) for c in data["coeffs"]))


def system_from_json(data) -> MeromorphicSystem:
    return MeromorphicSystem(
        int(data["dim"]),
        tuple(tuple(ratfn_from_json(e) for e in row) for row in data["entries"]),
    )


def perturbation_from_json(data) -> PerturbationSpec:
    lam = _j2c(data["lambda"]) if "lambda" in data else None
    return PerturbationSpec(
        data["kind"],
        tuple(tuple(ratfn_from_json(e) for e in row) for row in data["H"]),
        lam,
    )
