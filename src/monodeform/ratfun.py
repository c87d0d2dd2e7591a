"""Polynomials and reduced rational functions with complex coefficients.

Coefficients are stored ascending in degree. Rational functions are kept
reduced: common roots of numerator and denominator (matched within a root
tolerance) are cancelled, and the denominator is normalized monic.  Both
evaluate at one point in Python complex arithmetic, or elementwise over a
numpy array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ROOT_MATCH_TOL = 1e-9


def _trim(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class ComplexPoly:
    """Polynomial sum(coeffs[k] * x**k); empty coeffs is the zero polynomial."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def make(coeffs: Iterable[complex]) -> "ComplexPoly":
        return ComplexPoly(_trim(list(coeffs)))

    @staticmethod
    def zero() -> "ComplexPoly":
        return ComplexPoly(())

    @staticmethod
    def one() -> "ComplexPoly":
        return ComplexPoly((1.0 + 0j,))

    @staticmethod
    def const(z: complex) -> "ComplexPoly":
        return ComplexPoly.make([z])

    @staticmethod
    def from_roots(roots: Sequence[complex], lead: complex = 1.0) -> "ComplexPoly":
        c = np.polynomial.polynomial.polyfromroots(roots) if len(roots) else np.array([1.0 + 0j])
        return ComplexPoly.make([lead * z for z in c.astype(complex)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self) -> "ComplexPoly":
        return ComplexPoly.make([k * c for k, c in enumerate(self.coeffs)][1:])

    def scale(self, z: complex) -> "ComplexPoly":
        return ComplexPoly.make([z * c for c in self.coeffs])

    def __mul__(self, other: "ComplexPoly") -> "ComplexPoly":
        if self.is_zero or other.is_zero:
            return ComplexPoly.zero()
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ComplexPoly.make(out)

    def roots(self) -> list[complex]:
        """All roots, via the companion-matrix eigenvalues of the polynomial."""
        if self.degree < 1:
            return []
        arr = np.array(self.coeffs, dtype=complex)
        return [complex(r) for r in np.polynomial.polynomial.polyroots(arr)]

    def monic(self) -> "ComplexPoly":
        if self.is_zero:
            return self
        return self.scale(1.0 / self.coeffs[-1])


def _match_roots(rn: list[complex], rd: list[complex]) -> tuple[list[complex], list[complex]]:
    """Cancel numerator/denominator roots that agree within ROOT_MATCH_TOL."""
    rn = list(rn)
    rd_left = []
    for r in rd:
        hit = None
        for i, s in enumerate(rn):
            if abs(r - s) <= ROOT_MATCH_TOL * (1.0 + abs(r)):
                hit = i
                break
        if hit is None:
            rd_left.append(r)
        else:
            rn.pop(hit)
    return rn, rd_left


@dataclass(frozen=True)
class RationalFn:
    """Reduced ratio num/den; den is monic and shares no root with num."""

    num: ComplexPoly
    den: ComplexPoly

    @staticmethod
    def make(num: ComplexPoly, den: ComplexPoly) -> "RationalFn":
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RationalFn(ComplexPoly.zero(), ComplexPoly.one())
        if den.degree == 0:
            return RationalFn(num.scale(1.0 / den.coeffs[0]), ComplexPoly.one())
        rn, rd = num.roots(), den.roots()
        rn2, rd2 = _match_roots(rn, rd)
        if len(rd2) == len(rd):
            lead = den.coeffs[-1]
            return RationalFn(num.scale(1.0 / lead), den.monic())
        scale = num.coeffs[-1] / den.coeffs[-1]
        return RationalFn(ComplexPoly.from_roots(rn2, scale), ComplexPoly.from_roots(rd2))

    @staticmethod
    def from_coeffs(num: Iterable[complex], den: Iterable[complex] = (1.0,)) -> "RationalFn":
        return RationalFn.make(ComplexPoly.make(num), ComplexPoly.make(den))

    @staticmethod
    def const(z: complex) -> "RationalFn":
        return RationalFn(ComplexPoly.const(z), ComplexPoly.one())

    @staticmethod
    def zero() -> "RationalFn":
        return RationalFn(ComplexPoly.zero(), ComplexPoly.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, x: complex) -> complex:
        return self.num(x) / self.den(x)

    def poles(self) -> list[complex]:
        return self.den.roots()

    def scale(self, z: complex) -> "RationalFn":
        return RationalFn(self.num.scale(z), self.den)
