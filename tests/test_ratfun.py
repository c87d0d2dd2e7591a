import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodeform.ratfun import ComplexPoly, RationalFn

finite = st.floats(-5, 5, allow_nan=False)
cnum = st.builds(complex, finite, finite)
poly_coeffs = st.lists(cnum, min_size=0, max_size=5)


def test_trim_and_degree():
    p = ComplexPoly.make([1, 2, 0, 0])
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.degree == 1
    assert ComplexPoly.make([0, 0]).is_zero


def test_eval_horner():
    p = ComplexPoly.make([1, -3, 2])  # 1 - 3x + 2x^2
    assert p(2.0) == 1 - 6 + 8


@given(poly_coeffs, poly_coeffs, cnum)
def test_arithmetic_is_pointwise(a, b, x):
    p, q = ComplexPoly.make(a), ComplexPoly.make(b)
    assert abs((p * q)(x) - p(x) * q(x)) < 1e-9 * (1 + abs(p(x)) * abs(q(x)))


def test_derivative():
    p = ComplexPoly.make([1, 1, 1, 1])
    dp = p.deriv()
    assert dp.coeffs == (1 + 0j, 2 + 0j, 3 + 0j)


def test_roots_roundtrip():
    roots = [1.0 + 0j, -2.0 + 0j, 3j]
    p = ComplexPoly.from_roots(roots, lead=2.0)
    found = sorted(p.roots(), key=lambda z: (z.real, z.imag))
    expect = sorted(roots, key=lambda z: (z.real, z.imag))
    assert max(abs(u - v) for u, v in zip(found, expect)) < 1e-10


def test_rational_reduction_cancels_common_root():
    # (x^2 - 1)/(x - 1) -> x + 1
    num = ComplexPoly.make([-1, 0, 1])
    den = ComplexPoly.make([-1, 1])
    r = RationalFn.make(num, den)
    assert r.den.degree == 0
    assert abs(r(3.0) - 4.0) < 1e-12


def test_rational_den_is_monic():
    r = RationalFn.from_coeffs([1.0], [0.0, 2.0])  # 1/(2x)
    assert abs(r.den.coeffs[-1] - 1.0) < 1e-15
    assert abs(r(0.25) - 2.0) < 1e-12


@given(st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), min_size=0, max_size=3),
       cnum)
def test_common_factor_invariance(roots, x):
    # well-scaled common factors (bounded roots, unit leading coefficient)
    base = RationalFn.from_coeffs([1.0, 1.0], [0.0, 1.0])  # (1+x)/x
    factor = ComplexPoly.from_roots(roots)
    scaled = RationalFn.make(base.num * factor, base.den * factor)
    if abs(x) > 1e-2 and all(abs(x - r) > 1e-2 for r in roots):
        assert abs(scaled(x) - base(x)) < 1e-6 * (1 + abs(base(x)))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn.make(ComplexPoly.one(), ComplexPoly.zero())


def test_poles_and_reciprocal():
    r = RationalFn.from_coeffs([1.0], [-4.0, 0.0, 1.0])  # 1/(x^2-4)
    poles = sorted(r.poles(), key=lambda z: z.real)
    assert abs(poles[0] + 2) < 1e-9 and abs(poles[1] - 2) < 1e-9
    rr = RationalFn.make(r.den, r.num)
    assert abs(rr(3.0) - 5.0) < 1e-12

