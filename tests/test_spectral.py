import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from monodeform.errors import NonIntegrableWeight
from monodeform.quadrature import _gl_rule, gauss_jacobi_01
from monodeform.spectral import (
    QuadratureSpec,
    builtin_profile,
    basis_for,
    density,
    eigenvalue_shift,
    hierarchy_shift_residual,
    inner_product,
    normalized_density_profile,
    orthonormality_report,
    shift_bound,
)

PARAMS = (0.3, 0.7, 1.2)
QUAD = QuadratureSpec()
ONE = lambda x: 1.0


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=4)
    with pytest.raises(ValueError):
        QuadratureSpec(rule="bogus")


def test_inner_product_zero():
    assert abs(inner_product(lambda x: 0.0, lambda x: 0.0, PARAMS, QUAD)) == 0.0


def test_inner_product_unit_weight():
    # a + b = c and c = 1: omega == 1, so <1,1> = 1
    val = inner_product(ONE, ONE, (0.4, 0.6, 1.0), QUAD)
    assert abs(val - 1.0) < 1e-12


def test_inner_product_beta_value_two_rules():
    exact = math.gamma(1.2) * math.gamma(0.8) / math.gamma(2.0)  # B(c, a+b-c+1)
    gj = inner_product(ONE, ONE, PARAMS, QUAD)
    ad = inner_product(ONE, ONE, PARAMS, QuadratureSpec(rule="adaptive-subdivision", nodes=24))
    assert abs(gj - exact) < 1e-12
    assert abs(ad - exact) < 1e-10
    assert abs(gj - ad) < 1e-8 * abs(gj)


def test_inner_product_integrability_guard():
    with pytest.raises(NonIntegrableWeight):
        inner_product(ONE, ONE, (0.3, 0.7, -0.2), QUAD)
    with pytest.raises(NonIntegrableWeight):
        inner_product(ONE, ONE, (0.1, 0.1, 1.5), QUAD)  # a+b-c = -1.3


JACOBI_EXPONENTS = (-0.9, -0.3, 0.0, 0.25, 0.8)


@pytest.mark.parametrize("n", [1, 2, 8, 24, 64])
def test_gauss_jacobi_rule(n):
    # every (alpha, beta) pair of the grid, so alpha = beta and alpha + beta = 0
    # are both covered; x on [0, 1] is (1 + t) / 2 for the rule on [-1, 1]
    for alpha, beta in itertools.product(JACOBI_EXPONENTS, repeat=2):
        x, w = gauss_jacobi_01(n, alpha, beta)
        t, wt = 2.0 * x - 1.0, w * 2.0 ** (alpha + beta + 1.0)
        t_ref, _ = roots_jacobi(n, alpha, beta)
        assert np.max(np.abs(t - t_ref)) <= 1e-15
        # Christoffel numbers in closed form, at 30 digits
        with mpmath.workdps(30):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            const = (mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
                     / (mpmath.gamma(n + a + b + 1) * mpmath.factorial(n)) * 2 ** (a + b + 1))
            for ti, wi in zip(t, wt):
                tm = mpmath.mpf(ti)
                dp = (n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, tm)
                exact = const / ((1 - tm * tm) * dp * dp)
                assert abs(wi - exact) <= 1e-10 * exact
        # x^k against B(alpha+1, beta+k+1), relative: at alpha = -0.9 the
        # moments are near 10, and even the correctly rounded 64-node rule
        # misses them by 1.2e-12 absolute
        for k in range(2 * n):
            moment = math.exp(math.lgamma(alpha + 1) + math.lgamma(beta + k + 1)
                              - math.lgamma(alpha + beta + k + 2))
            assert abs(np.sum(w * x**k) - moment) <= 1e-12 * moment


@pytest.mark.parametrize("n", [1, 2, 8, 16, 20, 24, 64])
def test_gauss_legendre_rule_matches_scipy(n):
    x, w = _gl_rule(n)
    x_ref, w_ref = roots_legendre(n)
    assert np.max(np.abs(x - x_ref)) <= 1e-15
    assert np.max(np.abs(w - w_ref)) <= 1e-13


def test_shift_zero_profile():
    s = eigenvalue_shift(lambda x: 0.0, PARAMS)
    assert abs(s.lambda1) < 1e-14
    assert abs(s.lambda1_raw) < 1e-14


def test_shift_unit_profile_normalization():
    s = eigenvalue_shift(ONE, PARAMS)
    assert abs(s.lambda1 - 1.0) < 1e-9
    assert abs(s.lambda1_raw - s.norm_y1) < 1e-12


def test_shift_linearity():
    s1 = eigenvalue_shift(ONE, PARAMS)
    sx = eigenvalue_shift(lambda x: x, PARAMS)
    combo = eigenvalue_shift(lambda x: 2.0 + 3.0 * x, PARAMS)
    assert abs(combo.lambda1 - 2 * s1.lambda1 - 3 * sx.lambda1) < 1e-9


def test_shift_positivity():
    sx = eigenvalue_shift(lambda x: x, PARAMS)
    assert sx.lambda1.real >= 0
    assert abs(sx.lambda1.imag) < 1e-12


def test_saturation_at_equality_case():
    from monodeform.spectral import SHIFT_QUAD

    feq = normalized_density_profile(PARAMS)
    # the profile is omega-normalized
    assert abs(inner_product(feq, feq, PARAMS, SHIFT_QUAD) - 1.0) < 1e-10
    s = eigenvalue_shift(feq, PARAMS)
    assert abs(s.saturation - 1.0) < 1e-6


def test_saturation_strict_for_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.normal(size=3)

        def f(x, c=coeffs):
            return c[0] + c[1] * x + c[2] * x * (1 - x)

        from monodeform.spectral import SHIFT_QUAD

        norm = math.sqrt(abs(inner_product(f, f, PARAMS, SHIFT_QUAD)))
        g = lambda x: f(x) / norm
        s = eigenvalue_shift(g, PARAMS)
        assert s.saturation <= 1.0 + 1e-8
        assert s.saturation < 1.0  # strict away from the equality profile


def test_quadrature_node_doubling():
    s24 = eigenvalue_shift(lambda x: x, PARAMS,
                           QuadratureSpec(rule="adaptive-subdivision", nodes=24))
    s48 = eigenvalue_shift(lambda x: x, PARAMS,
                           QuadratureSpec(rule="adaptive-subdivision", nodes=48))
    assert abs(s24.lambda1 - s48.lambda1) < 1e-9


def test_bound_matches_y1_fourth_moment():
    from monodeform.spectral import SHIFT_QUAD

    bound = shift_bound(PARAMS)
    cb = basis_for(*PARAMS)
    val = inner_product(lambda x: abs(cb.y1(x)[0]) ** 2,
                        lambda x: abs(cb.y1(x)[0]) ** 2, PARAMS, SHIFT_QUAD)
    assert abs(bound - math.sqrt(val.real)) < 1e-12


def test_orthonormality_is_measured_not_assumed():
    rep = orthonormality_report(PARAMS)
    assert set(rep) >= {"<y1,y1>", "<y1,y2>", "<y2,y2>"}
    # generic parameters: the Gram matrix is far from the identity
    assert abs(rep["<y1,y1>"] - 1.0) > 0.1
    assert rep["orthonormal_within_1e-6"] is False


def test_hierarchy_residual_oracle():
    rep = hierarchy_shift_residual(lambda x: x, PARAMS)
    assert rep["residual_l2"] < 1e-6
    assert rep["rhs_orthogonality"] < 1e-7


def test_builtin_profiles():
    assert builtin_profile("one", PARAMS)(0.3) == 1.0
    assert builtin_profile("x", PARAMS)(0.3) == 0.3
    assert builtin_profile("x(1-x)", PARAMS)(0.25) == pytest.approx(0.1875)
    d = builtin_profile("density", PARAMS)
    assert d(0.5) == pytest.approx(density(PARAMS)(0.5))
    with pytest.raises(ValueError):
        builtin_profile("nope", PARAMS)
