import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from monodeform import spectral
from monodeform.errors import NonIntegrableWeight
from monodeform.hypergeom import weight_omega
from monodeform.quadrature import (
    GEOMETRIC_LEVELS,
    _gl_rule,
    adaptive_subdivision_01,
    gauss_jacobi_01,
    gauss_legendre_panels,
    geometric_endpoint_integral,
)
from monodeform.spectral import (
    builtin_profile,
    basis_for,
    density,
    eigenvalue_shift,
    hierarchy_shift_residual,
    normalized_density_profile,
    orthonormality_report,
    shift_bound,
)

PARAMS = (0.3, 0.7, 1.2)
ONE = lambda x: 1.0


def _omega_integral(g, params, nodes=24):
    """int_0^1 g omega dx by the geometric rule of the spectral moments."""
    a, b, c = params
    return complex(adaptive_subdivision_01(lambda x: g(x) * weight_omega(a, b, c, x), nodes))


def test_quadrature_spec_validation():
    for entry in (lambda n: eigenvalue_shift(ONE, PARAMS, nodes=n),
                  lambda n: shift_bound(PARAMS, nodes=n),
                  lambda n: orthonormality_report(PARAMS, nodes=n),
                  lambda n: hierarchy_shift_residual(ONE, PARAMS, nodes=n)):
        for n in (4, 7):
            with pytest.raises(ValueError):
                entry(n)


def test_inner_product_zero():
    # the f-moment of the zero profile is exactly zero inside the stacked pass
    assert eigenvalue_shift(lambda x: 0.0, PARAMS).lambda1_raw == 0.0


def test_inner_product_unit_weight():
    # a + b = c and c = 1: omega == 1, so <1,1> = 1
    val = _omega_integral(ONE, (0.4, 0.6, 1.0))
    assert abs(val - 1.0) < 1e-12


def test_inner_product_beta_value_two_rules():
    # the geometric rule against the Gauss-Jacobi rule with omega's exponents
    a, b, c = PARAMS
    exact = math.gamma(1.2) * math.gamma(0.8) / math.gamma(2.0)  # B(c, a+b-c+1)
    gj = float(np.sum(gauss_jacobi_01(64, a + b - c, c - 1.0)[1]))
    ad = _omega_integral(ONE, PARAMS)
    assert abs(gj - exact) < 1e-12
    assert abs(ad - exact) < 1e-10
    assert abs(gj - ad) < 1e-8 * abs(gj)


def test_inner_product_integrability_guard():
    for params in ((0.3, 0.7, -0.2), (0.1, 0.1, 1.5)):  # c < 0; a+b-c = -1.3
        with pytest.raises(NonIntegrableWeight):
            eigenvalue_shift(ONE, params)
        with pytest.raises(NonIntegrableWeight):
            orthonormality_report(params)
        with pytest.raises(NonIntegrableWeight):
            hierarchy_shift_residual(ONE, params)


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


@pytest.mark.parametrize("shape", [(), (5,), (2, 2)])
def test_gauss_legendre_panels_equal_per_panel_sums(shape):
    # one contraction over all panels gives each panel's own tensordot sum,
    # for scalar, vector and matrix-valued integrands
    n = 24
    parts = [(0.5 * 0.25 ** (k + 1), 0.5 * 0.25 ** k) for k in range(12)]
    rng = np.random.default_rng(7)
    coef = rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)

    def f(x):
        x = np.reshape(x, (-1,) + (1,) * len(shape))
        return coef[0] * x ** -0.4 + coef[1] * np.log(x) + coef[2]

    x, w = _gl_rule(n)
    ref = []
    for lo, hi in parts:
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        ref.append(0.5 * (hi - lo) * np.tensordot(w, f(nodes), axes=1))
    got = gauss_legendre_panels(f, parts, n)
    assert got.shape == (len(parts),) + shape
    for piece, want in zip(got, ref):
        assert np.max(np.abs(piece - want)) <= 1e-15 * np.max(np.abs(want))


def test_geometric_rule_one_integrand_call_per_side():
    # one call on both exponent probes, then one call on the nodes of every
    # panel the side can lay out: all levels toward 0, fewer toward 1, where
    # a panel collapses onto 1 in float
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return np.asarray(x, dtype=float) ** -0.5

    got = geometric_endpoint_integral(f, 0.0, 0.5, 0.0, 24)
    assert sizes == [2, 24 * GEOMETRIC_LEVELS]
    assert abs(got - math.sqrt(2.0)) < 1e-14
    sizes.clear()
    geometric_endpoint_integral(lambda x: f(1.0 - np.asarray(x)), 0.5, 1.0, 1.0, 24)
    assert sizes[0] == 2 and len(sizes) == 2
    assert sizes[1] % 24 == 0 and sizes[1] < 24 * GEOMETRIC_LEVELS


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
    feq = normalized_density_profile(PARAMS)
    # the profile is omega-normalized
    assert abs(_omega_integral(lambda x: feq(x) ** 2, PARAMS) - 1.0) < 1e-10
    s = eigenvalue_shift(feq, PARAMS)
    assert abs(s.saturation - 1.0) < 1e-6


def test_saturation_strict_for_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.normal(size=3)

        def f(x, c=coeffs):
            return c[0] + c[1] * x + c[2] * x * (1 - x)

        norm = math.sqrt(abs(_omega_integral(lambda x: f(x) ** 2, PARAMS)))
        g = lambda x: f(x) / norm
        s = eigenvalue_shift(g, PARAMS)
        assert s.saturation <= 1.0 + 1e-8
        assert s.saturation < 1.0  # strict away from the equality profile


def test_quadrature_node_doubling():
    s24 = eigenvalue_shift(lambda x: x, PARAMS, nodes=24)
    s48 = eigenvalue_shift(lambda x: x, PARAMS, nodes=48)
    assert abs(s24.lambda1 - s48.lambda1) < 1e-9


def test_bound_matches_y1_fourth_moment():
    bound = shift_bound(PARAMS)
    cb = basis_for(*PARAMS)
    y1sq = lambda x: abs(cb.matrix(x)[..., 0, 0]) ** 2
    val = _omega_integral(lambda x: y1sq(x) ** 2, PARAMS)
    assert abs(bound - math.sqrt(val.real)) < 1e-12


def test_moments_match_mpmath():
    """Every moment of the stacked pass against mpmath.quad over
    mpmath.hyp2f1 at 30 digits, split at 0.5: no shared code with the 2F1
    kernel, the connected basis or the geometric rule."""
    a, b, c = PARAMS
    with mpmath.workdps(30):
        ma, mb, mc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        memo = {}

        def pair(x):
            if x not in memo:
                y1 = mpmath.hyp2f1(ma, mb, mc, x)
                y2 = x ** (1 - mc) * mpmath.hyp2f1(ma - mc + 1, mb - mc + 1, 2 - mc, x)
                memo[x] = (y1, y2, x ** (mc - 1) * (1 - x) ** (ma + mb - mc))
            return memo[x]

        def moment(g):
            return complex(mpmath.quad(lambda x: g(*pair(x)) * pair(x)[2], [0, 0.5, 1]))

        ref = {
            "<y1,y1>": moment(lambda y1, y2, om: y1 * y1),
            "<y1,y2>": moment(lambda y1, y2, om: y1 * y2),
            "<y2,y2>": moment(lambda y1, y2, om: y2 * y2),
            "fourth": moment(lambda y1, y2, om: y1 ** 4),
        }
        ref["raw"] = complex(mpmath.quad(lambda x: x * pair(x)[0] ** 2 * pair(x)[2], [0, 0.5, 1]))
    rep = orthonormality_report(PARAMS)
    shift = eigenvalue_shift(lambda x: x, PARAMS)
    got = {"<y1,y1>": rep["<y1,y1>"], "<y1,y2>": rep["<y1,y2>"], "<y2,y2>": rep["<y2,y2>"],
           "fourth": shift.bound ** 2, "raw": shift.lambda1_raw}
    for key, want in ref.items():
        assert abs(got[key] - want) <= 1e-10 * abs(want), key
    assert abs(shift.norm_y1 - ref["<y1,y1>"]) <= 1e-10 * abs(ref["<y1,y1>"])


def test_hierarchy_residual_runs_two_geometric_passes(monkeypatch):
    passes = []
    rule = spectral.adaptive_subdivision_01

    def counted(f, nodes):
        passes.append(nodes)
        return rule(f, nodes)

    monkeypatch.setattr(spectral, "adaptive_subdivision_01", counted)
    rep = hierarchy_shift_residual(lambda x: x, PARAMS)
    assert passes == [24, 24]
    # the shift and the Gram matrix come from the moments pass
    shift = eigenvalue_shift(lambda x: x, PARAMS)
    gram = orthonormality_report(PARAMS)
    assert abs(rep["shift"].lambda1 - shift.lambda1) <= 1e-14 * abs(shift.lambda1)
    for key in ("<y1,y1>", "<y1,y2>", "<y2,y2>"):
        assert abs(rep["orthonormality"][key] - gram[key]) <= 1e-14 * abs(gram[key])


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
