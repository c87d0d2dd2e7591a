import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from monodeform import hypergeom, spectral
from monodeform.cli import main
from monodeform.errors import NonIntegrableEndpoint, NonIntegrableWeight
from monodeform.hypergeom import ConnectedBasis, weight_omega
from monodeform.quadrature import (
    _gl_rule,
    gauss_legendre_panels,
    geometric_endpoint_integral,
    geometric_levels,
    geometric_panels,
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
    """int_0^1 g omega dx by the two-sided geometric rule of the spectral moments, on
    their panels; g(t, side) is given the distance t to the side's end, as
    ConnectedBasis.matrix is."""
    a, b, c = params
    levels = spectral._levels(params, ONE, False)
    return complex(sum(geometric_endpoint_integral(
        lambda t, side=side: g(t, side) * weight_omega(a, b, c, t, side), 0.5, levels[side], nodes)
        for side in (0, 1)))


def _point(t, side):
    return t if side == 0 else 1 - t


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
    val = _omega_integral(lambda t, side: 1.0, (0.4, 0.6, 1.0))
    assert abs(val - 1.0) < 1e-12


def test_inner_product_beta_value_two_rules():
    # the geometric rule against <1, 1> in closed form
    exact = math.gamma(1.2) * math.gamma(0.8) / math.gamma(2.0)  # B(c, a+b-c+1)
    assert abs(_omega_integral(lambda t, side: 1.0, PARAMS) - exact) < 1e-13


def test_inner_product_integrability_guard():
    for params in ((0.3, 0.7, -0.2), (0.1, 0.1, 1.5)):  # c < 0; a+b-c = -1.3
        with pytest.raises(NonIntegrableWeight):
            eigenvalue_shift(ONE, params)
        with pytest.raises(NonIntegrableWeight):
            orthonormality_report(params)
        with pytest.raises(NonIntegrableWeight):
            hierarchy_shift_residual(ONE, params)


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
    # one call of f on the nodes of the panels asked for, no probe; the closed tail is
    # exact on a pure power at any depth
    sizes = []

    def f(t):
        sizes.append(np.size(t))
        return np.asarray(t) ** -0.5

    for levels in (2, geometric_levels(-0.5, 1.5, 1e-14, "t^-1/2", 0)):
        sizes.clear()
        got = geometric_endpoint_integral(f, 0.5, levels, 24)
        assert sizes == [24 * levels]
        assert abs(got - math.sqrt(2.0)) < 1e-14


def test_geometric_levels_verdict_and_depth():
    # (1/4^L)^power <= tol, capped; exponents at or below LEAST_EXPONENT = -0.924 raise,
    # because their panels shrink too slowly for the tail to close
    assert geometric_levels(0.0, 1.0, 1e-14, "t", 0) == 24
    assert geometric_levels(0.0, 2.0, 1e-14, "t", 0) == 12
    assert geometric_levels(-0.5, 0.01, 1e-14, "t", 0) == 48
    assert geometric_levels(-0.9, 0.1, 1e-14, "t", 1) == 48
    for least, words in ((-0.95, "-0.950 too close to -1"), (-1.3, "-1.300 <= -1")):
        with pytest.raises(NonIntegrableEndpoint, match=f"g has endpoint exponent {words}"):
            geometric_levels(least, least + 1, 1e-14, "g", 1)


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
    assert abs(_omega_integral(lambda t, side: feq(t, side) ** 2, PARAMS) - 1.0) < 1e-10
    s = eigenvalue_shift(feq, PARAMS)
    assert abs(s.saturation - 1.0) < 1e-6


def test_saturation_strict_for_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.normal(size=3)

        def f(x, c=coeffs):
            return c[0] + c[1] * x + c[2] * x * (1 - x)

        norm = math.sqrt(abs(_omega_integral(lambda t, side: f(_point(t, side)) ** 2, PARAMS)))
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
    val = _omega_integral(lambda t, side: abs(cb.matrix(t, side)[..., 0, 0]) ** 4, PARAMS)
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


def test_hierarchy_residual_runs_one_geometric_pass(monkeypatch):
    # the moments pass, one geometric integral per side; the rhs check reads its moments
    calls = []
    rule = spectral.geometric_endpoint_integral

    def counted(f, half, levels, nodes):
        calls.append((levels, nodes))
        return rule(f, half, levels, nodes)

    monkeypatch.setattr(spectral, "geometric_endpoint_integral", counted)
    rep = hierarchy_shift_residual(lambda x: x, PARAMS)
    assert len(calls) == 2 and all(nodes == 24 for _, nodes in calls)
    raw = rep["shift"].lambda1_raw
    assert rep["rhs_orthogonality"] <= 1e-15 * abs(raw)
    # the shift and the Gram matrix come from the moments pass, on the same panels
    shift = eigenvalue_shift(lambda x: x, PARAMS)
    gram = orthonormality_report(PARAMS)
    assert calls[2:4] == calls[:2] and calls[4:] == calls[:2]
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


def _pair_near(params, end, t):
    """y1, y2 and omega at the point t (end 0) or 1 - t (end 1) in mpmath, from t itself:
    near 1 each 2F1 is continued by its closed-form connection (DLMF 15.8.4), so that
    1 - t is never formed where it would round."""
    a, b, c = params
    hyp, gam = mpmath.hyp2f1, mpmath.gamma
    if end == 0:
        y2 = t ** (1 - c) * hyp(a - c + 1, b - c + 1, 2 - c, t)
        return hyp(a, b, c, t), y2, t ** (c - 1) * mpmath.exp((a + b - c) * mpmath.log1p(-t))

    def at_one(a, b, c):  # 2F1(a, b; c; 1 - t)
        s = c - a - b
        return (gam(c) * gam(s) / (gam(c - a) * gam(c - b)) * hyp(a, b, 1 - s, t)
                + t ** s * gam(c) * gam(-s) / (gam(a) * gam(b)) * hyp(c - a, c - b, 1 + s, t))

    x_1c = mpmath.exp((1 - c) * mpmath.log1p(-t))  # x^(1-c)
    return at_one(a, b, c), x_1c * at_one(a - c + 1, b - c + 1, 2 - c), t ** (a + b - c) / x_1c


def _lifted_moments(params, f):
    """The five omega-moments of the spectral pass (f|y1|^2, |y1|^2, |y1|^4, y1 y2, y2^2)
    at 20 digits by mpmath.quad, each end lifted by t = u^(1/(1+e)) with e the column's
    least exponent there, which leaves a bounded integrand in u."""
    a, b, c = params
    s = c - a - b
    least = [(c - 1, -abs(s))] * 2 + [(c - 1, min(-s, 3 * s)), (0.0, -abs(s)), (1 - c, -abs(s))]
    columns = [lambda x, y1, y2: f(x) * y1 ** 2, lambda x, y1, y2: y1 ** 2,
               lambda x, y1, y2: y1 ** 4, lambda x, y1, y2: y1 * y2, lambda x, y1, y2: y2 ** 2]
    out = []
    with mpmath.workdps(20):
        mp = tuple(mpmath.mpf(v) for v in params)
        for column, exponents in zip(columns, least):
            total = 0
            for end, e in enumerate(exponents):
                q = 1 / (1 + mpmath.mpf(e))

                def lifted(u, end=end, q=q):
                    t = u ** q
                    y1, y2, om = _pair_near(mp, end, t)
                    return column(t if end == 0 else 1 - t, y1, y2) * om * q * u ** (q - 1)

                total += mpmath.quad(lifted, [0, mpmath.mpf(0.5) ** (1 + mpmath.mpf(e))])
            out.append(float(total))
    return out


def _spectral_triples(seed):
    """Seeded (a, b, c), one with c - a - b in each of [-0.23, 0), [0, 0.3), [0.3, 0.6) and
    [0.6, 0.9), and c and c - a - b at least 0.1 from the integers."""
    rng = np.random.default_rng(seed)
    found = []
    for lo, hi in ((-0.23, 0.0), (0.0, 0.3), (0.3, 0.6), (0.6, 0.9)):
        while True:
            a, b, c = (round(float(v), 4) for v in rng.uniform([0.1, 0.1, 0.15], [0.9, 0.9, 1.85]))
            s = c - a - b
            if lo <= s < hi and min(abs(c - round(c)), abs(s - round(s))) >= 0.1:
                found.append((a, b, c))
                break
    return found


@pytest.mark.parametrize("params", [(0.2, 0.1, 1.2), (0.2, 0.9, 0.8)] + _spectral_triples(21))
def test_moments_match_lifted_mpmath_reference(params):
    # a + b - c = -0.9 puts omega ~ (1-x)^-0.9 at 1, where a panel at x = 1 - t collapses
    # in float; (0.2, 0.9, 0.8) puts |y1|^4 omega at (1-x)^-0.9 and caps its depth
    f = lambda x: 0.3 + 0.1 * x - 0.4 * x * x
    got = spectral._moments(f, params, 24, gram=True)
    for k, want in enumerate(_lifted_moments(params, f)):
        assert abs(got[k] - want) <= 1e-10 * abs(want), (params, k)


@pytest.mark.parametrize("params", [(0.2, 0.15, 1.3), (0.06, 0.05, 0.05)])
def test_exponent_near_minus_one_raises(params):
    # (1-x)^-0.95 or x^-0.95: panels shrink by 0.93, too slowly to close the tail
    with pytest.raises(NonIntegrableEndpoint, match="-0.950 too close to -1"):
        eigenvalue_shift(ONE, params)


def test_workload_profile_with_a_near_zero_at_one_returns_its_shift(tmp_path):
    # spectral-profiles seed 934, op 3,988: f(1) = -1e-6, which a two-point probe of the
    # endpoint exponent read as non-integrable
    params = (0.447579, 0.858306, 1.820768)
    coef = (0.296328, 0.140949, -0.437278)
    spec = {"equation": {"hypergeometric": dict(zip("abc", params))}, "task": "eigenshift",
            "f": {"poly": [[v, 0.0] for v in coef]}, "numerics": {"nodes": 24}}
    spec_file, out = tmp_path / "op3988.json", tmp_path / "report.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["run", "--spec", str(spec_file), "--out", str(out)]) == 0
    raw = json.loads(out.read_text())["results"]["lambda1_raw"]
    want = _lifted_moments(params, lambda x: coef[0] + coef[1] * x + coef[2] * x * x)[0]
    assert abs(complex(*raw) - want) <= 1e-12


def test_warm_pass_keeps_the_bits_of_a_cold_basis(monkeypatch):
    # the memo tells the t-array of the side at 1 from the same bytes as an x-array, and a
    # warm pass sums no series and returns the bits of a cold ConnectedBasis
    params = (0.35, 0.45, 1.3)
    basis_for.cache_clear()
    cold = spectral._moments(ONE, params, 24, gram=True)
    calls = []
    kernel = hypergeom._pfq_nodes
    monkeypatch.setattr(hypergeom, "_pfq_nodes", lambda *args: calls.append(1) or kernel(*args))
    warm = spectral._moments(ONE, params, 24, gram=True)
    assert calls == [] and np.array_equal(warm, cold)
    basis_for.cache_clear()
    assert np.array_equal(spectral._moments(ONE, params, 24, gram=True), cold) and calls
    t = np.concatenate(geometric_panels(0.5, 12))
    at0, at1 = basis_for(*params).matrix(t), basis_for(*params).matrix(t, 1)
    fresh = ConnectedBasis(*params)
    assert np.array_equal(at1, fresh.matrix(t, 1)) and np.array_equal(at0, fresh.matrix(t))
    assert np.max(np.abs(at1 - fresh.matrix(1 - t))) <= 1e-12 * np.max(np.abs(at1))
    assert not np.allclose(at0, at1)
