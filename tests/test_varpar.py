import math

import numpy as np
import pytest

from monodeform.errors import NonIntegrableForcing, SingularPoint, WronskianVanishes
from monodeform.hypergeom import ConnectedBasis
from monodeform.quadrature import cheb_leaf_maps
from monodeform.varpar import (
    CHEB_DEGREE,
    hypergeometric_deformed_series,
    particular_solution,
    series_to_csv,
)

A, B, C = 0.3, 0.7, 0.4


def _uprime(sol, x):
    """u'(x) of a particular solution: the integrand of its u at one point."""
    return sol.u.integrand(np.array([x]))[0]


def test_hierarchy_structure(connected_basis):
    """Terms run k = 0..K: the zeroth is W(x) times the initial coefficients,
    every later one vanishes with its derivative at the basepoint."""
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0, 3,
                                            init_coeffs=(0.7, -0.2), basis=connected_basis)
    assert len(series.terms) == series.order + 1 == 4
    for x in (0.3, 0.8):
        assert np.allclose(series.terms[0](x), connected_basis.matrix(x) @ [0.7, -0.2],
                           rtol=1e-14, atol=0)
    for k in (1, 2, 3):
        v, d = series.terms[k](0.5)
        assert v == 0 and d == 0
    with pytest.raises(ValueError):
        hypergeometric_deformed_series(A, B, C, lambda x: 1.0, 0, basis=connected_basis)


def test_hierarchy_rhs_for_unit_coupling(connected_basis):
    # deformation -(ab + rho f) y with f = 1: level-1 forcing is y0/(x(1-x)),
    # which the Cramer step returns as sum u_i' y_i'
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0, 2,
                                            basis=connected_basis)
    for x in (0.3, 0.6):
        up = _uprime(series.terms[1], x)
        w = connected_basis.matrix(x)
        forcing = up[0] * w[1, 0] + up[1] * w[1, 1]
        expect = w[0, 0] / (x * (1 - x))
        assert abs(forcing - expect) < 1e-12


def test_particular_zero_forcing(connected_basis):
    sol = particular_solution(connected_basis, lambda x, w: 0.0)
    v, d = sol(0.7)
    assert abs(v) < 1e-12 and abs(d) < 1e-12


def test_particular_substitute_back_residual(connected_basis):
    # independent check: y_p'' from Richardson finite differences of y_p'
    g = lambda x: np.sin(3 * x) / (x * (1 - x))
    sol = particular_solution(connected_basis, lambda x, w: g(x), tol=1e-12)
    for x in np.linspace(0.15, 0.85, 20):
        v, d = sol(x)
        h = 1e-4

        def d1(hh):
            return (sol(x + hh)[1] - sol(x - hh)[1]) / (2 * hh)

        d2 = (4 * d1(h / 2) - d1(h)) / 3
        resid = x * (1 - x) * d2 + (C - (A + B + 1) * x) * d - A * B * v - x * (1 - x) * g(x)
        assert abs(resid) < 1e-7


def test_abel_wronskian_scaling(connected_basis):
    det = {}
    for x in (0.3, 0.7):
        w = connected_basis.matrix(x)
        det[x] = np.linalg.det(w) * x**C * (1 - x) ** (A + B + 1 - C)
    assert abs(det[0.3] - det[0.7]) < 1e-10 * abs(det[0.3])


def test_nth_reduces_to_2nd(connected_basis):
    """The Abel-pinned u' solves W(x) u' = (0, G) with the measured W."""
    g = lambda x: 1.0 / (x * (1 - x))
    sol = particular_solution(connected_basis, lambda x, w: g(x), tol=1e-12)
    for x in np.linspace(0.05, 0.95, 19):
        want = np.linalg.solve(connected_basis.matrix(x), [0.0, g(x)])
        assert np.max(np.abs(_uprime(sol, x) - want)) < 1e-9 * np.max(np.abs(want))


def test_nth_first_order_integrating_factor(connected_basis):
    """G = -ab/(x(1-x)) is L[1], so y_p = 1 - W(x)[0] W(x0)^-1 e_1 exactly."""
    x0 = 0.5
    g = lambda x: -A * B / (x * (1 - x))
    sol = particular_solution(connected_basis, lambda x, w: g(x), basepoint=x0, tol=1e-12)
    coef = np.linalg.solve(connected_basis.matrix(x0), [1.0, 0.0])
    for x in (0.2, 0.4, 0.7, 0.9):
        v, d = sol(x)
        hom = connected_basis.matrix(x) @ coef
        assert abs(v - (1.0 - hom[0])) < 1e-10
        assert abs(d + hom[1]) < 1e-10


def test_cramer_constraint_identities(connected_basis):
    g = lambda x: np.cos(x)
    sol = particular_solution(connected_basis, lambda x, w: g(x), tol=1e-12)
    for x in (0.25, 0.5, 0.75):
        up = _uprime(sol, x)
        (y1v, y2v), (y1d, y2d) = connected_basis.matrix(x)
        assert abs(up[0] * y1v + up[1] * y2v) < 1e-10          # sum u_i' y_i = 0
        assert abs(up[0] * y1d + up[1] * y2d - g(x)) < 1e-10   # sum u_i' y_i' = g


def test_column_replacement_zero_forcing(connected_basis):
    sol = particular_solution(connected_basis, lambda x, w: 0.0)
    assert np.max(np.abs(_uprime(sol, 0.33))) < 1e-15


def test_forcing_reads_the_callers_w():
    """Evaluating a particular solution builds W once per u' integrand call
    and once per evaluation call; so do the terms of a series, whose level-k
    forcing reads y_{k-1} from the W that u' built.  Points on panels already
    built cost no integrand call."""
    counts = {"matrix": 0, "integrand": 0}

    class Counted(ConnectedBasis):
        def matrix(self, x):
            counts["matrix"] += 1
            return super().matrix(x)

    def count_integrand(sol):
        integrand = sol.u.integrand

        def counted(x):
            counts["integrand"] += 1
            return integrand(x)

        sol.u.integrand = counted

    cb = Counted(A, B, C)
    sol = particular_solution(cb, lambda x, w: w[..., 0, 0] / (x * (1 - x)))
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0 + x, 2, basis=cb)
    for s in (sol, series.terms[1], series.terms[2]):
        count_integrand(s)
    for fn in (sol, series.terms[2]):
        counts.update(matrix=0, integrand=0)
        xs = (0.2, 0.35, 0.8, np.array([0.1, 0.6, 0.9]))
        for x in xs:
            fn(x)
        assert counts["matrix"] == counts["integrand"] + len(xs)
        built = counts["integrand"]
        for x in (0.3, 0.85, np.array([0.15, 0.45, 0.7])):
            fn(x)
        assert counts["integrand"] == built


def test_u_depends_on_x_alone():
    """u is bitwise the same whether its points come as one array or one at
    a time in reverse order, lattice ends and the basepoint included."""
    xs = np.array([0.1, 0.2, 0.35, 0.5, 0.63, 0.8, 0.9])

    def fresh():
        cb = ConnectedBasis(A, B, C)
        sol = particular_solution(cb, lambda x, w: np.sin(3 * x) * w[..., 0, 0] / (x * (1 - x)))
        series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0 + x, 2, basis=cb)
        return sol.u, series.terms[2].u

    together = [u(xs) for u in fresh()]
    apart = [np.array([u(x) for x in xs[::-1]])[::-1] for u in fresh()]
    for one, other in zip(together, apart):
        assert np.array_equal(one, other)
    assert not np.any(together[0][3])


@pytest.mark.parametrize("shape", [(), (2,)])
def test_leaf_maps_equal_numpy_chebyshev(shape):
    """The cached maps give chebinterpolate's coefficients, chebint's
    antiderivative from -1 and its value at 1 to 1e-15 of the largest
    coefficient, for scalar and (n, 2)-valued integrands."""
    cheb = np.polynomial.chebyshev
    t, fit, integ = cheb_leaf_maps(CHEB_DEGREE + 1)
    half = 0.15
    g = lambda t: (np.exp(1j * t) / (1.3 - t)).reshape((-1,) + (1,) * len(shape)) * np.ones(shape)
    ref = cheb.chebinterpolate(g, CHEB_DEGREE)
    ref_anti = cheb.chebint(ref, lbnd=-1, scl=half)
    coef = fit @ g(t)
    anti = half * (integ @ coef)
    for got, want in ((coef, ref), (anti, ref_anti), (anti.sum(axis=0), cheb.chebval(1.0, ref_anti))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        fit[0, 0] = 0.0


def _numpy_route(u, xs):
    """u at xs through numpy's chebinterpolate, chebint and chebval on each
    leaf u has built, chained from the basepoint."""
    cheb = np.polynomial.chebyshev
    out = []
    for x in xs:
        side = int(x > u._bp)
        start = 0.0
        for far, mid, half, *_ in u._leaves[side]:
            coef = cheb.chebinterpolate(lambda t: u.integrand(mid + half * t), CHEB_DEGREE)
            anti = cheb.chebint(coef, lbnd=-1, scl=half)
            if (far - x) * (1 if side else -1) >= 0:
                out.append(start + cheb.chebval((x - mid) / half, anti))
                break
            start = start + cheb.chebval(1.0, anti)
    return np.array(out)


def test_cumulative_matches_numpy_route(monkeypatch):
    """u from the cached leaf maps matches numpy's polynomial route to
    1e-14, leaf ends included, and calls none of chebinterpolate, chebint
    or chebval once the maps exist."""
    cheb_leaf_maps(CHEB_DEGREE + 1)
    cheb = np.polynomial.chebyshev
    for name in ("chebinterpolate", "chebint", "chebval"):
        monkeypatch.setattr(cheb, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    cb = ConnectedBasis(A, B, C)
    u = particular_solution(cb, lambda x, w: np.sin(3 * x) * w[..., 0, 0] / (x * (1 - x))).u
    xs = np.array([0.01, 0.1, 0.2, 0.33, 0.5, 0.61, 0.8, 0.95, 0.999])
    got = u(xs)
    monkeypatch.undo()
    want = _numpy_route(u, xs)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_forcing_pole_on_the_panel_raises():
    """A double pole at 0.3 lies on the panel [0.2, 0.5] of both 0.2 and
    0.35: the leaf halving reaches its depth cap."""
    sol = particular_solution(ConnectedBasis(A, B, C), lambda x, w: 1.0 / (x - 0.3) ** 2)
    for x in (0.2, 0.35):
        with pytest.raises(NonIntegrableForcing):
            sol(x)


def test_u_outside_the_unit_interval_raises(connected_basis):
    """The path from the basepoint to x <= 0 or x >= 1 crosses a singular point."""
    sol = particular_solution(connected_basis, lambda x, w: 1.0 + x)
    for x in (0.0, -0.1, 1.0, np.array([0.4, 1.2])):
        with pytest.raises(SingularPoint):
            sol(x)


def test_wronskian_vanishes_guard():
    class Dependent(ConnectedBasis):
        def matrix(self, x):
            return np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)

    with pytest.raises(WronskianVanishes):
        particular_solution(Dependent(A, B, C), lambda x, w: 1.0)


def test_wronskian_nonvanishing_on_interval(connected_basis):
    for x in np.linspace(0.1, 0.9, 17):
        det = np.linalg.det(connected_basis.matrix(x))
        assert abs(det) > 1e-3


def test_deformed_series_zero_coupling(connected_basis):
    series = hypergeometric_deformed_series(A, B, C, lambda x: 0.0, 2,
                                            basis=connected_basis)
    assert np.allclose(series.terms[0](0.65), connected_basis.matrix(0.65)[:, 0],
                       rtol=1e-14, atol=0)
    for k in (1, 2):
        v, d = series.terms[k](0.65)
        assert abs(v) < 1e-12 and abs(d) < 1e-12


def test_deformed_series_order_by_order_residual(connected_basis):
    # applying the deformed operator to the K-truncated series leaves a
    # residual that shrinks like rho^(K+1)
    K = 1
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0, K,
                                            basis=connected_basis, tol=1e-12)
    x = 0.6

    def residual(rho):
        # y' and y'' from Richardson-extrapolated central differences of values
        v = series.evaluate(x, rho)
        h = 1e-3

        def d1(hh):
            return (series.evaluate(x + hh, rho) - series.evaluate(x - hh, rho)) / (2 * hh)

        def d2h(hh):
            return (series.evaluate(x + hh, rho) - 2 * v + series.evaluate(x - hh, rho)) / hh**2

        d = (4 * d1(h / 2) - d1(h)) / 3
        d2 = (4 * d2h(h / 2) - d2h(h)) / 3
        return abs(x * (1 - x) * d2 + (C - (A + B + 1) * x) * d - (A * B + rho) * v)

    r1, r2 = residual(0.1), residual(0.05)
    assert r1 / r2 == pytest.approx(2 ** (K + 1), rel=0.25)


def test_series_evaluate_and_terms(connected_basis):
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0, 2,
                                            basis=connected_basis, tol=1e-12)
    x, rho = 0.45, 1e-2
    total = sum(series.terms[k](x)[0] * rho**k for k in range(3))
    assert abs(series.evaluate(x, rho) - total) < 1e-14


def test_series_csv_export(tmp_path, connected_basis):
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0, 1,
                                            basis=connected_basis, tol=1e-11)
    out = tmp_path / "terms.csv"
    xs = np.array([0.4, 0.5, 0.6])
    series_to_csv(xs, [t(xs)[0] for t in series.terms], str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re_y0,im_y0,re_y1,im_y1"
    assert len(lines) == 4


def test_generic_deformed_series_matches_hypergeometric(connected_basis):
    """Each term k >= 1 solves W u' = (0, y_{k-1}/(x(1-x))) with the measured W."""
    series = hypergeometric_deformed_series(A, B, C, lambda x: 1.0, 2,
                                            basis=connected_basis, tol=1e-12)
    for x in (0.35, 0.65):
        w = connected_basis.matrix(x)
        for k in (1, 2):
            up = _uprime(series.terms[k], x)
            rhs = series.terms[k - 1](x)[0] / (x * (1 - x))
            assert abs(w[0, 0] * up[0] + w[0, 1] * up[1]) < 1e-9
            assert abs(w[1, 0] * up[0] + w[1, 1] * up[1] - rhs) < 1e-9
