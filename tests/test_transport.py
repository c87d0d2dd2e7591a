import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import monodeform.transport as transport_module
from monodeform.dyson import dyson_expand
from monodeform.errors import IllConditioned, MonodeformError, SingularPoint, StepSizeUnderflow
from monodeform.hypergeom import hypergeometric_system
from monodeform.odecore import MeromorphicSystem, PerturbationSpec
from monodeform.paths import Arc, BranchState, PathSpec, line_path, loop_around
from monodeform.ratfun import RationalFn
from monodeform.transport import (
    FundamentalMatrix,
    _gauge_matrix,
    frobenius_basis,
    identity_basis,
    monodromy,
    singular_points,
    tracked_points,
    transport,
)

A, B, C = 0.3, 0.7, 0.4


def _eig_match(eigs, expected, tol):
    eigs = list(eigs)
    for e in expected:
        best = min(eigs, key=lambda z: abs(z - e))
        assert abs(best - e) < tol
        eigs.remove(best)


def _zero_system(dim=2):
    zero = RationalFn.zero()
    return MeromorphicSystem(dim, tuple(tuple(zero for _ in range(dim)) for _ in range(dim)))


def test_transport_zero_system_identity():
    sys = _zero_system()
    w0 = identity_basis(0.0, 2)
    path = line_path(0.0, 2.0 + 1.5j)
    res = transport(sys, None, 0, path, w0, tol=1e-12)
    assert np.max(np.abs(res.w.value - np.eye(2))) < 1e-12


def test_transport_constant_nilpotent():
    # W' = A W with A = [[0,1],[0,0]] gives W(z) = exp(A (z-z0)) W0
    zero, one = RationalFn.zero(), RationalFn.const(1.0)
    sys = MeromorphicSystem(2, ((zero, one), (zero, zero)))
    w0val = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    w0 = FundamentalMatrix(0.0, w0val, "explicit")
    dz = 1.2 + 0.7j
    res = transport(sys, None, 0, line_path(0.0, dz), w0, tol=1e-12)
    expect = np.array([[1.0, dz], [0.0, 1.0]]) @ w0val
    assert np.max(np.abs(res.w.value - expect)) < 1e-10


def test_transport_det_liouville_constant_trace():
    # W' = A W with constant A: det W(z) = det W0 * exp(tr(A) (z-z0))
    zero, one = RationalFn.zero(), RationalFn.const(1.0)
    sys = MeromorphicSystem(2, ((one, one), (zero, one.scale(2.0))))
    w0 = identity_basis(0.0, 2)
    dz = 0.8 - 0.3j
    res = transport(sys, None, 0, line_path(0.0, dz), w0, tol=1e-12)
    assert abs(np.linalg.det(res.w.value) - cmath.exp(3.0 * dz)) < 1e-9


def test_frobenius_columns_are_local_solutions(frob0):
    from monodeform.hypergeom import local_basis

    basis = local_basis(A, B, C, 0)
    v1, d1 = basis(0.5)[:, 0]
    assert abs(frob0.value[0, 0] - v1) < 1e-14
    assert abs(frob0.value[1, 0] - d1) < 1e-14
    assert abs(np.linalg.det(frob0.value)) > 1e-6


def test_frobenius_abel_constant():
    # det W(x) * x^c (1-x)^(a+b+1-c) is the same at different basepoints
    vals = []
    for x0 in (0.3, 0.6):
        w = frobenius_basis(A, B, C, 0, x0)
        det = np.linalg.det(w.value)
        vals.append(det * x0**C * (1 - x0) ** (A + B + 1 - C))
    assert abs(vals[0] - vals[1]) < 1e-10 * abs(vals[0])


def test_monodromy_around_zero(hyp_system, frob0):
    loop = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    md = monodromy(hyp_system, frob0, loop, tol=1e-11)
    _eig_match(md.eigenvalues, [1.0, cmath.exp(-2j * math.pi * C)], 1e-8)
    # in the Frobenius frame the matrix itself is diagonal
    off = abs(md.matrix[0, 1]) + abs(md.matrix[1, 0])
    assert off < 1e-8


def test_monodromy_around_one(hyp_system, frob1):
    loop = loop_around(1, 0.25, 0.5, avoid=hyp_system.singularities)
    md = monodromy(hyp_system, frob1, loop, tol=1e-11)
    _eig_match(md.eigenvalues, [1.0, cmath.exp(2j * math.pi * (C - A - B))], 1e-8)


def test_monodromy_trivial_loop(hyp_system, frob0):
    # a small loop around a regular point has identity monodromy
    loop = loop_around(0.5, 0.05, 0.6, avoid=hyp_system.singularities)
    moved = transport(hyp_system, None, 0, line_path(0.5, 0.6), frob0, 1e-12).w
    md = monodromy(hyp_system, FundamentalMatrix(0.6, moved.value, "moved"),
                   loop, tol=1e-11)
    assert np.max(np.abs(md.matrix - np.eye(2))) < 1e-9


def test_homotopy_invariance(hyp_system, frob0):
    m1 = monodromy(hyp_system, frob0, loop_around(0, 0.2, 0.5), tol=1e-11).matrix
    m2 = monodromy(hyp_system, frob0, loop_around(0, 0.35, 0.5), tol=1e-11).matrix
    assert np.max(np.abs(m1 - m2)) < 1e-9


def test_composition_is_matrix_product(hyp_system, frob0):
    g0 = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    g1 = loop_around(1, 0.25, 0.5, avoid=hyp_system.singularities)
    m0 = monodromy(hyp_system, frob0, g0, tol=1e-11).matrix
    m1 = monodromy(hyp_system, frob0, g1, tol=1e-11).matrix
    mboth = monodromy(hyp_system, frob0, g0 + g1, tol=1e-11).matrix
    # traversing g0 then g1 right-multiplies by M(g0) first
    assert np.max(np.abs(mboth - m1 @ m0)) < 1e-8


def test_reversibility(hyp_system, frob0):
    path = line_path(0.5, 0.3 + 0.2j)
    fwd = transport(hyp_system, None, 0, path, frob0, tol=1e-12)
    back = transport(hyp_system, None, 0, line_path(path.end, path.start),
                     FundamentalMatrix(path.end, fwd.w.value, "moved"), tol=1e-12)
    assert np.max(np.abs(back.w.value - frob0.value)) < 1e-10


def test_abel_det_along_loop(hyp_system, frob0):
    # Liouville: det W(x) x^c (1-x)^(a+b+1-c) is loop-invariant up to the
    # exponential of the winding of the trace integral; after a full loop
    # around 0 the factor x^c returns multiplied by e^(2 pi i c), and det W
    # gains e^(-2 pi i c) (= det M0), so the product is unchanged
    loop = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    res = transport(hyp_system, None, 0, loop, frob0, tol=1e-11)
    det0 = np.linalg.det(np.asarray(frob0.value))
    det1 = np.linalg.det(np.asarray(res.w.value))
    assert abs(det1 - det0 * cmath.exp(-2j * math.pi * C)) < 1e-9 * abs(det0)


def test_branch_factor_values():
    zero, one = RationalFn.zero(), RationalFn.const(1.0)
    h = ((zero, zero), (one, zero))
    lam = 0.35
    power = PerturbationSpec("power", h, lam=lam)
    log = PerturbationSpec("log", h)
    st0 = BranchState.principal(1.0, [0j])
    assert power.weight(1.0, st0) == pytest.approx(1.0)
    assert log.weight(1.0, st0) == pytest.approx(0.0)
    looped = BranchState(((0j, st0.arg(0j) + 2 * math.pi),))
    assert power.weight(1.0, looped) == pytest.approx(cmath.exp(2j * math.pi * lam))
    assert log.weight(1.0, looped) == pytest.approx(2j * math.pi)
    assert PerturbationSpec("meromorphic", h).weight(0.3) == 1.0


def test_ill_conditioned_basis_rejected(hyp_system):
    w = FundamentalMatrix(0.5, np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), "explicit")
    loop = loop_around(0, 0.25, 0.5)
    with pytest.raises(IllConditioned):
        monodromy(hyp_system, w, loop, tol=1e-10)


def test_transport_through_singularity_raises(monkeypatch, hyp_system, frob0):
    # a line through the pole at 1, a circle round the pole at 0 whose
    # radius is below the exclusion radius there, and lines through and onto
    # a pole of H at 0.6: all raise before any step
    calls = []
    monkeypatch.setattr(transport_module, "_dop853", lambda *args: calls.append(1))
    with pytest.raises(SingularPoint, match="singularity"):
        transport(hyp_system, None, 0, line_path(0.5, 1.5), frob0, tol=1e-10)
    tiny = PathSpec((Arc(0j, 1e-7, 0.0, 2 * math.pi),))
    with pytest.raises(SingularPoint, match="singularity"):
        transport(hyp_system, None, 0, tiny, identity_basis(tiny.start, 2))
    zero = RationalFn.zero()
    h21 = RationalFn.from_coeffs([1.0], [-0.6, 1.0])
    pert = PerturbationSpec("meromorphic", ((zero, zero), (h21, zero)))
    for end in (0.7, 0.6):
        with pytest.raises(SingularPoint, match="singularity"):
            transport(hyp_system, pert, 1e-3, line_path(0.5, end), frob0)
    assert calls == []


def test_gauge_equivalence_along_path(hyp_system, frob0):
    # psi' = (A + rho B) psi matches W phi with phi' = rho (W^-1 B W) phi
    zero = RationalFn.zero()
    h21 = RationalFn.from_coeffs([1.0], [0.0, 1.0, -1.0])
    pert = PerturbationSpec("meromorphic", ((zero, zero), (h21, zero)))
    rho = 0.05
    path = line_path(0.5, 0.75)
    psi0 = np.array([0.4, -0.2], dtype=complex)
    col = np.column_stack([psi0, [0.0, 1.0]])
    psi = transport(hyp_system, pert, rho, path,
                    FundamentalMatrix(0.5, col, "column"), tol=1e-12).w.value[:, 0]

    w0 = np.asarray(frob0.value)
    phi0 = np.linalg.solve(w0, psi0)

    def rhs(t, y):
        z = 0.5 + t * 0.25
        w = y[:4].reshape(2, 2)
        phi = y[4:]
        dw = hyp_system.evaluate(z) @ w * 0.25
        g = np.linalg.solve(w, pert.h_matrix(z) @ w)
        dphi = rho * g @ phi * 0.25
        return np.concatenate([dw.ravel(), dphi])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([w0.ravel(), phi0]),
                    rtol=1e-12, atol=1e-14)
    w_end = sol.y[:4, -1].reshape(2, 2)
    phi_end = sol.y[4:, -1]
    assert np.max(np.abs(w_end @ phi_end - psi)) < 1e-10


# --- the owned Dormand-Prince integrator against scipy's DOP853 -------------


def _scipy_dop853(fun, y, rtol, atol):
    sol = solve_ivp(fun, (0.0, 1.0), y, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:, -1], sol.t.size - 1


def _segment_runs(monkeypatch, integrator, run):
    """(end state, accepted steps) of every segment integration in run(),
    with `integrator` standing in for transport._dop853."""
    runs = []

    def recording(fun, y, rtol, atol):
        runs.append(integrator(fun, y, rtol, atol))
        return runs[-1]

    monkeypatch.setattr(transport_module, "_dop853", recording)
    run()
    monkeypatch.undo()
    return runs


def _parity_case(name, hyp_system, frob0, frob1):
    zero = RationalFn.zero()
    h21 = RationalFn.from_coeffs([1.0], [0.0, 1.0, -1.0])
    loop0 = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    loop1 = loop_around(1, 0.25, 0.5, avoid=hyp_system.singularities)
    if name == "around-0":
        return lambda: transport(hyp_system, None, 0, loop0, frob0, tol=1e-11)
    if name == "around-1":
        return lambda: transport(hyp_system, None, 0, loop1, frob1, tol=1e-11)
    if name == "ramp-from-rest":
        # A(0) = 0: the first step comes from the 100 h0 cap of the initial
        # step estimate, and the steps after it are rejected and regrown
        z = RationalFn.from_coeffs([0.0, 1.0], [1.0])
        ramp = MeromorphicSystem(2, ((zero, z), (z, zero)))
        return lambda: transport(ramp, None, 0, line_path(0.0, 1.0 + 0.5j),
                                 identity_basis(0.0, 2), tol=1e-10)
    if name == "power-weight":
        pert = PerturbationSpec("power", ((zero, zero), (h21, zero)), lam=0.35)
        return lambda: transport(hyp_system, pert, 0.05, loop0, frob0, tol=1e-10)
    pert = PerturbationSpec("log", ((zero, zero), (h21, zero)))
    return lambda: dyson_expand(hyp_system, pert, 2, loop0, frob0, tol=1e-10, route="ode")


@pytest.mark.parametrize("name", ["around-0", "around-1", "ramp-from-rest", "power-weight",
                                  "log-weight-K2"])
def test_dop853_matches_scipy_dop853(monkeypatch, hyp_system, frob0, frob1, name):
    run = _parity_case(name, hyp_system, frob0, frob1)
    owned = _segment_runs(monkeypatch, transport_module._dop853, run)
    reference = _segment_runs(monkeypatch, _scipy_dop853, run)
    assert len(owned) == len(reference) > 0
    for (y, steps), (y_ref, steps_ref) in zip(owned, reference):
        assert steps == steps_ref
        assert np.max(np.abs(y - y_ref)) <= 1e-14 * np.max(np.abs(y_ref))


@pytest.mark.parametrize("name, budget", [("around-0", 600), ("around-1", 800)])
def test_dop853_rhs_evaluations_per_loop(monkeypatch, hyp_system, frob0, frob1, name, budget):
    # the 8th-order pair takes these loops at tol 1e-11 in 558 and 738
    # evaluations
    nfev = []
    integrate = transport_module._dop853

    def counted(fun, y, rtol, atol):
        def rhs(t, yy):
            nfev.append(1)
            return fun(t, yy)

        return integrate(rhs, y, rtol, atol)

    monkeypatch.setattr(transport_module, "_dop853", counted)
    _parity_case(name, hyp_system, frob0, frob1)()
    assert 0 < len(nfev) <= budget


class _NanPast(MeromorphicSystem):
    """The zero system, except that A(z) is NaN for Re z > CUT."""

    CUT = 0.5

    def evaluate(self, x):
        if x.real > self.CUT:
            return np.full((self.dim, self.dim), np.nan, dtype=complex)
        return super().evaluate(x)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cut", [0.5, -1.0])
def test_nan_rhs_raises_step_size_underflow(monkeypatch, cut):
    # past the midpoint the steps shrink onto Re z = 1/2; with cut = -1 the
    # right-hand side is NaN from the start, and so is the first step size
    monkeypatch.setattr(_NanPast, "CUT", cut)
    zero = RationalFn.zero()
    sys = _NanPast(2, ((zero, zero), (zero, zero)))
    with pytest.raises(StepSizeUnderflow, match="segment 0") as err:
        transport(sys, None, 0, line_path(0.0, 1.0), identity_basis(0.0, 2))
    assert isinstance(err.value, MonodeformError)


def test_stacked_gauge_matrix_equals_solve_per_matrix():
    # the elementwise adjugate product over an (n, 2, 2) stack is W^-1 R of
    # each matrix, and a 2-D W takes the single-matrix path to the same value
    rng = np.random.default_rng(3)
    w = np.eye(2) + 0.2 * (rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2)))
    rhs = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
    assert max(np.linalg.cond(m) for m in w) < 10
    got = _gauge_matrix(w, rhs)
    for g, m, r in zip(got, w, rhs):
        ref = np.linalg.solve(m, r)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))
    one = _gauge_matrix(w[0], rhs[0])
    assert one.shape == (2, 2)
    assert np.max(np.abs(one - _gauge_matrix(w[:1], rhs[:1])[0])) <= 1e-15 * np.max(np.abs(one))


@pytest.mark.parametrize("kind,lam", [("meromorphic", None), ("power", 0.5), ("log", None)])
def test_singular_points_add_a_weights_branch_point(kind, lam):
    # A is regular at 0 and H has a pole at 2 (twice over); a power or log weight adds
    # its branch point 0, and the tracked points add each arc centre once
    zero = RationalFn.zero()
    sys = MeromorphicSystem(2, ((zero, RationalFn.const(1.0)), (zero, zero)))
    pole = RationalFn.from_coeffs([1.0], [-2.0, 1.0])
    pert = PerturbationSpec(kind, ((pole, zero), (pole, zero)), lam)
    expect = [0j, 2 + 0j] if pert.multivalued else [2 + 0j]
    assert singular_points(sys, pert) == expect
    assert singular_points(sys, None) == []
    loops = [loop_around(0.5, 0.1, 0.7), loop_around(0.5 + 1e-12, 0.1, 0.7)]
    assert tracked_points(sys, pert, loops) == sorted(expect + [0.5 + 0j], key=lambda z: z.real)


@pytest.mark.parametrize("c", [0.0, 2.0])
def test_basis_at_one_builds_for_integer_c(c):
    # integer c degenerates the basis at 0 (DegenerateParams, as for near-integer c), so
    # the basis at 1 keeps to its own zone and its monodromy round 1 is exact
    a, b = 0.3, 0.6
    sys = hypergeometric_system(a, b, c)
    datum = monodromy(sys, frobenius_basis(a, b, c, 1, 0.5), loop_around(1, 0.25, 0.5))
    _eig_match(datum.eigenvalues, [1.0, cmath.exp(2j * math.pi * (c - a - b))], 1e-8)
