import cmath
import math

import numpy as np
import pytest

from monodeform import dyson as dyson_module
from monodeform.dyson import (
    HEAD_NODES,
    _panels_for_head,
    _panels_for_path,
    _pieces,
    _series_sweep,
    closed_form_jump,
    cocycle_identity_residual,
    cocycle_jump,
    correction_C,
    default_loop,
    deformation_delta,
    dyson_expand,
    evaluate_dyson,
    perturbed_monodromy_first_order,
    series_monodromy,
)
from monodeform.errors import (
    MonodeformError,
    NonIntegrableEndpoint,
    SeriesRouteUnavailable,
    ShapeMismatch,
    SingularPoint,
    UnsupportedKind,
)
from monodeform.hypergeom import ghe_operator, hypergeometric_system
from monodeform.odecore import MeromorphicSystem, PerturbationSpec, companion
from monodeform import transport as transport_module
from monodeform.paths import (
    Arc,
    BranchState,
    Line,
    PathSpec,
    line_path,
    loop_around,
)
from monodeform.quadrature import cheb_cumulative, cheb_nodes, geometric_tail
from monodeform.ratfun import ComplexPoly, RationalFn
from monodeform.transport import (
    FundamentalMatrix,
    _gauge_matrix,
    frobenius_basis,
    identity_basis,
    monodromy,
    tracked_points,
    transport,
)

A, B, C = 0.3, 0.7, 0.4
ZERO = RationalFn.zero()
ONE = RationalFn.const(1.0)


def _pert(kind, h21, lam=None):
    return PerturbationSpec(kind, ((ZERO, ZERO), (h21, ZERO)), lam)


TRIVIAL = _pert("meromorphic", RationalFn.from_coeffs([1.0], [0.0, 1.0, -1.0]))


def _log_frame_system():
    inv_x = RationalFn.from_coeffs([1.0], [0.0, 1.0])
    sys = MeromorphicSystem(2, ((ZERO, ONE), (ZERO, inv_x.scale(-1.0))))
    pert = PerturbationSpec("meromorphic", ((inv_x, inv_x), (ZERO, inv_x)))
    return sys, pert


def _log_frame_basis(x0):
    w = np.array([[1.0, cmath.log(x0) / (2j * math.pi)],
                  [0.0, 1.0 / (2j * math.pi * x0)]], dtype=complex)
    return FundamentalMatrix(x0, w, "explicit")


def test_correction_zero_perturbation(hyp_system, frob0):
    pert = PerturbationSpec("meromorphic", ((ZERO, ZERO), (ZERO, ZERO)))
    corr = correction_C(hyp_system, pert, frob0, line_path(0.5, 0.7), tol=1e-11, route="ode")
    assert np.max(np.abs(corr.value)) < 1e-12


def test_correction_log_frame_closed_form():
    sys, pert = _log_frame_system()
    w0 = _log_frame_basis(0.25)
    corr = correction_C(sys, pert, w0, line_path(0.25, 0.6), tol=1e-12, route="ode")

    def c_cf(z):
        return np.array([[cmath.log(z), -1 / (2j * math.pi * z)],
                         [0.0, cmath.log(z)]], dtype=complex)

    expect = c_cf(0.6) - c_cf(0.25)
    assert np.max(np.abs(corr.value - expect)) < 1e-7


def test_correction_routes_agree(hyp_system, frob0):
    path = line_path(0.5, 0.7)
    c_ode = correction_C(hyp_system, TRIVIAL, frob0, path, tol=1e-12, route="ode")
    c_ser = correction_C(hyp_system, TRIVIAL, frob0, path, tol=1e-12, route="series")
    assert np.max(np.abs(c_ode.value - c_ser.value)) < 1e-10


def test_trivial_correction_corner_exponent(hyp_system, frob0):
    # from-zero C of the trivial deformation vanishes like x^c in the (2,1)
    # entry: measure the exponent from two small probes
    vals = {}
    for x in (0.05, 0.025):
        c1 = dyson_expand(hyp_system, TRIVIAL, 1, line_path(x, x + 1e-12), frob0,
                          tol=1e-12, from_zero=True).terms[0]
        vals[x] = abs(c1[1, 0])
    expo = math.log(vals[0.05] / vals[0.025]) / math.log(2.0)
    assert abs(expo - C) < 0.1


def test_dyson_k1_equals_correction(hyp_system, frob0):
    path = line_path(0.5, 0.75)
    exp = dyson_expand(hyp_system, TRIVIAL, 1, path, frob0, tol=1e-12, route="ode")
    corr = correction_C(hyp_system, TRIVIAL, frob0, path, tol=1e-12, route="ode")
    assert np.max(np.abs(exp.terms[0] - corr.value)) < 1e-12


def test_dyson_constant_b_partial_exponential():
    # A = 0, B constant: C_k = (x B)^k / k!
    zero_sys = MeromorphicSystem(2, ((ZERO, ZERO), (ZERO, ZERO)))
    bmat = np.array([[0.3, -0.2], [0.1, 0.5]], dtype=complex)
    pert = PerturbationSpec("meromorphic", tuple(
        tuple(RationalFn.const(bmat[i, j]) for j in range(2)) for i in range(2)))
    w0 = identity_basis(0.0, 2)
    x_end = 1.3
    exp = dyson_expand(zero_sys, pert, 3, line_path(0.0, x_end), w0, tol=1e-12, route="ode")
    for k, term in enumerate(exp.terms, start=1):
        expect = np.linalg.matrix_power(x_end * bmat, k) / math.factorial(k)
        assert np.max(np.abs(term - expect)) < 1e-10


def test_first_order_coefficient_trivial_jump():
    m0 = np.diag([1.0, cmath.exp(-2j * math.pi * C)])
    c = np.array([[0.2, 0.1], [0.05, -0.3]], dtype=complex)
    looped = np.linalg.inv(m0) @ c @ m0
    _, coeff = perturbed_monodromy_first_order(m0, c, looped)
    assert np.max(np.abs(coeff)) < 1e-14


def test_first_order_coefficient_log_frame():
    sys, pert = _log_frame_system()
    w0 = _log_frame_basis(0.25)
    d, m, c_x, _ = deformation_delta(sys, pert, w0, 0.25,
                                     [loop_around(0, 0.125, 0.25)], tol=1e-12, route="ode")
    # delta = 2 pi i I, so the first-order coefficient is 2 pi i M0
    looped = np.linalg.inv(m) @ (d + c_x) @ m  # invert the delta definition
    m0_, coeff = perturbed_monodromy_first_order(m, c_x, looped)
    assert np.max(np.abs(coeff - 2j * math.pi * m)) < 1e-8


def test_first_order_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        perturbed_monodromy_first_order(np.eye(2), np.eye(3), np.eye(3))


def test_first_order_eigenvalue_consistency(hyp_system, frob0):
    # eigenvalues of the direct perturbed monodromy approach those of
    # M0 + rho * coeff at rate O(rho^2)
    from monodeform.transport import monodromy

    h21 = RationalFn.from_coeffs([1.0], [0.0, 0.0, 1.0])  # 1/x^2
    pert = _pert("meromorphic", h21)
    loop = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    d, m0, c_x, _ = deformation_delta(hyp_system, pert, frob0, 0.5, [loop],
                                      tol=1e-12, route="ode")
    coeff = d @ m0
    errs = []
    for rho in (2e-3, 1e-3):
        md = monodromy(hyp_system, frob0, loop, tol=1e-12, pert=pert, rho=rho)
        approx_eigs = np.linalg.eigvals(m0 + rho * coeff)
        direct_eigs = np.array(md.eigenvalues)
        err = 0.0
        pool = list(approx_eigs)
        for e in direct_eigs:
            best = min(pool, key=lambda z: abs(z - e))
            err = max(err, abs(best - e))
            pool.remove(best)
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0  # quadratic shrinkage under rho -> rho/2


def test_cocycle_jump_trivial_is_zero(hyp_system, frob0):
    jump = cocycle_jump(hyp_system, TRIVIAL, frob0, 0j, 0.5, tol=1e-11, from_zero=True)
    assert np.max(np.abs(jump.delta)) < 1e-6
    assert jump.constancy_residual < 1e-7


def test_cocycle_jump_log_frame_2pii():
    sys, pert = _log_frame_system()
    w0 = _log_frame_basis(0.25)
    jump = cocycle_jump(sys, pert, w0, 0j, 0.25, tol=1e-12, route="ode",
                        constancy_probes=[0.2, 0.35])
    assert np.max(np.abs(jump.delta - 2j * math.pi * np.eye(2))) < 1e-8
    assert jump.constancy_residual < 1e-9


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.8])
def test_cocycle_jump_power_law(hyp_system, frob0, lam):
    pert = _pert("power", ONE, lam)
    jump = cocycle_jump(hyp_system, pert, frob0, 0j, 0.5, tol=1e-11)
    for probe, delta, ref in jump.probe_data:
        pred = closed_form_jump("power", lam, ref)
        rel = np.max(np.abs(delta - pred)) / np.max(np.abs(pred))
        assert rel < 1e-6


def test_cocycle_jump_log_kind(hyp_system, frob0):
    pert = _pert("log", ONE)
    jump = cocycle_jump(hyp_system, pert, frob0, 0j, 0.5, tol=1e-11)
    for probe, delta, ref in jump.probe_data:
        pred = closed_form_jump("log", None, ref)
        rel = np.max(np.abs(delta - pred)) / np.max(np.abs(pred))
        assert rel < 1e-6


def test_ode_route_from_zero_raises_typed_error(hyp_system, frob0):
    # the branch-cut-jump perturbation: a power weight anchors at 0 itself
    pert = _pert("power", ONE, 0.5)
    with pytest.raises(MonodeformError):
        cocycle_jump(hyp_system, pert, frob0, 0j, 0.5, route="ode")


@pytest.mark.parametrize("pole", [0.4, 0.4 + 1e-7j])
def test_both_routes_refuse_a_path_by_a_pole_of_h(hyp_system, frob0, pole):
    # H21 = 1/(x - p) on the line 0.5 -> 0.3, and 1e-7 beside it: the series route
    # returned NaN on the pole and a number beside it
    pert = _pert("meromorphic", RationalFn.from_coeffs([1.0], [-pole, 1.0]))
    for route in ("series", "ode"):
        with pytest.raises(SingularPoint):
            correction_C(hyp_system, pert, frob0, line_path(0.5, 0.3), route=route)


def test_zero_head_refuses_a_pole_on_its_ray(hyp_system, frob0):
    # a power-weight jump from 0 at the probes 0.45 and 0.55: the head from 0 to each
    # probe runs through the pole of H21 = 1/(x - 0.3)
    pert = _pert("power", RationalFn.from_coeffs([1.0], [-0.3, 1.0]), 0.5)
    with pytest.raises(SingularPoint):
        cocycle_jump(hyp_system, pert, frob0, 0.0, 0.45, constancy_probes=[0.55])


def test_from_zero_correction_batches_evaluator_calls(hyp_system, frob0):
    calls, nodes = [], []

    def counted(z, branch=None):
        calls.append(1)
        nodes.append(np.size(z))
        return frob0.evaluator(z, branch)

    basis = FundamentalMatrix(frob0.basepoint, frob0.value, frob0.provenance, counted)
    pert = _pert("power", ONE, 0.4)
    # values of the node-by-node sweep this replaced
    expect = {
        None: [-0.11282273026109141, -0.06441801651373173,
               0.21503451412078467, 0.11282273026109141],
        "loop": [0.09127550613300363 - 0.0663155369708413j,
                 -0.06441801651373172 + 2.1925905388719448e-17j,
                 0.06644931924048203 - 0.20450997588293457j,
                 -0.09127550613300364 + 0.0663155369708413j],
    }
    counts = {}
    for key, path in ((None, None), ("loop", loop_around(0, 0.25, 0.5))):
        calls.clear()
        nodes.clear()
        c1 = dyson_expand(hyp_system, pert, 1, path, basis, from_zero=True).terms[0]
        counts[key] = (len(calls), sum(nodes))
        want = np.array(expect[key]).reshape(2, 2)
        assert np.max(np.abs(c1 - want)) <= 1e-13 * np.max(np.abs(want))
    # the loop adds hundreds of nodes and no evaluator call
    assert counts["loop"][1] > counts[None][1] + 100
    assert counts["loop"][0] == counts[None][0] == 2
    # the head alone: the two nodes of the exponent probe, then at most 12 levels
    assert counts[None][1] <= 2 + 12 * HEAD_NODES


@pytest.mark.parametrize("c", [0.15, 0.3, 0.6, 1.3, 1.72, 1.85])
def test_zero_anchored_meromorphic_jump_is_constant(c):
    # the integrand grows like x^-|1-c| at 0; the head's depth follows it
    sys = hypergeometric_system(0.35, 0.25, c)
    basis = frobenius_basis(0.35, 0.25, c, 0, 0.5)
    jump = cocycle_jump(sys, TRIVIAL, basis, 0j, 0.5, from_zero=True)
    assert jump.constancy_residual <= 1e-9


def test_head_depth_is_converged(monkeypatch, hyp_system, frob0):
    # a 100 times tighter target changes neither the power kind's C_1, C_2
    # nor the log kind's log-free integral beyond 1e-13
    power = _pert("power", ONE, 0.4)
    log = _pert("log", ONE)

    def run():
        terms = dyson_expand(hyp_system, power, 2, None, frob0, from_zero=True).terms
        plain = deformation_delta(hyp_system, log, frob0, 0.5, [loop_around(0, 0.25, 0.5)],
                                  from_zero=True)[3]
        return list(terms) + [plain]

    base = run()
    monkeypatch.setattr(dyson_module, "SERIES_TOL", dyson_module.SERIES_TOL / 100)
    for got, want in zip(base, run()):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_closed_form_jump_values():
    c = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.max(np.abs(closed_form_jump("log", None, c) - 2j * math.pi * c)) < 1e-15
    assert np.max(np.abs(closed_form_jump("power", 0.0, c))) < 1e-15
    assert np.max(np.abs(closed_form_jump("power", 0.5, c) + 2.0 * c)) < 1e-12
    assert np.max(np.abs(closed_form_jump("meromorphic", None, c))) < 1e-15
    with pytest.raises(UnsupportedKind):
        closed_form_jump("unknown", None, c)


def test_non_integrable_endpoint_raises(hyp_system, frob0):
    h21 = RationalFn.from_coeffs([1.0], [0.0, 0.0, 1.0])  # 1/x^2 diverges at 0
    pert = _pert("meromorphic", h21)
    with pytest.raises(NonIntegrableEndpoint):
        dyson_expand(hyp_system, pert, 1, line_path(0.5, 0.6), frob0, tol=1e-11,
                     from_zero=True)


def _identity_setup(hyp_system, frob0):
    den = ComplexPoly.make([0, 0, 1.0]) * ComplexPoly.make([1.0, -2.0, 1.0])
    h21 = RationalFn.make(ComplexPoly.one(), den)  # 1/(x^2 (1-x)^2)
    pert = _pert("meromorphic", h21)
    probe = 0.5
    g0 = loop_around(0, 0.25, probe, avoid=hyp_system.singularities)
    g1 = loop_around(1, 0.25, probe, avoid=hyp_system.singularities)
    d0, m0, _, _ = deformation_delta(hyp_system, pert, frob0, probe, [g0], 1e-11, route="ode")
    d1, m1, _, _ = deformation_delta(hyp_system, pert, frob0, probe, [g1], 1e-11, route="ode")
    d01, _, _, _ = deformation_delta(hyp_system, pert, frob0, probe, [g1, g0], 1e-11, route="ode")
    return d0, d1, d01, m0, m1


def test_cocycle_identity_numeric(hyp_system, frob0):
    d0, d1, d01, m0, m1 = _identity_setup(hyp_system, frob0)
    deltas = {"g0": d0, "g1": d1, ("g0", "g1"): d01}
    resid = cocycle_identity_residual(deltas, {"g0": m0, "g1": m1}, ("g0", "g1"))
    assert resid < 1e-7
    # deliberate violation: scale one delta
    deltas_bad = dict(deltas)
    deltas_bad["g0"] = 2 * d0
    assert cocycle_identity_residual(deltas_bad, {"g0": m0, "g1": m1}, ("g0", "g1")) > 1e-3


def test_cocycle_identity_zero_deltas():
    z = np.zeros((2, 2))
    deltas = {"a": z, "b": z, ("a", "b"): z}
    assert cocycle_identity_residual(deltas, {"a": np.eye(2), "b": np.eye(2)}, ("a", "b")) == 0.0


def test_dyson_truncation_order_scaling(hyp_system, frob0):
    kappa = 8.0
    h21 = RationalFn.from_coeffs([kappa], [0.0, 1.0, -1.0])
    pert = _pert("meromorphic", h21)
    path = line_path(0.5, 0.8)
    wx = transport(hyp_system, None, 0, path, frob0, tol=1e-13).w.value
    exp = dyson_expand(hyp_system, pert, 2, path, frob0, tol=1e-13, route="ode")
    errs = []
    for rho in (1e-2, 5e-3):
        direct = transport(hyp_system, pert, rho, path, frob0, tol=1e-13).w.value
        approx = evaluate_dyson(wx, exp, rho)
        errs.append(np.max(np.abs(direct - approx)))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.15)


@pytest.mark.parametrize("kind,lam", [("meromorphic", None), ("power", 0.5), ("log", None)])
def test_ode_route_truncation_order_on_3x3_system(kind, lam):
    # a 3x3 system takes the general W^{-1} R solve of the gauge product, not the 2x2
    # adjugate: the Dyson sum truncated at K is off the direct transport by O(rho^(K+1))
    sys3 = companion(ghe_operator([0.3, 0.7, 1.1], [0.9, 1.3]))
    h = RationalFn.from_coeffs([8.0], [0.0, 1.0, -1.0])
    pert = PerturbationSpec(kind, tuple(tuple(h if (i, j) == (2, 0) else ZERO for j in range(3))
                                        for i in range(3)), lam)
    w0, path = identity_basis(0.5, 3), line_path(0.5, 0.8)
    wx = transport(sys3, None, 0, path, w0, tol=1e-13).w.value
    for K in (1, 2):
        exp = dyson_expand(sys3, pert, K, path, w0, tol=1e-13, route="ode")
        errs = [np.max(np.abs(transport(sys3, pert, rho, path, w0, tol=1e-13).w.value
                              - evaluate_dyson(wx, exp, rho))) for rho in (1e-2, 5e-3)]
        assert errs[0] / errs[1] == pytest.approx(2.0 ** (K + 1), rel=0.15), K


@pytest.mark.parametrize("center", [0, 1])
def test_log_free_integral_routes_agree(hyp_system, frob0, center):
    # the ODE route carries the log-free integral int W^{-1} H W as its own block
    pert = _pert("log", ONE)
    loop = default_loop(center, hyp_system, 0.45)
    ode, series = (deformation_delta(hyp_system, pert, frob0, 0.45, [loop], tol=1e-12,
                                     route=route) for route in ("ode", "series"))
    assert np.max(np.abs(ode[3] - series[3])) <= 1e-12
    assert np.max(np.abs(ode[0] - series[0])) <= 1e-10


def test_correction_vanishes_on_short_path(hyp_system, frob0):
    # C from a basepoint to itself is zero by convention; a path of length
    # epsilon carries O(epsilon)
    corr = correction_C(hyp_system, TRIVIAL, frob0, line_path(0.5, 0.5 + 1e-9),
                        tol=1e-12, route="ode")
    assert np.max(np.abs(corr.value)) < 1e-8


def test_from_zero_delta_homotopy_invariance(hyp_system, frob0):
    pert = _pert("power", ONE, 0.4)
    d1, _, _, _ = deformation_delta(hyp_system, pert, frob0, 0.5,
                                    [loop_around(0, 0.2, 0.5)], from_zero=True)
    d2, _, _, _ = deformation_delta(hyp_system, pert, frob0, 0.5,
                                    [loop_around(0, 0.35, 0.5)], from_zero=True)
    assert np.max(np.abs(d1 - d2)) < 1e-10


def test_delta_routes_agree_multivalued(hyp_system, frob0):
    # branch tracking must be consistent between the panel-quadrature and
    # augmented-ODE integrations
    pert = _pert("power", ONE, 0.4)
    loop = loop_around(0, 0.25, 0.5)
    d_ser, _, _, _ = deformation_delta(hyp_system, pert, frob0, 0.5, [loop],
                                       from_zero=False, route="series")
    d_ode, _, _, _ = deformation_delta(hyp_system, pert, frob0, 0.5, [loop],
                                       tol=1e-12, from_zero=False, route="ode")
    assert np.max(np.abs(d_ser - d_ode)) < 1e-10


def test_delta_routes_agree_around_one(hyp_system):
    # the series route with the basis at 1 maps loop arguments through the
    # local variable 1 - x; both routes must agree
    w1 = frobenius_basis(A, B, C, 1, 0.5)
    loop1 = loop_around(1, 0.25, 0.5, avoid=hyp_system.singularities)
    d_ser, m_ser, _, _ = deformation_delta(hyp_system, TRIVIAL, w1, 0.5, [loop1],
                                           route="series")
    d_ode, m_ode, _, _ = deformation_delta(hyp_system, TRIVIAL, w1, 0.5, [loop1],
                                           tol=1e-12, route="ode")
    assert np.max(np.abs(d_ser - d_ode)) < 1e-9
    assert np.max(np.abs(m_ser - m_ode)) < 1e-9


@pytest.mark.parametrize("pole", [1.375003, 1.37503, 1.3753, 0.56 + 3e-6j])
def test_series_route_by_a_pole_of_h_matches_ode(hyp_system, frob0, pole):
    # H21 = 1/(x - p) 3e-6 to 3e-4 off the circle of the default loop round 1 from 0.5
    # (r = 0.375), and 3e-6 off its connector 0.5 -> 0.625: with panels floored at
    # 0.05 rad and 1e-4 in length the series route was off by up to 12.2 of |delta| 2.35
    pert = _pert("meromorphic", RationalFn.from_coeffs([1.0], [-pole, 1.0]))
    loop = default_loop(1, hyp_system, 0.5)
    d_ser, *_ = deformation_delta(hyp_system, pert, frob0, 0.5, [loop], route="series")
    d_ode, *_ = deformation_delta(hyp_system, pert, frob0, 0.5, [loop], tol=1e-12,
                                  route="ode")
    assert np.max(np.abs(d_ser - d_ode)) <= 1e-9 * np.max(np.abs(d_ode))


@pytest.mark.parametrize("seg", [Line(0.5, 0.625), Arc(1.0, 0.375, math.pi, 3 * math.pi)],
                         ids=["line", "arc"])
def test_pieces_are_graded_toward_a_close_point(seg):
    # a piece is at most half its midpoint's distance to the nearest tracked point; the
    # arc's own centre does not count
    speed = abs(seg.velocity(0.0))
    for p in (0.56 + 3e-6j, 1.375003, 0.6 - 0.3j):
        points = [0j, 1 + 0j, p]
        others = [q for q in points if not (isinstance(seg, Arc) and q == seg.center)]
        cuts = _pieces(seg, [0.0, 0.5, 1.0], points)
        assert cuts[0] == 0.0 and cuts[-1] == 1.0 and all(np.diff(cuts) > 0)
        for a, b in zip(cuts, cuts[1:]):
            mid = seg.point(0.5 * (a + b))
            assert speed * (b - a) <= 0.5 * min(abs(mid - q) for q in others)
        assert len(cuts) < 100


def test_pieces_keep_cuts_that_already_hold():
    # pieces that meet the rule are not split again: a layout where no floor bound
    # is the layout of the uniform start
    arc = Arc(1.0, 0.375, math.pi, 3 * math.pi)
    cuts = [j / 13 for j in range(14)]
    assert _pieces(arc, cuts, [0j, 1 + 0j]) == cuts
    assert _pieces(Line(0.5, 0.625), [0.0, 1.0], [0j, 1 + 0j]) == [0.0, 1.0]


def _routes(sys, basis, probe, loops):
    """(delta, M) by the series route and by the ODE route at tol 1e-12."""
    ser = deformation_delta(sys, TRIVIAL, basis, probe, loops, route="series")
    ode = deformation_delta(sys, TRIVIAL, basis, probe, loops, tol=1e-12, route="ode")
    return ser[:2], ode[:2]


@pytest.mark.parametrize("point, center", [(0, 1), (1, 0)])
@pytest.mark.parametrize("probe", [0.3, 0.5, 0.7])
def test_two_zone_series_route_matches_ode(hyp_system, point, center, probe):
    # loops around the other point leave the zone of the basis and continue
    # W through the other local basis
    basis = frobenius_basis(A, B, C, point, 0.5)
    loop = default_loop(center, hyp_system, probe)
    ser, ode = _routes(hyp_system, basis, probe, [loop])
    for s, o in zip(ser, ode):
        assert np.max(np.abs(s - o)) <= 1e-9


@pytest.mark.parametrize("point, x0", [(0, 0.7 - 0.1j), (1, 0.3 - 0.1j)])
def test_two_zone_series_route_below_the_axis(hyp_system, point, x0):
    # the contour starts in the other zone, below the axis: W starts as the
    # principal connection times the basis there, on the principal branch
    basis = frobenius_basis(A, B, C, point, x0)
    for center in (0, 1):
        loop = default_loop(center, hyp_system, x0)
        ser, ode = _routes(hyp_system, basis, x0, [loop])
        for s, o in zip(ser, ode):
            assert np.max(np.abs(s - o)) <= 1e-9, center


def test_two_zone_series_route_composites(hyp_system, frob0):
    la, lb = (default_loop(ctr, hyp_system, 0.5) for ctr in (0, 1))
    deltas, monos = {}, {}
    for key, loops in (("a", [la]), ("b", [lb]), (("a", "b"), [lb, la]), (("b", "a"), [la, lb])):
        ser, ode = _routes(hyp_system, frob0, 0.5, loops)
        for s, o in zip(ser, ode):
            assert np.max(np.abs(s - o)) <= 1e-9, key
        deltas[key], monos[key] = ser
    assert cocycle_identity_residual(deltas, monos, ("a", "b")) <= 1e-9
    assert cocycle_identity_residual(deltas, monos, ("b", "a")) <= 1e-9


_TOP = 0.4 + 1.5j


@pytest.mark.parametrize("probe, loop", [
    # once round a circle of radius 1.5 about 0.4: its top has |z|, |1-z| > 1
    (0.5, PathSpec((Line(0.5, _TOP), Arc(0.4, 1.5, math.pi / 2, math.pi / 2 + 2 * math.pi),
                    Line(_TOP, 0.5)))),
    # a circle of radius 0.9 about 1: both series converge on it, but most of
    # it lies outside both zones
    (0.05, loop_around(1, 0.9, 0.05)),
], ids=["radius-1.5", "radius-0.9"])
def test_contour_outside_both_zones_falls_back_to_rk(hyp_system, frob0, monkeypatch, probe, loop):
    with pytest.raises(SeriesRouteUnavailable, match="convergence zone"):
        deformation_delta(hyp_system, TRIVIAL, frob0, probe, [loop], route="series")
    calls = []
    rk = transport_module._dop853
    monkeypatch.setattr(transport_module, "_dop853", lambda *a: calls.append(1) or rk(*a))
    auto = deformation_delta(hyp_system, TRIVIAL, frob0, probe, [loop], route="auto")
    assert calls
    ode = deformation_delta(hyp_system, TRIVIAL, frob0, probe, [loop], route="ode")
    assert np.array_equal(auto[0], ode[0])


def test_degenerate_other_basis_keeps_to_own_zone(monkeypatch):
    # c - a - b = 0: the basis at 1 has a log member, so W stays in the zone
    # at 0, where the probe 0.7 still converges, and a loop around 1 takes RK
    a, b, c = 0.2, 0.3, 0.5
    sys = hypergeometric_system(a, b, c)
    frob0 = frobenius_basis(a, b, c, 0, 0.5)
    jump = cocycle_jump(sys, _pert("power", ONE, 0.5), frob0, 0j, 0.7)
    assert np.max(np.abs(jump.delta - closed_form_jump("power", 0.5, jump.probe_data[0][2]))) < 1e-9
    loop1 = loop_around(1, 0.25, 0.5, avoid=sys.singularities)
    with pytest.raises(SeriesRouteUnavailable, match="convergence zone"):
        deformation_delta(sys, TRIVIAL, frob0, 0.5, [loop1], route="series")
    calls = []
    rk = transport_module._dop853
    monkeypatch.setattr(transport_module, "_dop853", lambda *a: calls.append(1) or rk(*a))
    deformation_delta(sys, TRIVIAL, frob0, 0.5, [loop1])
    assert calls


def test_carried_basis_takes_the_ode_route(hyp_system):
    # carried once round 0 the basis is W M_0, which the series of its own
    # frame no longer gives, so `auto` must not measure M against that series
    frob0 = frobenius_basis(0.3, 0.7, 0.4, 0, 0.5)
    loop0 = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    carried = transport(hyp_system, None, 0, loop0, frob0).w
    assert carried.evaluator is None
    loop1 = loop_around(1, 0.25, 0.5, avoid=hyp_system.singularities)
    auto = deformation_delta(hyp_system, TRIVIAL, carried, 0.5, [loop1], route="auto")
    ode = deformation_delta(hyp_system, TRIVIAL, carried, 0.5, [loop1], route="ode")
    for got, want in zip(auto, ode):
        assert np.array_equal(got, want)


def test_cheb_cumulative_exact_on_polynomials():
    n, half = 32, 0.37 - 0.21j
    rng = np.random.default_rng(7)
    x = cheb_nodes(n)
    polys = [np.polynomial.Chebyshev(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
             for d in (0, 5, 17, 30)]
    values = np.stack([p(x) for p in polys], axis=1)
    expect = np.stack([p.integ(lbnd=-1.0)(x) for p in polys], axis=1) * half
    got = cheb_cumulative(values, half)
    assert got.shape == (n, 4)
    assert np.max(np.abs(got - expect)) < 1e-13


def test_cheb_cumulative_stack_equals_per_panel_calls():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(5, 12, 4)) + 1j * rng.normal(size=(5, 12, 4))
    half = 0.37 - 0.21j
    got = cheb_cumulative(values, half)
    assert got.shape == values.shape
    for panel, vals in zip(got, values):
        assert np.array_equal(panel, cheb_cumulative(vals, half))


def _nested_reference_sweep(evaluator, pert, panel_groups, points, K, dim, want_plain, from_zero):
    """The sweep order by order and panel by panel: each panel's integral
    starts at the value the panel before it ended with, and the first panel
    at 0, or with from_zero at the tail closed from the first two panels.
    Returns the markers (W, [C_1..C_K], plain, tracked arguments) at each
    group end."""
    panels = [panel for group in panel_groups for panel in group]
    zs = np.concatenate([panel.zs for panel in panels])
    args = np.concatenate([panel.args for panel in panels])
    dz = np.concatenate([panel.dzdtau for panel in panels])
    branch = BranchState(tuple(zip(points, args.T)))
    w = evaluator(zs, branch)
    pv = _gauge_matrix(w, np.einsum("nij,njk->nik", pert.h_matrix(zs), w)) * dz[:, None, None]
    gv = np.reshape(pert.weight(zs, branch), (-1, 1, 1)) * pv
    # each panel's own node count: 32 on a zero head, 16 on a path
    sizes = [panel.n for panel in panels for _ in range(len(panel.zs) // panel.n)]
    starts = np.cumsum([0] + sizes[:-1])
    ends = []  # per order, then the plain integral: the value at each panel end
    for k in range(K + 1):
        integrand = pv if k == K else gv if k == 0 else np.einsum("nij,njk->nik", gv, nodes)
        local = [cheb_cumulative(integrand[j:j + n].reshape(n, dim * dim), 1.0)
                 for j, n in zip(starts, sizes)]
        value = geometric_tail(local[1][-1], local[0][-1]) if from_zero else 0.0
        nodes = []
        for panel in local:
            nodes.append(value + panel)
            value = nodes[-1][-1]
        last = np.array([panel[-1] for panel in nodes]).reshape(-1, dim, dim)
        nodes = np.concatenate(nodes).reshape(-1, dim, dim)
        ends.append(last if k < K or want_plain else np.zeros_like(last))
    panel_ends = list(np.cumsum(sizes))
    group_ends = np.cumsum([sum(len(panel.zs) for panel in group) for group in panel_groups])
    return [(w[end - 1], [ends[k][panel_ends.index(end)] for k in range(K)],
             ends[K][panel_ends.index(end)], args[end - 1]) for end in group_ends]


def test_batched_sweep_equals_nested_panel_sweep(hyp_system, frob0):
    # a zero head and two path groups, the second round 1 through both zones;
    # third order and the plain integral, which cocycle jumps never reach
    pert = _pert("power", ONE, 0.4)
    paths = [line_path(0.5, 0.6), loop_around(1.0, 0.2, 0.6)]
    pts = tracked_points(hyp_system, pert, paths)
    groups = [_panels_for_head(0.5, pts, 10)]
    state = BranchState.principal(0.5, pts)
    for p in paths:
        group, state = _panels_for_path(p, pts, state, hyp_system.singularities)
        groups.append(group)
    got = _series_sweep(frob0.evaluator, pert, groups, pts, 3, 2, True, True)
    want = _nested_reference_sweep(frob0.evaluator, pert, groups, pts, 3, 2, True, True)
    assert len(got) == len(want) == 3
    for (w, cs, d, branch), (w_ref, cs_ref, d_ref, args_ref) in zip(got, want):
        assert np.array_equal(w, w_ref) and np.array_equal(d, d_ref)
        assert all(np.array_equal(c, c_ref) for c, c_ref in zip(cs, cs_ref))
        assert np.array_equal([a for _, a in branch.args], args_ref)
    assert np.max(np.abs(got[-1][1][2])) > 1e-6 and np.max(np.abs(got[-1][2])) > 1e-3


def _seeded_triples(rng, count):
    """(a, b, c) with c and c - a - b at least 0.1 from the integers."""
    out = []
    while len(out) < count:
        a, b, c = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.15, 1.85)
        if min(abs(v - round(v)) for v in (c, c - a - b)) >= 0.1:
            out.append((a, b, c))
    return out


@pytest.mark.parametrize("kind, h21, lam", [
    ("meromorphic", RationalFn.from_coeffs([0.8], [0.0, 1.0, -1.0]), None),
    ("power", RationalFn.const(1.2), 0.35),
    ("log", RationalFn.const(0.7), None),
])
def test_series_monodromy_matches_rk(kind, h21, lam):
    # M_0 and M(rho) round 0 and round 1 from one series sweep against the
    # plain and perturbed RK monodromies at tol 1e-12, in the same frame
    pert = _pert(kind, h21, lam)
    for a, b, c in _seeded_triples(np.random.default_rng(2701), 3):
        sys_, basis = hypergeometric_system(a, b, c), frobenius_basis(a, b, c, 0, 0.5)
        for center in (0, 1):
            loop = default_loop(center, sys_, 0.5)
            m0, m_rho, K = series_monodromy(sys_, pert, 1e-3, basis, loop, 1e-10)
            assert 1 <= K <= 5
            assert np.max(np.abs(m0 - monodromy(sys_, basis, loop, 1e-12).matrix)) <= 1e-9
            rk = monodromy(sys_, basis, loop, 1e-12, pert=pert, rho=1e-3).matrix
            assert np.max(np.abs(m_rho - rk)) <= 1e-9, (a, b, c, center)
            assert np.max(np.abs(m_rho - m0)) > 1e-6  # the perturbation is seen


def test_series_monodromy_never_truncates(hyp_system, frob0):
    # rho = 1 round 0: |rho|^8 ||C_8|| is far above tol, so the series route
    # refuses rather than sum eight terms; unperturbed, K is 0
    pert = _pert("meromorphic", RationalFn.from_coeffs([1.0], [0.0, 1.0]))
    loop = default_loop(0, hyp_system, 0.5)
    with pytest.raises(SeriesRouteUnavailable, match="not converged by K = 8"):
        series_monodromy(hyp_system, pert, 1.0, frob0, loop)
    m0, m_rho, K = series_monodromy(hyp_system, None, 0, frob0, loop)
    assert m_rho is None and K == 0
    assert np.max(np.abs(m0 - monodromy(hyp_system, frob0, loop, 1e-12).matrix)) <= 1e-11


def test_series_monodromy_stops_at_its_order(monkeypatch, hyp_system, frob0):
    # H21 = 1/x, rho = 1e-3 round 1 converges at K = 3: the sweep integrates three
    # orders, not eight, and M(rho) is bit for bit the sum of the 8-order sweep's terms
    pert = _pert("meromorphic", RationalFn.from_coeffs([1.0], [0.0, 1.0]))
    loop = default_loop(1, hyp_system, 0.5)
    calls = []
    running = dyson_module._running_integral
    monkeypatch.setattr(dyson_module, "_running_integral",
                        lambda *a: calls.append(1) or running(*a))
    m0, m_rho, K = series_monodromy(hyp_system, pert, 1e-3, frob0, loop)
    assert K == len(calls) == 3
    full = dyson_expand(hyp_system, pert, 8, loop, frob0, route="series")
    assert len(calls) == 3 + 8
    assert np.array_equal(m0, np.linalg.solve(frob0.value, full.w_end))
    bound = 1e-10 * max(1.0, np.max(np.abs(m0)))
    sizes = [1e-3**k * np.max(np.abs(c)) for k, c in enumerate(full.terms, start=1)]
    assert [size <= bound for size in sizes[:3]] == [False, False, True]
    total = np.eye(2) + sum(c * 1e-3**k for k, c in enumerate(full.terms[:3], start=1))
    assert np.array_equal(m_rho, m0 @ total)


@pytest.mark.parametrize("kind, h21, lam", [
    ("meromorphic", RationalFn.from_coeffs([0.8], [0.0, 1.0, -1.0]), None),
    ("power", RationalFn.const(1.2), 0.35),
    ("log", RationalFn.const(0.7), None),
])
def test_16_node_path_panels_hold_to_32(monkeypatch, kind, h21, lam):
    # a from-zero expansion to K = 3 along the default loop round 1: C_1..C_3 and W at
    # the end on 16-node path panels agree with 32-node ones to 1e-13 relative
    pert = _pert(kind, h21, lam)
    for a, b, c in _seeded_triples(np.random.default_rng(2801), 3):
        sys_, basis = hypergeometric_system(a, b, c), frobenius_basis(a, b, c, 0, 0.5)
        loop = default_loop(1, sys_, 0.5)
        got = dyson_expand(sys_, pert, 3, loop, basis, from_zero=True)
        with monkeypatch.context() as patch:
            patch.setattr(dyson_module, "PATH_NODES", 32)
            want = dyson_expand(sys_, pert, 3, loop, basis, from_zero=True)
        for x, y in zip(got.terms + (got.w_end,), want.terms + (want.w_end,)):
            assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y)), (a, b, c)
