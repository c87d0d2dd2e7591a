import json
import math

import numpy as np
import pytest

from monodeform.cli import _ratfn_json
from monodeform.errors import BranchRequired
from monodeform.hypergeom import hypergeometric_ode, hypergeometric_system
from monodeform.odecore import (
    MeromorphicSystem,
    PerturbationSpec,
    ScalarODE,
    companion,
    perturbation_from_json,
    scalar_ode_from_json,
    system_from_json,
)
from monodeform.paths import BranchState
from monodeform.ratfun import ComplexPoly, RationalFn

A, B, C = 0.3, 0.7, 0.4


def test_companion_zero_coefficients():
    ode = ScalarODE(2, (RationalFn.zero(), RationalFn.zero()))
    sys = companion(ode)
    m = sys.evaluate(0.37)
    assert np.allclose(m, np.array([[0, 1], [0, 0]]))


def test_companion_hypergeometric_last_row():
    sys = hypergeometric_system(A, B, C)
    x = 0.3
    m = sys.evaluate(x)
    denom = x * (1 - x)
    assert abs(m[1, 0] - A * B / denom) < 1e-12
    assert abs(m[1, 1] - ((A + B + 1) * x - C) / denom) < 1e-12
    assert m[0, 0] == 0 and m[0, 1] == 1


def test_companion_third_order_constant():
    one = RationalFn.const(1.0)
    sys = companion(ScalarODE(3, (one, one, one)))
    m = sys.evaluate(2.0)
    expect = np.array([[0, 1, 0], [0, 0, 1], [-1, -1, -1]], dtype=complex)
    assert np.allclose(m, expect)


def test_singularities_hypergeometric():
    sys = hypergeometric_system(A, B, C)
    sing = sys.singularities
    assert len(sing) == 2
    assert min(abs(s - 0) for s in sing) < 1e-9
    assert min(abs(s - 1) for s in sing) < 1e-9


def test_singularities_constant_matrix_empty():
    one = RationalFn.const(1.0)
    sys = MeromorphicSystem(2, ((one, one), (one, one)))
    assert sys.singularities == ()


def test_singularities_quadratic_denominator():
    r = RationalFn.from_coeffs([1.0], [-4.0, 0.0, 1.0])
    zero = RationalFn.zero()
    sys = MeromorphicSystem(2, ((r, zero), (zero, zero)))
    sing = sorted(sys.singularities, key=lambda z: z.real)
    assert abs(sing[0] + 2) < 1e-9 and abs(sing[1] - 2) < 1e-9


def test_singularities_invariant_under_common_factor():
    num, den = ComplexPoly.make([1.0]), ComplexPoly.make([0.0, 1.0])
    factor = ComplexPoly.make([3.0, 2.0, 1.0])
    plain = RationalFn.make(num, den)
    scaled = RationalFn.make(num * factor, den * factor)
    zero = RationalFn.zero()
    s1 = MeromorphicSystem(1, ((plain,),)).singularities
    s2 = MeromorphicSystem(1, ((scaled,),)).singularities
    assert len(s1) == len(s2) == 1
    assert abs(s1[0] - s2[0]) < 1e-9


def _trivial_perturbation():
    zero = RationalFn.zero()
    h21 = RationalFn.from_coeffs([1.0], [0.0, 1.0, -1.0])  # 1/(x(1-x))
    return PerturbationSpec("meromorphic", ((zero, zero), (h21, zero)))


def test_perturbed_rhs_rho_zero_exact(hyp_system, frob0):
    # rho = 0 drops the perturbation from the transport right-hand side
    # exactly, for every weight kind
    from monodeform.paths import loop_around
    from monodeform.transport import transport

    loop = loop_around(0, 0.25, 0.5, avoid=hyp_system.singularities)
    plain = transport(hyp_system, None, 0, loop, frob0, tol=1e-10)
    one = RationalFn.const(1.0)
    for pert in (_trivial_perturbation(),
                 PerturbationSpec("power", ((one, one), (one, one)), lam=0.5),
                 PerturbationSpec("log", ((one, one), (one, one)))):
        res = transport(hyp_system, pert, 0, loop, frob0, tol=1e-10)
        assert np.array_equal(res.w.value, plain.w.value)
        assert res.steps == plain.steps


def test_perturbed_rhs_trivial_at_half(hyp_system):
    pert = _trivial_perturbation()
    rho = 0.01
    got = hyp_system.evaluate(0.5) + rho * pert.weight(0.5) * pert.h_matrix(0.5)
    expect = hyp_system.evaluate(0.5) + rho * np.array([[0, 0], [4.0, 0]])
    assert pert.weight(0.5) == 1.0
    assert np.max(np.abs(got - expect)) < 1e-12


def test_perturbed_rhs_log_branch_shift():
    one = RationalFn.const(1.0)
    zero = RationalFn.zero()
    pert = PerturbationSpec("log", ((one, zero), (zero, one)))
    x = 0.4
    principal = BranchState.principal(x, [0j])
    looped = BranchState(((0j, principal.arg(0j) + 2 * math.pi),))
    assert pert.weight(x, principal) == pytest.approx(math.log(x))
    assert pert.weight(x, looped) - pert.weight(x, principal) == pytest.approx(2j * math.pi)


def test_perturbed_rhs_branch_required():
    one = RationalFn.const(1.0)
    zero = RationalFn.zero()
    for kind, lam in (("power", 0.5), ("log", None)):
        pert = PerturbationSpec(kind, ((zero, zero), (one, zero)), lam=lam)
        with pytest.raises(BranchRequired):
            pert.weight(0.4, None)


def test_companion_residual_on_transported_column(hyp_system, frob0):
    # a transported solution column still satisfies the scalar equation;
    # second derivative estimated by central differences of y'
    from monodeform.paths import line_path
    from monodeform.transport import transport

    ode = hypergeometric_ode(A, B, C)
    h = 2e-4
    vals = {}
    for dx in (-h, -h / 2, 0.0, h / 2, h):
        res = transport(hyp_system, None, 0, line_path(0.5, 0.72 + dx), frob0, tol=1e-12)
        vals[dx] = np.asarray(res.w.value)[:, 0]
    y, dy = vals[0.0]
    d2_coarse = (vals[h][1] - vals[-h][1]) / (2 * h)
    d2_fine = (vals[h / 2][1] - vals[-h / 2][1]) / h
    d2y = (4 * d2_fine - d2_coarse) / 3
    resid = ode.residual(0.72, (y, dy, d2y))
    assert abs(resid) < 1e-6


def test_json_roundtrips(hyp_system):
    # spec JSON as the CLI writes it, through text and the decoders
    def decode(decoder, data):
        return decoder(json.loads(json.dumps(data)))

    den = [0.0, 1.0, -1.0]  # x(1-x)
    zero, one = _ratfn_json([]), _ratfn_json([1.0])
    ode = hypergeometric_ode(A, B, C)
    ode2 = decode(scalar_ode_from_json, {"order": 2, "coeffs": [
        _ratfn_json([-A * B], den), _ratfn_json([C, -(A + B + 1)], den)]})
    x = 0.3 + 0.2j
    for c1, c2 in zip(ode.coeffs, ode2.coeffs):
        assert abs(c1(x) - c2(x)) < 1e-12
    sys2 = decode(system_from_json, {"dim": 2, "entries": [
        [zero, one], [_ratfn_json([A * B], den), _ratfn_json([-C, A + B + 1], den)]]})
    assert np.max(np.abs(sys2.evaluate(x) - hyp_system.evaluate(x))) < 1e-12
    pert2 = decode(perturbation_from_json, {"kind": "power", "lambda": [0.25, 0.0],
                                            "H": [[zero, zero], [one, zero]]})
    assert pert2.kind == "power" and abs(pert2.lam - 0.25) < 1e-15
