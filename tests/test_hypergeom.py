import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monodeform.errors import DegenerateParams, NoConvergence
from monodeform.hypergeom import (
    MEMO_BYTES,
    ConnectedBasis,
    SERIES_TOL,
    HypergeomParams,
    _pfq_nodes,
    elem_sym,
    ghe_coefficient_polys,
    ghe_operator,
    hypergeometric_system,
    local_basis,
    pochhammer,
    stirling2,
    weight_omega,
)
from monodeform.ratfun import ComplexPoly

A, B, C = 0.3, 0.7, 0.4


# --- pochhammer / stirling / elementary symmetric ---------------------------


def test_pochhammer_cases():
    assert pochhammer(2.7 + 1j, 0) == 1
    assert pochhammer(1.0, 4) == 24
    assert abs(pochhammer(0.5, 2) - 0.75) < 1e-15


@given(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)), st.integers(0, 8))
def test_pochhammer_recurrence(a, m):
    assert abs(pochhammer(a, m + 1) - pochhammer(a, m) * (a + m)) < 1e-9 * (1 + abs(pochhammer(a, m + 1)))


def test_stirling_cases():
    for k in range(7):
        assert stirling2(k, k) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 2) == 15
    assert stirling2(0, 0) == 1
    assert stirling2(4, 0) == 0


def test_stirling_inversion_identity():
    # sum_n c(k,n) * falling_factorial(x, n) == x^k
    for k in range(7):
        for x in range(1, 7):
            acc = 0
            for n in range(k + 1):
                ff = 1
                for i in range(n):
                    ff *= x - i
                acc += stirling2(k, n) * ff
            assert acc == x**k


P = np.polynomial.polynomial


def _theta(p: np.ndarray) -> np.ndarray:
    return P.polymul([0, 1], P.polyder(p))


def test_theta_operator_expansion():
    # (x d/dx)^k f == sum_n c(k,n) x^n f^(n) for polynomials, exactly
    f = np.array([2, -1, 3, 0.5, 1])
    for k in range(6):
        lhs = f
        for _ in range(k):
            lhs = _theta(lhs)
        rhs = np.zeros(1)
        dn = f
        for n in range(k + 1):
            rhs = P.polyadd(rhs, P.polymul([0] * n + [1], dn) * stirling2(k, n))
            dn = P.polyder(dn)
        assert lhs == pytest.approx(rhs)


def test_commutator_shift_identity():
    # d/dz theta^n = (theta+1)^n d/dz on monomials up to degree 6
    for n in range(4):
        for deg in range(7):
            mono = np.array([0] * deg + [1])
            lhs = mono
            for _ in range(n):
                lhs = _theta(lhs)
            lhs = P.polyder(lhs)
            rhs = P.polyder(mono)
            for _ in range(n):
                # (theta + 1) acting
                rhs = P.polyadd(_theta(rhs), rhs)
            # compare coefficient lists (theta+1)^n via binomial expansion is
            # exactly the repeated application used here
            assert lhs == pytest.approx(rhs)


def test_elem_sym_cases():
    assert elem_sym([2, 3, 5], 0) == 1
    assert elem_sym([2 + 1j, 3], 1) == 5 + 1j
    assert elem_sym([2, 3, 5], 2) == 31
    with pytest.raises(IndexError):
        elem_sym([1, 2], 3)


@given(st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=6),
       st.randoms())
def test_elem_sym_permutation_invariance(vals, rnd):
    k = min(2, len(vals))
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    assert abs(elem_sym(vals, k) - elem_sym(shuffled, k)) < 1e-9 * (1 + abs(elem_sym(vals, k)))


# --- series ------------------------------------------------------------------


def test_pfq_at_zero_is_one():
    p = HypergeomParams.f21(2.3, -1.1, 0.7)
    assert _pfq_nodes((p,), 0.0, SERIES_TOL)[0][0] == 1.0


def test_2f1_log_value():
    # 2F1(1,1;2;x) = -log(1-x)/x
    val, _ = _pfq_nodes((HypergeomParams.f21(1, 1, 2),), 0.5, SERIES_TOL)[0]
    assert abs(val - (-math.log(0.5) / 0.5)) < 1e-13


def test_term_ratio_identity():
    a, b, c, x = 0.4, 1.3, 0.9, 0.3
    for m in (0, 1, 5, 10):
        tm = pochhammer(a, m) * pochhammer(b, m) / (pochhammer(c, m) * math.factorial(m)) * x**m
        tm1 = pochhammer(a, m + 1) * pochhammer(b, m + 1) / (
            pochhammer(c, m + 1) * math.factorial(m + 1)) * x ** (m + 1)
        ratio = (a + m) * (b + m) * x / ((c + m) * (1 + m))
        assert abs(tm1 / tm - ratio) < 1e-12


def test_invalid_lower_parameter():
    with pytest.raises(DegenerateParams):
        HypergeomParams((1.0 + 0j,), (-2.0 + 0j,))
    with pytest.raises(DegenerateParams):
        HypergeomParams((1.0 + 0j,), (0j,))


def test_no_convergence_outside_disk(monkeypatch):
    import monodeform.hypergeom as hg

    monkeypatch.setattr(hg, "MAX_TERMS", 2000)
    p = HypergeomParams((1.0 + 0j, 1.0 + 0j), (2.0 + 0j,))
    with pytest.raises(NoConvergence):
        hg._pfq_nodes((p,), 1.5 + 0.1j, 1e-14)


def test_array_kernel_no_convergence_outside_disk(monkeypatch):
    import monodeform.hypergeom as hg

    monkeypatch.setattr(hg, "MAX_TERMS", 2000)
    p = HypergeomParams((1.0 + 0j, 1.0 + 0j), (2.0 + 0j,))
    with pytest.raises(NoConvergence):
        hg._pfq_nodes((p,), np.array([0.5, 1.5 + 0.1j]), 1e-14)


def test_array_kernel_zero_node():
    import monodeform.hypergeom as hg

    p = HypergeomParams.f21(A, B, C)
    vals, ders = hg._pfq_nodes((p,), np.array([0.0, 0.31, 0j]), 1e-14)[0]
    assert vals[0] == vals[2] == 1 and ders[0] == ders[2] == A * B / C
    assert (vals[1], ders[1]) == pytest.approx(hg._pfq_nodes((p,), 0.31, 1e-14)[0], rel=1e-14)


@pytest.mark.parametrize("a", [0, -1, -3])
def test_terminating_series_is_its_polynomial(a):
    # an upper parameter 0 or -n ends the series after n + 1 terms: value and
    # derivative are that polynomial to rounding, relative to the sum of the
    # magnitudes of its terms, and the table stays small
    b, c = 0.7, 1.37
    xs = np.array([0.3, 0.9, -0.5 + 0.4j, 0.99])
    tracemalloc.start()
    try:
        vals, ders = _pfq_nodes((HypergeomParams.f21(a, b, c),), xs, SERIES_TOL)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with mpmath.workdps(40):
        coef = [mpmath.rf(a, m) * mpmath.rf(b, m) / (mpmath.rf(c, m) * mpmath.factorial(m))
                for m in range(-a + 1)]
        for x, v, d in zip(xs, vals, ders):
            x = mpmath.mpc(x)
            terms = [k * x ** m for m, k in enumerate(coef)]
            dterms = [m * k * x ** (m - 1) for m, k in enumerate(coef) if m]
            assert abs(v - complex(sum(terms))) <= 1e-15 * float(sum(abs(t) for t in terms))
            assert abs(d - complex(sum(dterms, mpmath.mpf(0)))) <= 1e-15 * float(
                sum((abs(t) for t in dterms), mpmath.mpf(0)))


def test_node_array_memory_is_bounded():
    # 4,096 nodes at |x| <= 0.88 need ~380 terms; the power matrix is built
    # block by block, so one call stays far below the ~25 MB of one matrix
    p = HypergeomParams.f21(A, B, C)
    xs = 0.88 * np.linspace(0.05, 1.0, 4096) * np.exp(1j * np.linspace(0.0, 6.0, 4096))
    tracemalloc.start()
    try:
        vals, _ = _pfq_nodes((p,), xs, SERIES_TOL)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == xs.shape
    assert peak < 4 << 20


def test_fused_pass_equals_single_series_sums():
    # one pass over both series of the basis at 0 gives each series' own
    # sums, at one node and over nodes at radii up to 0.88 in several blocks
    import monodeform.hypergeom as hg

    pair = HypergeomParams.f21(A, B, C), HypergeomParams.f21(A - C + 1, B - C + 1, 2 - C)
    size = hg._series_table(pair, 0.88, SERIES_TOL).shape[1]
    rng = np.random.default_rng(5)
    n = 3 * (hg.BLOCK_ENTRIES // size) + 7
    xs = 0.88 * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    xs[0] = 0.88
    for x in (0.31 + 0.2j, xs):
        both = _pfq_nodes(pair, x, SERIES_TOL)
        assert both.shape == (2, 2) + np.shape(x)
        for fused, p in zip(both, pair):
            alone = _pfq_nodes((p,), x, SERIES_TOL)[0]
            assert np.all(np.abs(fused - alone) <= 1e-15 * np.abs(alone))


def test_2f1_near_the_unit_circle_vs_mpmath():
    p = HypergeomParams.f21(A, B, C)
    val, der = _pfq_nodes((p,), 0.99, SERIES_TOL)[0]
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(A, B, C, 0.99))
        dref = complex(mpmath.diff(lambda t: mpmath.hyp2f1(A, B, C, t), 0.99))
    assert abs(val - ref) <= 1e-12 * abs(ref)
    assert abs(der - dref) <= 1e-12 * abs(dref)


@given(st.floats(0.05, 0.95), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_2f1_matches_mpmath(x, a, b):
    c = 1.37  # fixed non-degenerate lower parameter
    ours, _ = _pfq_nodes((HypergeomParams.f21(a, b, c),), x, SERIES_TOL)[0]
    ref = complex(mpmath.hyp2f1(a, b, c, x))
    assert abs(ours - ref) < 1e-10 * (1 + abs(ref))


def test_derivative_contiguous_vs_mpmath():
    # one test id over all points, so the suite keeps printing this name
    p = HypergeomParams.f21(A, B, C)
    assert _pfq_nodes((p,), 0.0, SERIES_TOL)[0][1] == A * B / C
    for x in (0.0, 1e-20, 1e-3 + 1e-3j, 0.31, -0.5 + 0.4j, 0.88j):
        with mpmath.workdps(30):
            ref = complex(mpmath.diff(lambda t: mpmath.hyp2f1(A, B, C, t), x))
        assert abs(_pfq_nodes((p,), x, SERIES_TOL)[0][1] - ref) <= 1e-12 * abs(ref), x


# --- local bases ---------------------------------------------------------------


def _residual_y(a, b, c, x, val, der, der2):
    return x * (1 - x) * der2 + (c - (a + b + 1) * x) * der - a * b * val


def _series_second_derivative(params: HypergeomParams, x, front_mu=0.0):
    """Termwise second derivative of x^mu * pFq(params; x)."""
    f, df = _pfq_nodes((params,), x, SERIES_TOL)[0]
    shifted = HypergeomParams(tuple(u + 1 for u in params.upper),
                              tuple(l + 1 for l in params.lower))
    fac = 1.0
    for u in params.upper:
        fac *= u
    for l in params.lower:
        fac /= l
    ddf = fac * _pfq_nodes((shifted,), x, SERIES_TOL)[0][1]
    mu = front_mu
    front = x**mu
    return front * (mu * (mu - 1) * f / x**2 + 2 * mu * df / x + ddf)


def test_local_basis_0_unit_value():
    basis = local_basis(A, B, C, 0)
    v = basis(1e-30)[0, 0]
    assert abs(v - 1) < 1e-12


def test_local_basis_0_second_member_residual():
    basis = local_basis(A, B, C, 0)
    x = 0.3
    v, d = basis(x)[:, 1]
    p2 = HypergeomParams.f21(A - C + 1, B - C + 1, 2 - C)
    d2 = _series_second_derivative(p2, x, front_mu=1 - C)
    assert abs(_residual_y(A, B, C, x, v, d, d2)) < 1e-10


def test_local_basis_0_exponents():
    # y1 -> 1 and y2 / x^(1-c) -> 1 as x -> 0
    basis = local_basis(A, B, C, 0)
    for x in (1e-10, 1e-12j):
        y1, y2 = basis(x)[0]
        assert abs(y1 - 1) < 1e-9
        assert abs(y2 / x ** (1 - C) - 1) < 1e-9


def test_local_basis_degenerate_params():
    with pytest.raises(DegenerateParams):
        local_basis(0.3, 0.7, 1.0, 0)
    with pytest.raises(DegenerateParams):
        local_basis(0.3, 0.7, 1.0, 1)  # c - a - b = 0


def test_local_basis_1_exponents_and_value():
    # y1 -> 1 and y2 / (1-x)^(c-a-b) -> 1 as x -> 1
    basis = local_basis(A, B, C, 1)  # in w = 1 - x
    v = basis(1e-15)[0, 0]
    assert abs(v - 1) < 1e-12
    for w in (2.0**-30, 1e-12j, 1e-30):  # w itself, never 1 - (1 - w)
        y2 = basis(w)[0, 1]
        assert abs(y2 / w ** (C - A - B) - 1) < 1e-9


@pytest.mark.parametrize("point", [0, 1])
def test_local_basis_residuals_20_points(point):
    local = local_basis(A, B, C, point)
    basis = local if point == 0 else (lambda x: local(1 - x))
    xs = np.linspace(0.05, 0.55, 20) if point == 0 else np.linspace(0.45, 0.95, 20)
    for x in xs:
        for j in (0, 1):
            v, d = basis(x)[:, j]
            # independent check: second derivative from first-derivative
            # finite differences (Richardson)
            h = 1e-5
            def d1(hh):
                return (basis(x + hh)[1, j] - basis(x - hh)[1, j]) / (2 * hh)
            d2_fd = (4 * d1(h / 2) - d1(h)) / 3
            assert abs(_residual_y(A, B, C, x, v, d, d2_fd)) < 1e-8


@pytest.mark.parametrize("point", [0, 1])
def test_local_basis_matrix_on_node_arrays(point):
    # the (n, 2, 2) stack of one array call equals the scalar calls node for node
    if point == 0:
        basis = local_basis(A, B, C, 0)
        xs = np.array([1e-25, 1e-25j, 0.88j, 0.5, complex(0.3, -0.0), -0.4 + 0.2j, 0.8 + 0.3j])
        args = np.angle(xs)
    else:
        basis = local_basis(A, B, C, 1)  # in w = 1 - x
        xs = np.array([1e-15, -1e-3j, 0.05 + 0.05j, 0.6, complex(0.3, -0.0), -0.3 + 0.2j])
        args = np.angle(xs)
    args[-1] += 2 * math.pi  # one node on the next sheet
    assert args[4] == 0.0 and math.copysign(1.0, xs[4].imag) == -1.0
    for arr_args, scalar_args in ((args, args), (None, [None] * len(xs))):
        stack = basis(xs, arr_args)
        ref = np.array([basis(complex(x), a) for x, a in zip(xs, scalar_args)])
        assert stack.shape == (len(xs), 2, 2)
        assert np.all(np.abs(stack - ref) <= 1e-14 * np.abs(ref))


def test_connected_basis_seam_continuity(connected_basis):
    # both evaluation routes agree where the zones overlap
    direct = connected_basis.basis0(0.55)
    connected = connected_basis.basis1(0.45) @ connected_basis.connection
    assert np.max(np.abs(direct - connected)) < 1e-11


def test_connected_basis_near_one(connected_basis):
    v, d = connected_basis.matrix(0.9993)[:, 0]
    ref = complex(mpmath.hyp2f1(A, B, C, 0.9993))
    assert abs(v - ref) < 1e-9 * (1 + abs(ref))


def _counted_kernel(monkeypatch) -> list:
    """The node counts of the _pfq_nodes calls made from here on."""
    import monodeform.hypergeom as hg

    calls, kernel = [], hg._pfq_nodes

    def counted(*args):  # the nodes come second to last
        calls.append(np.size(args[-2]))
        return kernel(*args)

    monkeypatch.setattr(hg, "_pfq_nodes", counted)
    return calls


def test_connected_basis_one_kernel_call_per_zone(monkeypatch):
    # W over nodes in both zones: each zone sums both series of its pair in
    # one kernel pass, for `matrix` and for `along` across a zone switch
    cb = ConnectedBasis(A, B, C)
    calls = _counted_kernel(monkeypatch)
    xs = np.linspace(0.05, 0.95, 40) + 0.05j
    cb.matrix(xs)
    assert len(calls) == 2 and sum(calls) == xs.size
    calls.clear()
    cb.along(xs, np.angle(xs), np.angle(1 - xs), 0)
    assert len(calls) == 2 and sum(calls) == xs.size + 1  # the switch node twice


def test_connected_basis_memo_serves_equal_node_sets(monkeypatch):
    # a fresh array with the values of one already seen costs no kernel call
    # and gets the same read-only stack; one moved node misses
    cb = ConnectedBasis(A, B, C)
    calls = _counted_kernel(monkeypatch)
    xs = np.linspace(0.05, 0.95, 40) + 0.05j
    first = cb.matrix(xs)
    assert len(calls) == 2
    again = cb.matrix(xs.copy())
    assert len(calls) == 2 and np.array_equal(again, first)
    for w in (first, again):
        with pytest.raises(ValueError):
            w[0, 0, 0] = 0.0
    moved = xs.copy()
    moved[7] += 1e-12
    assert not np.array_equal(cb.matrix(moved), first)
    assert len(calls) == 4
    cb.matrix(0.5)
    cb.matrix(np.float64(0.5))
    assert len(calls) == 5


def test_connected_basis_memo_stays_within_its_bound(monkeypatch):
    # many distinct node sets, and one whose stack alone exceeds the bound:
    # the kept nodes and stacks never pass MEMO_BYTES, and the newest set that
    # fits is kept
    cb = ConnectedBasis(A, B, C)

    def held():
        kept = sum(len(key[2]) + w.nbytes for key, w in cb._memo.items())
        assert cb._held == kept
        return kept

    for i in range(300):
        xs = np.linspace(0.1, 0.9, 60) + 1e-4 * i
        cb.matrix(xs)
        assert held() <= MEMO_BYTES
    assert 1 < len(cb._memo) < 300
    calls = _counted_kernel(monkeypatch)
    cb.matrix(xs)
    assert calls == []
    big = np.linspace(0.01, 0.99, MEMO_BYTES // 64 + 1)
    assert np.allclose(cb.matrix(big)[::97], cb.matrix(big[::97]), rtol=1e-13, atol=0)
    assert held() <= MEMO_BYTES


def _seeded_triple(seed):
    """(a, b, c) with c and c - a - b at least 0.1 from the integers; odd
    seeds move a, b and c off the real axis."""
    rng = random.Random(seed)
    while True:
        a, b, c = (complex(rng.uniform(lo, hi), rng.uniform(-0.2, 0.2) * (seed % 2))
                   for lo, hi in ((0.1, 0.9), (0.1, 0.9), (0.15, 1.85)))
        if min(abs(v.real - round(v.real)) for v in (c, c - a - b)) >= 0.1:
            return a, b, c


def _gauss_connection(a, b, c):
    """K with W0 = W1 K on the principal branch over (0, 1), and the
    monodromies M_0, M_1 of the basis at 0 around 0 and 1 (W -> W M), from
    Gauss's connection formulas (DLMF 15.10.21-22) at 30 digits."""
    with mpmath.workdps(30):
        a, b, c = (mpmath.mpc(v.real, v.imag) for v in (a, b, c))
        g = mpmath.gamma
        k = mpmath.matrix([
            [g(c) * g(c - a - b) / (g(c - a) * g(c - b)),
             g(2 - c) * g(c - a - b) / (g(1 - a) * g(1 - b))],
            [g(c) * g(a + b - c) / (g(a) * g(b)),
             g(2 - c) * g(a + b - c) / (g(a - c + 1) * g(b - c + 1))]])
        m0 = mpmath.diag([1, mpmath.exp(2j * mpmath.pi * (1 - c))])
        m1 = mpmath.inverse(k) * mpmath.diag([1, mpmath.exp(2j * mpmath.pi * (c - a - b))]) * k
        return [np.array(m.tolist(), dtype=complex) for m in (k, m0, m1)]


def _rel(m, ref):
    return np.max(np.abs(m - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_connection_and_monodromies_match_gauss_closed_form(seed):
    from monodeform.dyson import deformation_delta
    from monodeform.odecore import PerturbationSpec
    from monodeform.paths import Arc, Line, PathSpec, loop_around
    from monodeform.ratfun import RationalFn
    from monodeform.transport import frobenius_basis, monodromy

    a, b, c = _seeded_triple(seed)
    k, m0, m1 = _gauss_connection(a, b, c)
    assert _rel(ConnectedBasis(a, b, c).connection, k) <= 1e-12
    sys = hypergeometric_system(a, b, c)
    frob0 = frobenius_basis(a, b, c, 0, 0.5)
    zero = RationalFn.zero()
    pert = PerturbationSpec("meromorphic", ((zero, zero),
                                            (RationalFn.from_coeffs([1.0], [0.0, 1.0, -1.0]), zero)))
    for center, ref in ((0, m0), (1, m1)):
        loop = loop_around(center, 0.25, 0.5, avoid=sys.singularities)
        rk = monodromy(sys, frob0, loop, tol=1e-12).matrix
        series = deformation_delta(sys, pert, frob0, 0.5, [loop], route="series")[1]
        assert _rel(rk, ref) <= 1e-9 and _rel(series, ref) <= 1e-9, center
    # a loop around infinity: once round both 0 and 1, negatively, from 0.3
    top = 0.5 + 1.5j
    loop_inf = PathSpec((Line(0.3, top), Arc(0.5, 1.5, math.pi / 2, math.pi / 2 - 2 * math.pi),
                         Line(top, 0.3)))
    m_inf = monodromy(sys, frobenius_basis(a, b, c, 0, 0.3), loop_inf, tol=1e-12).matrix
    assert np.max(np.abs(m_inf @ m1 @ m0 - np.eye(2))) <= 1e-9


# --- operator assembly ----------------------------------------------------------


def test_ghe_p2_polynomial_identity():
    q0, q1, q2 = ghe_coefficient_polys([A, B], [C])
    assert q2.coeffs == pytest.approx((0j, 1 + 0j, -1 + 0j))        # x(1-x)
    assert q1.coeffs == pytest.approx((C + 0j, -(A + B + 1) + 0j))  # c-(a+b+1)x
    assert q0.coeffs == pytest.approx((-A * B + 0j,))               # -ab


def test_ghe_p1_annihilates_binomial_series():
    # solution of the order-1 equation is (1-x)^(-a)
    a = 0.37
    ode = ghe_operator([a], [])
    x = 0.4
    y = (1 - x) ** (-a)
    dy = a * (1 - x) ** (-a - 1)
    assert abs(ode.residual(x, (y, dy))) < 1e-12


def test_ghe_p3_annihilates_3f2_partial_sum():
    upper = [0.3, 0.7, 1.1]
    lower = [0.9, 1.3]
    ode = ghe_operator(upper, lower)
    # 50-term partial sum as an exact polynomial
    coeffs = []
    for m in range(51):
        num = 1.0
        for u in upper:
            num *= pochhammer(u, m).real
        den = math.factorial(m)
        for l in lower:
            den *= pochhammer(l, m).real
        coeffs.append(num / den)
    p = ComplexPoly.make(coeffs)
    x = 0.2
    derivs = [p(x)]
    d = p
    for _ in range(3):
        d = d.deriv()
        derivs.append(d(x))
    assert abs(ode.residual(x, tuple(derivs))) < 1e-8


def test_weight_omega_cases():
    assert abs(weight_omega(0.5, 0.5, 1.0, 0.37) - 1.0) < 1e-15
    assert abs(weight_omega(0.3, 0.7, 0.4, 0.5) - 1.0) < 1e-12
    # x -> 0 with Re(c) > 1 vanishes
    assert abs(weight_omega(0.3, 0.7, 1.8, 1e-8)) < 1e-6
    with pytest.raises(ValueError):
        weight_omega(0.3, 0.7, 0.4, 1.5)
