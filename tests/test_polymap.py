"""Truncated polynomial maps: composition, graded operators, flows."""
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings

from eqnf import polymap
from eqnf.corpus import instance_nilpotent_kron, instance_swap2
from eqnf.errors import (CkSingular, DimensionMismatch, EqnfError, NonFinite,
                         NonInvertibleLinearPart, SingularInput)
from eqnf.linalg import real_log
from eqnf.polymap import (AffineMapFamily, MapFamily, TruncatedMap,
                          _power_matrix, _transport_operator, adk_field,
                          adk_operator, ck_operator, ck_solve, compose,
                          conjugate_linear, exp_vf, hk_dim, inverse_truncated,
                          log_map, monomials, num_monomials,
                          substitution_matrix)
from oracles import (ad_conjugate, ch_compose, exp_vf_expm, fd_jacobian,
                     fischer_gram, is_identity, power_matrix_blocks)


_SRC = str(Path(__file__).resolve().parent.parent / "src")

# (n, order) pairs the table-driven kernels are checked at
KERNEL_SIZES = [(1, 5), (2, 3), (3, 4), (4, 4), (6, 4)]

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


def _mono_eval(x, al):
    return float(np.prod(np.asarray(x, dtype=float) ** np.array(al)))


def test_monomial_order_frozen():
    # graded basis, lex-descending exponents within each degree
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                               (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert monomials(1, 4) == ((4,),)
    assert num_monomials(3, 2) == 6
    assert hk_dim(3, 2) == 18


def test_from_terms_evaluate_jacobian():
    F = TruncatedMap.from_terms(2, 2, [
        {"component": 0, "exponents": [1, 0], "coefficient": 1.0},
        {"component": 0, "exponents": [0, 2], "coefficient": 2.0},
        {"component": 1, "exponents": [1, 1], "coefficient": -1.0},
    ])
    x, y = 0.3, -0.7
    fx = F([x, y])
    assert abs(fx[0] - (x + 2 * y * y)) < 1e-14
    assert abs(fx[1] - (-x * y)) < 1e-14
    J = F.jacobian([x, y])
    J_hand = np.array([[1.0, 4 * y], [-y, -x]])
    assert np.max(np.abs(J - J_hand)) < 1e-14
    # batched evaluation
    pts = np.array([[0.3, -0.7], [0.1, 0.2]])
    vals = F(pts)
    assert vals.shape == (2, 2)
    assert np.max(np.abs(vals[0] - fx)) < 1e-14


@pytest.mark.parametrize("component, exponents", [(2, (1, 0)), (-1, (1, 0)),
                                                   (0, (-1, 3)), (0, (1,))])
def test_from_terms_rejects_terms_outside_the_space(component, exponents):
    with pytest.raises(DimensionMismatch):
        TruncatedMap.from_terms(2, 3, [{"component": component,
                                        "exponents": exponents, "coefficient": 1.0}])


def test_terms_roundtrip(rand_map):
    rng = np.random.default_rng(20)
    F = rand_map(rng, 3, 3)
    G = TruncatedMap.from_terms(3, 3, F.to_terms())
    assert G.allclose(F, 1e-14)


def test_compose_hand_oracle():
    # (x + x^2) o (x - x^3) = x + x^2 - x^3 modulo degree 4
    F = TruncatedMap(1, 3, [[[1.0]], [[1.0]], [[0.0]]])
    G = TruncatedMap(1, 3, [[[1.0]], [[0.0]], [[-1.0]]])
    H = compose(F, G)
    assert H.allclose(TruncatedMap(1, 3, [[[1.0]], [[1.0]], [[-1.0]]]), 1e-14)


def test_compose_with_linear_factors(rand_map):
    rng = np.random.default_rng(21)
    F = rand_map(rng, 2, 3)
    M = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    L = TruncatedMap.from_linear(M, 3)
    assert compose(L, F).allclose(F.linear_left(M), 1e-12)
    x = 0.3 * rng.standard_normal(2)
    # right composition with a linear map is exact (no truncation loss)
    assert np.max(np.abs(compose(F, L)(x) - F(M @ x))) < 1e-12


def test_compose_truncation_scaling(rand_map):
    rng = np.random.default_rng(22)
    k = 3
    F = rand_map(rng, 2, k)
    G = rand_map(rng, 2, k)
    H = compose(F, G)
    u = rng.standard_normal(2)
    u /= np.linalg.norm(u)
    errs = []
    for s in (2e-2, 1e-2):
        x = s * u
        errs.append(np.max(np.abs(H(x) - F(G(x)))))
    # dropped terms start at degree k + 1
    ratio = errs[0] / errs[1]
    assert 0.7 * 2 ** (k + 1) < ratio < 1.4 * 2 ** (k + 1)


def test_inverse_truncated():
    a = 0.7
    F = TruncatedMap(1, 3, [[[1.0]], [[a]], [[0.0]]])
    H = inverse_truncated(F)
    expected = TruncatedMap(1, 3, [[[1.0]], [[-a]], [[2 * a * a]]])
    assert H.allclose(expected, 1e-13)
    rng = np.random.default_rng(23)
    G = TruncatedMap.zero(3, 4)
    G.layers[0] = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
    for d in range(2, 5):
        G.layers[d - 1] = 0.5 * rng.standard_normal((3, num_monomials(3, d)))
    Ginv = inverse_truncated(G)
    assert is_identity(compose(G, Ginv), 1e-10)
    assert is_identity(compose(Ginv, G), 1e-10)


def test_inverse_rejects_singular_linear_part():
    F = TruncatedMap(2, 2, [np.array([[1.0, 0.0], [0.0, 0.0]]),
                            np.zeros((2, 3))])
    with pytest.raises(NonInvertibleLinearPart):
        inverse_truncated(F)


def test_ad_conjugate_matches_explicit(rand_map):
    rng = np.random.default_rng(24)
    F = rand_map(rng, 2, 3)
    T = rand_map(rng, 2, 3, invertible=True)
    lhs = ad_conjugate(T, F)
    rhs = compose(compose(T, F), inverse_truncated(T))
    assert lhs.allclose(rhs, 1e-10)
    M = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    assert ad_conjugate(TruncatedMap.from_linear(M, 3), F).allclose(
        conjugate_linear(M, F), 1e-10)


@pytest.mark.parametrize("n,order", KERNEL_SIZES)
def test_substitution_matrix_pointwise(n, order):
    rng = np.random.default_rng(25 + 10 * n + order)
    T = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    Tx = T @ x
    for d in range(1, order + 1):
        S = substitution_matrix(T, d)
        mono = np.array([_mono_eval(x, al) for al in monomials(n, d)])
        want = np.array([_mono_eval(Tx, al) for al in monomials(n, d)])
        assert np.max(np.abs(S @ mono - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_conjugate_linear_pointwise(rand_map):
    # regression: the conjugation must be M F(M^-1 x) for a non-symmetric M
    rng = np.random.default_rng(26)
    F = rand_map(rng, 3, 3)
    M = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    C = conjugate_linear(M, F)
    Minv = np.linalg.inv(M)
    for _ in range(5):
        x = 0.4 * rng.standard_normal(3)
        assert np.max(np.abs(C(x) - M @ F(Minv @ x))) < 1e-11


def test_conjugate_linear_action_law(rand_map):
    rng = np.random.default_rng(27)
    F = rand_map(rng, 2, 4)
    M1 = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    M2 = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    lhs = conjugate_linear(M1 @ M2, F)
    rhs = conjugate_linear(M1, conjugate_linear(M2, F))
    assert lhs.allclose(rhs, 1e-10)


@pytest.mark.parametrize("T, error", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), NonFinite),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), NonFinite),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), SingularInput),
    (np.zeros((2, 2)), SingularInput),
    (np.eye(3), DimensionMismatch),
    (np.ones((2, 3)), DimensionMismatch),
    (np.ones(2), DimensionMismatch)])
def test_conjugate_linear_refuses_a_bad_matrix(rand_map, T, error):
    F = rand_map(np.random.default_rng(29), 2, 3)
    for _ in range(2):  # a refusal stores nothing
        with pytest.raises(error):
            conjugate_linear(T, F)
    assert issubclass(error, EqnfError)


def test_conjugate_linear_builds_the_blocks_once_per_matrix(monkeypatch, rand_map):
    rng = np.random.default_rng(30)
    M = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    F, G = rand_map(rng, 3, 4), rand_map(rng, 3, 4)
    polymap._SUBSTITUTION_MEMO.clear()
    first = conjugate_linear(M, F)
    builds = []
    blocks = polymap._substitution_blocks

    def counting_blocks(T, k):
        builds.append(k)
        return blocks(T, k)

    monkeypatch.setattr(polymap, "_substitution_blocks", counting_blocks)
    again = conjugate_linear(M.copy(), F)
    assert all(np.array_equal(a, b) for a, b in zip(first.layers, again.layers))
    conjugate_linear(M, G)
    assert builds == []
    conjugate_linear(M, G.truncated(3))  # another order builds its own
    conjugate_linear(2 * M, G)
    assert builds == [3, 4]
    cached = polymap._SUBSTITUTION_MEMO[(M.shape, M.tobytes(), 4)]
    assert not any(S.flags.writeable for S in cached)


def test_adk_operator_matches_conjugation(rand_map):
    rng = np.random.default_rng(28)
    F = rand_map(rng, 2, 3)
    M = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    C = conjugate_linear(M, F)
    for d in range(1, 4):
        lhs = adk_operator(M, d) @ F.layer(d).reshape(-1)
        assert np.max(np.abs(lhs - C.layer(d).reshape(-1))) < 1e-11


@pytest.mark.parametrize("n,order", KERNEL_SIZES)
def test_adk_field_bracket_oracle(n, order):
    rng = np.random.default_rng(29 + 10 * n + order)
    N = rng.standard_normal((n, n))
    for k in range(1, order + 1):
        Y = TruncatedMap.zero(n, k)
        Y.layers[k - 1] = rng.standard_normal((n, num_monomials(n, k)))
        Zmap = TruncatedMap.zero(n, k)
        Zmap.layers[k - 1] = (adk_field(N, k) @ Y.layer(k).reshape(-1)).reshape(n, -1)
        for _ in range(3):
            x = rng.standard_normal(n)
            bracket = Y.jacobian(x) @ (N @ x) - N @ Y(x)
            assert (np.max(np.abs(Zmap(x) - bracket))
                    <= 1e-12 * max(1.0, np.max(np.abs(bracket))))


def test_ck_operator_scalar_oracle():
    # n = 1: ad on x^k fields is multiplication by a(k-1)
    a, k = 0.6, 4
    C = ck_operator(np.array([[a]]), k)
    z = a * (k - 1)
    assert C.shape == (1, 1)
    assert abs(C[0, 0] - (np.exp(z) - 1.0) / z) < 1e-12
    assert np.max(np.abs(ck_operator(np.zeros((2, 2)), 3)
                         - np.eye(hk_dim(2, 3)))) < 1e-14


def _with_norm(X, radius):
    """X scaled to spectral norm radius."""
    return X * (radius / np.linalg.norm(X, 2))


def test_ck_operator_quadrature_oracle():
    # C_k(X1) = integral over s in [0,1] of the conjugation action of e^{-s X1}
    rng = np.random.default_rng(30)
    theta = 2.1
    cases = [(0.7 * rng.standard_normal((2, 2)), 3),
             # nilpotent, max|C| = 146: the integrand is polynomial in s
             (instance_swap2().N0, 4),
             # rotation generator with |X1| = 2.1: trigonometric integrand
             (np.array([[0.0, -theta], [theta, 0.0]]), 3),
             # |X1| = 1.4 at n = 4: ||L||_1 > PHI1_THETA, so s > 0 squarings
             (_with_norm(rng.standard_normal((4, 4)), 1.4), 4),
             # |X1| = 0.01 at n = 6, nf-wide's regime: M = 126, n = 6
             (_with_norm(rng.standard_normal((6, 6)), 0.01), 4),
             # kron4's nilpotent N0, n = 4
             (instance_nilpotent_kron(4).N0, 4)]
    nodes, weights = np.polynomial.legendre.leggauss(24)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for X1, k in cases:
        quad = sum(wi * adk_operator(scipy.linalg.expm(-si * X1), k)
                   for si, wi in zip(s, w))
        assert np.max(np.abs(ck_operator(X1, k) - quad)) < 1e-12


def test_ch_compose_both_sides(rand_map):
    rng = np.random.default_rng(31)
    n, k = 2, 3
    X = rand_map(rng, n, k, amp=0.3)
    X.layers[0] = 0.4 * rng.standard_normal((n, n))
    Yk = 0.3 * rng.standard_normal((n, num_monomials(n, k)))
    Y = TruncatedMap.zero(n, k)
    Y.layers[k - 1] = Yk

    Zr = ch_compose(X, Yk, k, side="right")
    assert exp_vf(Zr, k).allclose(compose(exp_vf(X, k), exp_vf(Y, k)), 1e-10)
    Zl = ch_compose(X, Yk, k, side="left")
    assert exp_vf(Zl, k).allclose(compose(exp_vf(Y, k), exp_vf(X, k)), 1e-10)


def test_exp_vf_linear_is_expm():
    rng = np.random.default_rng(32)
    A = rng.standard_normal((3, 3))
    X = TruncatedMap.from_linear(A, 3)
    E = exp_vf(X)
    assert np.max(np.abs(E.linear() - scipy.linalg.expm(A))) < 1e-12
    assert np.max(np.abs(E.layer(2))) < 1e-13
    assert np.max(np.abs(E.layer(3))) < 1e-13


def test_exp_vf_flow_oracle(rand_map):
    rng = np.random.default_rng(33)
    X = rand_map(rng, 2, 4, amp=0.3)
    X.layers[0] = 0.3 * rng.standard_normal((2, 2))
    F = exp_vf(X)
    errs = []
    for s in (1.0, 0.5):
        x0 = s * np.array([0.02, -0.015])
        sol = scipy.integrate.solve_ivp(lambda t, x: X(x), (0.0, 1.0), x0,
                                        rtol=1e-12, atol=1e-14)
        errs.append(np.max(np.abs(F(x0) - sol.y[:, -1])))
    assert errs[0] < 1e-7
    # the defect is the degree-5 truncation error, so it scales as |x0|^5
    assert 20.0 < errs[0] / errs[1] < 48.0


def test_exp_vf_inverse_and_naturality(rand_map):
    rng = np.random.default_rng(34)
    X = rand_map(rng, 2, 3, amp=0.4)
    assert is_identity(compose(exp_vf(X), exp_vf(-X)), 1e-11)
    M = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    lhs = conjugate_linear(M, exp_vf(X))
    rhs = exp_vf(conjugate_linear(M, X))
    assert lhs.allclose(rhs, 1e-11)


LIE_SERIES_SIZES = [(n, order) for n in range(1, 5) for order in range(1, 6)]


@pytest.mark.parametrize("n,order", LIE_SERIES_SIZES)
def test_exp_vf_without_linear_part_matches_expm_oracle(rand_map, n, order):
    rng = np.random.default_rng(90 + 10 * n + order)
    for amp in (0.3, 1.0, 3.0):
        X = rand_map(rng, n, order, amp=amp, with_linear=False)
        E = exp_vf_expm(X)
        assert (exp_vf(X) - E).max_abs() <= 1e-13 * max(1.0, E.max_abs())


def test_exp_vf_without_linear_part_takes_no_expm(monkeypatch, rand_map):
    rng = np.random.default_rng(91)
    calls = []
    expm = scipy.linalg.expm

    def counting_expm(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    X = rand_map(rng, 3, 4, with_linear=False)
    exp_vf(X)
    exp_vf(-X, 3)
    assert calls == []
    exp_vf(X.with_layer(1, 0.1 * np.eye(3)))
    assert len(calls) == 1


@pytest.mark.parametrize("with_linear", [False, True])
@pytest.mark.parametrize("n,order", KERNEL_SIZES)
def test_exp_vf_layer_d_needs_the_order_d_space_only(rand_map, n, order,
                                                      with_linear):
    # log_map takes its degree-d residual from exp_vf(X, d)
    rng = np.random.default_rng(92 + 10 * n + order)
    X = rand_map(rng, n, order, with_linear=with_linear)
    full = exp_vf(X)
    for d in range(1, order + 1):
        assert (np.max(np.abs(exp_vf(X, d).layer(d) - full.layer(d)))
                <= 1e-13 * max(1.0, full.max_abs()))


# ---------------------------------------------------------------------------
# exp_vf's Lie series for a field with a linear part, and its switch to expm

def _lie_tail(a, b, order, q):
    """The tail bound of exp_vf's docstring, past L^q x / q!: its sum in
    exact rationals, whose logarithm is taken from numerator and
    denominator, so that no factorial or power meets the float range."""
    s = sum(Fraction(b) ** j / math.factorial(j)
            * Fraction(a) ** (q - j + 1) / math.factorial(q - j + 1)
            for j in range(order))
    if not s:
        return 0.0
    try:
        return math.exp(a + math.log(s.numerator) - math.log(s.denominator))
    except OverflowError:
        return math.inf


def _least_q(a, b, order, cap):
    """The least q in order - 1..cap whose tail bound is <= 2^-53, or None."""
    return next((q for q in range(order - 1, cap + 1)
                 if _lie_tail(a, b, order, q) <= 2.0 ** -53), None)


def _series_inputs(X):
    """(a, b, cap) of exp_vf's rule: a = order ||X1||_inf, b = ||L||_1 + a,
    cap = size(L) // n."""
    L = _transport_operator(X)
    a = X.order * np.linalg.norm(X.linear(), np.inf)
    return a, np.linalg.norm(L, 1) + a, len(L) // X.n


def _series_q(X):
    """The q that exp_vf's rule gives X, None for expm."""
    a, b, cap = _series_inputs(X)
    return _least_q(a, b, X.order, cap)


def _field(n, order, amp, X1, seed):
    rng = np.random.default_rng(seed)
    X = TruncatedMap(n, order, [amp * rng.standard_normal((n, num_monomials(n, d)))
                                for d in range(1, order + 1)])
    X.layers[0] = X1
    return X


def _switch_scale(X, direction):
    """The largest t, to 2^-40 relative, at which X with linear part
    t * direction takes the series."""
    def series(t):
        return _series_q(X.with_layer(1, t * direction)) is not None

    lo, hi = 0.0, 1.0
    while series(hi):
        lo, hi = hi, 2 * hi
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if series(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("a, b, order, cap, q", [
    (0.0, 5.0, 4, 7, 3), (0.0, 0.0, 1, 1, 0), (0.02, 0.5, 4, 34, 9),
    (0.02, 30.0, 4, 34, 11), (1e-3, 2.0, 2, 5, 5), (1e-3, 2.0, 2, 4, None),
    (0.5, 1.0, 3, 34, 16), (3.0, 1.0, 4, 31, 31), (3.0, 1.0, 4, 30, None),
    # 171! and 60^245 exceed the float range
    (1e-3, 2.0, 2, 200, 5), (60.0, 61.0, 2, 400, 244), (60.0, 61.0, 2, 243, None)])
def test_lie_terms_is_the_least_q_within_the_tail_bound(a, b, order, cap, q):
    assert polymap._lie_terms(a, b, order, cap) == q == _least_q(a, b, order, cap)
    if q is not None:
        assert _lie_tail(a, b, order, q) <= 2.0 ** -53
        assert q == order - 1 or _lie_tail(a, b, order, q - 1) > 2.0 ** -53


@pytest.mark.parametrize("q", [0, 1, 2, 5, 9])
def test_lie_series_sums_exactly_q_terms(q):
    # L the down-shift on 12 coordinates: L^i e_0 = e_i, so the series on
    # the first column holds 1 / i! at i <= max(q, 1) and 0 past it
    L = np.eye(12, k=-1)
    E = polymap._lie_series(L, 1, q)
    want = np.zeros(12)
    want[:max(q, 1) + 1] = [1 / math.factorial(i) for i in range(max(q, 1) + 1)]
    assert np.array_equal(E[:, 0], want)


@pytest.mark.parametrize("n, order, amp, x1", [
    (2, 4, 0.3, 1e-5), (3, 5, 1.0, 1e-4), (6, 4, 0.5, 0.005), (1, 5, 0.5, 1e-8),
    (4, 3, 0.3, 0.0), (2, 1, 0.0, 0.0)])
def test_exp_vf_sums_the_least_q_terms(monkeypatch, n, order, amp, x1):
    rng = np.random.default_rng([95, n, order])
    X = _field(n, order, amp, x1 * rng.standard_normal((n, n)), [96, n, order])
    terms = []
    series = polymap._lie_series

    def recording_series(L, n, q):
        terms.append(q)
        return series(L, n, q)

    monkeypatch.setattr(polymap, "_lie_series", recording_series)
    monkeypatch.setattr(scipy.linalg, "expm", None)
    exp_vf(X)
    q = _series_q(X)
    assert terms == [q] and q is not None
    if not x1:
        assert q == order - 1


def test_exp_vf_takes_expm_past_the_switch(monkeypatch):
    # the same field just below and just above the largest ||X1|| whose
    # series fits in cap = size(L) // n terms
    direction = np.random.default_rng(97).standard_normal((3, 3))
    X = _field(3, 4, 0.5, np.zeros((3, 3)), 98)
    t = _switch_scale(X, direction)
    assert 0 < t < 1
    calls = []
    expm = scipy.linalg.expm

    def counting_expm(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    below = X.with_layer(1, t * direction)
    above = X.with_layer(1, t * (1 + 1e-9) * direction)
    assert _series_q(below) == _series_inputs(below)[2]  # the largest q
    exp_vf(below)
    assert calls == []
    exp_vf(above)
    assert calls == [(_transport_operator(above).shape)]
    E = exp_vf_expm(below)
    assert (exp_vf(below) - E).max_abs() <= 1e-13 * max(1.0, E.max_abs())


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(1, 5), st.floats(0.0, 30.0),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_property_exp_vf_series_matches_expm_oracle(n, order, amp, frac, seed):
    # ||X1|| from 0 up to the switch, nonlinear layers up to amplitude 30
    direction = np.random.default_rng(seed).standard_normal((n, n))
    X = _field(n, order, amp, np.zeros((n, n)), seed)
    X = X.with_layer(1, frac * _switch_scale(X, direction) * direction)
    assert _series_q(X) is not None
    E = exp_vf_expm(X)
    assert (exp_vf(X) - E).max_abs() <= 1e-13 * max(1.0, E.max_abs())


@pytest.mark.parametrize("x1", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_exp_vf_rejects_a_non_finite_field(x1, bad):
    # x1 = 0 and 1e-3 take the series, 1.0 takes expm
    for d in (1, 3):
        X = _field(2, 3, 0.3, x1 * np.array([[0.0, 1.0], [-1.0, 0.0]]), 99)
        X.layers[d - 1][1, 0] = bad
        with pytest.raises(NonFinite):
            exp_vf(X)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 6))
def test_compose_with_the_identity_is_exact(rand_map, n, k):
    # the normal-form driver skips compose(identity, transform) for a degree
    # stage that took no step
    T = rand_map(np.random.default_rng([100, n, k]), n, k, amp=3.0, invertible=True)
    C = compose(TruncatedMap.identity(n, k), T)
    assert all(np.array_equal(a, b) for a, b in zip(C.layers, T.layers))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_substitutions_equal_the_power_matrix_blocks(rand_map, n):
    rng = np.random.default_rng(93 + n)
    T = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    blocks = power_matrix_blocks(T, 5)
    for k in range(1, 6):
        assert np.array_equal(substitution_matrix(T, k), blocks[k - 1])
        F = rand_map(rng, n, k)
        inv_blocks = power_matrix_blocks(np.linalg.inv(T), k)
        C = conjugate_linear(T, F)
        for d in range(1, k + 1):
            assert np.array_equal(C.layer(d), T @ F.layer(d) @ inv_blocks[d - 1])


def test_log_map_roundtrip(rand_map):
    rng = np.random.default_rng(35)
    X = rand_map(rng, 2, 4, amp=0.3)
    X.layers[0] = 0.4 * rng.standard_normal((2, 2))
    L = log_map(exp_vf(X))
    assert L.allclose(X, 1e-12)


def test_log_map_takes_no_flow_of_a_linear_field(monkeypatch, rand_map):
    # F has no degree-2 layer, so neither has X: the degree-2 residuals
    # and, in the first sweep, the degree-3 one are F's layers, no flow
    rng = np.random.default_rng(62)
    F = rand_map(rng, 2, 4, amp=0.2)
    F.layers[0] = scipy.linalg.expm(0.1 * rng.standard_normal((2, 2)))
    F.layers[1][:] = 0.0
    calls = []

    def recording_exp_vf(Y, k=None):
        calls.append(Y.truncated(k or Y.order))
        return exp_vf(Y, k)

    monkeypatch.setattr(polymap, "exp_vf", recording_exp_vf)
    X = log_map(F)
    assert all(any(L.any() for L in Y.layers[1:]) for Y in calls)
    assert [Y.order for Y in calls][:2] == [4, 4]  # sweep 1: d = 4, exit test
    assert not X.layers[1].any()
    assert (exp_vf(X) - F).max_abs() <= 1e-12


def test_fischer_gram_adjointness():
    rng = np.random.default_rng(36)
    n, k = 2, 3
    M = rng.standard_normal((n, n))
    gram = M @ M.T + 3.0 * np.eye(n)
    from eqnf.linalg import AdaptedInnerProduct
    ip = AdaptedInnerProduct(gram)
    Gk = fischer_gram(n, k, gram)
    assert np.max(np.abs(Gk - Gk.T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(Gk)) > 0
    N = rng.standard_normal((n, n))
    lhs = Gk @ adk_field(N, k)
    rhs = adk_field(ip.adjoint(N), k).T @ Gk
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_map_family_shapes(rand_map):
    rng = np.random.default_rng(37)
    base = rand_map(rng, 2, 3)
    slope = rand_map(rng, 2, 3)
    fam = AffineMapFamily(base, [slope])
    F = fam.at([0.25])
    assert F.allclose(base + slope * 0.25, 1e-14)
    assert fam.at(0.25).allclose(F, 1e-14)  # scalar promotes to length one
    with pytest.raises(DimensionMismatch):
        fam.at([0.1, 0.2])
    with pytest.raises(DimensionMismatch):
        AffineMapFamily(base, [rand_map(rng, 2, 2)])


# ---------------------------------------------------------------------------
# term-by-term references for the table-driven kernels

def _flat_positions(n, order):
    """Exponent tuple -> flat position, in the graded layout of TruncatedMap."""
    pos = {}
    for d in range(1, order + 1):
        for al in monomials(n, d):
            pos[al] = len(pos)
    return pos


def _naive_mul(p, q, order):
    """Product of {exponent: coefficient} polynomials, truncated past order."""
    by_degree = {}
    for b, cb in q.items():
        by_degree.setdefault(sum(b), []).append((b, cb))
    out = {}
    for a, ca in p.items():
        for db in range(order - sum(a) + 1):
            for b, cb in by_degree.get(db, ()):
                c = tuple(x + y for x, y in zip(a, b))
                out[c] = out.get(c, 0.0) + ca * cb
    return out


def _naive_powers(G):
    """{alpha: G^alpha as a polynomial}, each built from alpha minus its last
    variable, over all monomials of degree 1..order."""
    n, order = G.n, G.order
    pos = _flat_positions(n, order)
    Gf = G.flat()
    comps = [{al: Gf[i, p] for al, p in pos.items()} for i in range(n)]
    powers = {(0,) * n: {(0,) * n: 1.0}}
    for d in range(1, order + 1):
        for al in monomials(n, d):
            i = max(j for j, e in enumerate(al) if e)
            prev = tuple(e - (j == i) for j, e in enumerate(al))
            powers[al] = _naive_mul(powers[prev], comps[i], order)
    return powers


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("n,order", KERNEL_SIZES)
def test_power_matrix_and_compose_term_oracle(rand_map, n, order):
    rng = np.random.default_rng(40 + 10 * n + order)
    F = rand_map(rng, n, order)
    G = rand_map(rng, n, order)
    pos = _flat_positions(n, order)
    powers = _naive_powers(G)
    size = len(pos)
    PW = np.zeros((size, size))
    for al, row in pos.items():
        for be, c in powers[al].items():
            PW[row, pos[be]] = c
    assert _rel_err(_power_matrix(G), PW) <= 1e-14
    Ff = F.flat()
    H = np.zeros((n, size))
    for i in range(n):
        acc = {}
        for al, row in pos.items():
            for be, c in powers[al].items():
                acc[be] = acc.get(be, 0.0) + Ff[i, row] * c
        for be, c in acc.items():
            H[i, pos[be]] = c
    assert _rel_err(compose(F, G).flat(), H) <= 1e-14


@pytest.mark.parametrize("n,order", KERNEL_SIZES)
def test_transport_operator_term_oracle(rand_map, n, order):
    rng = np.random.default_rng(50 + 10 * n + order)
    X = rand_map(rng, n, order)
    pos = _flat_positions(n, order)
    Xf = X.flat()
    L = np.zeros((len(pos), len(pos)))
    # D(x^alpha) . X = sum_j alpha_j x^(alpha - e_j) X_j
    for al, src in pos.items():
        for j in range(n):
            if al[j] == 0:
                continue
            base = tuple(e - (m == j) for m, e in enumerate(al))
            for ga, g in pos.items():
                tgt = tuple(x + y for x, y in zip(base, ga))
                if sum(tgt) <= order:
                    L[pos[tgt], src] += al[j] * Xf[j, g]
    assert np.array_equal(_transport_operator(X), L)


# ---------------------------------------------------------------------------
# log_map: singular C_d and reuse of the linear-part data

def _rotation_map(theta, order, quad):
    F = TruncatedMap.zero(2, order)
    c, s = np.cos(theta), np.sin(theta)
    F.layers[0] = np.array([[c, -s], [s, c]])
    F.layers[1] = np.asarray(quad, dtype=float)
    return F


def test_log_map_singular_ck_raises_every_call():
    # X1 = (2 pi / 3) J; ad_2 X1 has the eigenvalue 3 i theta = 2 pi i, where
    # phi1 vanishes, so C_2 is singular
    F = _rotation_map(2 * np.pi / 3, 2, [[0.1, 0.0, 0.2], [0.0, -0.3, 0.0]])
    for _ in range(2):
        with pytest.raises(CkSingular, match="numerically singular"):
            log_map(F)


def test_log_map_no_stale_reuse():
    F = _rotation_map(0.4, 4, [[0.1, 0.0, 0.2], [0.0, -0.3, 0.05]])
    F.layers[2] = 0.1 * np.ones((2, 4))
    G = _rotation_map(-0.7, 4, [[0.0, 0.2, 0.0], [0.1, 0.0, -0.2]])
    first = log_map(F)
    assert exp_vf(log_map(G)).allclose(G, 1e-12)
    again = log_map(F)
    assert all(np.array_equal(a, b) for a, b in zip(first.layers, again.layers))


def test_log_map_reuses_ck_factors(ck_builds, rand_map):
    # one C_d solver per degree and linear part, on either path: a dense LU
    # for the larger real_log, the psi series for the smaller one
    rng = np.random.default_rng(60)
    for scale, path in ((0.3, "dense"), (0.02, "series")):
        F = rand_map(rng, 2, 4, amp=0.2)
        F.layers[0] = scipy.linalg.expm(scale * rng.standard_normal((2, 2)))
        log_map(F)
        assert ck_builds == [(d, path) for d in (2, 3, 4)]
        ck_builds.clear()
        # same linear part, other higher layers: nothing is rebuilt
        G = F + rand_map(rng, 2, 4, amp=0.1, with_linear=False)
        assert exp_vf(log_map(G)).allclose(G, 1e-12)
        assert ck_builds == []
        # a new linear part builds C_d once per degree
        H = G.with_layer(1, scipy.linalg.expm(scale * rng.standard_normal((2, 2))))
        assert exp_vf(log_map(H)).allclose(H, 1e-12)
        assert ck_builds == [(d, path) for d in (2, 3, 4)]
        ck_builds.clear()


def test_log_map_keeps_its_last_flow(monkeypatch, rand_map):
    rng = np.random.default_rng(61)
    F = rand_map(rng, 2, 4, amp=0.2)
    F.layers[0] = scipy.linalg.expm(0.1 * rng.standard_normal((2, 2)))
    X = log_map(F)
    calls = []

    def counting_exp_vf(Y, k=None):
        calls.append(k)
        return exp_vf(Y, k)

    monkeypatch.setattr(polymap, "exp_vf", counting_exp_vf)
    flow = polymap._log_map_flow(X)
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(flow.layers, exp_vf(X).layers))
    # any other field, or X changed in place, takes a fresh flow
    Y = X.copy()
    Y.layers[1][0, 0] += 1e-3
    for Z in (Y, 2.0 * X):
        calls.clear()
        flow = polymap._log_map_flow(Z)
        assert calls == [None]
        assert all(np.array_equal(a, b)
                   for a, b in zip(flow.layers, exp_vf(Z).layers))


def test_lru_memo_drops_the_least_recently_used():
    memo = polymap._LruMemo(2)
    builds = []

    def build(value):
        def make():
            builds.append(value)
            return value
        return make

    assert memo.get_or_build("a", build(1)) == 1
    assert memo.get_or_build("b", build(2)) == 2
    assert memo.get_or_build("a", build(0)) == 1  # a hit; "b" is now the oldest
    assert memo.get_or_build("c", build(3)) == 3
    assert len(memo) == 2
    assert memo.get_or_build("b", build(4)) == 4  # "b" was dropped
    assert memo.get_or_build("c", build(0)) == 3
    assert builds == [1, 2, 3, 4]

    def failing():
        raise CkSingular("numerically singular")

    with pytest.raises(CkSingular):
        memo.get_or_build("d", failing)
    assert len(memo) == 2 and memo.get_or_build("b", build(0)) == 4


# ---------------------------------------------------------------------------
# the C_d guard against the SVD rule it replaced

def _svd_refuses(C):
    """Oracle: the SVD rule, which refuses C when smin <= 1e-12 smax."""
    s = np.linalg.svd(C, compute_uv=False)
    return bool(s[-1] <= 1e-12 * s[0])


def _guard_refuses(call):
    try:
        call()
    except CkSingular as exc:
        assert "numerically singular" in str(exc)
        return True
    return False


def test_ck_guard_refuses_what_the_svd_rule_refuses():
    # X1 = (2 pi / 3 - delta) J: C_2 has an eigenvalue of about 3 delta / (2 pi)
    oracle = []
    for delta in 10.0 ** -np.arange(4, 15):
        F = _rotation_map(2 * np.pi / 3 - delta, 2,
                          [[0.1, 0.0, 0.2], [0.0, -0.3, 0.0]])
        C = ck_operator(real_log(F.linear()), 2)
        refused = _guard_refuses(lambda: log_map(F))
        assert _guard_refuses(lambda: ck_solve(C, np.ones(C.shape[0]))) == refused
        oracle.append(_svd_refuses(C))
        assert refused or not oracle[-1], delta
        if not refused:
            # the stored kappa_1 estimate is a lower bound, and a close one
            kappa = polymap._linear_part_data(F.linear()).ck_kappa[2]
            exact = np.linalg.cond(C, 1)
            assert exact / 3 <= kappa <= exact * (1 + 1e-6)
    assert any(oracle) and not all(oracle)


def test_ck_guard_refuses_what_the_svd_rule_refuses_on_random_spectra():
    rng = np.random.default_rng(80)
    m = 12
    oracle = []
    for top in np.arange(9.0, 16.5, 0.5):
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((m, m)))[0]
        C = (U * np.logspace(0.0, -top, m)) @ V.T
        oracle.append(_svd_refuses(C))
        refused = _guard_refuses(lambda: polymap._check_ck(C))
        assert _guard_refuses(lambda: ck_solve(C, np.ones(m))) == refused
        assert refused or not oracle[-1], top
    assert any(oracle) and not all(oracle)


def test_log_map_takes_no_svd_of_a_ck(monkeypatch):
    F = _rotation_map(0.45, 4, [[0.1, 0.0, 0.2], [0.0, -0.3, 0.05]])
    sides = {hk_dim(2, d) for d in range(2, 5)}
    svd = np.linalg.svd
    shapes = []

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert exp_vf(log_map(F)).allclose(F, 1e-12)
    assert not [s for s in shapes if s[-1] in sides]


# ---------------------------------------------------------------------------
# property tests on random near-identity maps

@st.composite
def _near_identity_maps(draw, count):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    size = sum(num_monomials(n, d) for d in range(1, order + 1))
    maps = []
    for _ in range(count):
        flat = draw(hnp.arrays(np.float64, (n, size),
                               elements=st.floats(-0.5, 0.5, width=64)))
        flat[:, :n] = np.eye(n) + 0.2 * flat[:, :n] / n
        maps.append(TruncatedMap.from_flat(n, order, flat))
    return maps


@PROPERTY_SETTINGS
@given(_near_identity_maps(1))
def test_property_compose_with_inverse_is_identity(maps):
    (F,) = maps
    assert is_identity(compose(F, inverse_truncated(F)), 1e-10)


@PROPERTY_SETTINGS
@given(_near_identity_maps(3))
def test_property_compose_is_associative(maps):
    F, G, H = maps
    lhs = compose(compose(F, G), H)
    rhs = compose(F, compose(G, H))
    assert lhs.allclose(rhs, 1e-12 * max(1.0, lhs.max_abs()))


@PROPERTY_SETTINGS
@given(_near_identity_maps(1))
def test_property_exp_vf_inverts_log_map(maps):
    (F,) = maps
    assert exp_vf(log_map(F)).allclose(F, 1e-11)


# ---------------------------------------------------------------------------
# property tests of the evaluation kernels against the direct monomial form

def _mono_values_direct(x, n, d):
    """Monomial values at x as np.prod(x ** E); x is (n,) or (m, n)."""
    E = np.array(monomials(n, d), dtype=np.int64)
    if x.ndim == 1:
        return np.prod(x[None, :] ** E, axis=1)
    return np.prod(x[:, None, :] ** E[None, :, :], axis=2)


def _kernel_case(n, order, m, seed):
    """A random map of shape (n, order) and m points in [-1, 1]^n, about a
    fifth of whose coordinates are exactly zero."""
    rng = np.random.default_rng(seed)
    F = TruncatedMap(n, order, [0.5 * rng.standard_normal((n, num_monomials(n, d)))
                                for d in range(1, order + 1)])
    X = rng.uniform(-1.0, 1.0, (m, n))
    X[rng.random((m, n)) < 0.2] = 0.0
    return F, X


_KERNEL_CASES = st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4),
                          st.integers(0, 2 ** 32 - 1))


def _corner_examples(test):
    for case in ((1, 1, 3, 0), (1, 6, 2, 1), (5, 1, 2, 2), (5, 6, 2, 3)):
        test = example(case)(test)
    return test


@PROPERTY_SETTINGS
@_corner_examples
@given(_KERNEL_CASES)
def test_property_evaluate_matches_direct_monomials(case):
    n, order, _, _ = case
    F, X = _kernel_case(*case)
    ref = sum(_mono_values_direct(X, n, d) @ F.layer(d).T for d in range(1, order + 1))
    assert np.allclose(F.evaluate(X), ref, rtol=1e-13, atol=1e-13)
    for x, r in zip(X, ref):
        direct = sum(_mono_values_direct(x, n, d) @ F.layer(d).T
                     for d in range(1, order + 1))
        assert np.allclose(direct, r, rtol=1e-13, atol=1e-13)


@PROPERTY_SETTINGS
@_corner_examples
@given(_KERNEL_CASES)
def test_property_batched_kernels_match_rows(case):
    n, _, m, _ = case
    F, X = _kernel_case(*case)
    vals, jacs = F.evaluate(X), F.jacobian(X)
    assert vals.shape == (m, n) and jacs.shape == (m, n, n)
    for x, val, jac in zip(X, vals, jacs):
        assert np.allclose(F.evaluate(x), val, rtol=1e-14, atol=1e-14)
        assert np.allclose(F.jacobian(x), jac, rtol=1e-14, atol=1e-14)


@PROPERTY_SETTINGS
@_corner_examples
@given(_KERNEL_CASES)
def test_property_jacobian_matches_fd(case):
    F, X = _kernel_case(*case)
    for x in X:
        J = fd_jacobian(F.evaluate, x)
        assert np.max(np.abs(F.jacobian(x) - J)) <= 1e-7 * max(1.0, np.max(np.abs(J)))


# ---------------------------------------------------------------------------
# the C_d solver: the psi series of C_d^-1, or a dense LU

def _bracket_norms(X1, d):
    """a = ||D||_1 + ||X1||_1, the bound on ||adk_field(X1, d)||_1 that
    chooses the solver's path."""
    D = polymap._transport_block(np.asarray(X1, dtype=float), d)
    return np.linalg.norm(D, 1) + np.linalg.norm(X1, 1)


def _with_bracket_norms(X, d, a):
    """X scaled so that _bracket_norms(X, d) = a."""
    return X * (a / _bracket_norms(X, d))


def _psi_table():
    """B_j / j!, j = 0..20, from the Bernoulli recurrence in exact
    arithmetic: sum_{i<=m} binom(m+1, i) B_i = 0 for m >= 1, B_0 = 1."""
    B = [Fraction(1)]
    for m in range(1, 21):
        B.append(-sum(math.comb(m + 1, i) * B[i] for i in range(m)) / (m + 1))
    return [b / math.factorial(j) for j, b in enumerate(B)]


def test_psi_table_is_the_bernoulli_series():
    exact = _psi_table()
    assert len(polymap._PSI_COEFFS) == len(exact)
    for j, (c, e) in enumerate(zip(polymap._PSI_COEFFS, exact)):
        assert c == float(e), j
        if j:
            assert abs(e) <= 4 / (2 * math.pi) ** j, j
    # the table reaches the last term that a = PSI_THETA needs
    assert polymap._psi_terms(polymap.PSI_THETA) == len(exact) - 1


@pytest.mark.parametrize("a, q", [(0.0, 0), (0.02, 6), (0.3, 12), (1.0, 20)])
def test_psi_terms_is_the_least_degree_within_the_tail_bound(a, q):
    r = a / (2 * math.pi)

    def tail(q):
        return 4 * r ** (q + 1) / (1 - r)

    assert polymap._psi_terms(a) == q
    assert tail(q) <= 2.0 ** -53
    assert q == 0 or tail(q - 1) > 2.0 ** -53


def test_ck_series_takes_q_bracket_products_and_no_dense_operator(monkeypatch):
    X1 = _with_bracket_norms(np.random.default_rng(90).standard_normal((3, 3)), 3, 0.5)
    solver = polymap._CkSolver(X1, 3)
    assert solver.lu is None and solver.q == polymap._psi_terms(_bracket_norms(X1, 3))
    products = []
    bracket_times = polymap._bracket_times

    def counting_bracket_times(N, D, P):
        products.append(P.shape)
        return bracket_times(N, D, P)

    monkeypatch.setattr(polymap, "_bracket_times", counting_bracket_times)
    monkeypatch.setattr(polymap, "ck_operator", None)
    monkeypatch.setattr(polymap, "_check_ck", None)
    m = hk_dim(3, 3)
    solver.solve(np.ones(m))
    solver.solve(np.ones((m, 4)))
    assert products == [(m, 1)] * solver.q + [(m, 4)] * solver.q


@pytest.mark.parametrize("path, a", [("series", 0.02), ("series", 0.9),
                                     ("dense", 2.5)])
@pytest.mark.parametrize("n, d", [(1, 5), (2, 2), (2, 5), (3, 4), (4, 3), (4, 5)])
def test_ck_solver_matches_the_dense_solve(n, d, path, a):
    rng = np.random.default_rng([91, n, d])
    X1 = _with_bracket_norms(rng.standard_normal((n, n)), d, a)
    solver = polymap._CkSolver(X1, d)
    assert (solver.lu is None) == (path == "series")
    C = ck_operator(X1, d)
    m = hk_dim(n, d)
    for V in (rng.standard_normal(m), rng.standard_normal((m, 3))):
        W = solver.solve(V)
        ref = np.linalg.solve(C, V)
        assert W.shape == V.shape
        assert np.max(np.abs(W - ref)) <= 1e-14 * np.linalg.cond(C, 1) * np.max(np.abs(ref))


def test_ck_series_at_zero_returns_the_right_hand_side():
    # C_d(0) = I: the series stops at q = 0 and returns V unchanged
    solver = polymap._CkSolver(np.zeros((3, 3)), 4)
    V = np.random.default_rng(92).standard_normal((hk_dim(3, 4), 5))
    assert solver.lu is None and solver.q == 0 and solver.kappa == 1.0
    assert np.array_equal(solver.solve(V), V)


def test_ck_solver_path_switches_at_psi_theta(monkeypatch):
    X = np.random.default_rng(93).standard_normal((2, 2))
    theta = polymap.PSI_THETA
    built = []
    monkeypatch.setattr(polymap, "ck_operator",
                        lambda X1, d: built.append(d) or ck_operator(X1, d))
    below = polymap._CkSolver(_with_bracket_norms(X, 3, theta * (1 - 1e-9)), 3)
    assert below.lu is None and built == []
    above = polymap._CkSolver(_with_bracket_norms(X, 3, theta * (1 + 1e-9)), 3)
    assert above.lu is not None and built == [3]


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(2, 5), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_property_ck_series_kappa_bounds_the_condition_number(n, d, frac, seed):
    X1 = _with_bracket_norms(np.random.default_rng(seed).standard_normal((n, n)),
                             d, frac * polymap.PSI_THETA)
    solver = polymap._CkSolver(X1, d)
    assert solver.lu is None
    assert np.linalg.cond(ck_operator(X1, d), 1) <= solver.kappa <= 6.1


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(2, 5), st.floats(0.0, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_property_ck_solver_inverts_ck_operator(n, d, a, seed):
    rng = np.random.default_rng(seed)
    X1 = _with_bracket_norms(rng.standard_normal((n, n)), d, a)
    C = ck_operator(X1, d)
    V = rng.standard_normal((hk_dim(n, d), 2))
    W = polymap._CkSolver(X1, d).solve(V)
    assert np.max(np.abs(C @ W - V)) <= 1e-14 * np.linalg.cond(C, 1) * np.max(np.abs(V))


def test_ck_series_rejects_a_non_finite_right_hand_side():
    solver = polymap._CkSolver(0.01 * np.eye(2), 3)
    V = np.ones(hk_dim(2, 3))
    V[2] = np.nan
    assert solver.lu is None
    with pytest.raises(NonFinite):
        solver.solve(V)


def test_import_builds_no_psi_table():
    # the coefficients are literals: importing eqnf loads no fractions
    code = "import sys, eqnf; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ,
                                                     "PYTHONPATH": _SRC})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# C_k against the augmented-expm oracle; non-finite input; memory

def _ck_operator_augmented(X1, k):
    """C_k(X1) as the top-right block of expm([[L, I], [0, 0]]), 2m x 2m."""
    L = adk_field(X1, k)
    m = L.shape[0]
    B = np.zeros((2 * m, 2 * m))
    B[:m, :m] = L
    B[:m, m:] = np.eye(m)
    return scipy.linalg.expm(B)[:m, m:]


@st.composite
def _ck_cases(draw):
    """(X1, k): n = 1..3, k = 1..5, X1 general, strictly upper triangular
    (nilpotent) or skew (rotation generator), scaled to |X1|_2 in [0, 6]."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["general", "nilpotent", "rotation"]))
    X = draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0, width=64)))
    if kind == "nilpotent":
        X = np.triu(X, 1)
    elif kind == "rotation":
        X = X - X.T
    radius = draw(st.floats(0.0, 6.0))
    norm = np.linalg.norm(X, 2)
    return (X * (radius / norm) if norm > 0 else X), k


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


@PROPERTY_SETTINGS
@example((np.zeros((1, 1)), 1))
@example((6.0 * _J2, 5))
@example((np.array([[0.0, 6.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 5))
@example((instance_swap2().N0, 4))
@given(_ck_cases())
def test_property_ck_operator_matches_augmented_expm(case):
    X1, k = case
    C = ck_operator(X1, k)
    ref = _ck_operator_augmented(X1, k)
    assert C.shape == ref.shape
    assert np.max(np.abs(C - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY_SETTINGS
@given(st.integers(2, 5), st.integers(2, 4), st.floats(0.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_property_ck_operator_commutes_with_bracket(n, k, radius, seed):
    # C_k(X1) is a power series in L = adk_field(X1, k), so it commutes with L
    X1 = _with_norm(np.random.default_rng(seed).standard_normal((n, n)), radius)
    L, C = adk_field(X1, k), ck_operator(X1, k)
    bound = np.linalg.norm(C, 1) * np.linalg.norm(L, 1)
    assert np.max(np.abs(C @ L - L @ C)) <= 1e-14 * max(1.0, bound)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ck_operator_rejects_non_finite_input(bad):
    X1 = np.array([[0.1, 0.2], [bad, -0.3]])
    with pytest.raises(NonFinite):
        ck_operator(X1, 3)
    # finite, but the bracket operator overflows
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        ck_operator(np.array([[1e308]]), 3)
    C = np.eye(4)
    C[1, 2] = bad
    with pytest.raises(NonFinite):
        polymap._check_ck(C)
    with pytest.raises(NonFinite):
        ck_solve(C, np.ones(4))
    assert issubclass(NonFinite, EqnfError)


def test_log_map_rejects_non_finite_map():
    # a diverged Newton iterate: finite linear part, NaN in a higher layer
    F = _rotation_map(0.4, 3, [[0.1, 0.0, 0.2], [0.0, -0.3, 0.0]])
    F.layers[2][0, 1] = np.nan
    with pytest.raises(NonFinite):
        log_map(F)
    F.layers[0][1, 1] = np.inf
    with pytest.raises(NonFinite):
        log_map(F)


def test_ck_operator_peak_memory():
    # n = 6, k = 4: m = 756.  The traced peak stays below two 2m x 2m float
    # arrays, the work arrays of expm on the augmented operator.
    n, k = 6, 4
    X1 = 0.3 * np.random.default_rng(70).standard_normal((n, n))
    m = hk_dim(n, k)
    tracemalloc.start()
    try:
        C = ck_operator(X1, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.shape == (m, m)
    assert peak < 2 * (2 * m) ** 2 * 8
