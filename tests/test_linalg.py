"""Dense linear-algebra layer: decompositions, bases, logs, inner products."""
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings

from eqnf import linalg
from eqnf.corpus import (binomial_shear_matrix, instance_nilpotent_kron,
                         instance_swap2, rotation)
from eqnf.errors import (DimensionMismatch, NoConvergence, NonFinite,
                         NoRealLogarithm, NotSemisimple, NotUnipotent,
                         SingularInput)
from eqnf.linalg import (JC_CLUSTER_FACTORS, PADE_NODES, PADE_THETA,
                         PADE_WEIGHTS, AdaptedInnerProduct, _cluster_means,
                         _newton_squarefree, _validate_jc, image_basis, jordan_chevalley, kernel_basis, lu_solve,
                         matrix_log_unipotent, newton, nullspace,
                         rank_tolerance, real_log, require_invertible,
                         su_decomposition)
from oracles import fd_jacobian

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


def _is_semisimple(S, tol=1e-8):
    # complex-diagonalizable: eigenvector matrix has full numerical rank
    _, V = np.linalg.eig(S)
    return np.linalg.svd(V, compute_uv=False)[-1] > tol


def _random_with_known_parts(rng, n, n_jordan):
    """Conjugated block matrix with a planted semisimple + nilpotent split.

    Eigenvalues sit on separated slots with small jitter; near-collisions
    between the defective cluster and a simple eigenvalue would push the
    input outside the resolvable range of any clustered decomposition.
    """
    vals = np.linspace(0.5, 2.0, n) + 0.02 * rng.uniform(-1.0, 1.0, n)
    D = np.diag(vals)
    N = np.zeros((n, n))
    for i in range(n_jordan):
        # attach a Jordan step inside an eigenvalue cluster
        D[i + 1, i + 1] = D[i, i]
        N[i, i + 1] = 1.0
    P = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    Pinv = np.linalg.inv(P)
    return P @ (D + N) @ Pinv, P @ D @ Pinv, P @ N @ Pinv


def test_jordan_chevalley_planted_parts():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A, S_true, N_true = _random_with_known_parts(rng, 5, 2)
        jc = jordan_chevalley(A)
        assert np.max(np.abs(jc.S + jc.N - A)) < 1e-9
        assert np.max(np.abs(jc.S @ jc.N - jc.N @ jc.S)) < 1e-8
        assert np.max(np.abs(np.linalg.matrix_power(jc.N, 5))) < 1e-8
        assert _is_semisimple(jc.S)
        # uniqueness: must match the planted parts
        assert np.max(np.abs(jc.S - S_true)) < 1e-7
        assert np.max(np.abs(jc.N - N_true)) < 1e-7


def test_jordan_chevalley_worked_example():
    A = np.array([[3.0, -2.0], [2.0, -1.0]])
    jc = jordan_chevalley(A)
    assert np.max(np.abs(jc.S - np.eye(2))) < 1e-12
    assert np.max(np.abs(jc.N - np.array([[2.0, -2.0], [2.0, -2.0]]))) < 1e-12


def test_jordan_chevalley_semisimple_input():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    A = M + M.T  # symmetric, hence semisimple
    jc = jordan_chevalley(A)
    assert np.max(np.abs(jc.N)) < 1e-10
    assert np.max(np.abs(jc.S - A)) < 1e-10


def test_jordan_chevalley_complex_pair():
    # rotation blocks are semisimple over C but not over R
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A = scipy.linalg.block_diag(R, [[2.0]])
    A[0, 2] = 0.3  # off-block coupling, distinct eigenvalues so still semisimple
    jc = jordan_chevalley(A)
    assert np.max(np.abs(jc.N)) < 1e-9


def test_jordan_chevalley_eigendecomposition_fallback():
    # A = P (2 I + N + eps diag(g)) P^-1 with N = e_1 e_2^T and eps = 9e-4,
    # from a seeded search: its eigenvalues 1.99981 and 1.99985 are distinct,
    # so A is its own semisimple part, but the Newton iteration on the
    # squarefree polynomial fails validation at every clustering tolerance,
    # and only the eigendecomposition fallback splits it
    A = np.array([[1.6689356843770475, 0.7968215834856156],
                  [-0.1374084527281912, 2.3307212128194044]])
    eigs = np.linalg.eigvals(A)
    for factor in JC_CLUSTER_FACTORS:
        ctol = factor * float(np.max(np.abs(eigs)))
        S = _newton_squarefree(A, _cluster_means(eigs, ctol), ctol)
        assert not _validate_jc(A, S)
    jc = jordan_chevalley(A)
    assert np.max(np.abs(jc.S + jc.N - A)) <= 1e-14
    assert np.max(np.abs(jc.S @ jc.N - jc.N @ jc.S)) <= 1e-10
    assert np.max(np.abs(jc.N)) <= 1e-10


def test_su_decomposition_reconstructs():
    rng = np.random.default_rng(2)
    for _ in range(8):
        A, S_true, _ = _random_with_known_parts(rng, 4, 1)
        su = su_decomposition(A)
        assert np.max(np.abs(su.S @ scipy.linalg.expm(su.nil_log) - A)) < 1e-8
        assert np.max(np.abs(su.S - S_true)) < 1e-7
        assert np.max(np.abs(np.linalg.matrix_power(su.nil_log, 4))) < 1e-8
        assert np.max(np.abs(su.S @ su.nil_log - su.nil_log @ su.S)) < 1e-7


def test_su_decomposition_unipotent_oracle():
    # for unipotent A the nilpotent log is the finite Mercator series
    N = np.array([[0.0, 1.0, -0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    A = np.eye(3) + N
    M = A - np.eye(3)
    expected = M - M @ M / 2.0 + M @ M @ M / 3.0
    su = su_decomposition(A)
    assert np.max(np.abs(su.S - np.eye(3))) < 1e-12
    assert np.max(np.abs(su.nil_log - expected)) < 1e-12


def test_su_decomposition_rejects_singular():
    with pytest.raises(SingularInput):
        su_decomposition(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_kernel_and_image_bases():
    rng = np.random.default_rng(3)
    n, r = 6, 4
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = U[:, :r] @ np.diag([3.0, 2.0, 1.0, 0.5]) @ V[:, :r].T
    kb = kernel_basis(M)
    ib = image_basis(M)
    assert kb.shape == (n, n - r)
    assert ib.shape == (n, r)
    assert np.max(np.abs(M @ kb)) < 1e-12
    assert np.max(np.abs(kb.T @ kb - np.eye(n - r))) < 1e-12
    # image span agrees with the planted one (compare projectors)
    P1 = ib @ ib.T
    P2 = U[:, :r] @ U[:, :r].T
    assert np.max(np.abs(P1 - P2)) < 1e-10


def test_kernel_basis_numerically_zero_matrix():
    # a difference of O(1) operators that cancels must have full kernel
    th = np.pi / 2.0
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    M = np.linalg.matrix_power(R, 4) - np.eye(2)
    assert 0.0 < np.max(np.abs(M)) < 1e-15
    kb = kernel_basis(M)
    assert kb.shape == (2, 2)
    assert image_basis(M).shape == (2, 0)


def test_nullspace_rectangular():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((3, 7))
    ns = nullspace(M)
    assert ns.shape == (7, 4)
    assert np.max(np.abs(M @ ns)) < 1e-12
    assert nullspace(np.zeros((0, 5))).shape == (5, 5)


@pytest.mark.parametrize("rows, cols, rank", [(60, 8, 5), (9, 9, 6), (4, 11, 3)])
def test_nullspace_matches_the_full_svd(monkeypatch, rows, cols, rank):
    # tall, square and wide rank-deficient inputs; only the wide one needs
    # the full SVD
    rng = np.random.default_rng([5, rows, cols])
    M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    ref = vh[int(np.sum(s > rank_tolerance(s, max(M.shape)))):].T
    full = []
    svd = np.linalg.svd

    def recording_svd(a, full_matrices=True, **kwargs):
        full.append(full_matrices)
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    ns = nullspace(M)
    assert full == [rows < cols]
    assert ns.shape == ref.shape == (cols, cols - rank)
    assert np.max(np.abs(ns.T @ ns - np.eye(cols - rank))) <= 1e-14
    assert np.max(np.abs(ns @ ns.T - ref @ ref.T)) <= 1e-13
    assert np.max(np.abs(M @ ns)) <= 1e-13 * np.max(np.abs(M))


def test_rank_tolerance_absolute_floor():
    # all-tiny spectra are rank zero, not full rank
    s = np.array([2e-16, 1e-16])
    assert rank_tolerance(s, 2) > 2e-16
    # large spectra scale relatively
    s = np.array([1e6, 1.0])
    assert rank_tolerance(s, 2) > 1e-8


def test_require_invertible():
    assert require_invertible(np.eye(3)) is not None
    with pytest.raises(SingularInput):
        require_invertible(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_real_log_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = 0.4 * rng.standard_normal((4, 4))
        L = real_log(scipy.linalg.expm(X))
        assert np.max(np.abs(scipy.linalg.expm(L) - scipy.linalg.expm(X))) < 1e-10


def test_real_log_rotation():
    th = 1.1
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    L = real_log(R)
    assert np.max(np.abs(L - th * np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-10


def test_real_log_rejects_unpaired_negative():
    with pytest.raises(NoRealLogarithm):
        real_log(np.diag([-1.0, 2.0]))


@pytest.mark.parametrize("A", [-np.eye(2), scipy.linalg.block_diag(rotation(np.pi), np.eye(2))],
                         ids=["minus-identity", "rotation-by-pi"])
def test_real_log_rejects_eigenvalue_minus_one(A):
    # a pair at -1 has a real logarithm, but no real principal one
    with pytest.raises(NoRealLogarithm):
        real_log(A)


def test_real_log_square_root_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "SQRT_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="real_log"):
        real_log(rotation(3.1))


def _near_identity(n):
    X = np.random.default_rng(n).standard_normal((n, n))
    return scipy.linalg.expm(0.1 * X / np.linalg.norm(X, 1))


def _perturbed_exp_nilpotent(inst, eps):
    n = inst.N0.shape[0]
    return scipy.linalg.expm(inst.N0 + eps * np.random.default_rng(n).standard_normal((n, n)))


def _with_spectrum(logs):
    V = np.eye(len(logs)) + 0.3 * np.random.default_rng(0).standard_normal((len(logs),) * 2)
    return V @ np.diag(np.exp(logs)) @ np.linalg.inv(V)


# scipy.linalg.logm is the oracle here and nowhere in the package
LOGM_CASES = {
    **{f"near-identity-n{n}": (lambda n=n: _near_identity(n)) for n in range(1, 7)},
    **{f"{name}-eps{eps:g}": (lambda make=make, eps=eps:
                              _perturbed_exp_nilpotent(make(), eps))
       for name, make in (("kron4", instance_nilpotent_kron), ("swap2", instance_swap2))
       for eps in (1e-3, 1e-6)},
    **{f"rotation-{th}": (lambda th=th: rotation(th)) for th in (1.1, 2.0, 2.9, 3.1)},
    "near-unipotent-shear": lambda: binomial_shear_matrix() + np.array([[0.0, 0.0],
                                                                         [1e-6, 0.0]]),
    "spread-spectrum": lambda: _with_spectrum([-3.0, 0.5, 2.0]),
    # the last square root leaves M = A^(1/2^s) - I near -PADE_THETA
    "contraction": lambda: 0.1 * rotation(0.1),
}


@pytest.mark.parametrize("case", LOGM_CASES)
def test_real_log_matches_logm(case):
    A = LOGM_CASES[case]()
    ref = np.real(scipy.linalg.logm(A))
    L = real_log(A)
    assert np.linalg.norm(L - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)


@pytest.mark.parametrize("n, scale", [(3, 2e-5), (4, 5e-4)])
def test_real_log_near_identity_is_not_truncated(n, scale):
    # |M^n| below 1e-13 does not make M = A - I nilpotent: the finite
    # Mercator series would drop M^n / n, 1e-11 or more of the logarithm
    mp = pytest.importorskip("mpmath")
    X = np.random.default_rng(n).standard_normal((n, n))
    A = scipy.linalg.expm(scale * X / np.linalg.norm(X, 1))
    with mp.workdps(40):
        exact = np.array(mp.logm(mp.matrix(A.tolist())).tolist(), dtype=complex).real
    assert np.linalg.norm(real_log(A) - exact, 1) <= 1e-14 * np.linalg.norm(exact, 1)


def test_pade_theta_is_theta_16():
    # theta_16 bounds Kenney and Laub's error bound |r_16(-x) - log(1 - x)|
    # of the [16/16] Pade approximant by the unit roundoff, to its 3 digits
    mp = pytest.importorskip("mpmath")

    def dlegendre(t):
        return 16 * (t * mp.legendre(16, t) - mp.legendre(15, t)) / (t * t - 1)

    def bound(x):
        r = sum(w * -x / (1 - t * x) for t, w in zip(nodes, weights))
        return abs(r - mp.log(1 - x)) / mp.mpf(2) ** -53

    with mp.workdps(40):
        nodes, weights = [], []
        for t in map(mp.mpf, np.polynomial.legendre.leggauss(16)[0]):
            for _ in range(3):  # Newton steps on the Legendre polynomial
                t -= mp.legendre(16, t) / dlegendre(t)
            nodes.append((t + 1) / 2)
            weights.append(1 / ((1 - t * t) * dlegendre(t) ** 2))
        assert np.allclose(PADE_NODES, np.array(nodes, dtype=float), rtol=0, atol=1e-15)
        assert np.allclose(PADE_WEIGHTS, np.array(weights, dtype=float), rtol=0, atol=1e-15)
        assert bound(mp.mpf(PADE_THETA - 5e-4)) <= 1 < bound(mp.mpf(PADE_THETA + 5e-4))


@st.composite
def _log_inputs(draw):
    n = draw(st.integers(1, 6))
    E = draw(hnp.arrays(np.float64, (n, n),
                        elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    norm = np.linalg.norm(E, 2)
    return draw(st.floats(0.0, 3.0)) * E / norm if norm > 0 else E


@PROPERTY_SETTINGS
@given(_log_inputs())
def test_property_real_log_inverts_expm(X):
    # |X|_2 <= 3 < pi keeps every eigenvalue of X in the principal strip
    A = scipy.linalg.expm(X)
    L = real_log(A)
    assert np.linalg.norm(L - X, 1) <= 1e-12 * max(1.0, np.linalg.norm(X, 1))
    assert np.linalg.norm(scipy.linalg.expm(L) - A, 1) <= 1e-12 * np.linalg.norm(A, 1)


def test_matrix_log_unipotent():
    N = np.array([[0.0, 3.0], [0.0, 0.0]])
    L = matrix_log_unipotent(np.eye(2) + N)
    assert np.max(np.abs(L - N)) < 1e-14  # N^2 = 0 so log is exact
    with pytest.raises(NotUnipotent):
        matrix_log_unipotent(np.diag([2.0, 1.0]))


def test_adapted_inner_product_adjoint():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 4))
    ip = AdaptedInnerProduct(M @ M.T + 4.0 * np.eye(4))
    A = rng.standard_normal((4, 4))
    Astar = ip.adjoint(A)
    for _ in range(5):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert abs((A @ x) @ ip.gram @ y - x @ ip.gram @ (Astar @ y)) < 1e-10
    assert np.max(np.abs(ip.adjoint(A) - Astar)) < 1e-14
    std = AdaptedInnerProduct.standard(4)
    assert np.max(np.abs(std.adjoint(A) - A.T)) < 1e-14


def test_adapted_inner_product_rejects_bad_gram():
    with pytest.raises(ValueError):
        AdaptedInnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        AdaptedInnerProduct(np.diag([1.0, -1.0]))  # not positive definite


class _Counted:
    """Residual x -> f(x) with the evaluated point as aux, counting calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x), x.copy()


def test_newton_converges_with_aux_of_accepted_iterate():
    evaluate = _Counted(lambda x: x ** 2 - np.array([2.0, 9.0]))
    steps = []

    def solve(x, r, aux):
        # the step sees the aux that evaluate returned at the same iterate
        assert np.array_equal(aux, x)
        steps.append(x)
        return r / (2 * aux)

    x, r, aux = newton(evaluate, solve, np.array([1.0, 1.0]), 1e-12, 20, "toy")
    assert len(steps) >= 2
    assert np.max(np.abs(x - np.array([np.sqrt(2.0), 3.0]))) < 1e-12
    assert np.max(np.abs(r)) <= 1e-12
    assert np.array_equal(aux, x)
    assert np.array_equal(r, x ** 2 - np.array([2.0, 9.0]))


def test_newton_checks_the_residual_after_the_last_step():
    # an exact linear step converges in one iteration, and max_iter = 1
    # allows exactly that one
    x, r, _ = newton(_Counted(lambda x: x - 3.0), lambda x, r, aux: r,
                     np.array([0.0]), 1e-14, 1, "toy")
    assert x[0] == 3.0 and r[0] == 0.0


def test_newton_stall_raises_naming_the_stage():
    # no step lowers a constant residual: t = 1, 1/2, ..., 1/256 are tried
    evaluate = _Counted(lambda x: np.ones(2))
    with pytest.raises(NoConvergence, match="toy stage: Newton stalled at residual 1.000e"):
        newton(evaluate, lambda x, r, aux: r, np.zeros(2), 1e-10, 5, "toy stage")
    assert evaluate.calls == 1 + 9
    # a decrease short of the sufficient-decrease margin 1e-4 * t stalls too
    with pytest.raises(NoConvergence, match="Newton stalled"):
        newton(_Counted(lambda x: x), lambda x, r, aux: 1e-6 * r, np.array([1.0]),
               1e-10, 5, "toy")


def test_newton_exhausted_iterations_raise():
    # half steps keep the sufficient decrease but never reach the tolerance
    evaluate = _Counted(lambda x: x)
    with pytest.raises(NoConvergence,
                       match="toy: residual 1.250e-01 after 3 iterations"):
        newton(evaluate, lambda x, r, aux: 0.5 * r, np.array([1.0]), 1e-10, 3, "toy")
    assert evaluate.calls == 1 + 3


def test_newton_empty_residual_returns_at_once():
    def solve(x, r, aux):
        raise AssertionError("no step is needed for an empty residual")

    evaluate = _Counted(lambda x: np.zeros(0))
    for max_iter in (0, 5):
        x, r, aux = newton(evaluate, solve, np.zeros(0), 0.0, max_iter, "toy")
        assert x.shape == (0,) and r.shape == (0,) and aux.shape == (0,)
    assert evaluate.calls == 2


def test_newton_nan_residual_is_not_converged():
    evaluate = _Counted(lambda x: np.full(2, np.nan))
    with pytest.raises(NoConvergence, match="toy: Newton stalled at residual nan"):
        newton(evaluate, lambda x, r, aux: r, np.zeros(2), 1e-10, 5, "toy")
    assert evaluate.calls == 1 + 9


# toy problem -> (residual of x, Newton step at x given r)
_TOY = {"root": (lambda x: x ** 2 - 4.0, lambda x, r: r / (2 * x)),
        "flat": (lambda x: np.ones_like(x), lambda x, r: r),
        "slow": (lambda x: x, lambda x, r: 0.5 * r),
        "broken": (lambda x: x, lambda x, r: r)}


def _toy_batch(kinds):
    """Batched evaluate and solve whose row i is the toy problem kinds[i]:
    "root" (x^2 = 4 by exact Newton steps), "flat" (a constant residual: it
    stalls), "slow" (half steps on r = x: it runs out of iterations) or
    "broken" (its evaluation fails once x < 1).  A row's aux is its index."""
    def evaluate(X, rows):
        R = np.array([_TOY[kinds[i]][0](x) for i, x in zip(rows, X)])
        bad = {j: NoConvergence("evaluation failed below x = 1")
               for j, (i, x) in enumerate(zip(rows, X))
               if kinds[i] == "broken" and x[0] < 1.0}
        return R, (np.asarray(rows),), bad

    def solve(X, R, aux):
        return np.array([_TOY[kinds[i]][1](x, r)
                         for i, x, r in zip(aux[0], X, R)]), None

    return evaluate, solve


def test_newton_batch_rows_fail_alone():
    # each row of a batch ends as a batch of that row alone does, and the
    # rows that fail leave the others' iterates bit-identical
    kinds = ["root", "flat", "slow", "broken", "root"]
    x0 = np.array([[3.0], [1.0], [1.0], [2.0], [-1.5]])
    X, R, (rows,), failed = newton(*_toy_batch(kinds), x0, 1e-12, 6,
                                   lambda i: f"row {i}")
    assert sorted(failed) == [1, 2, 3]
    assert str(failed[1]) == "row 1: Newton stalled at residual 1.000e+00"
    assert str(failed[2]) == "row 2: residual 1.562e-02 after 6 iterations"
    assert str(failed[3]) == "evaluation failed below x = 1"
    assert np.max(np.abs(X[[0, 4], 0] - [2.0, -2.0])) <= 1e-12
    assert list(rows[[0, 4]]) == [0, 4]
    for i, kind in enumerate(kinds):
        X1, R1, _, failed1 = newton(*_toy_batch([kind]), x0[i:i + 1], 1e-12, 6,
                                    lambda j: f"row {i}")
        assert {str(e) for e in failed1.values()} == (
            {str(failed[i])} if i in failed else set())
        if i not in failed:
            assert np.array_equal(X1[0], X[i]) and np.array_equal(R1[0], R[i])


def test_fd_jacobian_matches_polynomial_jacobian(rand_map):
    rng = np.random.default_rng(7)
    F = rand_map(rng, 3, 3)
    for scale in (0.3, 2.5):  # |x| < 1 and |x| > 1
        x = rng.standard_normal(3)
        x *= scale / np.linalg.norm(x)
        J = fd_jacobian(F.evaluate, x)
        assert J.shape == (3, 3)
        assert np.max(np.abs(J - F.jacobian(x))) < 1e-8 * max(1.0, np.max(np.abs(J)))


# ---------------------------------------------------------------------------
# LU solve against scipy's wrapper around the same LAPACK routine

def _lu_case(seed, n, cols):
    """Factors of a random n x n matrix and a right-hand side: 1-D when
    cols is None, else n x cols."""
    rng = np.random.default_rng(seed)
    lu_piv = scipy.linalg.lu_factor(rng.standard_normal((n, n)) + n * np.eye(n))
    return lu_piv, rng.standard_normal(n if cols is None else (n, cols))


@PROPERTY_SETTINGS
@example(0, 1, None)
@example(0, 12, 0)
@example(0, 12, 4)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.one_of(st.none(), st.integers(0, 4)))
def test_property_lu_solve_matches_scipy_bitwise(seed, n, cols):
    lu_piv, b = _lu_case(seed, n, cols)
    x = lu_solve(lu_piv, b)
    ref = scipy.linalg.lu_solve(lu_piv, b)
    assert x.shape == ref.shape and x.dtype == ref.dtype
    assert np.array_equal(x, ref)
    # the memory order of b does not change the answer
    assert np.array_equal(lu_solve(lu_piv, np.asfortranarray(b)), ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cols", [None, 3])
def test_lu_solve_rejects_non_finite_right_hand_side(bad, cols):
    lu_piv, b = _lu_case(1, 5, cols)
    b[(2,) if cols is None else (2, 1)] = bad
    with pytest.raises(NonFinite):
        lu_solve(lu_piv, b)


@pytest.mark.parametrize("shape", [(4,), (6,), (4, 2), (0, 2)])
def test_lu_solve_rejects_row_count_mismatch(shape):
    lu_piv, _ = _lu_case(2, 5, None)
    with pytest.raises(DimensionMismatch):
        lu_solve(lu_piv, np.ones(shape))
