"""Dense real linear algebra: semisimple/nilpotent splittings and adapted products.

Everything here works on plain numpy arrays.  The two decompositions are the
additive one (A = S + N with S semisimple, N nilpotent, SN = NS) and the
multiplicative one (A = S * exp(L) with L = log(I + S^-1 N) nilpotent); both
are unique, commute with conjugation, and are computed by a Newton iteration
on the squarefree part of the characteristic polynomial.  `real_log` and
`expm` are the matrix logarithm and exponential.  The damped Newton kernel
at the end serves every solver stage of the normal form and the reduction,
and beside it an `InverseSolver` solves every system whose matrix the
package keeps, and gives its exact 1-norm condition number.  numpy is the
only dependency; scipy serves the tests as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, NoConvergence, NonFinite,
                     NoRealLogarithm, NotUnipotent, SingularInput)

# Singular values below max(n,1)*eps*max(smax,1)*RANK_TOL_FACTOR count as
# zero.  The absolute floor of 1 keeps numerically-zero differences of
# O(1)-normalized operators (e.g. S0^q - I at a root of unity) rank zero.
RANK_TOL_FACTOR = 1e3
# Semisimplicity proxy: eigenvector-matrix condition number limit.
EIGVEC_COND_LIMIT = 1e8
UNIPOTENT_TOL = 1e-7  # (U - I)^n negligible, relative to max(1, |U - I|)^n
# An eigenvalue within REAL_LOG_TOL * spectral radius of the closed negative
# real axis has no real principal logarithm.
REAL_LOG_TOL = 1e-9
# real_log evaluates log(I + M) by the [16/16] Pade approximant once
# |M|_1 <= PADE_THETA, the theta_16 of Higham (2001): there Kenney and Laub's
# bound |r_16(-|M|) - log(1 - |M|)| on its error is the unit roundoff.
PADE_THETA = 7.24e-1
_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(16)
PADE_NODES, PADE_WEIGHTS = (_GAUSS_T + 1) / 2, _GAUSS_W / 2  # on [0, 1]
SQRT_MAX_ITER = 60  # Denman-Beavers steps per square root in real_log
JC_TOL = 1e-10  # Jordan-Chevalley postconditions, relative
JC_CLUSTER_FACTORS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-3)  # x spectral radius
SQUAREFREE_MAX_ITER = 60
# InverseSolver refines x = A^-1 b once when kappa_1(A) exceeds the first,
# and twice past the second.  The backward error of the inverse-based solve
# grows like kappa(A) u (Higham 2002, section 14.1); up to kappa_1 = 32 it
# stayed below 2 n u on random n x n systems, n = 2..160, with b = A x for
# random x.  A step leaves a forward error of about kappa u times the last
# one, so one step reaches the unit roundoff while kappa^2 u^2 <= u, that is
# kappa <= u^-1/2 = 2^26.5.
SOLVE_REFINE_KAPPA = (32.0, 2.0 ** 26.5)


def as_square(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def rank_tolerance(s, n: int) -> float:
    smax = float(s[0]) if len(s) else 0.0
    return max(n, 1) * np.finfo(float).eps * max(smax, 1.0) * RANK_TOL_FACTOR


def require_invertible(A, name: str = "matrix") -> np.ndarray:
    A = as_square(A, name)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= rank_tolerance(s, A.shape[0]):
        raise SingularInput(
            f"{name} is singular to working precision (smin={s[-1]:.3e}, smax={s[0]:.3e})"
        )
    return A


def kernel_basis(L) -> np.ndarray:
    """Orthonormal basis (columns) of ker L for square L, by SVD."""
    return nullspace(as_square(L, "operator"))


def image_basis(M) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of M, by SVD."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise ValueError("operator has non-finite entries")
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    u, s, _ = np.linalg.svd(M)
    rank = int(np.sum(s > rank_tolerance(s, max(M.shape))))
    return u[:, :rank].copy()


def nullspace(M) -> np.ndarray:
    """Orthonormal basis of the right null space of a rectangular matrix.

    A tall or square M takes the thin SVD, whose V is already square; only a
    wide one needs the full V, and neither needs the full U."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.sum(s > rank_tolerance(s, max(M.shape))))
    return vh[rank:].T.copy()


def matrix_log_unipotent(U) -> np.ndarray:
    """Log of a unipotent matrix via the finite Mercator series.

    Raises NotUnipotent when (U - I)^n is not negligible.
    """
    U = as_square(U)
    n = U.shape[0]
    M = U - np.eye(n)
    scale = max(1.0, np.linalg.norm(M)) ** n
    if np.linalg.norm(np.linalg.matrix_power(M, n)) > UNIPOTENT_TOL * scale:
        raise NotUnipotent(f"(U - I)^{n} not negligible; no unipotent logarithm")
    out = np.zeros_like(M)
    P = np.eye(n)
    for j in range(1, n):
        P = P @ M
        out += ((-1) ** (j + 1) / j) * P
    return out


def _sqrt_denman_beavers(X: np.ndarray) -> np.ndarray:
    """Principal square root of X by the product form of the Denman-Beavers
    iteration, M <- (I + (M + M^-1)/2)/2 and Y <- Y (I + M^-1)/2 from
    M = Y = X, which keeps M = X^-1 Y^2.  Since M' - I = (M - I)^2 M^-1 / 4,
    the step taken once |M - I|^2 |M^-1| <= 4 eps leaves M' within eps of I,
    and Y' = X^1/2 M'^1/2 equals X^1/2 to working precision."""
    I = np.eye(X.shape[0])
    M = Y = X
    for _ in range(SQRT_MAX_ITER):
        M_inv = np.linalg.inv(M)
        Y = 0.5 * Y @ (I + M_inv)
        if (np.linalg.norm(M - I, 1) ** 2 * np.linalg.norm(M_inv, 1)
                <= 4 * np.finfo(float).eps):
            return Y
        M = 0.5 * I + 0.25 * (M + M_inv)
    raise NoConvergence(
        f"real_log: square root not converged in {SQRT_MAX_ITER} Denman-Beavers steps")


def real_log(A) -> np.ndarray:
    """Principal real logarithm of a real matrix.

    A unipotent A takes the finite Mercator series.  Otherwise the
    logarithm is the inverse scaling and squaring one of Cheng, Higham,
    Kenney and Laub (SIAM J. Matrix Anal. Appl. 22 (2001) 1112-1125), in
    real arithmetic: s principal square roots X = A^(1/2^s) by the product
    form of the Denman-Beavers iteration, until |X - I|_1 <= PADE_THETA,
    then log A = 2^s r_16(X - I), where the [16/16] Pade approximant r_16
    is evaluated in partial fractions at the 16 Gauss-Legendre nodes on
    [0, 1] (Higham, SIAM J. Matrix Anal. Appl. 22 (2001) 1126-1135).

    The principal logarithm is real exactly when no eigenvalue lies on the
    closed negative real axis; an eigenvalue within REAL_LOG_TOL (relative
    to the spectral radius) of it raises NoRealLogarithm.  A square root
    that does not converge raises NoConvergence.
    """
    A = as_square(A)
    n = A.shape[0]
    I = np.eye(n)
    M = A - I
    # unipotent when M^n vanishes relative to |M|^n: a small M need not be
    # nilpotent, and the series would drop its M^n / n
    if np.linalg.norm(np.linalg.matrix_power(M, n)) <= 1e-13 * np.linalg.norm(M) ** n:
        return matrix_log_unipotent(A)
    lam = np.linalg.eigvals(A)
    gap = np.where(lam.real > 0, np.abs(lam), np.abs(lam.imag))
    if np.any(gap <= REAL_LOG_TOL * np.max(np.abs(lam))):
        raise NoRealLogarithm("an eigenvalue lies on the closed negative real axis; "
                              "the principal logarithm is not real")
    X, s = A, 0
    while np.linalg.norm(M, 1) > PADE_THETA:
        X = _sqrt_denman_beavers(X)
        M, s = X - I, s + 1
    # r_16(M) = sum_j w_j M (I + t_j M)^-1, one batched solve
    Z = np.linalg.solve(I + PADE_NODES[:, None, None] * M,
                        np.broadcast_to(M, (len(PADE_NODES), n, n)))
    return 2.0 ** s * np.tensordot(PADE_WEIGHTS, Z, 1)


def _expm_pade(m: int) -> np.ndarray:
    """b_0..b_m of the [m/m] Pade approximant p(x) / p(-x) of e^x, with
    p(x) = sum b_j x^j scaled to b_m = 1: b_j = (2m - j)! / (j! (m - j)!),
    integers, the largest of which round to the nearest double."""
    f = math.factorial
    return np.array([float(f(2 * m - j) // (f(j) * f(m - j)))
                     for j in range(m + 1)])


# expm's Pade degrees m and their theta_m: r_m(2^-s A)^(2^s) has backward
# error at most the unit roundoff once alpha = max(d_p, d_p+1) <= theta_m,
# with d_p = ||A^p||_1^(1/p) (Al-Mohy & Higham 2009, Table 3.1; for m <= 9
# these are Higham's 2005 theta_m).  theta_13 is the 4.25 of their
# Algorithm 5.1, below the 5.37 of the bound, which the ell correction
# offsets.
EXPM_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
              7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}
EXPM_PADE = {m: _expm_pade(m) for m in EXPM_THETA}


def _expm_uv(b: np.ndarray) -> np.ndarray:
    """The rows of coefficients that take expm's power stack, highest power
    first and I last, to its sums: for m <= 9, (A^m-1, ..., A^2, I) to
    U / A and V; for m = 13, (A^6, A^4, A^2, I) to the four sums of
    U = A (A^6 [row 0] + [row 1]) and V = A^6 [row 2] + [row 3] (Higham
    2005, (2.12))."""
    m = len(b) - 1
    if m < 13:
        return np.array([b[m::-2], b[m - 1::-2]])
    return np.array([[*b[13:8:-2], 0.0], b[7::-2], [*b[12:7:-2], 0.0], b[6::-2]])


_EXPM_UV = {m: _expm_uv(b) for m, b in EXPM_PADE.items()}
_EXPM_SCALE_POWERS = np.array([6, 4, 2])[:, None, None]  # of A^6, A^4, A^2


# |c_2m+1| = (m!)^2 / ((2m)! (2m+1)!), the leading coefficient of the
# backward error log(e^-x r_m(x)), for ell
_EXPM_LEAD = {m: math.factorial(m) ** 2
              / (math.factorial(2 * m) * math.factorial(2 * m + 1))
              for m in EXPM_THETA}


class _ExpmEll:
    """Al-Mohy & Higham's ell(2^-s A, m) = max(ceil(log2(alpha / u) / 2m), 0),
    alpha = |c_2m+1| || |2^-s A|^(2m+1) ||_1 / ||2^-s A||_1, u = 2^-53: the
    extra squarings that keep the leading backward-error term below u.  As
    || |A|^p ||_1 <= ||A||_1^p, ell is 0 without forming |A|^p when
    |c_2m+1| ||2^-s A||_1^2m <= u.  Otherwise || |A|^p ||_1 is taken
    exactly, as the largest entry of 1^T |A|^p; the calls of one expm ask
    for increasing p, so each row vector is the last one times |A|^(p - p'),
    by binary steps over the squares |A|^(2^i)."""

    def __init__(self, absA: np.ndarray, colsums: np.ndarray, a1: float):
        self.a1, self.squares, self.p, self.v = a1, [absA], 1, colsums

    def __call__(self, m: int, s: int) -> int:
        u, a1 = 2.0 ** -53, self.a1 * 2.0 ** -s
        if _EXPM_LEAD[m] * a1 ** (2 * m) <= u:
            return 0
        step, i = 2 * m + 1 - self.p, 0
        while step:
            if i == len(self.squares):
                self.squares.append(self.squares[-1] @ self.squares[-1])
            if step & 1:
                self.v = self.v @ self.squares[i]
            step, i = step >> 1, i + 1
        self.p = 2 * m + 1
        alpha = _EXPM_LEAD[m] * float(self.v.max()) * 2.0 ** (-s * self.p) / a1
        return max(math.ceil(math.log2(alpha / u) / (2 * m)), 0) if alpha else 0


def _onenorm(W: np.ndarray):
    """The 1-norm of a matrix, or the list of 1-norms of a stack of them."""
    return np.abs(W).sum(axis=-2).max(axis=-1, initial=0.0).tolist()


def expm(A) -> np.ndarray:
    """Matrix exponential e^A of a real square A.

    Scaling and squaring with the [m/m] Pade approximant r_m, m in
    3, 5, 7, 9, 13: Algorithm 5.1 of Al-Mohy & Higham (SIAM J. Matrix Anal.
    Appl. 31 (2009) 970-989), after Higham (ibid. 26 (2005) 1179-1193),
    with every 1-norm of a power of A taken exactly.  m is the least degree
    whose theta_m bounds max(d_p, d_p+1) over the powers formed so far and
    whose ell is 0; past theta_9, m = 13 and A is scaled by 2^-s, s the
    least with 2^-s max(d_p, d_p+1) <= theta_13, plus ell.  Then
    r_m = (V - U)^-1 (V + U), squared s times.  As every d_p <= ||A||_1,
    an A with ||A||_1 <= theta_3 takes m = 3 without forming A^4 and A^6.
    A diagonal A takes exp of its diagonal, so that expm(0) is exactly I.
    Raises NonFinite on an inf or NaN entry; where e^A or the powers of A
    leave the float range, the result holds inf or NaN entries.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    absA = np.abs(A)
    colsums = absA.sum(axis=0)
    a1 = float(colsums.max(initial=0.0))  # NaN or inf on such entries
    if not math.isfinite(a1):
        raise NonFinite("expm: matrix has non-finite entries")
    n = A.shape[0]
    diag = A.diagonal()
    if np.count_nonzero(A) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    ell = _ExpmEll(absA, colsums, a1)
    # the power stack A^8, A^6, A^4, A^2, I
    W = np.empty((5, n, n))
    W[4] = np.eye(n)
    np.matmul(A, A, out=W[3])
    m, s = 3, 0
    if not (a1 <= EXPM_THETA[3] and not ell(3, 0)):
        np.matmul(W[3], W[3], out=W[2])
        np.matmul(W[3], W[2], out=W[1])
        n6, n4 = _onenorm(W[1:3])
        d6 = n6 ** (1 / 6)
        eta = max(n4 ** 0.25, d6)
        for m in (3, 5):
            if eta <= EXPM_THETA[m] and not ell(m, 0):
                break
        else:
            np.matmul(W[2], W[2], out=W[0])
            d8 = _onenorm(W[0]) ** 0.125
            eta = max(d6, d8)
            for m in (7, 9):
                if eta <= EXPM_THETA[m] and not ell(m, 0):
                    break
            else:
                m = 13
                eta = min(eta, max(d8, _onenorm(W[2] @ W[1]) ** 0.1))
                if not math.isfinite(eta):  # a power overflowed; d_p <= ||A||_1
                    eta = a1
                s = max(math.ceil(math.log2(eta / EXPM_THETA[13])), 0) if eta else 0
                s += ell(13, s)
                if s:
                    A = A * 2.0 ** -s
                    W[1:4] *= 2.0 ** (-s * _EXPM_SCALE_POWERS)
    k = (m + 1) // 2 if m < 13 else 4
    X = (_EXPM_UV[m] @ W[5 - k:].reshape(k, n * n)).reshape(-1, n, n)
    if m < 13:
        U, V = A @ X[0], X[1]
    else:
        U, V = A @ (W[1] @ X[0] + X[1]), W[1] @ X[2] + X[3]
    # r_m = (V - U)^-1 (V + U) = (V + U) (V - U)^-1, taken from the LU of
    # (V - U)^T: on the near-triangular transport operators of exp_vf the
    # LU of V - U itself put e^A up to 4 times farther from the exact one
    E = np.linalg.solve((V - U).T, (V + U).T).T
    for _ in range(s):
        E = E @ E
    return E


# ---------------------------------------------------------------------------
# semisimple + nilpotent decompositions

@dataclass(frozen=True)
class JCDecomposition:
    S: np.ndarray
    N: np.ndarray


@dataclass(frozen=True)
class SUDecomposition:
    S: np.ndarray
    nil_log: np.ndarray


def _clusters(values: np.ndarray, tol: float) -> list[list[int]]:
    """Cluster complex values by connectivity at distance tol; return each
    cluster's indices, the clusters in the order of their first members."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _cluster_means(values: np.ndarray, tol: float) -> list[complex]:
    """Means of the clusters of _clusters(values, tol)."""
    return [np.mean(values[c]) for c in _clusters(values, tol)]


def _squarefree_from_means(means: list[complex], imag_tol: float) -> np.ndarray:
    """Real coefficients of prod (x - mu) over cluster means, conjugates paired."""
    roots: list[complex] = []
    for mu in means:
        if abs(mu.imag) <= imag_tol:
            roots.append(complex(mu.real, 0.0))
        elif mu.imag > 0:
            roots.append(mu)
            roots.append(np.conj(mu))
        # negative-imag means are covered by their conjugate partner
    coeffs = np.poly(roots)
    return np.real(coeffs)


def _polyval_matrix(coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = np.zeros_like(X)
    for c in coeffs:
        out = out @ X + c * np.eye(X.shape[0])
    return out


def _newton_squarefree(A: np.ndarray, means: list[complex],
                       imag_tol: float) -> np.ndarray:
    f = _squarefree_from_means(means, imag_tol)
    df = np.polyder(f)
    S = A.copy()
    scale = max(1.0, np.linalg.norm(A))
    for _ in range(SQUAREFREE_MAX_ITER):
        F = _polyval_matrix(f, S)
        dF = _polyval_matrix(df, S)
        try:
            step = np.linalg.solve(dF, F)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"derivative of squarefree polynomial singular: {exc}")
        S = S - step
        if np.linalg.norm(step) <= 1e-15 * scale:
            break
    return S


def _validate_jc(A: np.ndarray, S: np.ndarray) -> bool:
    n = A.shape[0]
    N = A - S
    scale = max(1.0, np.linalg.norm(A)) ** 2
    if np.linalg.norm(S @ N - N @ S) > JC_TOL * scale:
        return False
    npow = max(1.0, np.linalg.norm(N)) ** n
    if np.linalg.norm(np.linalg.matrix_power(N, n)) > JC_TOL * npow:
        return False
    # semisimplicity of S via eigenvector conditioning
    try:
        _, V = np.linalg.eig(S)
        if np.linalg.cond(V) > EIGVEC_COND_LIMIT:
            return False
    except np.linalg.LinAlgError:
        return False
    return True


def jordan_chevalley(A) -> JCDecomposition:
    """Split A = S + N with S semisimple, N nilpotent, SN = NS.

    Newton iteration on the squarefree part of the characteristic polynomial;
    the squarefree part is built from clustered eigenvalues, trying a ladder of
    clustering tolerances until the postconditions hold.  Falls back to a
    complex eigendecomposition before giving up.
    """
    A = require_invertible(A, "A")
    eigs = np.linalg.eigvals(A)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    for factor in JC_CLUSTER_FACTORS:
        ctol = factor * scale
        means = _cluster_means(eigs, ctol)
        try:
            S = _newton_squarefree(A, means, imag_tol=ctol)
        except NoConvergence:
            continue
        if _validate_jc(A, S):
            return JCDecomposition(S=S, N=A - S)
    # fallback: eigendecomposition with clustered eigenvalues replaced by means
    for factor in JC_CLUSTER_FACTORS:
        ctol = factor * scale
        means = _cluster_means(eigs, ctol)
        w, V = np.linalg.eig(A)
        mapped = np.array([min(means, key=lambda m: abs(m - wi)) for wi in w])
        try:
            S = np.real(V @ np.diag(mapped) @ np.linalg.inv(V))
        except np.linalg.LinAlgError:
            continue
        if _validate_jc(A, S):
            return JCDecomposition(S=S, N=A - S)
    raise NoConvergence("jordan_chevalley: no clustering tolerance produced a valid splitting")


def su_decomposition(A) -> SUDecomposition:
    """Multiplicative splitting A = S exp(L), L = log(I + S^-1 N) nilpotent."""
    jc = jordan_chevalley(A)
    S = require_invertible(jc.S, "semisimple part")
    M = np.linalg.solve(S, jc.N)  # S^-1 N, nilpotent
    nil_log = matrix_log_unipotent(np.eye(A.shape[0]) + M)
    return SUDecomposition(S=S, nil_log=nil_log)


# ---------------------------------------------------------------------------
# adapted inner products

@dataclass
class AdaptedInnerProduct:
    """Inner product <x, y> = x^T gram y with gram symmetric positive definite."""

    gram: np.ndarray
    gram_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        G = as_square(self.gram, "gram")
        if np.linalg.norm(G - G.T) > 1e-10 * max(1.0, np.linalg.norm(G)):
            raise ValueError("gram matrix must be symmetric")
        if np.min(np.linalg.eigvalsh((G + G.T) / 2)) <= 0:
            raise ValueError("gram matrix must be positive definite")
        self.gram = G
        self.gram_inv = np.linalg.inv(G)

    @classmethod
    def standard(cls, n: int) -> "AdaptedInnerProduct":
        return cls(np.eye(n))

    def adjoint(self, A) -> np.ndarray:
        """Adjoint A* with <Ax, y> = <x, A* y>: A* = gram^-1 A^T gram."""
        return self.gram_inv @ as_square(A).T @ self.gram


# ---------------------------------------------------------------------------
# damped Newton

NEWTON_MIN_STEP = 1.0 / 256
SUFFICIENT_DECREASE = 1e-4


def newton(evaluate, solve, x0, tol, max_iter: int, what):
    """Damped Newton iteration on a residual, with backtracking, for one
    unknown or for a batch of independent ones.

    One unknown, x0 of shape (k,): evaluate(x) returns (r, aux) and
    solve(x, r, aux) the Newton step at x, given the aux that evaluate
    returned there.  Returns (x, r, aux) of the accepted iterate once
    max|r| <= tol; raises NoConvergence, naming the stage `what`, when no
    step is accepted or the residual is still above tol after max_iter
    steps.

    A batch, x0 of shape (b, k): row i is a problem of its own, with its own
    tolerance (tol is a scalar or one per row), line search, exit and
    failure.  evaluate(X, rows) gets the iterates X of the batch rows
    `rows` and returns (R, aux, failed): one residual per row of R, aux as a
    tuple of arrays whose first axis runs over `rows`, and failed, None or a
    dict from positions in `rows` to the NoConvergence of each row it could
    not evaluate.  solve(X, R, aux) returns (DX, failed) likewise.  Returns
    (X, R, aux, failed) over the batch: failed maps every row that did not
    converge to its NoConvergence, whose stage is what(i) for a callable
    `what`; every other row holds its accepted iterate.

    Each step tries t = 1, 1/2, ..., NEWTON_MIN_STEP and takes the first
    x - t*dx whose residual meets tol or shows sufficient decrease (Dennis &
    Schnabel, Numerical Methods for Unconstrained Optimization and Nonlinear
    Equations, 1983, section 6.3).
    """
    single = np.ndim(x0) == 1
    if single:
        evaluate, solve, x0 = *_one_row(evaluate, solve), np.asarray(x0)[None]
    X = np.array(x0, dtype=float)
    b = X.shape[0]
    tol = np.asarray(tol, dtype=float) + np.zeros(b)
    name = what if callable(what) else (lambda i: what)
    live = np.ones(b, dtype=bool)
    failed = {}

    def keep(bad, rows):
        """Record the failures `bad` among `rows`; the mask of the rest."""
        for j, exc in (bad or {}).items():
            failed[int(rows[j])] = exc
            live[rows[j]] = False
        return live[rows]

    R, aux, bad = evaluate(X, np.arange(b))
    R, aux = np.array(R, dtype=float), tuple(np.array(a) for a in aux)
    keep(bad, np.arange(b))
    r_max = np.abs(R).max(axis=1, initial=0.0)
    for _ in range(max_iter):
        # not r <= tol, so that a NaN residual counts as unconverged
        act = (live & ~(r_max <= tol)).nonzero()[0]
        if not act.size:
            break
        DX, bad = solve(X[act], R[act], tuple(a[act] for a in aux))
        ok = keep(bad, act)
        rows, DX = act[ok], np.asarray(DX)[ok]
        t = np.ones(len(rows))
        while rows.size:
            cand = X[rows] - t[:, None] * DX
            R_c, aux_c, bad = evaluate(cand, rows)
            ok = keep(bad, rows)
            rc_max = np.abs(R_c).max(axis=1, initial=0.0)
            take = ok & ((rc_max <= tol[rows])
                         | (rc_max < r_max[rows] * (1 - SUFFICIENT_DECREASE * t)))
            hit = rows[take]
            X[hit], R[hit], r_max[hit] = cand[take], R_c[take], rc_max[take]
            for a, a_c in zip(aux, aux_c):
                a[hit] = a_c[take]
            again = ok & ~take
            stalled = again & (t <= NEWTON_MIN_STEP)
            for i in rows[stalled]:
                failed[int(i)] = NoConvergence(
                    f"{name(i)}: Newton stalled at residual {r_max[i]:.3e}")
                live[i] = False
            again &= ~stalled
            rows, DX, t = rows[again], DX[again], t[again] / 2
    for i in (live & ~(r_max <= tol)).nonzero()[0]:
        failed[int(i)] = NoConvergence(
            f"{name(i)}: residual {r_max[i]:.3e} after {max_iter} iterations")
    if not single:
        return X, R, aux, failed
    if failed:
        raise failed[0]
    return X[0], R[0], aux[0][0]


def _one_row(evaluate, solve):
    """evaluate and solve of one unknown as those of a batch of one row; the
    aux travels in a one-element object array."""
    def evaluate_rows(X, rows):
        r, aux = evaluate(X[0])
        box = np.empty(1, dtype=object)
        box[0] = aux
        return np.asarray(r)[None], (box,), None

    def solve_rows(X, R, aux):
        return np.asarray(solve(X[0], R[0], aux[0][0]))[None], None

    return evaluate_rows, solve_rows


class InverseSolver:
    """A square A kept with its inverse, for repeated solves A x = b with a
    vector or a block of columns b.

    A solve takes x = A^-1 b and, as kappa passes each bound of
    SOLVE_REFINE_KAPPA, one step of fixed-precision iterative refinement,
    x += A^-1 (b - A x) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, section 12.2), which brings the backward
    error of the inverse-based solve to the order of the unit roundoff
    while kappa(A) u is well below 1.  kappa is the exact 1-norm condition
    number ||A||_1 ||A^-1||_1.  An A that np.linalg.inv finds singular, or
    whose inverse is not finite, raises `singular`, the caller's typed
    error, naming `what`.  A solve raises NonFinite when b holds inf or NaN
    and DimensionMismatch when b does not have as many rows as A.
    """

    __slots__ = ("A", "inv", "kappa", "refine_steps")

    def __init__(self, A, singular: type[Exception], what: str):
        self.A = np.asarray(A, dtype=float)
        try:
            self.inv = np.linalg.inv(self.A)
        except np.linalg.LinAlgError:
            self.inv = None
        if self.inv is None or not np.isfinite(self.inv).all():
            raise singular(f"{what} is numerically singular (kappa_1 = inf)")
        self.kappa = _onenorm(self.A) * _onenorm(self.inv)
        self.refine_steps = sum(self.kappa > k for k in SOLVE_REFINE_KAPPA)

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():
            raise NonFinite("solve: right-hand side has non-finite entries")
        if b.shape[0] != self.A.shape[0]:
            raise DimensionMismatch(
                f"solve: matrix of shape {self.A.shape}, right-hand side {b.shape}")
        x = self.inv @ b
        for _ in range(self.refine_steps):
            x += self.inv @ (b - self.A @ x)
        return x
