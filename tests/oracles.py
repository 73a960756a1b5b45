"""Reference implementations that the suites compare the package against.

None of these has a caller in the package: `fd_jacobian` checks the exact
Jacobians, `ch_compose` and `fischer_gram` check the combined-exponent
operator C_k and the adjoint identity of the bracket operator,
`is_identity` checks compositions with inverses, `ad_conjugate` conjugates
by a truncated map through its compositional inverse, and `frozen_operator`
is the degree-j normal-form Jacobian at A0 in its two per-mode forms.
`exp_vf_expm` is the time-one flow as expm of the whole transport
operator, and `power_matrix_blocks` the diagonal blocks of a linear map's
full power matrix, the forms that `exp_vf`'s Lie series and
`substitution_matrix` / `conjugate_linear` replace.  `dense_degree_spaces`
takes a degree's spaces from one dense SVD of Ad_j(S0) - I, the form that
`normalform._degree_spaces`' eigenvalue enumeration replaces, and grades
them by `_restrict` to the range of the element sum `hk_projection`, the
form that `normalform._graded_part`'s generator conditions replace.
`conjugator` draws the non-orthogonal changes of basis that carry the
normal test cases to non-normal ones.  `tabulate_group` tabulates all |G|^2
products of a list of elements, the full table that
`GroupData.from_generators`' Cayley table of the generators replaces.
`blockwise_gram` builds the adapted gram from an SVD kernel basis per
eigenvalue cluster and the inverse of the stacked bases, the form that
`groups.invariant_inner_product`'s spectral projectors replace.
"""
import math

import numpy as np
import scipy.linalg

from eqnf.errors import BadCharacter, NotClosed, NotSemisimple
from eqnf.groups import MATCH_TOL, GroupData, _find_match
from eqnf.linalg import _cluster_means, nullspace, rank_tolerance
from eqnf.normalform import hk_projection
from eqnf.polymap import (TruncatedMap, _diagonal_block, _power_matrix,
                          _transport_operator, adk_field, adk_operator,
                          ck_operator, ck_solve, compose, hk_dim,
                          inverse_truncated, monomials)


def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of f at x with step 1e-6 * max(1, |x|)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


def is_identity(F: TruncatedMap, tol: float) -> bool:
    """Whether F is the identity map up to tol in every coefficient."""
    return F.allclose(TruncatedMap.identity(F.n, F.order), tol)


def ch_compose(X: TruncatedMap, Yk, k: int, side: str) -> TruncatedMap:
    """Exponent of exp(X) o exp(Y_k) (side "right") or exp(Y_k) o exp(X)
    (side "left"), for a single degree-k layer Y_k; exact modulo degrees > k.
    """
    Yk = np.asarray(Yk, dtype=float)
    X1 = X.linear()
    z = ck_solve(ck_operator(-X1 if side == "left" else X1, k), Yk.reshape(-1))
    return X.with_layer(k, X.layer(k) + z.reshape(Yk.shape))


def fischer_gram(n: int, k: int, gram) -> np.ndarray:
    """Gram matrix of the Fischer product on degree-k layers, adapted to the
    inner product with matrix `gram` on R^n.

    Under this product the adjoint of adk_field(N, k) is adk_field(N*, k)
    where N* is the gram-adjoint of N.
    """
    w, V = np.linalg.eigh(np.asarray(gram, dtype=float))
    Q = V @ np.diag(np.sqrt(w)) @ V.T
    fact = np.array([math.prod(math.factorial(e) for e in al)
                     for al in monomials(n, k)], dtype=float)
    Ad = adk_operator(Q, k)
    return Ad.T @ np.kron(np.eye(n), np.diag(fact)) @ Ad


def ad_conjugate(T: TruncatedMap, F: TruncatedMap) -> TruncatedMap:
    """Conjugation by a truncated map: T o F o T^{-1}."""
    return compose(compose(T, F), inverse_truncated(T))


def frozen_operator(S0, N0, A0, j: int, mode: str) -> np.ndarray:
    """Exact derivative at (A0, phi=0) of the degree-j exponent layer with
    respect to the degree-j transform generator: Ad_j(A0^-1) - I in
    semisimple mode, C_j(-N0)^-1 (Ad_j(S0^-1) - e^{-ad_j(N0)}) in nilpotent
    mode."""
    dim = hk_dim(S0.shape[0], j)
    if mode == "semisimple":
        return adk_operator(np.linalg.inv(A0), j) - np.eye(dim)
    adN = adk_field(N0, j)
    M = adk_operator(np.linalg.inv(S0), j) - scipy.linalg.expm(-adN)
    return np.linalg.solve(ck_operator(-N0, j), M)


def exp_vf_expm(X: TruncatedMap) -> TruncatedMap:
    """Time-one flow of X: scipy's expm of the transport operator F -> DF.X
    on all coefficients of degrees 1..order, applied to the coordinates."""
    E = scipy.linalg.expm(_transport_operator(X))
    return TruncatedMap.from_flat(X.n, X.order, E[:, :X.n].T)


def power_matrix_blocks(T, k: int) -> list:
    """[S_1, ..., S_k], sliced from the full power matrix of the linear map
    T x truncated at degree k."""
    T = np.asarray(T, dtype=float)
    PW = _power_matrix(TruncatedMap.from_linear(T, k))
    return [_diagonal_block(PW, T.shape[0], k, d).copy() for d in range(1, k + 1)]


def _restrict(B: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the intersection of span(B) and range(P), for
    orthonormal columns B and an idempotent P: B c lies in range(P) exactly
    when (I - P) B c = 0."""
    return B @ nullspace(B - P @ B)


def dense_degree_spaces(S0, j: int, graded, adNs=None):
    """Orthonormal bases (image, kernel, resonant, admissible) on degree-j
    layers, as normalform._degree_spaces defines them, from one SVD of the
    dense m x m operator Ad_j(S0) - I."""
    dim = hk_dim(S0.shape[0], j)
    u, s, vh = np.linalg.svd(adk_operator(S0, j) - np.eye(dim))
    rank = int(np.sum(s > rank_tolerance(s, dim)))
    ker_b = vh[rank:].T
    res_b = ker_b if adNs is None else ker_b @ nullspace(adNs @ ker_b)
    adm_b = _restrict(res_b, hk_projection(graded[0], j, graded[1]))
    return u[:, :rank], ker_b, res_b, adm_b


def conjugator(n: int, cond: float, seed: int) -> np.ndarray:
    """Random n x n matrix with singular values log-spaced over [1, cond]."""
    rng = np.random.default_rng(seed)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return Q1 @ np.diag(np.logspace(0.0, math.log10(cond), n)) @ Q2


def tabulate_group(elements, char) -> GroupData:
    """The group of an explicit element list, with every element as a
    generator, so that its Cayley table is the full |G| x |G| table.  Raises
    NotClosed when a product, the identity or an inverse is missing."""
    elements = [np.array(E, dtype=float) for E in elements]
    char = np.asarray(char, dtype=float)
    if len(char) != len(elements):
        raise BadCharacter("one character value per element required")
    order, stack = len(elements), np.stack(elements)
    table = np.empty((order, order), dtype=np.intp)
    for i in range(order):
        for j in range(order):
            k = _find_match(stack, elements[i] @ elements[j], MATCH_TOL)
            if k is None:
                raise NotClosed(f"product of elements {i} and {j} is not in the set")
            table[i, j] = k
    ident = _find_match(stack, np.eye(stack.shape[1]), MATCH_TOL)
    if ident is None:
        raise NotClosed("identity matrix missing from the element list")
    for i in range(order):
        if not np.any(table[i] == ident):
            raise NotClosed(f"element {i} has no inverse in the set")
    return GroupData(elements=elements, char=char,
                     generators=np.arange(order), cayley=table)


def blockwise_gram(S0, gd: GroupData) -> np.ndarray:
    """The gram of `groups.invariant_inner_product`, built blockwise on the
    real spectral decomposition of S0: an SVD kernel basis per real
    eigenvalue cluster (standard product) and per complex conjugate pair
    (the J-symmetrized product), the projectors taken from the inverse of
    the stacked bases, then averaged over the group and scaled to trace n."""
    n = S0.shape[0]
    eigs = np.linalg.eigvals(S0)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    bases, mats, seen_conj = [], [], set()
    for mu in _cluster_means(eigs, 1e-7 * scale):
        if abs(mu.imag) <= 1e-7 * scale:
            bases.append(nullspace(S0 - mu.real * np.eye(n)))
            mats.append(np.eye(n))
            continue
        key = (round(mu.real, 9), round(abs(mu.imag), 9))
        if key in seen_conj:
            continue
        seen_conj.add(key)
        A, beta = S0 - mu.real * np.eye(n), abs(mu.imag)
        bases.append(nullspace(A @ A + beta ** 2 * np.eye(n)))
        J = A / beta
        mats.append(0.5 * (np.eye(n) + J.T @ J))
    if sum(B.shape[1] for B in bases) != n:
        raise NotSemisimple("the spectral blocks do not span the space")
    Binv = np.linalg.inv(np.hstack(bases))
    G1, offset = np.zeros((n, n)), 0
    for B, M in zip(bases, mats):
        P = B @ Binv[offset:offset + B.shape[1]]
        G1 += P.T @ M @ P
        offset += B.shape[1]
    G = sum(g.T @ G1 @ g for g in gd.elements)
    G = (G + G.T) / 2
    return G * (n / np.trace(G))
