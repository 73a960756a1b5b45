"""Truncated polynomial maps and the graded composition calculus.

Maps R^n -> R^n with zero constant term are stored degree by degree: layer d
is an (n, M_d) coefficient array over the monomials of total degree d, listed
in lexicographically descending exponent order (so the degree-1 monomials are
x_0, ..., x_{n-1} and layer 1 is the ordinary linear matrix).  Coefficient
vectors for a whole homogeneous layer use row-major flattening throughout, so
vec(A X B) = kron(A, B^T) vec(X).
"""
from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import (CkSingular, DimensionMismatch, NonFinite,
                     NonInvertibleLinearPart, ProblemTooLarge)
from .linalg import lu_solve, real_log, require_invertible

LOG_MAP_TOL = 1e-14
# Bytes that one dense square float64 operator may take: the m x m operators
# on degree-k layers (m = hk_dim(n, k)) and the transport and power matrices
# on all coefficients of degrees 1..k.
DENSE_BYTES_BUDGET = 64 * 2**20
# A C_d whose estimated 1-norm condition number reaches CK_COND_LIMIT / m is
# refused.  As kappa_1 >= kappa_2 / m, an exact kappa_1 would refuse every C_d
# with kappa_2 >= CK_COND_LIMIT; dgecon's estimate is a lower bound, mostly
# within a factor of 3.
CK_COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# monomial bookkeeping

@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree d in n variables, lex-descending."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in monomials(n - 1, d - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict:
    return {al: i for i, al in enumerate(monomials(n, d))}


def num_monomials(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


def hk_dim(n: int, k: int) -> int:
    """Dimension of the space of homogeneous degree-k maps R^n -> R^n."""
    return n * num_monomials(n, k)


def _require_dense_fits(n: int, k: int) -> None:
    """Raise ProblemTooLarge, before anything is allocated, when a dense
    square operator of an order-k problem in n variables would take more
    than DENSE_BYTES_BUDGET bytes."""
    # n^2 and k bound the two sides from below and are cheap at any size
    side = max(n * n, k)
    if 8 * side * side <= DENSE_BYTES_BUDGET:
        side = max(hk_dim(n, k), math.comb(n + k, k) - 1)
    if 8 * side * side > DENSE_BYTES_BUDGET:
        raise ProblemTooLarge(
            f"n = {n}, order {k}: a dense operator of side >= {side} would "
            f"take over the budget of {DENSE_BYTES_BUDGET} bytes")


@lru_cache(maxsize=None)
def _prod_table(n: int, d1: int, d2: int) -> np.ndarray:
    """T[i, j] = index of monomial i (degree d1) times monomial j (degree d2)."""
    idx = monomial_index(n, d1 + d2)
    A, B = monomials(n, d1), monomials(n, d2)
    T = np.empty((len(A), len(B)), dtype=np.intp)
    for i, al in enumerate(A):
        for j, be in enumerate(B):
            T[i, j] = idx[tuple(a + b for a, b in zip(al, be))]
    return T


@lru_cache(maxsize=None)
def _flat_layout(n: int, order: int):
    offs = {}
    pos = 0
    for d in range(1, order + 1):
        offs[d] = pos
        pos += num_monomials(n, d)
    return offs, pos


@lru_cache(maxsize=None)
def _mul_pairs(n: int, order: int, dmin: int):
    """Flat (a, b, target) index triples of a product p * q, truncated past
    `order`, over the positions b of q with degree at least `dmin`."""
    offs, _ = _flat_layout(n, order)
    a_idx, b_idx, t_idx = [], [], []
    for d1 in range(1, order - dmin + 1):
        for d2 in range(dmin, order - d1 + 1):
            T = offs[d1 + d2] + _prod_table(n, d1, d2)
            a, b = np.indices(T.shape)
            a_idx.append(offs[d1] + a.ravel())
            b_idx.append(offs[d2] + b.ravel())
            t_idx.append(T.ravel())
    return np.concatenate(a_idx), np.concatenate(b_idx), np.concatenate(t_idx)


@lru_cache(maxsize=None)
def _power_steps(n: int, d: int):
    """For each degree-d monomial alpha: its first variable i0 with a
    nonzero exponent, and the index of alpha - e_i0 among degree d - 1,
    the first entry of alpha's row in _derivative_table."""
    rows, cols, _, prev = _derivative_table(n, d)
    _, first = np.unique(rows, return_index=True)
    return cols[first], prev[first]


@lru_cache(maxsize=None)
def _derivative_table(n: int, d: int):
    """Entries of d(x^alpha)/dx_j = alpha_j x^(alpha - e_j) over degree-d
    monomials: the row alpha, the column j, the factor alpha_j and the
    index of alpha - e_j among degree d - 1, for every alpha_j > 0."""
    idx_prev = monomial_index(n, d - 1)
    rows, cols, coef, prev = [], [], [], []
    for r, al in enumerate(monomials(n, d)):
        for j, e in enumerate(al):
            if e:
                be = list(al)
                be[j] -= 1
                rows.append(r)
                cols.append(j)
                coef.append(float(e))
                prev.append(idx_prev[tuple(be)])
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(coef), np.array(prev, dtype=np.intp))


def _mono_values(x: np.ndarray, n: int, order: int) -> list[np.ndarray]:
    """Monomial values of degrees 1..order at x, as running products
    x^alpha = x_i0 * x^(alpha - e_i0); x is (n,) or (m, n), entry d - 1
    is (M_d,) or (m, M_d)."""
    vals = [x] if order >= 1 else []
    for d in range(2, order + 1):
        first, prev = _power_steps(n, d)
        vals.append(x[..., first] * vals[-1][..., prev])
    return vals


# ---------------------------------------------------------------------------
# truncated maps

class TruncatedMap:
    """Polynomial map with zero constant term, truncated at a total degree."""

    __slots__ = ("n", "order", "layers")

    def __init__(self, n: int, order: int, layers):
        self.n = int(n)
        self.order = int(order)
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if len(layers) != self.order:
            raise DimensionMismatch(f"expected {self.order} layers, got {len(layers)}")
        store = []
        for d, L in enumerate(layers, start=1):
            L = np.array(L, dtype=float)
            want = (self.n, num_monomials(self.n, d))
            if L.shape != want:
                raise DimensionMismatch(f"layer {d} has shape {L.shape}, expected {want}")
            store.append(L)
        self.layers = store

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, n: int, order: int) -> "TruncatedMap":
        return cls(n, order, [np.zeros((n, num_monomials(n, d)))
                              for d in range(1, order + 1)])

    @classmethod
    def from_linear(cls, A, order: int) -> "TruncatedMap":
        A = np.asarray(A, dtype=float)
        out = cls.zero(A.shape[0], order)
        out.layers[0] = A.copy()
        return out

    @classmethod
    def identity(cls, n: int, order: int) -> "TruncatedMap":
        return cls.from_linear(np.eye(n), order)

    @classmethod
    def from_flat(cls, n: int, order: int, flat: np.ndarray) -> "TruncatedMap":
        offs, size = _flat_layout(n, order)
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (n, size):
            raise DimensionMismatch(f"flat block has shape {flat.shape}, expected {(n, size)}")
        return cls(n, order, [flat[:, offs[d]:offs[d] + num_monomials(n, d)]
                              for d in range(1, order + 1)])

    @classmethod
    def from_terms(cls, n: int, order: int, terms) -> "TruncatedMap":
        """Build from records {component, exponents, coefficient}."""
        out = cls.zero(n, order)
        for t in terms:
            i = int(t["component"])
            al = tuple(int(e) for e in t["exponents"])
            d = sum(al)
            if not 0 <= i < n:
                raise DimensionMismatch(f"component {i} outside 0..{n - 1}")
            if len(al) != n or min(al) < 0:
                raise DimensionMismatch(f"exponent tuple {al} has wrong length "
                                        "or a negative entry")
            if not 1 <= d <= order:
                raise DimensionMismatch(f"term of degree {d} outside 1..{order}")
            out.layers[d - 1][i, monomial_index(n, d)[al]] += float(t["coefficient"])
        return out

    def to_terms(self, tol: float = 0.0) -> list[dict]:
        terms = []
        for d in range(1, self.order + 1):
            mons = monomials(self.n, d)
            L = self.layers[d - 1]
            for i in range(self.n):
                for j, al in enumerate(mons):
                    if abs(L[i, j]) > tol:
                        terms.append({"component": i, "exponents": list(al),
                                      "coefficient": float(L[i, j])})
        return terms

    # -- access -------------------------------------------------------------

    def layer(self, d: int) -> np.ndarray:
        if not 1 <= d <= self.order:
            raise DimensionMismatch(f"no layer of degree {d}")
        return self.layers[d - 1]

    def linear(self) -> np.ndarray:
        return self.layers[0]

    def with_layer(self, d: int, L) -> "TruncatedMap":
        out = self.copy()
        L = np.asarray(L, dtype=float)
        want = out.layers[d - 1].shape
        if L.shape != want:
            raise DimensionMismatch(f"layer {d} has shape {L.shape}, expected {want}")
        out.layers[d - 1] = L.copy()
        return out

    def copy(self) -> "TruncatedMap":
        return TruncatedMap(self.n, self.order, self.layers)

    def flat(self) -> np.ndarray:
        return np.hstack(self.layers)

    def truncated(self, order: int) -> "TruncatedMap":
        """Drop layers past `order`, or pad with zero layers up to it."""
        if order <= self.order:
            return TruncatedMap(self.n, order, self.layers[:order])
        pad = [np.zeros((self.n, num_monomials(self.n, d)))
               for d in range(self.order + 1, order + 1)]
        return TruncatedMap(self.n, order, self.layers + pad)

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other: "TruncatedMap", op) -> "TruncatedMap":
        if not isinstance(other, TruncatedMap):
            return NotImplemented
        if other.n != self.n or other.order != self.order:
            raise DimensionMismatch("maps of different shape")
        return TruncatedMap(self.n, self.order,
                            [op(a, b) for a, b in zip(self.layers, other.layers)])

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return TruncatedMap(self.n, self.order, [-L for L in self.layers])

    def __mul__(self, c):
        c = float(c)
        return TruncatedMap(self.n, self.order, [c * L for L in self.layers])

    __rmul__ = __mul__

    def linear_left(self, M) -> "TruncatedMap":
        """Left-compose with a square linear map: returns M o self."""
        M = np.asarray(M, dtype=float)
        if M.shape != (self.n, self.n):
            raise DimensionMismatch("linear factor has the wrong shape")
        return TruncatedMap(self.n, self.order, [M @ L for L in self.layers])

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = _mono_values(x, self.n, self.order)
        out = vals[0] @ self.layers[0].T
        for v, L in zip(vals[1:], self.layers[1:]):
            out += v @ L.T
        return out

    __call__ = evaluate

    def jacobian(self, x) -> np.ndarray:
        """Derivative at x; x is (n,) or (m, n), result (n, n) or (m, n, n)."""
        x = np.asarray(x, dtype=float)
        batch = x.shape[:-1]
        vals = _mono_values(x, self.n, self.order - 1)
        J = np.broadcast_to(self.layers[0], batch + (self.n, self.n)).copy()
        for d in range(2, self.order + 1):
            rows, cols, coef, prev = _derivative_table(self.n, d)
            dM = np.zeros(batch + (num_monomials(self.n, d), self.n))
            dM[..., rows, cols] = coef * vals[d - 2][..., prev]
            J += self.layers[d - 1] @ dM
        return J

    # -- comparison ----------------------------------------------------------

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(L))) if L.size else 0.0) for L in self.layers)

    def allclose(self, other: "TruncatedMap", tol: float = 1e-10) -> bool:
        if other.n != self.n or other.order != self.order:
            return False
        return all(np.max(np.abs(a - b)) <= tol if a.size else True
                   for a, b in zip(self.layers, other.layers))

    def __repr__(self):
        return f"TruncatedMap(n={self.n}, order={self.order})"


# ---------------------------------------------------------------------------
# composition and inversion

def _power_matrix(G: TruncatedMap) -> np.ndarray:
    """Row per monomial (graded order): flat coefficients of G^alpha.

    The rows of degree d are G_i0 * G^(alpha - e_i0), formed for all alpha of
    that degree at once by one scatter over the product's index triples."""
    n, order = G.n, G.order
    offs, size = _flat_layout(n, order)
    PW = np.zeros((size, size))
    Gf = G.flat()
    PW[offs[1]:offs[1] + n] = Gf
    for d in range(2, order + 1):
        first, prev = _power_steps(n, d)
        # G^(alpha - e_i0) has no terms below degree d - 1
        a, b, t = _mul_pairs(n, order, d - 1)
        rows = len(first)
        vals = Gf[first][:, a] * PW[offs[d - 1] + prev][:, b]
        bins = (np.arange(rows)[:, None] * size + t).ravel()
        PW[offs[d]:offs[d] + rows] = np.bincount(
            bins, weights=vals.ravel(), minlength=rows * size).reshape(rows, size)
    return PW


def compose(F: TruncatedMap, G: TruncatedMap) -> TruncatedMap:
    """Truncated composition F o G (both maps fix the origin), to the lower
    of their orders."""
    if F.n != G.n:
        raise DimensionMismatch("composition needs maps on the same space")
    order = min(F.order, G.order)
    F, G = F.truncated(order), G.truncated(order)
    return TruncatedMap.from_flat(F.n, order, F.flat() @ _power_matrix(G))


def inverse_truncated(F: TruncatedMap) -> TruncatedMap:
    """Compositional inverse, degree by degree."""
    A = F.linear()
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    if smin <= 1e-12 * max(1.0, np.linalg.norm(A)):
        raise NonInvertibleLinearPart("linear part is singular; no local inverse")
    H = TruncatedMap.from_linear(np.linalg.inv(A), F.order)
    ident = TruncatedMap.identity(F.n, F.order)
    for d in range(2, F.order + 1):
        R = compose(F, H) - ident
        H.layers[d - 1] -= np.linalg.solve(A, R.layer(d))
    return H


def _diagonal_block(M: np.ndarray, n: int, order: int, d: int) -> np.ndarray:
    """The degree-d to degree-d block of a flat graded operator."""
    offs, _ = _flat_layout(n, order)
    s = slice(offs[d], offs[d] + num_monomials(n, d))
    return M[s, s]


@lru_cache(maxsize=None)
def _substitution_scatter(n: int, d: int):
    """_power_steps(n, d), the positions (a, b) of the products x_a x^b of a
    degree-1 and a degree-(d - 1) monomial, and the flat bins row * M_d +
    index of x_a x^b over the rows of the degree-d monomials."""
    first, prev = _power_steps(n, d)
    P = _prod_table(n, 1, d - 1)
    a, b = np.indices(P.shape)
    bins = (np.arange(len(first))[:, None] * len(first) + P.ravel()).ravel()
    return first, prev, a.ravel(), b.ravel(), bins


def _substitution_blocks(T: np.ndarray, k: int) -> list[np.ndarray]:
    """[S_1, ..., S_k]: S_d[a, b] = coefficient of x^b in (T x)^a over the
    degree-d monomials, the only nonzero blocks of the power matrix of the
    linear map T x.

    Row alpha of S_d is (T x)_i0 (T x)^(alpha - e_i0), one scatter of the
    products T[i0, i] S_{d-1}[alpha - e_i0, j] into x_i x^j; each entry sums
    them in the order _power_matrix does, so the blocks are its own.  A
    complex T scatters its real and imaginary parts apart, as np.bincount
    takes real weights only."""
    n = T.shape[0]
    blocks = [T.copy()]
    for d in range(2, k + 1):
        first, prev, a, b, bins = _substitution_scatter(n, d)
        rows = len(first)
        vals = (T[first][:, a] * blocks[-1][prev][:, b]).ravel()
        S = np.bincount(bins, weights=vals.real, minlength=rows * rows)
        if np.iscomplexobj(vals):
            S = S + 1j * np.bincount(bins, weights=vals.imag, minlength=rows * rows)
        blocks.append(S.reshape(rows, rows))
    return blocks


def substitution_matrix(T, k: int) -> np.ndarray:
    """S[a, b] = coefficient of x^b in (T x)^a, both of degree k, for a real
    or complex T."""
    T = np.asarray(T)
    T = T.astype(np.result_type(T, float), copy=False)
    if k < 1:
        raise ValueError("degree must be at least 1")
    return _substitution_blocks(T, k)[-1]


def _inverse_substitutions(T: np.ndarray, k: int) -> list[np.ndarray]:
    """The read-only substitution blocks S_1..S_k of T^-1, after the checks
    that T is finite and invertible."""
    _require_finite("conjugating matrix", T)
    require_invertible(T, "conjugating matrix")
    blocks = _substitution_blocks(np.linalg.inv(T), k)
    for S in blocks:
        S.flags.writeable = False
    return blocks


def conjugate_linear(T, F: TruncatedMap) -> TruncatedMap:
    """T o F o T^{-1} for an invertible n x n matrix T.

    The substitution blocks of T^-1 are kept by T's content and F's order
    in _SUBSTITUTION_MEMO, so conjugations by the same matrices (a group's
    elements, S0) build them once.  Raises DimensionMismatch when T is not
    n x n, and, when T's blocks are built, NonFinite for an inf or NaN
    entry and SingularInput for a T singular to working precision."""
    T = np.asarray(T, dtype=float)
    if T.shape != (F.n, F.n):
        raise DimensionMismatch(
            f"conjugating matrix has shape {T.shape}, expected {(F.n, F.n)}")
    blocks = _SUBSTITUTION_MEMO.get_or_build(
        (T.shape, T.tobytes(), F.order),
        lambda: _inverse_substitutions(T, F.order))
    return TruncatedMap(F.n, F.order,
                        [T @ L @ S for L, S in zip(F.layers, blocks)])


# ---------------------------------------------------------------------------
# graded operators on homogeneous layers (row-major vec convention)

def adk_operator(T, k: int) -> np.ndarray:
    """Conjugation on degree-k layers: vec(T Y_k T^{-1}) = adk_operator(T,k) vec(Y_k)."""
    T = np.asarray(T, dtype=float)
    return np.kron(T, substitution_matrix(np.linalg.inv(T), k).T)


def _transport_block(N: np.ndarray, k: int) -> np.ndarray:
    """D with D p = Dp . (N x) on degree-k scalar polynomials p: the
    degree-k block of the transport operator of the linear field N x."""
    return _diagonal_block(_transport_operator(TruncatedMap.from_linear(N, k)),
                           N.shape[0], k, k)


def adk_field(N, k: int) -> np.ndarray:
    """Bracket with the linear field N x on degree-k layers:
    vec([N x, Y_k]) = adk_field(N,k) vec(Y_k), [N x, Y] = DY.(Nx) - N Y.
    The operator is I_n (x) D - N (x) I_M, with D = _transport_block(N, k)."""
    N = np.asarray(N, dtype=float)
    return _kron_bracket(N, _transport_block(N, k))


def _kron_bracket(N: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The dense I_n (x) D - N (x) I_M."""
    return np.kron(np.eye(N.shape[0]), D) - np.kron(N, np.eye(D.shape[0]))


def _bracket_times(N: np.ndarray, D: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(I_n (x) D - N (x) I_M) P for an (n M) x c matrix P, through the
    factors: D on each of the n row blocks of P, and N on the blocks as a
    whole (Van Loan, J. Comput. Appl. Math. 123 (2000) 85-100)."""
    n, M, c = N.shape[0], D.shape[0], P.shape[1]
    out = np.matmul(D, P.reshape(n, M, c))
    out -= (N @ P.reshape(n, M * c)).reshape(n, M, c)
    return out.reshape(n * M, c)


# phi1 is summed as a Taylor polynomial at L / 2^s, scaled to 1-norm <= this.
PHI1_THETA = 0.5
# Systems with C_d(X1) are solved by the series psi of its inverse when the
# 1-norms of the two Kronecker factors of its bracket operator sum to at most
# this, and by a dense LU otherwise (see _CkSolver).
PSI_THETA = 1.0


def ck_operator(X1, k: int) -> np.ndarray:
    """C_k(X1) = phi1(adk_field(X1, k)) with phi1(z) = (e^z - 1)/z.

    Governs composition with near-identity degree-k factors:
    exp(X1 + W_k) = exp(X1) o exp(C_k(X1) W_k) modulo degrees > k.

    Scaling and modified squaring of phi1 on the m x m bracket operator
    L = I_n (x) D - X1 (x) I_M of adk_field (Skaflestad & Wright, Appl. Numer.
    Math. 59 (2009) 783-799).  With A = L / 2^s and a = ||A||_1 <= PHI1_THETA,
    the Taylor polynomial of the least degree q with
    a^(q+1)/(q+2)! e^a <= 2^-53 is summed by Horner, each product with A
    applied through its Kronecker factors D / 2^s and X1 / 2^s, at about
    (M + n) / (n M) of the flops of a dense m x m product; then s doublings
    phi1(2B) = phi1(B) (e^B + I) / 2 and e^2B = (e^B)^2, with e^B - I
    carried from e^A - I = A phi1(A).
    """
    X1 = np.asarray(X1, dtype=float)
    _require_finite("linear part", X1)
    D = _transport_block(X1, k)
    L = _kron_bracket(X1, D)
    m = L.shape[0]
    a = float(np.linalg.norm(L, 1))
    if not math.isfinite(a):
        raise NonFinite("bracket operator has a non-finite 1-norm")
    s = max(0, math.ceil(math.log2(a / PHI1_THETA))) if a > PHI1_THETA else 0
    L *= 2.0 ** -s
    D = D * 2.0 ** -s
    X1 = X1 * 2.0 ** -s
    a *= 2.0 ** -s
    q = 0
    while a ** (q + 1) / math.factorial(q + 2) * math.exp(a) > 2.0 ** -53:
        q += 1
    # the first Horner product A (I / (q+1)!) is a scaled copy of A; at
    # q = 0 the sum is I = I / 0!
    phi = L * (1.0 / math.factorial(q + 1)) if q else np.zeros((m, m))
    phi.flat[::m + 1] += 1.0 / math.factorial(q)
    for j in range(q - 1, 0, -1):
        phi = _bracket_times(X1, D, phi)
        phi.flat[::m + 1] += 1.0 / math.factorial(j)
    if s:
        E = _bracket_times(X1, D, phi)  # e^A - I
    for i in range(s):
        if i:
            P = E @ E  # e^2B - I = (e^B - I)^2 + 2 (e^B - I)
            E *= 2.0
            E += P
        P = phi @ E  # phi1(2B) = phi1(B) + phi1(B) (e^B - I) / 2
        P *= 0.5
        phi += P
    return phi


def _require_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFinite(f"{what} has non-finite entries")


def _guard_ck(kappa: float, m: int) -> float:
    """kappa, a kappa_1 estimate or bound of an m x m C_d; CkSingular when it
    reaches CK_COND_LIMIT / m."""
    if not kappa < CK_COND_LIMIT / m:
        raise CkSingular(
            f"composition operator is numerically singular "
            f"(kappa_1 ~ {kappa:.2e}, limit {CK_COND_LIMIT / m:.2e})")
    return kappa


def _check_ck(C: np.ndarray):
    """LU factors of C and its 1-norm condition number kappa_1, estimated by
    LAPACK dgecon on those factors (Higham, ACM TOMS 14 (1988) 381-396).

    Raises NonFinite when C holds inf or NaN, and CkSingular when the
    estimate reaches CK_COND_LIMIT / m for m x m C.
    """
    _require_finite("composition operator", C)
    lu_piv = scipy.linalg.lu_factor(C)
    rcond, _ = scipy.linalg.lapack.dgecon(lu_piv[0], np.linalg.norm(C, 1),
                                          norm="1")
    return lu_piv, _guard_ck(1.0 / rcond if rcond > 0 else math.inf, C.shape[0])


def ck_solve(C: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return lu_solve(_check_ck(C)[0], rhs)


# B_j / j!, j = 0..20: the Taylor coefficients of psi(z) = z / (e^z - 1).
# 21 terms reach 2^-53 at a = PSI_THETA (see _psi_terms).
_PSI_COEFFS = (1.0, -1 / 2, 1 / 12, 0.0, -1 / 720, 0.0, 1 / 30240, 0.0,
               -1 / 1209600, 0.0, 1 / 47900160, 0.0, -691 / 1307674368000,
               0.0, 1 / 74724249600, 0.0, -3617 / 10670622842880000, 0.0,
               43867 / 5109094217170944000, 0.0,
               -174611 / 802857662698291200000)


def _psi_terms(a: float) -> int:
    """The degree q at which psi's Taylor series is cut on an operator of
    1-norm at most a <= PSI_THETA.  As |B_j| / j! <= 4 / (2 pi)^j for
    j >= 1, the terms past z^q sum to at most 4 r^(q+1) / (1 - r) times the
    norm of the right-hand side, r = a / (2 pi); q is the least for which
    that is <= 2^-53.  (The loop only ends for a < 2 pi.)"""
    r = a / (2 * math.pi)
    q = 0
    while 4 * r ** (q + 1) / (1 - r) > 2.0 ** -53:
        q += 1
    return q


class _CkSolver:
    """Solves C_d(X1) W = V, for a vector or a block of columns V.

    With D = _transport_block(X1, d), the bracket operator of C_d is
    L = I_n (x) D - X1 (x) I_M, and a = ||D||_1 + ||X1||_1 >= ||L||_1.
    - a <= PSI_THETA: W = psi(L) V with psi(z) = z / (e^z - 1) =
      sum B_j z^j / j!, the inverse of phi1 (the dexp^-1 series; Iserles,
      Munthe-Kaas, Norsett & Zanna, Acta Numer. 9 (2000) 215-365), cut at
      degree _psi_terms(a) and summed by Horner on V, each product with L
      taken through its Kronecker factors.  No m x m matrix is built.  Here
      ||C_d - I||_1 <= e1 = (e^a - 1 - a) / a <= e - 2, so kappa_1(C_d) <=
      (1 + e1) / (1 - e1) <= 6.1, and kappa holds that bound.  At a = 0,
      C_d = I and W = V exactly.
    - otherwise: C_d = ck_operator(X1, d), LU-factored by _check_ck, and
      kappa holds dgecon's estimate.
    Either way CkSingular is raised when kappa reaches CK_COND_LIMIT / m.
    """

    __slots__ = ("X1", "D", "q", "lu", "kappa")

    def __init__(self, X1, d: int):
        self.X1 = np.asarray(X1, dtype=float)
        self.D = _transport_block(self.X1, d)
        a = float(np.linalg.norm(self.D, 1) + np.linalg.norm(self.X1, 1))
        if a <= PSI_THETA:  # False for a non-finite X1, which ck_operator refuses
            self.q, self.lu = _psi_terms(a), None
            e1 = (math.expm1(a) - a) / a if a else 0.0
            self.kappa = _guard_ck((1 + e1) / (1 - e1),
                                   self.X1.shape[0] * self.D.shape[0])
        else:
            self.lu, self.kappa = _check_ck(ck_operator(self.X1, d))

    def solve(self, V) -> np.ndarray:
        if self.lu is not None:
            return lu_solve(self.lu, V)
        V = np.asarray(V, dtype=float)
        _require_finite("right-hand side", V)
        P = V.reshape(V.shape[0], -1)
        top, *rest = _PSI_COEFFS[self.q::-1]  # c_q, ..., c_0
        W = top * P
        for c in rest:
            W = _bracket_times(self.X1, self.D, W)
            if c:
                W += c * P
        return W.reshape(V.shape)


# ---------------------------------------------------------------------------
# exponentials and logarithms of vector fields (time-one flows)

@lru_cache(maxsize=None)
def _transport_triples(n: int, order: int):
    """Index triples of p -> Dp . X on flat coefficients.

    D(x^alpha) . X = sum_j alpha_j x^(alpha - e_j) X_j, so the entry at
    (target, source) gets alpha_j * X_j[gamma] from each flat position gamma
    of X_j with x^(alpha - e_j) x^gamma the target monomial.  Returned as flat
    bins target * size + source, the variable j, the position gamma and the
    factor alpha_j, ordered by source, then j, then gamma, so that each entry
    sums its terms in increasing j."""
    offs, size = _flat_layout(n, order)
    bins, var, pos, coef = [], [], [], []
    for i in range(n):
        bins.append(np.arange(size) * size + offs[1] + i)
        var.append(np.full(size, i))
        pos.append(np.arange(size))
        coef.append(np.ones(size))
    for d in range(2, order + 1):
        for c, j, e, b in zip(*_derivative_table(n, d)):
            for d1 in range(1, order - d + 2):
                M1 = num_monomials(n, d1)
                target = offs[d1 + d - 1] + _prod_table(n, d1, d - 1)[:, b]
                bins.append(target * size + offs[d] + c)
                var.append(np.full(M1, j))
                pos.append(offs[d1] + np.arange(M1))
                coef.append(np.full(M1, e))
    return (np.concatenate(bins), np.concatenate(var), np.concatenate(pos),
            np.concatenate(coef))


def _transport_operator(X: TruncatedMap) -> np.ndarray:
    """Matrix of p -> Dp . X on flat scalar coefficient vectors."""
    n, order = X.n, X.order
    _, size = _flat_layout(n, order)
    bins, var, pos, coef = _transport_triples(n, order)
    L = np.bincount(bins, weights=coef * X.flat()[var, pos], minlength=size * size)
    return L.reshape(size, size)


def _lie_tail(a: float, b: float, order: int, q: int) -> float:
    """The bound on the terms past L^q x / q! of exp_vf's Lie series (see
    exp_vf): sum_{j < order} (b^j / j!) a^(q-j+1) e^a / (q-j+1)!, for
    a, b > 0 and q >= order - 1.  Each term is taken as the exponential of
    its logarithm, so that no factorial or power meets the float range; inf
    where the bound itself exceeds it."""
    la, lb = math.log(a), math.log(b)
    try:
        return math.fsum(
            math.exp(a + j * lb - math.lgamma(j + 1)
                     + (q - j + 1) * la - math.lgamma(q - j + 2))
            for j in range(order))
    except OverflowError:
        return math.inf


def _lie_terms(a: float, b: float, order: int, cap: int) -> int | None:
    """The least q >= order - 1 with _lie_tail(a, b, order, q) <= 2^-53, or
    None when it exceeds cap.  At a = 0 the tail is 0 and q = order - 1."""
    if not a:
        return order - 1
    q = order - 1
    while _lie_tail(a, b, order, q) > 2.0 ** -53:
        q += 1
        if q > cap:
            return None
    return q


def _lie_series(L: np.ndarray, n: int, q: int) -> np.ndarray:
    """sum_{i <= max(q, 1)} L^i x / i! on the n coordinate columns x of L:
    q - 1 products of L with a thin block."""
    term = L[:, :n]
    E = np.eye(len(L), n) + term
    for i in range(2, q + 1):
        term = L @ term / i
        E += term
    return E


def exp_vf(X: TruncatedMap, k: int | None = None) -> TruncatedMap:
    """Time-one flow of the polynomial vector field X, as a truncated map.

    The exponential of the transport operator L: F -> DF.X on the truncated
    coefficient space, applied to the coordinate functions x: the Lie series
    sum_{i <= q} L^i x / i! (Deprit, Celest. Mech. 1 (1969) 12-30), taken on
    the n coordinate columns, when a bound on its tail reaches 2^-53 within
    q terms and q n <= size(L), so that its q - 1 thin products cost at
    most one dense product; expm(L) otherwise (Moler & Van Loan, SIAM Rev.
    45 (2003) 3-49, methods 1 and 3).

    The bound: split L = L1 + Ln, L1 the degree-preserving part, which
    comes from the linear part X1.  Column alpha of L1's degree-d block
    sums alpha_j |X1[j, l]|, at most d ||X1||_inf, so a = order ||X1||_inf
    >= ||L1||_1, and b = ||L||_1 + a >= ||Ln||_1.  Ln raises degree, so on
    the coordinate columns every word in L1 and Ln with order or more Ln
    factors vanishes.  L^i holds binom(i, j) words with j factors Ln, so
    the 1-norm of each column of the tail past q is at most
    sum_{j < order} (b^j / j!) a^(q-j+1) e^a / (q-j+1)!.  Without a linear
    part, a = 0 and the series is exact at q = order - 1.  Raises NonFinite
    on a field with an inf or NaN coefficient.
    """
    if k is not None:
        X = X.truncated(k)
    n = X.n
    L = _transport_operator(X)
    a = X.order * float(np.abs(X.layers[0]).sum(axis=1).max())  # order ||X1||_inf
    b = float(np.abs(L).sum(axis=0).max()) + a  # ||L||_1 + a
    if not math.isfinite(b):
        raise NonFinite("vector field has non-finite coefficients")
    q = _lie_terms(a, b, X.order, len(L) // n)
    E = scipy.linalg.expm(L)[:, :n] if q is None else _lie_series(L, n, q)
    return TruncatedMap.from_flat(n, X.order, E.T)


class _LruMemo(OrderedDict):
    """At most `size` values by key; the least recently used one is dropped
    first.  A build that raises stores nothing."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def get_or_build(self, key, build):
        """The value under key, made by build() on a miss."""
        if key in self:
            self.move_to_end(key)
            return self[key]
        value = self[key] = build()
        if len(self) > self.size:
            self.popitem(last=False)
        return value


class _LinearPartData:
    """What log_map derives from a linear part A alone: real_log(A), inv(A)
    and, per degree d, the solver of C_d(real_log(A)) (a _CkSolver: the psi
    series for a small real_log(A), a dense LU otherwise) with its kappa_1
    bound or estimate."""

    __slots__ = ("X1", "Ainv", "ck", "ck_kappa")

    def __init__(self, A: np.ndarray):
        self.X1 = real_log(A)
        self.Ainv = np.linalg.inv(A)
        self.ck = {}
        self.ck_kappa = {}

    def ck_factor(self, d: int) -> _CkSolver:
        if d not in self.ck:
            self.ck[d] = _CkSolver(self.X1, d)
            self.ck_kappa[d] = self.ck[d].kappa
        return self.ck[d]


# The data of the last linear part seen, keyed on its shape and bytes.
_LINEAR_PART_MEMO = _LruMemo(1)

# conjugate_linear's substitution blocks of T^-1, keyed on T's shape and
# bytes and the order.  A normal-form call conjugates by the linear stage's
# T1 once per sample, then, once per sample each, by G's elements, S0, G's
# again and the extended group's: |G| + |G~| + 2 matrices at one sample,
# 6 at the |G| = 2 of every benchmark workload and corpus skeleton, so a
# warm one-sample call builds no block.  The T1 all come before the
# diagnostics, whose repeats need |G| + 1 matrices held at a time.
# Counted on three nf-sweep passes (438 conjugations of 63 matrices): 316
# hits at size 6, 345 at 18, with the same pass time (0.142 s); nf-wide's
# 32 conjugations of 8 matrices hit 24 times at any size from 4.
_SUBSTITUTION_MEMO = _LruMemo(6)


def _linear_part_data(A: np.ndarray) -> _LinearPartData:
    return _LINEAR_PART_MEMO.get_or_build((A.shape, A.tobytes()),
                                          lambda: _LinearPartData(A))


# The flow exp_vf(X) of the last field X that log_map returned, keyed on X's
# shape and bytes: log_map's exit test takes it.
_LOG_MAP_FLOW = _LruMemo(1)


def _flow_key(X: TruncatedMap):
    return X.n, X.order, X.flat().tobytes()


def log_map(F: TruncatedMap) -> TruncatedMap:
    """Inverse of exp_vf: the field X with exp_vf(X) = F, degree by degree,
    to F's order.

    The linear part of F must admit a real logarithm.  real_log, the inverse
    and the C_d solvers depend on the linear part alone; they are kept for
    the most recent linear part and reused while it repeats.  A C_d solve
    takes the psi series of its inverse when real_log is small, and a dense
    LU otherwise (see _CkSolver).  Up to 8 sweeps refine X until
    max|F - exp_vf(X)| <= LOG_MAP_TOL * max(1, max|F|).  Layer d of
    exp_vf(X) depends on X's layers up to d alone, so each degree's update
    takes its residual on the order-d space; where X's layers of degree 2
    to d are zero, the flow is linear and the residual is F's layer.  The
    flow exp_vf(X) of the last exit test is kept for _log_map_flow.
    """
    _require_finite("map", *F.layers)
    data = _linear_part_data(F.linear())
    X = TruncatedMap.from_linear(data.X1, F.order)
    scale = max(1.0, F.max_abs())
    for _ in range(8):
        for d in range(2, F.order + 1):
            r = F.layer(d)
            if any(Y.any() for Y in X.layers[1:d]):
                r = r - exp_vf(X, d).layer(d)
            w = data.ck_factor(d).solve((data.Ainv @ r).reshape(-1))
            X.layers[d - 1] += w.reshape(r.shape)
        flow = exp_vf(X)
        if (F - flow).max_abs() <= LOG_MAP_TOL * scale or F.order == 1:
            break
    _LOG_MAP_FLOW.get_or_build(_flow_key(X), lambda: flow)
    return X


def _log_map_flow(X: TruncatedMap) -> TruncatedMap:
    """exp_vf(X), bit for bit; kept from log_map when X is the field that
    log_map returned last, computed otherwise."""
    return _LOG_MAP_FLOW.get_or_build(_flow_key(X), lambda: exp_vf(X))


# ---------------------------------------------------------------------------
# parameter families

class MapFamily:
    """Family of truncated maps over a real parameter vector."""

    def __init__(self, fn, n: int, order: int, nparams: int = 1):
        self._fn = fn
        self.n = int(n)
        self.order = int(order)
        self.nparams = int(nparams)

    def _lam(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.shape != (self.nparams,):
            raise DimensionMismatch(
                f"parameter has shape {lam.shape}, expected ({self.nparams},)")
        return lam

    def at(self, lam) -> TruncatedMap:
        return self._fn(self._lam(lam))


class AffineMapFamily(MapFamily):
    """base + sum_i lam_i * slope_i, coefficientwise."""

    def __init__(self, base: TruncatedMap, slopes):
        self.base = base
        self.slopes = list(slopes)
        for s in self.slopes:
            if s.n != base.n or s.order != base.order:
                raise DimensionMismatch("slope map of different shape than base")

        def fn(lam):
            out = base
            for li, s in zip(lam, self.slopes):
                if li != 0.0:
                    out = out + li * s
            return out.copy()

        super().__init__(fn, base.n, base.order, nparams=len(self.slopes))
