"""Normal forms of equivariant map families near a fixed point.

Pipeline: a linear normal form relative to the reference linearization A0,
then degree-by-degree removal of nonresonant terms.  Two targets are
supported: the semisimple form A0 e^{X} with X commuting with S0, and the
nilpotent form S0 e^{N0 + X} where X additionally satisfies the ad(N0*)
kernel constraint (N0* is the adjoint with respect to the adapted inner
product).  Every stage is a damped Newton iteration on projected residuals.
The degree-j residual is affine in the degree-j generator, so its stage
steps on the exact Jacobian J(A) at the map's linear part A and needs one
step; the linear stage steps on J(A0), the same formula at degree 1.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SplitFailure
from .groups import (GroupData, _resolve_char, extended_group, project_map,
                     tilde_character)
from .linalg import (EIGVEC_COND_LIMIT, AdaptedInnerProduct, InverseSolver,
                     expm, image_basis, newton, nullspace, rank_tolerance,
                     real_log, require_invertible, su_decomposition)
from .polymap import (TruncatedMap, _CkSolver, _linear_part_data,
                      _log_map_flow, _LruMemo, _require_dense_fits,
                      _transport_operator, adk_field, adk_operator, compose,
                      conjugate_linear, exp_vf, log_map, monomials,
                      num_monomials, substitution_matrix)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# Skeletons (see _Skeleton) kept across calls; the nf-sweep benchmark cycles
# through five.
DEGREE_DATA_SKELETONS = 8


# ---------------------------------------------------------------------------
# subspace machinery

def _graded_part(B: np.ndarray, graded, j: int) -> np.ndarray:
    """Orthonormal basis of the part of span(B), for orthonormal columns B,
    that graded = (group, char) grades on degree-j layers: the B c with
    char(h) Ad_j(h) B c = B c for every generator h of the group."""
    group, char = graded
    values = _resolve_char(group, char)
    cuts = [values[i] * (adk_operator(group.elements[i], j) @ B) - B
            for i in group.generators]
    return B @ nullspace(np.vstack(cuts))


def hk_projection(gd: GroupData, k: int, char="chi") -> np.ndarray:
    """Matrix of the character-weighted group average on degree-k layers."""
    values = _resolve_char(gd, char)
    return sum(c * adk_operator(g, k) for c, g in zip(values, gd.elements)) / gd.order


def _grading(gd: GroupData, A0, mode: str):
    """(group, character) grading the exponent spaces of a normal-form
    target: chi on G for the nilpotent one, and for the semisimple one
    tilde-chi on the extended group of G and A0."""
    if mode == "nilpotent":
        return gd, "chi"
    if mode == "semisimple":
        ext = extended_group(gd, A0)
        return ext, tilde_character(gd, "chi", ext)
    raise ValueError(f"unknown mode {mode!r}")


def _real_span(Z: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal basis (columns) of the real span of the r complex rows of
    Z, for a span closed under conjugation: the leading r left singular
    vectors of its m x 2r real and imaginary parts."""
    Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    return np.linalg.svd(np.vstack([Z.real, Z.imag]).T, full_matrices=False)[0][:, :r]


def _degree_spaces(S0, j: int, graded, adNs=None):
    """Orthonormal bases (image, kernel, resonant, admissible) on degree-j
    layers, from the eigenvalues of S0.

    With S0 = V diag(mu) V^-1 and Sub = substitution_matrix, Ad_j(S0) is
    diagonal on the pairs x^alpha e_i in S0's eigencoordinates: the pair
    (i, alpha) has the right eigenvector kron(V[:, i], Sub(V^-1, j)[alpha])
    and the left one kron(V^-1[i], Sub(V, j)[:, alpha]), with eigenvalue
    mu_i mu^-alpha.  A pair is resonant when |mu_i mu^-alpha - 1| <= tau,
    the larger of m eps max(1, max |mu_i mu^-alpha|) RANK_TOL_FACTOR, m =
    hk_dim(n, j), and the pair's first-order error bound eps |S0|
    |mu_i mu^-alpha| (kappa_i / |mu_i| + sum_k alpha_k kappa_k / |mu_k|)
    RANK_TOL_FACTOR, kappa_i the condition number of mu_i.  The second term
    takes over when S0 is far from normal.  On the nf-wide skeleton at j = 4
    the resonant values are at most 1.3e-15 and the others at least 0.076.
    For 100 random semisimple S0, each conjugated by a P with cond(P) of
    1e1 to 1e4, the resonant pairs at j <= 5 are those of the unconjugated
    S0.  The kernel of Ad_j(S0) - I is the real span of the resonant right
    eigenvectors, and its image the orthogonal complement of the resonant
    left ones: one complete QR of their m x r basis, and no factorization
    of the m x m operator.  S0 must be semisimple: SplitFailure when
    cond(V) exceeds EIGVEC_COND_LIMIT.

    The resonant space is the kernel, cut by ker adNs when the operator
    adNs = ad_j(N0*) is given.  The admissible space is its part that
    graded = (group, char) grades, from the conditions on the group's
    generators and no sum over its elements (_graded_part)."""
    n = S0.shape[0]
    mu, V = np.linalg.eig(S0)
    if np.linalg.cond(V) > EIGVEC_COND_LIMIT:
        raise SplitFailure(f"degree {j}: S0 is not semisimple to working precision")
    Vinv = np.linalg.inv(V)
    alpha = np.array(monomials(n, j))
    values = mu[:, None] * np.prod(mu ** -alpha, axis=1)  # mu_i mu^-alpha
    m = values.size
    # eig normalizes V's columns, so kappa_i = |V^-1[i]| is mu_i's condition
    # number: mu_i is off by up to about eps |S0| kappa_i
    w = np.linalg.norm(Vinv, axis=1) / np.abs(mu)
    drift = np.abs(values) * (w[:, None] + alpha @ w)
    tau = np.maximum(rank_tolerance([np.max(np.abs(values))], m),
                     rank_tolerance([1.0], 1) * np.linalg.norm(S0) * drift)
    i, a = np.nonzero(np.abs(values - 1) <= tau)
    r = i.size
    right = V[:, i].T[:, :, None] * substitution_matrix(Vinv, j)[a][:, None, :]
    left = Vinv[i][:, :, None] * substitution_matrix(V, j)[:, a].T[:, None, :]
    ker_b = _real_span(right.reshape(r, m), r)
    im_b = np.linalg.qr(_real_span(left.reshape(r, m), r), mode="complete")[0][:, r:]
    res_b = ker_b if adNs is None else ker_b @ nullspace(adNs @ ker_b)
    adm_b = _graded_part(res_b, graded, j)
    return im_b, ker_b, res_b, adm_b


# ---------------------------------------------------------------------------
# per-degree data (lambda-independent, at A0)

@dataclass
class _DegreeData:
    admissible: np.ndarray
    n_im: int
    n_kerim: int
    blend: InverseSolver  # the image basis and its complements, by columns
    unknown: np.ndarray
    J0: np.ndarray  # J(A0); the linear stage steps on it
    jac_smin: float
    jac_smax: float

    def unwanted(self, vec: np.ndarray) -> np.ndarray:
        c = self.blend.solve(vec)
        return c[:self.n_im + self.n_kerim]


def _jacobian(data: _DegreeData, A, ck: _CkSolver, j: int) -> np.ndarray:
    """J(A) = unwanted C_j(X1)^-1 (Ad_j(A^-1) - I) unknown: the exact
    derivative of the unwanted degree-j exponent coordinates with respect to
    the degree-j generator coordinates, at a map whose linear part is
    A = base e^{X1}.  A degree-j generator Y changes layer j of the map by
    Y o A - A Y and no lower layer, so the derivative holds at every map
    with that linear part.  ck solves with C_j(X1)."""
    M = adk_operator(np.linalg.inv(A), j) @ data.unknown - data.unknown
    return data.unwanted(ck.solve(M))


def _degree_data(j: int, sk: "_Skeleton") -> _DegreeData:
    """Newton data of degree j on the skeleton sk, with its admissible basis."""
    nilpotent = sk.mode == "nilpotent"
    adNs = adk_field(sk.Nstar, j) if nilpotent else None
    im_b, ker_b, res_b, adm_b = _degree_spaces(sk.S0, j, sk.graded, adNs)
    rank = im_b.shape[1]

    T_im = _graded_part(im_b, (sk.gd, "trivial"), j)

    if nilpotent:
        kerim_b = image_basis(adk_field(sk.N0, j) @ ker_b)
        if kerim_b.shape[1] + res_b.shape[1] != ker_b.shape[1]:
            raise SplitFailure(
                f"degree {j}: ad(N0)/ad(N0*) split of the resonant space failed")
        blend = np.hstack([im_b, kerim_b, res_b])
        T_ker = _graded_part(image_basis(adNs @ ker_b), (sk.gd, "trivial"), j)
        unknown = np.hstack([T_im, T_ker])
        n_kerim = kerim_b.shape[1]
    else:
        blend = np.hstack([im_b, ker_b])
        unknown = T_im
        n_kerim = 0
    blend = InverseSolver(blend, SplitFailure, f"degree {j}: the split basis")
    data = _DegreeData(admissible=adm_b, n_im=rank, n_kerim=n_kerim,
                       blend=blend, unknown=unknown,
                       J0=None, jac_smin=0.0, jac_smax=0.0)
    # A0 = A0 e^0 in semisimple mode and S0 e^{N0} in nilpotent mode
    X1 = sk.N0 if nilpotent else np.zeros_like(sk.N0)
    data.J0 = _jacobian(data, sk.A0, _CkSolver(X1, j), j)
    if data.J0.size:
        s = np.linalg.svd(data.J0, compute_uv=False)
        data.jac_smin, data.jac_smax = float(s[-1]), float(s[0])
    for a in (adm_b, data.blend.A, data.blend.inv, unknown, data.J0):
        a.flags.writeable = False  # shared by every call on the skeleton
    return data


class _Skeleton:
    """All that the normal forms of one (mode, A0, G, chi, ip) share: the
    split A0 = S0 e^{N0}, N0* = ip.adjoint(N0), the grading (group, char),
    the base (A0 in semisimple mode, S0 in nilpotent mode) and its inverse,
    and per degree the Newton data and the admissible basis, each built on
    first use.  Every array it hands out is read-only."""

    def __init__(self, mode: str, A0, gd: GroupData, ip: AdaptedInnerProduct):
        su = su_decomposition(A0)
        self.mode, self.A0, self.gd = mode, A0.copy(), gd
        self.S0, self.N0, self.Nstar = su.S, su.nil_log, ip.adjoint(su.nil_log)
        self.graded = _grading(gd, self.A0, mode)
        self.base = self.A0 if mode == "semisimple" else self.S0
        self.base_inv = np.linalg.inv(self.base)
        for a in (self.A0, self.S0, self.N0):
            a.flags.writeable = False
        self.degrees, self.admissible = {}, {}

    def degree(self, j: int) -> _DegreeData:
        """Newton data of degree j; the admissible basis stored first for j
        is the one kept."""
        if j not in self.degrees:
            self.degrees[j] = _degree_data(j, self)
            self.admissible.setdefault(j, self.degrees[j].admissible)
        return self.degrees[j]

    def admissible_basis(self, j: int) -> np.ndarray:
        """The degree-j admissible basis, derived if no stage stored it."""
        if j not in self.admissible:
            adNs = adk_field(self.Nstar, j) if self.mode == "nilpotent" else None
            B = self.admissible[j] = _degree_spaces(self.S0, j, self.graded, adNs)[3]
            B.flags.writeable = False
        return self.admissible[j]


# skeleton key -> _Skeleton
_DEGREE_DATA_MEMO = _LruMemo(DEGREE_DATA_SKELETONS)


def _skeleton(mode: str, A0, gd, ip, k: int) -> _Skeleton:
    """The stored skeleton, keyed on everything it depends on by content,
    after the checks that A0 is invertible and that degree k fits."""
    A0 = require_invertible(A0, "A0")
    _require_dense_fits(A0.shape[0], k)
    arrays = map(np.asarray, (A0, *gd.elements, gd.char, gd.generators, ip.gram))
    key = (mode,) + tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)
    return _DEGREE_DATA_MEMO.get_or_build(key, lambda: _Skeleton(mode, A0, gd, ip))


def admissible_exponent_basis(A0, gd: GroupData, ip: AdaptedInnerProduct,
                              j: int, mode: str = "nilpotent") -> np.ndarray:
    """Basis of the degree-j exponent space that the normal form cannot
    remove, read-only and shared with the normal forms of the skeleton.

    nilpotent mode: ker(Ad_j(S0)-I) and ker(ad_j(N0*)) and the chi-graded
    part under the group; semisimple mode: ker(Ad_j(S0)-I) and the
    tilde-chi-graded part under the extended group.
    """
    return _skeleton(mode, A0, gd, ip, j).admissible_basis(j)


# ---------------------------------------------------------------------------
# linear stage

def _linear_newton(A, sk: _Skeleton, what: str):
    """Shared Newton for the linear normal forms: returns (phi, e^phi, W).

    Drives the unwanted components of W(phi) = log(base^-1 e^phi A e^-phi),
    less N0 in nilpotent mode, to zero over the admissible generator space.
    """
    n = A.shape[0]
    data = sk.degree(1)
    nilpotent = sk.mode == "nilpotent"
    scale = max(1.0, float(np.linalg.norm(A)))

    def eval_at(u):
        phi = (data.unknown @ u).reshape(n, n) if data.unknown.shape[1] else np.zeros((n, n))
        with np.errstate(over="ignore", invalid="ignore"):
            E = expm(phi)
            M = sk.base_inv @ E @ A @ expm(-phi)
        if not np.isfinite(M).all():
            # e^phi past the float range: a NaN residual, which newton's
            # line search rejects
            return np.full(data.n_im + data.n_kerim, np.nan), (phi, E, None)
        W = real_log(M)
        return data.unwanted((W - sk.N0 if nilpotent else W).reshape(-1)), (phi, E, W)

    def step(u, r, aux):
        return np.linalg.lstsq(data.J0, r, rcond=None)[0]

    return newton(eval_at, step, np.zeros(data.unknown.shape[1]),
                  NEWTON_TOL * scale, NEWTON_MAX_ITER, what)[2]


# ---------------------------------------------------------------------------
# map normal form

@dataclass
class NormalFormResult:
    """Output of the per-family normal-form pipeline.

    One transform/exponent pair per parameter sample; nf_exponent holds the
    full exponent (X for the semisimple target A0 e^X, N0 + X for the
    nilpotent target S0 e^{N0+X}).
    """

    mode: str
    S0: np.ndarray
    N0: np.ndarray
    order: int
    lambdas: list
    transforms: list
    exponents: list
    residuals: list
    admissible: dict
    diagnostics: dict

    @property
    def residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


def _newton_degree(psi: TruncatedMap, W: TruncatedMap, j: int, sk: _Skeleton,
                   k: int):
    """Degree-j Newton: returns (conjugated psi, its exponent
    log(base^-1 psi), transform factor, residual).

    W = log(base^-1 psi) is carried in from the previous stage, so the
    evaluation at the generator u = 0 (psi unchanged) takes no log_map.  A
    stage that takes no step hands back None for its factor, the identity,
    so that the driver composes nothing.  The residual is affine in the
    generator, so a step on the exact Jacobian J(A) at psi's linear part A
    solves it; J(A) is built on the first step only, from the C_j solver
    log_map holds for base^-1 A.
    """
    n = psi.n
    Mj = num_monomials(n, j)
    data = sk.degree(j)
    scale = max(1.0, psi.max_abs())

    def eval_at(u):
        if not u.any():
            return data.unwanted(W.layer(j).reshape(-1)), (None, psi, W)
        Y = TruncatedMap.zero(n, k).with_layer(j, (data.unknown @ u).reshape(n, Mj))
        Phi = exp_vf(Y)
        psi_try = compose(compose(Phi, psi), exp_vf(-Y))
        W_try = log_map(psi_try.linear_left(sk.base_inv))
        return data.unwanted(W_try.layer(j).reshape(-1)), (Phi, psi_try, W_try)

    @functools.cache
    def jacobian():
        A = psi.linear()
        return _jacobian(data, A, _linear_part_data(sk.base_inv @ A).ck_factor(j), j)

    def step(u, r, aux):
        return np.linalg.lstsq(jacobian(), r, rcond=None)[0]

    _, r, (Phi, cur, W_cur) = newton(eval_at, step,
                                     np.zeros(data.unknown.shape[1]),
                                     NEWTON_TOL * scale, NEWTON_MAX_ITER,
                                     f"degree {j}")
    return cur, W_cur, Phi, float(np.max(np.abs(r), initial=0.0))


def _nf_driver(family, A0, gd: GroupData, ip: AdaptedInnerProduct, k: int,
               lambdas, mode: str) -> NormalFormResult:
    sk = _skeleton(mode, A0, gd, ip, k)
    degrees = range(2, k + 1)
    # every degree is built before the first sample: built inside it, the
    # degree-k temporaries would stack on the C_k solvers that log_map keeps
    # for the sample, and raise the peak memory
    for j in (*degrees, 1):
        sk.degree(j)

    lambdas = [np.atleast_1d(np.asarray(lam, dtype=float)) for lam in lambdas]
    transforms, exponents, residuals = [], [], []

    for idx, lam in enumerate(lambdas):
        psi = family.at(lam).truncated(k)
        _, T1, _ = _linear_newton(psi.linear(), sk, f"linear stage at sample {idx}")
        psi = conjugate_linear(T1, psi)
        transform = TruncatedMap.from_linear(T1, k)

        # W = log(base^-1 psi) is carried through the degree stages
        W = log_map(psi.linear_left(sk.base_inv))
        per_deg = [0.0]
        for j in degrees:
            psi, W, Phi_j, rj = _newton_degree(psi, W, j, sk, k)
            if Phi_j is not None:  # compose(identity, T) is T, bit for bit
                transform = compose(Phi_j, transform)
            per_deg.append(rj)

        # W came from a log_map, whose last flow is exp_vf(W)
        recon = _log_map_flow(W).linear_left(sk.base)
        residual = max(*per_deg, (psi - recon).max_abs())
        transforms.append(transform)
        exponents.append(W)
        residuals.append(float(residual))

    diagnostics = _nf_diagnostics(sk, transforms, exponents)
    diagnostics["homological_smin"] = {j: sk.degrees[j].jac_smin for j in degrees}
    diagnostics["homological_smax"] = {j: sk.degrees[j].jac_smax for j in degrees}
    return NormalFormResult(mode=mode, S0=sk.S0, N0=sk.N0, order=k,
                            lambdas=lambdas, transforms=transforms,
                            exponents=exponents, residuals=residuals,
                            admissible={j: sk.admissible[j] for j in degrees},
                            diagnostics=diagnostics)


def _worst(defect, maps) -> float:
    return max((float(defect(F)) for F in maps), default=0.0)


def _nf_diagnostics(sk: _Skeleton, transforms, exponents) -> dict:
    """Defects of the result, on the maps themselves: the ad(N0*) defect is
    reported in nilpotent mode, the tilde-chi defect in semisimple mode."""
    nilpotent = sk.mode == "nilpotent"
    resonant = [W.with_layer(1, W.linear() - sk.N0) if nilpotent else W
                for W in exponents]
    d = {"transform_equivariance_defect": _worst(
        lambda Phi: max((conjugate_linear(g, Phi) - Phi).max_abs()
                        for g in sk.gd.elements), transforms)}
    d["exponent_kernel_defect"] = _worst(
        lambda X: (conjugate_linear(sk.S0, X) - X).max_abs(), resonant)

    def ad_defect(X):
        # the layers of degree >= 2 of [N0* x, X] = DX.(N0* x) - N0* X
        L = _transport_operator(TruncatedMap.from_linear(sk.Nstar, X.order))
        F = X.flat()
        return np.max(np.abs((F @ L.T - sk.Nstar @ F)[:, X.n:]), initial=0.0)

    if nilpotent:
        d["exponent_ad_defect"] = _worst(ad_defect, resonant)
    d["exponent_chi_defect"] = _worst(
        lambda W: (W - project_map(W, sk.gd, "chi")).max_abs(), exponents)
    if not nilpotent:
        d["exponent_chitilde_defect"] = _worst(
            lambda X: (X - project_map(X, *sk.graded)).max_abs(), resonant)
    return d


def semisimple_nf(family, A0, gd: GroupData, ip: AdaptedInnerProduct, k: int,
                  lambdas=((0.0,),)) -> NormalFormResult:
    """Normalize a family to A0 e^{X} with X commuting with S0 in the Ad
    sense, degree by degree up to k."""
    return _nf_driver(family, A0, gd, ip, k, lambdas, "semisimple")


def nilpotent_nf(family, A0, gd: GroupData, ip: AdaptedInnerProduct, k: int,
                 lambdas=((0.0,),)) -> NormalFormResult:
    """Normalize a family to S0 e^{N0 + X} with X in ker(Ad(S0)-I) and
    ker(ad(N0*)), degree by degree up to k."""
    return _nf_driver(family, A0, gd, ip, k, lambdas, "nilpotent")
