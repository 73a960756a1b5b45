"""Lyapunov-Schmidt reduction of q-periodic orbits on the lifted space.

Period-q orbits of psi are fixed points of the shifted lift: sigma w =
psi_hat(w) on Y_q = (R^n)^q.  Splitting Y_q = xi(U) + Im(S0_hat - sigma)
with U = ker(S0^q - I) turns the complement part into a Newton-solvable
equation for v*(u, lambda), leaving a reduced map psi_r on U whose
S0-fixed points are exactly the q-periodic orbits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (InvariantViolation, InverseNewtonFailed, NoConvergence,
                     NotInU, SlopeTestFailed)
from .groups import GroupData
from .linalg import (image_basis, kernel_basis, lu_solve, newton,
                     require_invertible)
from .polymap import TruncatedMap, exp_vf

VSTAR_TOL = 1e-12
VSTAR_MAX_ITER = 60
DEFAULT_RADIUS = 0.1
LIFT_CHECK_TOL = 1e-11
INVERSE_TOL = 1e-11
INVERSE_MAX_ITER = 40
PERIODIC_TOL = 1e-10  # determining equation of find_periodic
PERIODIC_MAX_ITER = 40
ISOLATION_TOL = 1e-6  # non-isolated: s_min <= ISOLATION_TOL * max(1, s_max)
KEY_DECIMALS = 8  # rounding that identifies the points of one S0-orbit
CONSISTENCY_DIRECTIONS = 3  # random directions in U, from a fixed seed
CONSISTENCY_SEED = 0
SLOPE_NOISE_FLOOR = 1e-13  # smaller deviations are left out of the slope fit


@dataclass
class LiftContext:
    """Immutable data of the q-fold lift: shift, lifted operators, lifted
    group action, and the xi / complement splitting of Y_q.

    xi_basis = xi_matrix @ U_basis spans xi(U), and sigma_complement =
    sigma @ complement_basis is the shifted complement basis; both are
    formed once here for the determining Jacobian."""

    q: int
    n: int
    A0: np.ndarray
    S0: np.ndarray
    gd: GroupData
    sigma: np.ndarray
    g_hat: list
    U_basis: np.ndarray
    xi_matrix: np.ndarray
    complement_basis: np.ndarray
    xi_basis: np.ndarray
    sigma_complement: np.ndarray
    blend_lu: tuple
    J0_lu: tuple | None
    radius: float

    @property
    def dim_u(self) -> int:
        return self.U_basis.shape[1]


def _check(name: str, defect: float) -> None:
    if defect > LIFT_CHECK_TOL:
        raise InvariantViolation(f"lift identity {name} fails: defect {defect:.3e}")


def build_lift(A0, S0, gd: GroupData, q: int,
               radius: float = DEFAULT_RADIUS) -> LiftContext:
    """Construct the q-fold lift and verify its structural identities."""
    A0 = require_invertible(A0, "A0")
    S0 = np.asarray(S0, dtype=float)
    n = A0.shape[0]
    if q < 1:
        raise ValueError("period q must be a positive integer")

    P = np.zeros((q, q))
    for i in range(q):
        P[i, (i + 1) % q] = 1.0
    sigma = np.kron(P, np.eye(n))
    S0_hat = np.kron(np.eye(q), S0)
    A0_hat = np.kron(np.eye(q), A0)

    g_hat = []
    for gi, g in enumerate(gd.elements):
        chi = int(round(gd.char[gi]))
        G = np.zeros((q * n, q * n))
        for i in range(q):
            j = (chi * i) % q
            G[i * n:(i + 1) * n, j * n:(j + 1) * n] = g
        g_hat.append(G)

    _check("sigma^q = I", float(np.max(np.abs(
        np.linalg.matrix_power(sigma, q) - np.eye(q * n)))))
    _check("sigma S0_hat = S0_hat sigma",
           float(np.max(np.abs(sigma @ S0_hat - S0_hat @ sigma))))
    sigma_inv = sigma.T
    for gi in range(gd.order):
        chi = int(round(gd.char[gi]))
        s_pow = sigma if chi == 1 else sigma_inv
        _check("g_hat sigma = sigma^chi g_hat",
               float(np.max(np.abs(g_hat[gi] @ sigma - s_pow @ g_hat[gi]))))
        a_pow = A0_hat if chi == 1 else np.linalg.inv(A0_hat)
        _check("A0_hat g_hat = g_hat A0_hat^chi",
               float(np.max(np.abs(A0_hat @ g_hat[gi] - g_hat[gi] @ a_pow))))
        # a homomorphism on the Cayley table's pairs is one on all of G
        for gs, gk in zip(gd.generators, gd.cayley[gi]):
            _check("hat is a representation", float(np.max(np.abs(
                g_hat[gi] @ g_hat[gs] - g_hat[gk]))))

    U_basis = kernel_basis(np.linalg.matrix_power(S0, q) - np.eye(n))
    xi_matrix = np.vstack([np.linalg.matrix_power(S0, i) for i in range(q)])
    m = U_basis.shape[1]

    complement_basis = image_basis(S0_hat - sigma)
    rank = complement_basis.shape[1]
    if m + rank != q * n:
        raise InvariantViolation(
            f"xi(U) + Im(S0_hat - sigma) does not fill Y_q: {m} + {rank} != {q * n}")

    Xi = xi_matrix @ U_basis
    blend = np.hstack([Xi, complement_basis])
    bs = np.linalg.svd(blend, compute_uv=False)
    if bs[-1] <= 1e-10 * bs[0]:
        raise InvariantViolation("xi(U) and Im(S0_hat - sigma) nearly overlap")
    blend_lu = scipy.linalg.lu_factor(blend)

    for gi, g in enumerate(gd.elements):
        _check("g_hat xi = xi g on U", float(np.max(np.abs(
            g_hat[gi] @ Xi - xi_matrix @ (g @ U_basis)))) if m else 0.0)
    _check("sigma xi = xi S0 on U", float(np.max(np.abs(
        sigma @ Xi - xi_matrix @ (S0 @ U_basis)))) if m else 0.0)

    if rank:
        coords = lu_solve(blend_lu, (A0_hat - sigma) @ complement_basis)
        J0 = coords[m:]
        js = np.linalg.svd(J0, compute_uv=False)
        if js[-1] <= 1e-10 * max(1.0, js[0]):
            raise InvariantViolation(
                "A0_hat - sigma is singular on Im(S0_hat - sigma)")
        J0_lu = scipy.linalg.lu_factor(J0)
    else:
        J0_lu = None

    return LiftContext(q=q, n=n, A0=A0, S0=S0, gd=gd, sigma=sigma, g_hat=g_hat,
                       U_basis=U_basis, xi_matrix=xi_matrix,
                       complement_basis=complement_basis, xi_basis=Xi,
                       sigma_complement=sigma @ complement_basis,
                       blend_lu=blend_lu, J0_lu=J0_lu, radius=radius)


def xi(u, ctx: LiftContext) -> np.ndarray:
    """The lift u -> (S0^i u)_i of u in U = ker(S0^q - I), or of each row of
    a batch of them."""
    u = np.asarray(u, dtype=float)
    w = u @ ctx.xi_matrix.T
    # the last block is S0^(q-1) u, so S0 times it is S0^q u
    defect = np.linalg.norm(w[..., -ctx.n:] @ ctx.S0.T - u, axis=-1)
    if np.any(defect > 1e-9 * np.maximum(1.0, np.linalg.norm(u, axis=-1))):
        raise NotInU(f"u is not in ker(S0^q - I): defect {np.max(defect):.3e}")
    return w


def lifted_apply(psi: TruncatedMap, ctx: LiftContext, w) -> np.ndarray:
    """Blockwise application of psi on Y_q, to w or to each row of a batch."""
    w = np.asarray(w, dtype=float)
    return psi.evaluate(w.reshape(w.shape[:-1] + (ctx.q, ctx.n))).reshape(w.shape)


def _vstar_core(psi: TruncatedMap, ctx: LiftContext, U, radius: float):
    """Chord Newton for the complement equation sigma v = Sigma(u, v) at
    every row u of U at once.

    Returns (V, PR, failed): row i of V is v*(u_i) and row i of PR is
    psi_r(u_i), the xi-part Psi(u_i, v*); failed maps each row whose solve
    failed (|u| beyond the trust radius, a stall, the iteration cap) to its
    NoConvergence, and leaves its rows of V and PR zero.
    """
    U = np.asarray(U, dtype=float)
    unorm = np.linalg.norm(U, axis=1)
    failed = {int(i): NoConvergence(
        f"|u| = {unorm[i]:.3e} exceeds the trust radius {radius:.3e}; "
        "pass a larger radius if the neighborhood is known to be valid")
        for i in np.flatnonzero(unorm > radius)}
    live = np.flatnonzero(unorm <= radius)
    xi_u = xi(U[live], ctx)
    m = ctx.dim_u
    Cb = ctx.complement_basis

    def split(C, rows):
        V = C @ Cb.T
        img = lifted_apply(psi, ctx, xi_u[rows] + V)
        coords = lu_solve(ctx.blend_lu, (img - V @ ctx.sigma.T).T)
        return coords[m:].T, (coords[:m].T, V), None

    def step(C, R, aux):
        return lu_solve(ctx.J0_lu, R.T).T, None

    _, _, (A, V), bad = newton(split, step, np.zeros((live.size, Cb.shape[1])),
                               VSTAR_TOL * np.maximum(1.0, unorm[live]),
                               VSTAR_MAX_ITER,
                               lambda i: f"v* at |u| = {unorm[live[i]]:.3e}")
    solved = np.ones(live.size, dtype=bool)
    for j, exc in bad.items():
        failed[int(live[j])] = exc
        solved[j] = False
    V_all = np.zeros((U.shape[0], Cb.shape[0]))
    PR = np.zeros(U.shape)
    V_all[live[solved]] = V[solved]
    PR[live[solved]] = A[solved] @ ctx.U_basis.T
    return V_all, PR, failed


def _vstar(psi: TruncatedMap, ctx: LiftContext, u, radius: float):
    """(v*, psi_r(u)) at u or at each row of u, from one batched solve;
    raises the NoConvergence of the first row whose solve failed."""
    u = np.asarray(u, dtype=float)
    V, PR, failed = _vstar_core(psi, ctx, u.reshape(-1, ctx.n), radius)
    if failed:
        raise failed[min(failed)]
    return V.reshape(u.shape[:-1] + V.shape[1:]), PR.reshape(u.shape)


def _reduced_jacobians(psi: TruncatedMap, ctx: LiftContext, U, V):
    """D psi_r in U coordinates at every row u of U, given the rows of
    V = v*(U), by the implicit function theorem.

    With w = xi(u) + v and D = blockdiag(D psi(w_0), ..., D psi(w_{q-1})),
    blend^-1 D xi U_basis = [a_u; F_u] and blend^-1 (D - sigma) Cb =
    [a_v; F_v] split the derivatives of the xi-part a and of the complement
    residual F, so dv*/du = -F_v^-1 F_u and D psi_r = a_u - a_v F_v^-1 F_u.
    Returns (J, failed): J is (b, m, m), and failed maps each row whose F_v
    is singular to its NoConvergence.
    """
    b, q, n, m = len(U), ctx.q, ctx.n, ctx.dim_u
    Js = psi.jacobian((xi(U, ctx) + V).reshape(b, q, n))

    def blockwise(B):
        return (Js @ B.reshape(q, n, -1)).reshape(b, q * n, -1)

    rhs = np.concatenate([blockwise(ctx.xi_basis),
                          blockwise(ctx.complement_basis) - ctx.sigma_complement],
                         axis=2)
    cols = rhs.shape[2]
    coords = lu_solve(ctx.blend_lu, rhs.transpose(1, 0, 2).reshape(q * n, b * cols))
    coords = coords.reshape(q * n, b, cols).transpose(1, 0, 2)
    a_u, F_u = coords[:, :m, :m], coords[:, m:, :m]
    a_v, F_v = coords[:, :m, m:], coords[:, m:, m:]
    failed = {}
    try:
        dv = np.linalg.solve(F_v, F_u)
    except np.linalg.LinAlgError:
        dv = np.zeros_like(F_u)
        for i in range(b):
            try:
                dv[i] = np.linalg.solve(F_v[i], F_u[i])
            except np.linalg.LinAlgError as exc:
                failed[i] = NoConvergence(f"singular complement Jacobian: {exc}")
    return a_u - a_v @ dv, failed


def _reduced_jacobian(psi: TruncatedMap, ctx: LiftContext, u, v) -> np.ndarray:
    """D psi_r at u or at each row of u, given v = v*(u); raises the
    NoConvergence of the first row whose F_v is singular."""
    u = np.asarray(u, dtype=float)
    J, failed = _reduced_jacobians(psi, ctx, u.reshape(-1, ctx.n),
                                   np.reshape(v, (-1, ctx.q * ctx.n)))
    if failed:
        raise failed[min(failed)]
    return J.reshape(u.shape[:-1] + J.shape[1:])


def solve_vstar(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """The complement solution v*(u, lambda) in Im(S0_hat - sigma), at u or
    at each row of u."""
    return _vstar(family.at(lam), ctx, u, ctx.radius)[0]


def reduced_map(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """The reduced map psi_r(u) = Psi(u, v*(u, lambda)), a vector in U, at u
    or at each row of u."""
    return _vstar(family.at(lam), ctx, u, ctx.radius)[1]


def xstar(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """The full-space point carried by u, or by each row of u: block 0 of
    xi(u) + v*(u, lambda)."""
    u = np.asarray(u, dtype=float)
    return u + solve_vstar(family, ctx, u, lam)[..., :ctx.n]


def reduced_inverse(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """Solve psi_r(w) = u for w in U by Newton, on the implicit-function
    Jacobian D psi_r at the v* that each residual's solve returns."""
    u = np.asarray(u, dtype=float).reshape(-1)
    psi = family.at(lam)
    Ub = ctx.U_basis
    AU = Ub.T @ ctx.A0 @ Ub
    c0 = np.linalg.solve(AU, Ub.T @ u)

    def res(cv):
        v, pr = _vstar(psi, ctx, Ub @ cv, ctx.radius)
        return Ub.T @ pr - Ub.T @ u, v

    def step(cv, r, v):
        try:
            return np.linalg.solve(_reduced_jacobian(psi, ctx, Ub @ cv, v), r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular reduced Jacobian: {exc}") from exc

    try:
        c, _, _ = newton(res, step, c0,
                         INVERSE_TOL * max(1.0, float(np.linalg.norm(u))),
                         INVERSE_MAX_ITER,
                         "reduced inverse")
    except NoConvergence as exc:
        raise InverseNewtonFailed(str(exc)) from exc
    return Ub @ c


def bifurcation_fn(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """B(u, lambda) = S0^-1 psi_r(u) - S0 psi_r^-1(u); zeros are exactly the
    S0-fixed points of the reduced map."""
    u = np.asarray(u, dtype=float).reshape(-1)
    fwd = np.linalg.solve(ctx.S0, reduced_map(family, ctx, u, lam))
    bwd = ctx.S0 @ reduced_inverse(family, ctx, u, lam)
    return fwd - bwd


@dataclass
class PeriodicPoint:
    """A q-periodic point found by the determining equation."""

    u: np.ndarray
    lam: np.ndarray
    coords: np.ndarray
    xstar: np.ndarray
    orbit: np.ndarray
    residual_reduced: float
    residual_full: float
    isolated: bool
    jacobian_smin: float


def _canonical_key(u, S0, q):
    cands = []
    w = u.copy()
    for _ in range(q):
        cands.append(tuple(np.round(w, KEY_DECIMALS) + 0.0))
        w = S0 @ w
    return min(cands)


def _lstsq_rows(J, R) -> np.ndarray:
    """Minimum-norm least-squares solution x_i of J[i] x_i = R[i] for every
    i, by one stacked SVD; singular values at or below eps * max(M, N) *
    s_max count as zero, the cut-off of np.linalg.lstsq with rcond=None."""
    Uj, s, Vh = np.linalg.svd(J, full_matrices=False)
    cut = np.finfo(float).eps * max(J.shape[1:]) * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cut)
    y = s_inv * (np.swapaxes(Uj, 1, 2) @ R[..., None])[..., 0]
    return (np.swapaxes(Vh, 1, 2) @ y[..., None])[..., 0]


def _periodic_newton(psi: TruncatedMap, ctx: LiftContext, seeds, radius: float):
    """One Newton on the determining equation psi_r(u) = S0 u over all rows
    of seeds (U coordinates), each with its own line search and exit.

    Returns (C, R, V, failed) as newton does for a batch, with V the v* of
    each row's accepted iterate.  A row fails when a v* solve or a singular
    F_v fails it; a non-finite map value raises NonFinite for the batch.
    """
    Ub = ctx.U_basis
    SU = Ub.T @ ctx.S0 @ Ub

    def det_eq(C, rows):
        V, PR, failed = _vstar_core(psi, ctx, C @ Ub.T, radius)
        return PR @ Ub - C @ SU.T, (V,), failed

    def det_step(C, R, aux):
        J, failed = _reduced_jacobians(psi, ctx, C @ Ub.T, aux[0])
        return _lstsq_rows(J - SU, R), failed

    C, R, (V,), failed = newton(det_eq, det_step, seeds, PERIODIC_TOL,
                                PERIODIC_MAX_ITER, "periodic seed")
    return C, R, V, failed


def find_periodic(family, ctx: LiftContext, lam_grid, search_box,
                  seeds_per_axis: int = 5):
    """Grid-seeded Newton on the determining equation psi_r(u) = S0 u, one
    batched Newton over all seeds per lambda.

    search_box is a finite, non-negative half-width (scalar or
    per-U-coordinate array) and seeds_per_axis an integer >= 1; ValueError
    otherwise.  Orbits are deduplicated under u -> S0 u in seed order,
    listed in the order of the seed that first reached them, and flagged
    non-isolated when the determining Jacobian is rank deficient.
    """
    Ub = ctx.U_basis
    m = Ub.shape[1]
    box = np.asarray(search_box, dtype=float)
    if not np.all(np.isfinite(box) & (box >= 0)):
        raise ValueError(f"search_box must be finite and >= 0, got {search_box!r}")
    if (not isinstance(seeds_per_axis, (int, np.integer))
            or isinstance(seeds_per_axis, bool) or seeds_per_axis < 1):
        raise ValueError(
            f"seeds_per_axis must be an integer >= 1, got {seeds_per_axis!r}")
    box = np.broadcast_to(box.reshape(-1) if box.ndim else np.full(m, float(box)),
                          (m,)).copy()
    radius = max(ctx.radius, 2.0 * float(np.max(box, initial=0.0)))
    SU = Ub.T @ ctx.S0 @ Ub
    axes = [np.linspace(-b, b, seeds_per_axis) for b in box]
    seeds = (np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
             if m else np.zeros((1, 0)))

    found = []
    for lam in lam_grid:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        psi = family.at(lam)
        C, R, V, failed = _periodic_newton(psi, ctx, seeds, radius)
        U = C @ Ub.T
        keys = set()
        first = []  # the seed that first reached each orbit class
        for i, u in enumerate(U):
            if i in failed or np.any(np.abs(C[i]) > 1.5 * box + 1e-12):
                continue
            key = _canonical_key(u, ctx.S0, ctx.q)
            if key in keys:
                continue
            if any(np.linalg.norm(u - U[j]) < 1e-6 * max(1.0, np.linalg.norm(u))
                   for j in first):
                continue
            keys.add(key)
            first.append(i)
        if not first:
            continue

        U, V = U[first], V[first]
        if m:
            s = np.linalg.svd(_reduced_jacobian(psi, ctx, U, V) - SU,
                              compute_uv=False)
        else:
            s = np.ones((len(first), 1))
        orbits = (xi(U, ctx) + V).reshape(-1, ctx.q, ctx.n)
        x = orbits[:, 0]
        for _ in range(ctx.q):
            x = psi.evaluate(x)
        res_full = np.max(np.abs(x - orbits[:, 0]), axis=1)
        for j, i in enumerate(first):
            smin, smax = float(s[j, -1]), float(s[j, 0])
            found.append(PeriodicPoint(
                u=U[j], lam=lam, coords=C[i], xstar=orbits[j, 0], orbit=orbits[j],
                residual_reduced=float(np.max(np.abs(R[i]), initial=0.0)),
                residual_full=float(res_full[j]),
                isolated=smin > ISOLATION_TOL * max(1.0, smax),
                jacobian_smin=smin))
    return found


def ghat_vstar_identity_check(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """Residual of the lifted equivariance identity of v*

    g_hat v*(u) = sigma^e v*(g psi_r^e(u)) with e = (1 - chi(g)) / 2

    for each group element g, the largest over u or the rows of u; one v*
    solve at the rows and one over all their g-images.
    """
    psi = family.at(lam)
    U = np.asarray(u, dtype=float).reshape(-1, ctx.n)
    return _ghat_defects(psi, ctx, U, *_vstar(psi, ctx, U, ctx.radius))


def _ghat_defects(psi: TruncatedMap, ctx: LiftContext, U, V, PR) -> np.ndarray:
    """ghat_vstar_identity_check's defects at the rows of U, given their
    V = v*(U) and PR = psi_r(U); one v* solve over all their g-images."""
    chis = [int(round(c)) for c in ctx.gd.char]
    images = [(U if chi == 1 else PR) @ g.T
              for g, chi in zip(ctx.gd.elements, chis)]
    rhs, _ = _vstar(psi, ctx, np.concatenate(images), ctx.radius)
    defects = np.zeros(ctx.gd.order)
    for gi, (G, chi, R) in enumerate(zip(ctx.g_hat, chis,
                                         np.split(rhs, ctx.gd.order))):
        if chi != 1:
            R = R @ ctx.sigma.T
        defects[gi] = np.max(np.abs(V @ G.T - R))
    return defects


def nf_reduction_consistency(result, ctx: LiftContext, k: int, family,
                             scales=None) -> dict:
    """Check that the reduced map of `family`, whose normal form is
    `result`, agrees with the normal form itself on U to order k (log-log
    slope >= k+1-0.2), and that D psi_r(0) carries the near-unit-circle
    eigenvalues of the linear part.  Each lambda takes one v* solve over
    all scales and directions.
    """
    if scales is None:
        scales = np.geomspace(1e-4, 1e-2, 9)
    scales = np.asarray(scales, dtype=float)
    rng = np.random.default_rng(CONSISTENCY_SEED)
    Ub = ctx.U_basis
    m = Ub.shape[1]
    base = ctx.S0 if result.mode == "nilpotent" else ctx.A0

    dirs = []
    for _ in range(CONSISTENCY_DIRECTIONS):
        c = rng.standard_normal(m)
        c /= np.linalg.norm(c)
        dirs.append(Ub @ c)
    # row (i, j) of U is scales[i] * dirs[j], all inside one trust radius
    U = (scales[:, None, None] * np.array(dirs)).reshape(-1, ctx.n)
    radius = max(ctx.radius, 10 * float(np.max(scales)))

    report = {"scales": scales.tolist(), "slopes": [], "max_diffs": [],
              "eig_mismatch": [], "passed": True}
    min_slope = k + 1 - 0.2
    for idx, lam in enumerate(result.lambdas):
        nf_map = exp_vf(result.exponents[idx], k).linear_left(base)
        psi = family.at(lam)
        _, PR = _vstar(psi, ctx, U, radius)
        diffs = np.abs(PR - nf_map.evaluate(U)).reshape(len(scales), -1).max(axis=1)
        report["max_diffs"].append(diffs.tolist())

        mask = diffs > SLOPE_NOISE_FLOOR
        if np.count_nonzero(mask) < 3:
            report["slopes"].append(None)
        else:
            slope = float(np.polyfit(np.log(scales[mask]), np.log(diffs[mask]), 1)[0])
            report["slopes"].append(slope)
            if slope < min_slope:
                raise SlopeTestFailed(
                    f"reduced map deviates from the normal form with slope "
                    f"{slope:.3f} < {min_slope:.3f} at sample {idx}")

        # psi fixes the origin, so v*(0) = 0
        Jr = _reduced_jacobian(psi, ctx, np.zeros(ctx.n), np.zeros(ctx.q * ctx.n))
        eig_r = np.sort_complex(np.linalg.eigvals(Jr))
        eig_a = np.linalg.eigvals(psi.linear())
        near_unit = eig_a[np.abs(eig_a ** ctx.q - 1.0) <= 0.2]
        if near_unit.size == eig_r.size:
            mism = 0.0
            pool = list(np.sort_complex(near_unit))
            for ev in eig_r:
                j = int(np.argmin([abs(ev - p) for p in pool]))
                mism = max(mism, abs(ev - pool.pop(j)))
            report["eig_mismatch"].append(float(mism))
        else:
            report["eig_mismatch"].append(float("inf"))
    return report
