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
    S0_hat: np.ndarray
    A0_hat: np.ndarray
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
        for gj in range(gd.order):
            gk = gd.mult_table[gi, gj]
            _check("hat is a representation", float(np.max(np.abs(
                g_hat[gi] @ g_hat[gj] - g_hat[gk]))))

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

    return LiftContext(q=q, n=n, A0=A0, S0=S0, gd=gd, sigma=sigma,
                       S0_hat=S0_hat, A0_hat=A0_hat, g_hat=g_hat,
                       U_basis=U_basis, xi_matrix=xi_matrix,
                       complement_basis=complement_basis, xi_basis=Xi,
                       sigma_complement=sigma @ complement_basis,
                       blend_lu=blend_lu, J0_lu=J0_lu, radius=radius)


def xi(u, ctx: LiftContext) -> np.ndarray:
    """The lift u -> (S0^i u)_i; u must lie in U = ker(S0^q - I)."""
    u = np.asarray(u, dtype=float).reshape(-1)
    w = ctx.xi_matrix @ u
    # the last block is S0^(q-1) u, so S0 times it is S0^q u
    defect = np.linalg.norm(ctx.S0 @ w[-ctx.n:] - u)
    if defect > 1e-9 * max(1.0, float(np.linalg.norm(u))):
        raise NotInU(f"u is not in ker(S0^q - I): defect {defect:.3e}")
    return w


def lifted_apply(psi: TruncatedMap, ctx: LiftContext, w) -> np.ndarray:
    """Blockwise application of psi on Y_q."""
    w = np.asarray(w, dtype=float).reshape(ctx.q, ctx.n)
    return psi.evaluate(w).reshape(-1)


def _vstar_core(psi: TruncatedMap, ctx: LiftContext, u, max_iter: int,
                radius: float):
    """Newton for the complement equation sigma v = Sigma(u, v).

    Returns (v*, psi_r(u)); the second output is the xi-part Psi(u, v*).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    unorm = float(np.linalg.norm(u))
    if unorm > radius:
        raise NoConvergence(
            f"|u| = {unorm:.3e} exceeds the trust radius {radius:.3e}; "
            "pass a larger radius if the neighborhood is known to be valid")
    xi_u = xi(u, ctx)
    m = ctx.dim_u
    Cb = ctx.complement_basis
    nc = Cb.shape[1]

    def split(c):
        v = Cb @ c if nc else np.zeros(ctx.q * ctx.n)
        img = lifted_apply(psi, ctx, xi_u + v)
        coords = lu_solve(ctx.blend_lu, img - ctx.sigma @ v)
        return coords[m:], (coords[:m], v)

    _, _, (a, v) = newton(split, lambda c, r, aux: lu_solve(ctx.J0_lu, r),
                          np.zeros(nc), VSTAR_TOL * max(1.0, unorm), max_iter,
                          f"v* at |u| = {unorm:.3e}")
    return v, ctx.U_basis @ a


def _reduced_jacobian(psi: TruncatedMap, ctx: LiftContext, u, v) -> np.ndarray:
    """D psi_r at u in U coordinates, given v = v*(u), by the implicit
    function theorem.

    With w = xi(u) + v and D = blockdiag(D psi(w_0), ..., D psi(w_{q-1})),
    blend^-1 D xi U_basis = [a_u; F_u] and blend^-1 (D - sigma) Cb =
    [a_v; F_v] split the derivatives of the xi-part a and of the complement
    residual F, so dv*/du = -F_v^-1 F_u and D psi_r = a_u - a_v F_v^-1 F_u.
    """
    w = (xi(u, ctx) + v).reshape(ctx.q, ctx.n)
    Js = psi.jacobian(w)
    m = ctx.dim_u

    def blockwise(B):
        B = B.reshape(ctx.q, ctx.n, -1)
        return (Js @ B).reshape(ctx.q * ctx.n, -1)

    rhs = np.hstack([blockwise(ctx.xi_basis),
                     blockwise(ctx.complement_basis) - ctx.sigma_complement])
    coords = lu_solve(ctx.blend_lu, rhs)
    a_u, F_u = coords[:m, :m], coords[m:, :m]
    a_v, F_v = coords[:m, m:], coords[m:, m:]
    try:
        return a_u - a_v @ np.linalg.solve(F_v, F_u)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular complement Jacobian: {exc}") from exc


def solve_vstar(family, ctx: LiftContext, u, lam,
                max_iter: int = VSTAR_MAX_ITER,
                radius: float | None = None) -> np.ndarray:
    """The complement solution v*(u, lambda) in Im(S0_hat - sigma)."""
    psi = family.at(lam)
    v, _ = _vstar_core(psi, ctx, u, max_iter,
                       ctx.radius if radius is None else radius)
    return v


def reduced_map(family, ctx: LiftContext, u, lam,
                radius: float | None = None) -> np.ndarray:
    """The reduced map psi_r(u) = Psi(u, v*(u, lambda)), a vector in U."""
    psi = family.at(lam)
    _, pr = _vstar_core(psi, ctx, u, VSTAR_MAX_ITER,
                        ctx.radius if radius is None else radius)
    return pr


def xstar(family, ctx: LiftContext, u, lam) -> np.ndarray:
    """The full-space point carried by u: block 0 of xi(u) + v*(u, lambda)."""
    u = np.asarray(u, dtype=float).reshape(-1)
    v = solve_vstar(family, ctx, u, lam)
    return u + v[:ctx.n]


def reduced_inverse(family, ctx: LiftContext, u, lam,
                    max_iter: int = 40) -> np.ndarray:
    """Solve psi_r(w) = u for w in U by Newton, on the implicit-function
    Jacobian D psi_r at the v* that each residual's solve returns."""
    u = np.asarray(u, dtype=float).reshape(-1)
    psi = family.at(lam)
    Ub = ctx.U_basis
    AU = Ub.T @ ctx.A0 @ Ub
    c0 = np.linalg.solve(AU, Ub.T @ u)

    def res(cv):
        v, pr = _vstar_core(psi, ctx, Ub @ cv, VSTAR_MAX_ITER, ctx.radius)
        return Ub.T @ pr - Ub.T @ u, v

    def step(cv, r, v):
        try:
            return np.linalg.solve(_reduced_jacobian(psi, ctx, Ub @ cv, v), r)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular reduced Jacobian: {exc}") from exc

    try:
        c, _, _ = newton(res, step, c0,
                         INVERSE_TOL * max(1.0, float(np.linalg.norm(u))), max_iter,
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


def find_periodic(family, ctx: LiftContext, lam_grid, search_box,
                  seeds_per_axis: int = 5):
    """Grid-seeded Newton on the determining equation psi_r(u) = S0 u.

    search_box is a finite, non-negative half-width (scalar or
    per-U-coordinate array; ValueError otherwise); orbits
    are deduplicated under u -> S0 u and flagged non-isolated when the
    determining Jacobian is rank deficient.
    """
    Ub = ctx.U_basis
    m = Ub.shape[1]
    box = np.asarray(search_box, dtype=float)
    if not np.all(np.isfinite(box) & (box >= 0)):
        raise ValueError(f"search_box must be finite and >= 0, got {search_box!r}")
    box = np.broadcast_to(box.reshape(-1) if box.ndim else np.full(m, float(box)),
                          (m,)).copy()
    radius = max(ctx.radius, 2.0 * float(np.max(box, initial=0.0)))
    SU = Ub.T @ ctx.S0 @ Ub

    found = []
    for lam in lam_grid:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        psi = family.at(lam)

        def det_eq(c):
            v, pr = _vstar_core(psi, ctx, Ub @ c, VSTAR_MAX_ITER, radius)
            return Ub.T @ pr - SU @ c, v

        def det_jacobian(c, v):
            return _reduced_jacobian(psi, ctx, Ub @ c, v) - SU

        def det_step(c, r, v):
            return np.linalg.lstsq(det_jacobian(c, v), r, rcond=None)[0]

        axes = [np.linspace(-b, b, seeds_per_axis) for b in box]
        seeds = (np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
                 if m else np.zeros((1, 0)))
        keys = set()
        accepted = []
        for seed in seeds:
            try:
                c, r, v = newton(det_eq, det_step, seed, PERIODIC_TOL,
                                 PERIODIC_MAX_ITER, "periodic seed")
            except NoConvergence:
                continue
            if np.any(np.abs(c) > 1.5 * box + 1e-12):
                continue

            u = Ub @ c
            key = _canonical_key(u, ctx.S0, ctx.q)
            if key in keys:
                continue
            if any(np.linalg.norm(u - p.u) < 1e-6 * max(1.0, np.linalg.norm(u))
                   for p in accepted):
                continue
            keys.add(key)

            s = (np.linalg.svd(det_jacobian(c, v), compute_uv=False) if m
                 else np.array([1.0]))
            smin = float(s[-1]) if s.size else 1.0
            isolated = smin > ISOLATION_TOL * max(1.0, float(s[0]) if s.size else 1.0)

            orbit = (xi(u, ctx) + v).reshape(ctx.q, ctx.n)
            x0 = orbit[0]
            x = x0.copy()
            for _ in range(ctx.q):
                x = psi.evaluate(x)
            res_full = float(np.max(np.abs(x - x0)))
            accepted.append(PeriodicPoint(
                u=u, lam=lam, coords=c, xstar=x0, orbit=orbit,
                residual_reduced=float(np.max(np.abs(r), initial=0.0)),
                residual_full=res_full, isolated=isolated,
                jacobian_smin=smin))
        accepted.sort(key=lambda p: tuple(np.round(p.coords, 9)))
        found.extend(accepted)
    return found


def ghat_vstar_identity_check(family, ctx: LiftContext, u, lam,
                              g_index: int) -> float:
    """Residual of the lifted equivariance identity of v*:

    g_hat v*(u) = sigma^e v*(g psi_r^e(u)) with e = (1 - chi(g)) / 2.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    psi = family.at(lam)
    v, pr = _vstar_core(psi, ctx, u, VSTAR_MAX_ITER, ctx.radius)
    g = ctx.gd.elements[g_index]
    chi = int(round(ctx.gd.char[g_index]))
    lhs = ctx.g_hat[g_index] @ v
    rhs, _ = _vstar_core(psi, ctx, g @ (u if chi == 1 else pr), VSTAR_MAX_ITER,
                         ctx.radius)
    if chi != 1:
        rhs = ctx.sigma @ rhs
    return float(np.max(np.abs(lhs - rhs)))


def nf_reduction_consistency(result, ctx: LiftContext, k: int, family=None,
                             scales=None) -> dict:
    """Check that the reduced map of a normal-formed family agrees with the
    normal form itself on U to order k (log-log slope >= k+1-0.2), and that
    D psi_r(0) carries the near-unit-circle eigenvalues of the linear part.
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

    report = {"scales": scales.tolist(), "slopes": [], "max_diffs": [],
              "eig_mismatch": [], "passed": True}
    min_slope = k + 1 - 0.2
    for idx, lam in enumerate(result.lambdas):
        nf_map = exp_vf(result.exponents[idx], k).linear_left(base)
        psi = family.at(lam) if family is not None else nf_map

        diffs = np.zeros(len(scales))
        for si, s in enumerate(scales):
            worst = 0.0
            for d in dirs:
                u = s * d
                _, pr = _vstar_core(psi, ctx, u, VSTAR_MAX_ITER,
                                    max(ctx.radius, 10 * s))
                worst = max(worst, float(np.max(np.abs(pr - nf_map.evaluate(u)))))
            diffs[si] = worst
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
