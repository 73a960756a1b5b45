"""Acceptance gate: one test per advertised guarantee.

Each test asserts its tolerances exactly as stated and, on success,
prints a single summary line through capsys.disabled() so a plain
pytest run doubles as the acceptance report.  A failing criterion
shows up as the corresponding FAILED test.
"""
import time

import numpy as np

from eqnf import corpus
from eqnf.groups import invariant_inner_product, project_map
from eqnf.linalg import jordan_chevalley, su_decomposition
from eqnf.normalform import nilpotent_nf, semisimple_nf
from eqnf.polymap import (TruncatedMap, adk_field, ck_operator, compose,
                          conjugate_linear, exp_vf)
from eqnf.reduction import (bifurcation_fn, build_lift, find_periodic,
                            ghat_vstar_identity_check, nf_reduction_consistency,
                            reduced_map, solve_vstar)
from oracles import ad_conjugate, ch_compose


def _report(capsys, num, text):
    with capsys.disabled():
        print(f"criterion {num}: PASS - {text}")


def test_criterion_1_shear_linear_decomposition(capsys):
    t0 = time.perf_counter()
    A0 = np.array([[3.0, -2.0], [2.0, -1.0]])
    jc = jordan_chevalley(A0)
    su = su_decomposition(A0)
    elapsed = time.perf_counter() - t0
    N_ref = np.array([[2.0, -2.0], [2.0, -2.0]])
    worst = max(np.max(np.abs(jc.S - np.eye(2))),
                np.max(np.abs(jc.N - N_ref)),
                np.max(np.abs(su.S - np.eye(2))),
                # N_ref squares to zero, so log(I + N_ref) = N_ref
                np.max(np.abs(su.nil_log - N_ref)))
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(capsys, 1,
            f"S0 = I, N0 = [[2,-2],[2,-2]] to {worst:.1e} in {elapsed:.3f} s")


def test_criterion_2_shear_normal_form_k2(capsys):
    t0 = time.perf_counter()
    fam = corpus.binomial_shear_family(2)
    psi0 = fam.at([0.0])
    A0 = psi0.linear()
    gd = corpus.binomial_shear_group()
    ip = invariant_inner_product(np.eye(2), gd)
    res = nilpotent_nf(fam, A0, gd, ip, 2, lambdas=[[0.0]])

    B2 = res.admissible[2]
    assert B2.shape == (6, 1)
    # the one admissible direction is (d (x+y)^2, -d (x+y)^2)
    ref = np.array([1.0, 2.0, 1.0, -1.0, -2.0, -1.0])
    corr = abs(B2[:, 0] @ ref) / (np.linalg.norm(B2[:, 0]) * np.linalg.norm(ref))
    assert corr > 1.0 - 1e-12
    d_coeff = float(B2[:, 0] @ res.exponents[0].layer(2).reshape(-1))
    assert abs(d_coeff) <= 1e-9

    # transform coefficients obey b = -2c and a = -1/2 + c
    a, b, c = res.transforms[0].layer(2)[0]
    assert abs(b + 2.0 * c) <= 1e-9
    assert abs(a + 0.5 - c) <= 1e-9

    # the c = 0 member of the transform family kills the quadratic part
    A0map = TruncatedMap.from_linear(A0, 2)
    T0 = TruncatedMap.identity(2, 2).with_layer(
        2, np.array([[-0.5, 0.0, 0.0], [0.0, 0.0, -0.5]]))
    resid_c0 = (ad_conjugate(T0, psi0) - A0map).max_abs()
    assert resid_c0 <= 1e-9
    resid_rec = (ad_conjugate(res.transforms[0], psi0) - A0map).max_abs()
    assert resid_rec <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(capsys, 2,
            f"admissible dim 1, |d| <= 1e-9, c = 0 conjugation residual "
            f"{resid_c0:.1e} in {elapsed:.2f} s")


def test_criterion_3_projection_suite(capsys):
    rng = np.random.default_rng(3)
    worst_idem = worst_cross = 0.0
    for _ in range(100):
        gd1, gd2 = corpus.random_group_with_characters(rng)
        n = gd1.elements[0].shape[0]
        assert gd1.order <= 8 and n <= 5
        # the projection of x -> A x, an order-1 map
        A = TruncatedMap.from_linear(rng.standard_normal((n, n)), 1)
        P1 = project_map(A, gd1)
        worst_idem = max(worst_idem, (project_map(P1, gd1) - P1).max_abs())
        worst_cross = max(worst_cross, project_map(P1, gd2).max_abs())
    assert worst_idem <= 1e-12
    assert worst_cross <= 1e-12
    _report(capsys, 3,
            f"100 groups: idempotency {worst_idem:.1e}, "
            f"cross-character product {worst_cross:.1e}")


def test_criterion_4_inner_product_suite(capsys):
    rng = np.random.default_rng(4)
    worst = np.zeros(3)
    for _ in range(50):
        S0, gd = corpus.random_semisimple_instance(rng)
        ip = invariant_inner_product(S0, gd)
        St = ip.adjoint(S0)
        Sti = np.linalg.inv(St)
        eye = np.eye(S0.shape[0])
        worst[0] = max(worst[0], np.max(np.abs(S0 @ St - St @ S0)))
        for i, g in enumerate(gd.elements):
            worst[1] = max(worst[1], np.max(np.abs(ip.adjoint(g) @ g - eye)))
            tgt = St if gd.char[i] > 0 else Sti
            worst[2] = max(worst[2], np.max(np.abs(g @ St - tgt @ g)))
    assert np.max(worst) <= 1e-10
    _report(capsys, 4,
            f"50 instances: normality {worst[0]:.1e}, isometry {worst[1]:.1e}, "
            f"twisted adjoint {worst[2]:.1e}")


def test_criterion_5_combined_exponent_suite(capsys):
    rng = np.random.default_rng(5)
    worst_ch = worst_c0 = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 5))
        X = TruncatedMap.zero(n, k)
        for d in range(1, k + 1):
            X = X.with_layer(d, 0.35 * rng.standard_normal(X.layer(d).shape))
        Yk = 0.35 * rng.standard_normal(X.layer(k).shape)
        Ymap = TruncatedMap.zero(n, k).with_layer(k, Yk)
        for side, order in (("right", (X, Ymap)), ("left", (Ymap, X))):
            Z = ch_compose(X, Yk, k, side=side)
            rhs = compose(exp_vf(order[0]), exp_vf(order[1]))
            worst_ch = max(worst_ch, (exp_vf(Z) - rhs).max_abs())
        C0 = ck_operator(np.zeros((n, n)), k)
        worst_c0 = max(worst_c0, np.max(np.abs(C0 - np.eye(C0.shape[0]))))
    assert worst_ch <= 1e-9
    assert worst_c0 <= 1e-14
    _report(capsys, 5,
            f"50 instances, both variants: flow agreement {worst_ch:.1e}, "
            f"C_k(0) - I = {worst_c0:.1e}")


def test_criterion_6_reduction_equivariance_suite(capsys):
    t0 = time.perf_counter()
    pool = [corpus.instance_swap2(), corpus.instance_rot_reflect(2),
            corpus.instance_sign_z2(3), corpus.instance_block_swap(3),
            corpus.instance_nilpotent_kron(4)]
    rng = np.random.default_rng(6)
    worst = {}
    for trial in range(20):
        inst = pool[trial % len(pool)]
        assert inst.A0.shape[0] <= 4 and inst.q <= 4 and inst.gd.order <= 4
        fam = corpus.equivariant_family(inst, 3, rng)
        ctx = build_lift(inst.A0, inst.S0, inst.gd, inst.q)
        lam = [float(rng.uniform(-0.05, 0.05))]

        def reduced(u, lam):
            return reduced_map(fam, ctx, u, lam)

        S0 = ctx.S0
        for _ in range(2):
            coeff = rng.standard_normal(ctx.dim_u)
            u = ctx.U_basis @ (1e-3 * coeff / np.linalg.norm(coeff))
            Bu = bifurcation_fn(fam, ctx, u, lam)
            d = {
                "psi_r S0": np.max(np.abs(reduced(S0 @ u, lam)
                                          - S0 @ reduced(u, lam))),
                "B S0": np.max(np.abs(bifurcation_fn(fam, ctx, S0 @ u, lam)
                                      - S0 @ Bu)),
                "vstar shift": np.max(np.abs(solve_vstar(fam, ctx, S0 @ u, lam)
                                             - ctx.sigma @ solve_vstar(fam, ctx, u, lam))),
                "ghat vstar": np.max(ghat_vstar_identity_check(fam, ctx, u, lam)),
            }
            for gi, g in enumerate(inst.gd.elements):
                chi = inst.gd.char[gi]
                ginv = np.linalg.inv(g)
                if chi > 0:
                    val = np.max(np.abs(g @ reduced(ginv @ u, lam)
                                        - reduced(u, lam)))
                else:
                    # g psi_r g^-1 = psi_r^-1 checked forward-only
                    val = np.max(np.abs(reduced(g @ reduced(ginv @ u, lam), lam)
                                        - u))
                d["psi_r g"] = max(d.get("psi_r g", 0.0), val)
                d["B g"] = max(d.get("B g", 0.0), np.max(np.abs(
                    bifurcation_fn(fam, ctx, g @ u, lam) - chi * (g @ Bu))))
            for key, val in d.items():
                worst[key] = max(worst.get(key, 0.0), val)
    elapsed = time.perf_counter() - t0
    assert len(worst) == 6
    assert max(worst.values()) <= 1e-8
    assert elapsed < 60.0
    _report(capsys, 6,
            f"20 families, six identities, worst {max(worst.values()):.1e} "
            f"in {elapsed:.1f} s")


def test_criterion_7_normal_form_reduction_slopes(capsys):
    cases = ((2, corpus.instance_nilpotent_kron(4)),
             (2, corpus.instance_rot_reflect(4)),
             (3, corpus.instance_swap2()),
             (3, corpus.instance_rot_reflect(3)))
    summary = []
    for k, inst in cases:
        rng = np.random.default_rng(70 + k)
        fam, _ = corpus.nf_form_family(inst, k, rng, tail_amp=4.0)
        runner = nilpotent_nf if np.max(np.abs(inst.N0)) > 0 else semisimple_nf
        res = runner(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[[0.0]])
        ctx = build_lift(inst.A0, inst.S0, inst.gd, inst.q)
        rep = nf_reduction_consistency(res, ctx, k, family=fam,
                                       scales=np.logspace(-4.0, -2.0, 7))
        slopes = [s for s in rep["slopes"] if s is not None]
        assert rep["passed"]
        assert slopes, "deviation never rose above the noise floor"
        assert min(slopes) >= k + 0.8
        summary.append(f"k={k}: {min(slopes):.2f}")
    _report(capsys, 7, "slopes " + ", ".join(summary) + " (all >= k + 0.8)")


def test_criterion_8_planted_periodic_branches(capsys):
    planted = [corpus.planted_q4(), corpus.planted_q4(1.3, 0.7),
               corpus.planted_q4(0.8, 0.45),
               corpus.planted_q2(), corpus.planted_q2(1.2, 0.5),
               corpus.planted_q2(0.9, 0.35),
               corpus.planted_q1(), corpus.planted_q1(0.4),
               corpus.planted_q1(0.25)]
    lam_for = {4: -0.03, 2: -0.03, 1: 0.02}
    worst = 0.0
    for p in planted:
        lam = [lam_for[p.q]]
        ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)
        pts = find_periodic(p.family, ctx, [lam], 0.3)
        assert len(pts) > 1
        rows = np.vstack([pt.orbit for pt in pts])
        for pt in pts:
            # every determining-equation solution must be a zero of B
            worst = max(worst, np.max(np.abs(
                bifurcation_fn(p.family, ctx, pt.u, pt.lam))))
            worst = max(worst, pt.residual_full)
        for pred in p.predict_points(lam[0]):
            worst = max(worst, min(np.max(np.abs(rows - pred), axis=1)))
    assert worst <= 1e-8

    # builtin q = 1 family: the fixed line y = x is flagged as non-isolated
    fam = corpus.binomial_shear_family(3)
    gd = corpus.binomial_shear_group()
    A0 = fam.at([0.0]).linear()
    ctx = build_lift(A0, np.eye(2), gd, 1)
    pts = find_periodic(fam, ctx, [[0.0]], 0.06)
    assert len(pts) >= 3
    assert all(not pt.isolated for pt in pts)
    assert all(abs(pt.u[0] - pt.u[1]) <= 1e-8 for pt in pts)
    _report(capsys, 8,
            f"10 families: worst branch residual {worst:.1e}; "
            f"fixed line reported non-isolated")


def test_criterion_9_exponent_constraint_suite(capsys):
    rng = np.random.default_rng(9)
    worst = np.zeros(5)
    for trial in range(10):
        if trial % 2 == 0:
            inst, k = corpus.instance_swap2(), 3
        else:
            inst, k = corpus.instance_nilpotent_kron(4), 2
        fam = corpus.equivariant_family(inst, k, rng)
        res = nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, k,
                           lambdas=[[0.0], [0.1]])
        for i, lam in enumerate(res.lambdas):
            W = res.exponents[i]
            X = W.with_layer(1, W.linear() - inst.N0)
            if max(abs(v) for v in lam) == 0.0:
                # X(0) = 0 by construction; DX(0) = 0 at the origin parameter
                worst[0] = max(worst[0], np.max(np.abs(X.linear())))
            worst[1] = max(worst[1], (conjugate_linear(inst.S0, X) - X).max_abs())
            for d in range(1, k + 1):
                worst[2] = max(worst[2], np.max(np.abs(
                    adk_field(inst.N0.T, d) @ X.layer(d).reshape(-1)), initial=0.0))
            for gi, g in enumerate(inst.gd.elements):
                worst[3] = max(worst[3], (conjugate_linear(g, W)
                                          - inst.gd.char[gi] * W).max_abs())
            Phi = res.transforms[i]
            for g in inst.gd.elements:
                worst[4] = max(worst[4], (conjugate_linear(g, Phi) - Phi).max_abs())
    assert np.max(worst[:4]) <= 1e-9
    assert worst[4] <= 1e-9
    _report(capsys, 9,
            "10 families: exponent identities <= 1e-9, "
            "transform equivariance <= 1e-9")
