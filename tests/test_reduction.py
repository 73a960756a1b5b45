"""q-fold lifts, the reduced map, and the determining equation."""
import dataclasses
import re

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from eqnf import reduction
from eqnf.corpus import (binomial_shear_family, binomial_shear_group,
                         binomial_shear_matrix, equivariant_family,
                         instance_block_swap, instance_rot_reflect,
                         instance_sign_z2, instance_swap2, nf_form_family,
                         planted_q1, planted_q2, planted_q4, rotation)
from eqnf.errors import (InvariantViolation, InverseNewtonFailed, NoConvergence,
                         NonFinite, NotInU, SlopeTestFailed)
from eqnf.groups import GroupData
from eqnf.normalform import nilpotent_nf, semisimple_nf
from eqnf.polymap import MapFamily, TruncatedMap
from eqnf.reduction import (_reduced_jacobian, bifurcation_fn, build_lift,
                            find_periodic, ghat_vstar_identity_check,
                            lifted_apply, nf_reduction_consistency,
                            reduced_inverse, reduced_map, solve_vstar, xi,
                            xstar)
from oracles import fd_jacobian


def test_build_lift_shapes_and_identities():
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q)
    assert ctx.dim_u == 2  # S0^4 = I on the whole plane
    assert ctx.sigma.shape == (8, 8)
    assert ctx.complement_basis.shape == (8, 6)
    u = np.array([0.3, -0.1])
    w = xi(u, ctx)
    assert w.shape == (8,)
    assert np.max(np.abs(ctx.sigma @ w - xi(p.inst.S0 @ u, ctx))) < 1e-12
    for gi, g in enumerate(p.inst.gd.elements):
        assert np.max(np.abs(ctx.g_hat[gi] @ w - xi(g @ u, ctx))) < 1e-12


def test_build_lift_rejects_inconsistent_skeleton():
    gd = GroupData.from_generators([np.diag([1.0, -1.0])], [-1.0])
    with pytest.raises(InvariantViolation):
        build_lift(np.diag([2.0, 3.0]), np.eye(2), gd, 1)


def test_build_lift_checks_the_representation_on_the_cayley_table():
    # a Cayley table entry that names the wrong product: g_0 g_s = g_0 is
    # false for every generator g_s != e
    p = planted_q4()
    gd = p.inst.gd
    cayley = gd.cayley.copy()
    cayley[0, 0] = 0
    bad = dataclasses.replace(gd, cayley=cayley)
    with pytest.raises(InvariantViolation, match="hat is a representation"):
        build_lift(p.inst.A0, p.inst.S0, bad, p.q)


def test_xi_rejects_vectors_outside_u():
    p = planted_q1()
    q1 = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, 1)
    # U = ker(S0^3 - I) is the plane of the 2 pi/3 rotation, not all of R^4
    S0 = scipy.linalg.block_diag(rotation(2 * np.pi / 3), rotation(2.0))
    gd = GroupData.from_generators([np.diag([1.0, -1.0, 1.0, -1.0])], [-1.0])
    q3 = build_lift(S0, S0, gd, 3)
    for ctx, dim_u, inside, outside in (
            (q1, 1, [0.4, 0.0], [0.0, 0.4]),
            (q3, 2, [0.4, -0.1, 0.0, 0.0], [0.4, -0.1, 0.0, 0.4])):
        assert ctx.dim_u == dim_u
        xi(np.array(inside), ctx)
        with pytest.raises(NotInU):
            xi(np.array(outside), ctx)


def test_vstar_solves_complement_equation():
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.3)
    lam = [-0.03]
    u = np.array([0.08, 0.02])
    v = solve_vstar(p.family, ctx, u, lam)
    pr = reduced_map(p.family, ctx, u, lam)
    # Psi(xi(u) + v*) = xi(psi_r(u)) + sigma v*, the defining decomposition
    img = lifted_apply(p.family.at(lam), ctx, xi(u, ctx) + v)
    assert np.max(np.abs(img - xi(pr, ctx) - ctx.sigma @ v)) < 1e-11
    # v* lies in the complement, not in xi(U)
    Cb = ctx.complement_basis
    assert np.max(np.abs(Cb @ (Cb.T @ v) - v)) < 1e-11
    x = xstar(p.family, ctx, u, lam)
    assert np.max(np.abs(x - (u + v[:2]))) < 1e-14


def test_vstar_vanishes_for_normalized_families():
    rng = np.random.default_rng(51)
    inst = instance_rot_reflect(3)
    fam, _ = nf_form_family(inst, 2, rng, with_tail=False)
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 3)
    lam = [0.2]
    u = np.array([0.03, -0.02])
    assert np.max(np.abs(solve_vstar(fam, ctx, u, lam))) < 1e-11
    # with v* = 0 the reduced map is the restriction of the map to U
    pr = reduced_map(fam, ctx, u, lam)
    assert np.max(np.abs(pr - fam.at(lam)(u))) < 1e-11


def test_find_periodic_planted_q4():
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)
    lam = [-0.03]
    pts = find_periodic(p.family, ctx, [lam], 0.3)
    # two branch classes, one representative each after orbit dedup, plus 0
    assert len(pts) == 3
    pred = p.predict_points(lam)
    assert pred.shape == (8, 2)
    nontrivial = [pt for pt in pts if np.linalg.norm(pt.u) > 1e-6]
    assert len(nontrivial) == 2
    for pt in nontrivial:
        assert min(np.linalg.norm(pred - pt.xstar, axis=1)) < 1e-8
        assert pt.residual_full < 1e-8
        assert pt.isolated
        # consecutive orbit rows step under the map
        psi = p.family.at(lam)
        for i in range(p.q):
            nxt = pt.orbit[(i + 1) % p.q]
            assert np.max(np.abs(psi(pt.orbit[i]) - nxt)) < 1e-9


@pytest.mark.parametrize("box", [-0.05, float("inf"), float("nan"), [0.1, -0.1]])
def test_find_periodic_rejects_bad_search_box(box):
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)
    with pytest.raises(ValueError, match="search_box"):
        find_periodic(p.family, ctx, [[-0.03]], box)


@pytest.mark.parametrize("seeds", [0, -1, 2.5, 3.0, True, "3"])
def test_find_periodic_rejects_bad_seeds_per_axis(seeds):
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)
    with pytest.raises(ValueError, match="seeds_per_axis"):
        find_periodic(p.family, ctx, [[-0.03]], 0.3, seeds_per_axis=seeds)


def test_find_periodic_planted_q2_orbit_dedup():
    p = planted_q2()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.8)
    lam = [-0.03]
    pts = find_periodic(p.family, ctx, [lam], 0.35)
    # orbits have size two, so eight predicted points give four reps plus 0
    assert len(pts) == 5
    pred = p.predict_points(lam)
    for pt in pts:
        if np.linalg.norm(pt.u) > 1e-6:
            assert min(np.linalg.norm(pred - pt.xstar, axis=1)) < 1e-8


def test_find_periodic_planted_q1_slaved_coordinate():
    p = planted_q1()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, 1, radius=0.8)
    lam = [0.02]
    pts = find_periodic(p.family, ctx, [lam], 0.3)
    assert len(pts) == 3
    pred = p.predict_points(lam)
    for pt in pts:
        if np.linalg.norm(pt.u) > 1e-6:
            # xstar carries the slaved y = 2 gamma x^2 through v*
            assert min(np.linalg.norm(pred - pt.xstar, axis=1)) < 1e-8
            assert abs(pt.xstar[1]) > 1e-3


def test_find_periodic_shear_line_not_isolated():
    ctx = build_lift(binomial_shear_matrix(), np.eye(2),
                     binomial_shear_group(), 1, radius=0.5)
    pts = find_periodic(binomial_shear_family(3), ctx, [[0.0]], 0.06)
    assert len(pts) >= 3
    for pt in pts:
        assert not pt.isolated  # fixed points fill the line y = x
        assert abs(pt.u[0] - pt.u[1]) < 1e-8


_DETERMINING_CASES = ([f"block-swap rng {r}" for r in range(6)]
                      + ["planted q4", "planted q2", "planted q1", "shear line"])


def _determining_case(name):
    """(family, ctx, lam, box) of block-swap(3) at q = 3 for rngs 0-5, of
    the planted q4/q2/q1 branches and of the shear line, as searched above."""
    if name.startswith("block-swap"):
        inst = instance_block_swap(3)
        rng = np.random.default_rng(int(name.split()[-1]))
        return (equivariant_family(inst, 3, rng),
                build_lift(inst.A0, inst.S0, inst.gd, 3), [0.01], 0.02)
    if name == "shear line":
        return (binomial_shear_family(3),
                build_lift(binomial_shear_matrix(), np.eye(2), binomial_shear_group(),
                           1, radius=0.5), [0.0], 0.06)
    p, lam, radius, box = {"planted q4": (planted_q4(), [-0.03], 0.6, 0.3),
                           "planted q2": (planted_q2(), [-0.03], 0.8, 0.35),
                           "planted q1": (planted_q1(), [0.02], 0.8, 0.3)}[name]
    return (p.family, build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=radius),
            lam, box)


def _determining_jacobians(family, ctx, lam, c):
    """The implicit-function-theorem determining Jacobian at U coordinates c,
    and the central-difference one of the determining equation itself."""
    Ub = ctx.U_basis
    SU = Ub.T @ ctx.S0 @ Ub

    def det_eq(cc):
        return Ub.T @ reduced_map(family, ctx, Ub @ cc, lam) - SU @ cc

    v = solve_vstar(family, ctx, Ub @ c, lam)
    return (_reduced_jacobian(family.at(lam), ctx, Ub @ c, v) - SU,
            fd_jacobian(det_eq, c))


@pytest.mark.parametrize("name", _DETERMINING_CASES)
def test_reduced_jacobian_matches_fd(name):
    family, ctx, lam, box = _determining_case(name)
    rng = np.random.default_rng(55)
    for _ in range(3):
        c = rng.uniform(-box, box, ctx.dim_u)
        J, J_fd = _determining_jacobians(family, ctx, lam, c)
        assert np.max(np.abs(J - J_fd)) <= 1e-5 * np.max(np.abs(J_fd))


def test_reduced_jacobian_singular_on_shear_line():
    ctx = build_lift(binomial_shear_matrix(), np.eye(2),
                     binomial_shear_group(), 1, radius=0.5)
    family = binomial_shear_family(3)
    pts = find_periodic(family, ctx, [[0.0]], 0.06)
    assert len(pts) >= 3
    for pt in pts:
        J, _ = _determining_jacobians(family, ctx, [0.0], pt.coords)
        s = np.linalg.svd(J, compute_uv=False)
        assert s[-1] <= 1e-10 * s[0]
        assert pt.jacobian_smin == s[-1]


def test_find_periodic_vstar_solves_block_swap(monkeypatch):
    # with central differences this search took 5,695 v* solves; the
    # implicit-function-theorem Jacobian must cut that at least five-fold.
    # Each call solves a batch of u (one row each), so the rows count the
    # solves, and the batching must cut the calls ten-fold again
    inst = instance_block_swap(3)
    family = equivariant_family(inst, 3, np.random.default_rng(2))
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 3)
    rows = []
    core = reduction._vstar_core

    def counted(psi, ctx, U, *args):
        rows.append(len(U))
        return core(psi, ctx, U, *args)

    monkeypatch.setattr(reduction, "_vstar_core", counted)
    pts = find_periodic(family, ctx, [[0.01]], 0.02, seeds_per_axis=3)
    assert pts
    assert sum(rows) <= 5695 // 5
    assert len(rows) <= 5695 // 50


def _seed_newton_case(name, family_seed, lam):
    """(psi, ctx, box, radius) of a periodic search as find_periodic sets it
    up: the block-swap skeleton with a random family, or a planted family."""
    if name == "block_swap":
        inst = instance_block_swap(3)
        family = equivariant_family(inst, 3, np.random.default_rng(family_seed))
        ctx, box = build_lift(inst.A0, inst.S0, inst.gd, 3), 0.02
    else:
        p = planted_q4() if name == "planted_q4" else planted_q2()
        family, box = p.family, 0.3
        ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)
    return family.at([lam]), ctx, box, max(ctx.radius, 2.0 * box)


def _failure_kind(exc) -> str:
    """The message of a failure without its numbers: a failing trajectory
    amplifies round-off, so two runs fail alike at different points."""
    return re.sub(r"\d[\d.e+-]*", "#", str(exc))


def _assert_rows_match(batch, single, rows):
    """Rows `rows` of the batched Newton `batch` against b = 1 runs `single`
    (one per row): the same kind of failure, or x, r and v* within 1e-12."""
    C, R, V, failed = batch
    for i, (C1, R1, V1, failed1) in zip(rows, single):
        assert (i in failed) == (0 in failed1)
        if i in failed:
            assert _failure_kind(failed[i]) == _failure_kind(failed1[0])
        else:
            for a, a1 in ((C, C1), (R, R1), (V, V1)):
                assert np.max(np.abs(a[i] - a1[0]), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", ["block_swap", "planted_q4", "planted_q2"])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.2, 2.5),
       st.floats(-0.035, 0.01))
def test_property_batched_seed_newton_matches_single_seeds(name, seed, count,
                                                           spread, lam):
    # each seed of one batched Newton ends as a batch of that seed alone
    # does; seeds out to 2.5 box widths also exercise the trust radius and
    # the stalls
    psi, ctx, box, radius = _seed_newton_case(name, seed, lam)
    seeds = np.random.default_rng(seed).uniform(-spread * box, spread * box,
                                                (count, ctx.dim_u))
    batch = reduction._periodic_newton(psi, ctx, seeds, radius)
    single = [reduction._periodic_newton(psi, ctx, s[None], radius) for s in seeds]
    _assert_rows_match(batch, single, range(count))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 4))
def test_property_stacked_lstsq_matches_numpy(seed, m, rank):
    # the determining step's stacked pseudo-inverse against np.linalg.lstsq
    # with rcond=None, on full-rank and rank-deficient stacks
    rng = np.random.default_rng(seed)
    rank = min(rank, m)
    J = rng.standard_normal((5, m, rank)) @ rng.standard_normal((5, rank, m))
    R = rng.standard_normal((5, m))
    x = reduction._lstsq_rows(J, R)
    for Ji, ri, xi_ in zip(J, R, x):
        ref = np.linalg.lstsq(Ji, ri, rcond=None)[0]
        assert np.max(np.abs(xi_ - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


class _IdentityJacobianBeyond:
    """psi, with D psi replaced by the identity wherever x_0 > cut.  On a
    q = 1 lift sigma = I, so F_v = blend^-1 (D - I) Cb vanishes there."""

    def __init__(self, psi, cut):
        self.psi, self.cut = psi, cut

    def evaluate(self, x):
        return self.psi.evaluate(x)

    def jacobian(self, x):
        J = self.psi.jacobian(x)
        J[np.asarray(x)[..., 0] > self.cut] = np.eye(self.psi.n)
        return J


@pytest.mark.parametrize("case", ["radius", "stall", "singular F_v"])
def test_failed_seed_leaves_the_other_seeds_unchanged(case):
    if case == "singular F_v":
        p = planted_q1()
        ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, 1, radius=0.6)
        psi = _IdentityJacobianBeyond(p.family.at([0.02]), 0.35)
        good = np.array([[-0.3], [-0.1], [0.05], [0.3]])
        bad, radius, message = np.array([0.4]), 0.6, "singular complement Jacobian"
    else:
        psi, ctx, _, radius = _seed_newton_case("block_swap", 0, 0.01)
        good = np.array([[-0.02, -0.02, -0.02, 0.02], [-0.02, -0.02, 0.02, 0.02],
                         [-0.02, 0.0, 0.0, 0.0], [-0.02, 0.02, -0.02, -0.02]])
        if case == "radius":
            bad, message = np.array([0.2, 0.0, 0.0, 0.0]), "exceeds the trust radius"
        else:
            bad, message = np.array([-1.0, 1.0, 1.0, -1.0]) * 0.04 / 3, "Newton stalled"
    seeds = np.insert(good, 2, bad, axis=0)
    C, R, V, failed = reduction._periodic_newton(psi, ctx, seeds, radius)
    assert list(failed) == [2] and message in str(failed[2])
    alone = reduction._periodic_newton(psi, ctx, good, radius)
    assert alone[3] == {}
    rows = [0, 1, 3, 4]
    for a, a_alone in zip((C, R, V), alone[:3]):
        assert np.max(np.abs(a[rows] - a_alone)) <= 1e-12


def test_find_periodic_order_survives_round_off():
    # at lambda = 0 planted q4 has a degenerate zero at u = 0, and Newton
    # stops at several near-trivial points that a 1e-12 change of the map
    # moves by ~1e-8; listed by the seed that first reached them, they keep
    # their places (sorted by rounded coordinates, two of them swapped)
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)
    rng = np.random.default_rng(3)
    noise = [1e-12 * rng.standard_normal(L.shape) for L in p.family.at([0.0]).layers]
    nudged = MapFamily(lambda lam: TruncatedMap(2, 3, [
        L + e for L, e in zip(p.family.at(lam).layers, noise)]), 2, 3, nparams=1)
    pts = find_periodic(p.family, ctx, [[0.0]], 0.3)
    moved = find_periodic(nudged, ctx, [[0.0]], 0.3)
    assert len(pts) == len(moved) >= 4
    for a, b in zip(pts, moved):
        assert np.max(np.abs(a.u - b.u)) <= 1e-6


def _planted_q4_setup():
    p = planted_q4()
    return p.family, build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.6)


def _planted_q4_branch_point(lam):
    """_planted_q4_setup() and a nonzero zero of B at lam."""
    family, ctx = _planted_q4_setup()
    pts = find_periodic(family, ctx, [lam], 0.3)
    return family, ctx, next(pt.u for pt in pts if np.linalg.norm(pt.u) > 1e-6)


def test_bifurcation_fn_zero_iff_determining():
    lam = [-0.03]
    family, ctx, usol = _planted_q4_branch_point(lam)
    assert np.max(np.abs(bifurcation_fn(family, ctx, usol, lam))) < 1e-9
    assert np.max(np.abs(bifurcation_fn(family, ctx, 0.5 * usol, lam))) > 1e-4


def test_bifurcation_fn_vstar_solves(monkeypatch):
    # psi_r^-1 runs Newton on the implicit-function-theorem Jacobian, at the
    # v* of each residual: one v* solve for psi_r(u) and one per inverse
    # iterate, where central differences took 12 in all
    lam = [-0.03]
    family, ctx, usol = _planted_q4_branch_point(lam)
    calls = []
    core = reduction._vstar_core

    def counted(*args, **kwargs):
        calls.append(None)
        return core(*args, **kwargs)

    monkeypatch.setattr(reduction, "_vstar_core", counted)
    B = bifurcation_fn(family, ctx, 0.5 * usol, lam)
    assert np.max(np.abs(B)) > 1e-4
    assert len(calls) <= 4


def test_reduced_inverse_roundtrip():
    family, ctx = _planted_q4_setup()
    lam = [-0.03]
    u = np.array([0.05, 0.02])
    w = reduced_inverse(family, ctx, u, lam)
    assert np.max(np.abs(reduced_map(family, ctx, w, lam) - u)) < 1e-9


def test_reduced_inverse_accepts_its_last_iterate(monkeypatch):
    # two Newton steps reach the tolerance here; the residual after the
    # last allowed step counts, so a cap of 2 is enough
    family, ctx = _planted_q4_setup()
    lam = [-0.03]
    u = np.array([0.05, 0.02])
    monkeypatch.setattr(reduction, "INVERSE_MAX_ITER", 2)
    w = reduced_inverse(family, ctx, u, lam)
    assert np.max(np.abs(reduced_map(family, ctx, w, lam) - u)) < 1e-9
    monkeypatch.setattr(reduction, "INVERSE_MAX_ITER", 1)
    with pytest.raises(InverseNewtonFailed,
                       match=r"reduced inverse: residual .* after 1 iterations"):
        reduced_inverse(family, ctx, u, lam)


def test_inverse_newton_failed_is_caught_as_no_convergence(monkeypatch):
    family, ctx = _planted_q4_setup()
    monkeypatch.setattr(reduction, "INVERSE_MAX_ITER", 1)
    try:
        reduced_inverse(family, ctx, np.array([0.05, 0.02]), [-0.03])
    except NoConvergence as exc:
        assert isinstance(exc, InverseNewtonFailed)
    else:
        raise AssertionError("one iteration cannot reach the tolerance")


def test_vstar_failure_names_the_stage(monkeypatch):
    p = planted_q1()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, 1, radius=0.3)
    monkeypatch.setattr(reduction, "VSTAR_MAX_ITER", 0)
    with pytest.raises(NoConvergence,
                       match=r"v\* at \|u\| = 1\.000e-01: residual .* after 0 iterations"):
        solve_vstar(p.family, ctx, np.array([0.1, 0.0]), [0.02])


def test_vstar_rejects_non_finite_map():
    # a NaN coefficient makes every lifted image NaN; the v* solve must
    # raise the typed error, and the periodic search must not take it for
    # a seed that failed to converge
    inst = instance_block_swap(3)
    base = equivariant_family(inst, 3, np.random.default_rng(2))

    def poisoned(lam):
        F = base.at(lam)
        F.layers[2][1, 3] = np.nan
        return F

    family = MapFamily(poisoned, 4, 3)
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 3)
    u = 0.01 * ctx.U_basis[:, 0]
    with pytest.raises(NonFinite):
        solve_vstar(family, ctx, u, [0.01])
    with pytest.raises(NonFinite):
        find_periodic(family, ctx, [[0.01]], 0.02, seeds_per_axis=2)


@pytest.mark.parametrize("name", ["planted q4", "planted q1"])
def test_vstar_functions_take_rows_of_u(name):
    # a (b, n) batch of u gives, row by row, what each u gives alone
    p = planted_q4() if name == "planted q4" else planted_q1()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q, radius=0.3)
    lam = [-0.03] if p.q == 4 else [0.02]
    U = (ctx.U_basis @ np.random.default_rng(56).uniform(-0.1, 0.1, (ctx.dim_u, 5))).T
    for fn in (solve_vstar, reduced_map, xstar):
        batch = fn(p.family, ctx, U, lam)
        assert batch.shape[0] == len(U)
        for u, row in zip(U, batch):
            assert np.max(np.abs(row - fn(p.family, ctx, u, lam))) <= 1e-13
    psi, V = p.family.at(lam), solve_vstar(p.family, ctx, U, lam)
    J = _reduced_jacobian(psi, ctx, U, V)
    assert J.shape == (len(U), ctx.dim_u, ctx.dim_u)
    for u, v, Ju in zip(U, V, J):
        assert np.max(np.abs(Ju - _reduced_jacobian(psi, ctx, u, v))) <= 1e-13


def test_batch_beyond_trust_radius_raises_that_rows_failure():
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q)  # default radius
    U = np.array([[0.05, 0.0], [0.0, 0.15], [0.02, 0.02], [0.2, 0.0]])
    for fn in (solve_vstar, reduced_map, xstar):
        with pytest.raises(NoConvergence,
                           match=r"\|u\| = 1\.500e-01 exceeds the trust radius"):
            fn(p.family, ctx, U, [-0.03])


def test_radius_guard_message():
    p = planted_q4()
    ctx = build_lift(p.inst.A0, p.inst.S0, p.inst.gd, p.q)  # default radius
    with pytest.raises(NoConvergence, match="trust radius"):
        reduced_map(p.family, ctx, np.array([0.15, 0.0]), [-0.03])


def test_ghat_vstar_identity():
    rng = np.random.default_rng(52)
    inst = instance_rot_reflect(3)
    fam = equivariant_family(inst, 3, rng)
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 3, radius=0.3)
    u = 1e-3 * np.array([0.6, 0.8])
    lam = [0.05]
    vals = ghat_vstar_identity_check(fam, ctx, u, lam)
    assert vals.shape == (inst.gd.order,)
    for gi, val in enumerate(vals):
        if inst.gd.char[gi] > 0:
            assert val < 1e-12
        else:
            # reversing side carries the degree-4 truncation defect
            assert val < 1e-9


def test_ghat_vstar_identity_over_rows_is_the_worst_row(monkeypatch):
    # one defect per group element, the largest over the rows of u, from
    # two v* solves
    inst = instance_rot_reflect(3)
    fam = equivariant_family(inst, 3, np.random.default_rng(52))
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 3, radius=0.3)
    U = (ctx.U_basis @ np.random.default_rng(57).uniform(-1e-2, 1e-2, (2, 4))).T
    alone = np.array([ghat_vstar_identity_check(fam, ctx, u, [0.05]) for u in U])
    calls = []
    core = reduction._vstar_core

    def counted(*args):
        calls.append(None)
        return core(*args)

    monkeypatch.setattr(reduction, "_vstar_core", counted)
    rows = ghat_vstar_identity_check(fam, ctx, U, [0.05])
    assert len(calls) == 2
    assert rows.shape == (inst.gd.order,)
    assert np.max(np.abs(rows - alone.max(axis=0))) <= 1e-13


VSTAR_SKELETONS = {"block_swap3": lambda: instance_block_swap(3),
                   "rot_reflect3": lambda: instance_rot_reflect(3),
                   "rot_reflect4": lambda: instance_rot_reflect(4),
                   "rot_reflect5": lambda: instance_rot_reflect(5),
                   "sign_z2": lambda: instance_sign_z2(3)}


@pytest.mark.parametrize("name", sorted(VSTAR_SKELETONS))
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(-0.02, 0.02))
def test_property_vstar_equivariance(name, seed, coeffs, lam):
    # criterion 6's identities on random families, |u| <= 0.02 in U; four
    # examples on each of the five skeletons
    inst = VSTAR_SKELETONS[name]()
    fam = equivariant_family(inst, 3, np.random.default_rng(seed))
    ctx = build_lift(inst.A0, inst.S0, inst.gd, inst.q)
    c = np.array(coeffs[:ctx.dim_u])
    u = ctx.U_basis @ (0.02 * c / max(1.0, float(np.linalg.norm(c))))
    shift = solve_vstar(fam, ctx, inst.S0 @ u, [lam]) - ctx.sigma @ solve_vstar(
        fam, ctx, u, [lam])
    assert np.max(np.abs(shift)) <= 1e-8
    # a family truncated at order 3 is reversible only modulo degree 4, so
    # the identity for chi(g) = -1 carries a defect of order |u|^4
    reversing_tol = 1e-8 + float(np.linalg.norm(u)) ** 4
    tols = np.where(inst.gd.char > 0, 1e-8, reversing_tol)
    assert np.all(ghat_vstar_identity_check(fam, ctx, u, [lam]) <= tols)


def test_nf_reduction_consistency_slopes():
    rng = np.random.default_rng(53)
    inst = instance_rot_reflect(4)
    k = 2
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 4, radius=0.3)
    lam = [0.1]

    fam, _ = nf_form_family(inst, k, rng, tail_amp=4.0, with_tail=True)
    res = semisimple_nf(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[lam])
    rep = nf_reduction_consistency(res, ctx, k, family=fam)
    assert rep["passed"]
    assert rep["slopes"][0] is not None and rep["slopes"][0] > k + 0.8
    assert rep["eig_mismatch"][0] < 1e-4

    # an exactly normalized family leaves nothing above the noise floor
    fam0, _ = nf_form_family(inst, k, rng, with_tail=False)
    res0 = semisimple_nf(fam0, inst.A0, inst.gd, inst.ip, k, lambdas=[lam])
    rep0 = nf_reduction_consistency(res0, ctx, k, family=fam0)
    assert rep0["slopes"][0] is None

    # a non-resonant quadratic perturbation is absorbed by the complement
    # equation: the reduced map only deviates at the next order
    pert = 0.05 * rng.standard_normal((2, 3))
    fam_ok = MapFamily(
        lambda l: fam0.at(l).with_layer(2, fam0.at(l).layer(2) + pert),
        2, k, nparams=1)
    rep_ok = nf_reduction_consistency(res0, ctx, k, family=fam_ok)
    assert rep_ok["slopes"][0] is None or rep_ok["slopes"][0] > k + 0.8


def test_nf_reduction_consistency_takes_one_vstar_solve_per_sample(monkeypatch):
    # all scales x directions of one lambda sample go into one v* solve,
    # where one solve per u took 9 x 3 calls a sample
    rng = np.random.default_rng(53)
    inst = instance_rot_reflect(4)
    k = 2
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 4, radius=0.3)
    fam, _ = nf_form_family(inst, k, rng, tail_amp=4.0, with_tail=True)
    res = semisimple_nf(fam, inst.A0, inst.gd, inst.ip, k,
                        lambdas=[[0.1], [-0.05]])
    rows = []
    core = reduction._vstar_core

    def counted(psi, ctx, U, *args):
        rows.append(len(U))
        return core(psi, ctx, U, *args)

    monkeypatch.setattr(reduction, "_vstar_core", counted)
    rep = nf_reduction_consistency(res, ctx, k, family=fam)
    assert rep["passed"] and all(s > k + 0.8 for s in rep["slopes"])
    assert rows == [9 * reduction.CONSISTENCY_DIRECTIONS] * 2


def test_nf_reduction_consistency_detects_resonant_defect():
    # for S0 = I every quadratic is resonant, so a quadratic perturbation
    # must show up in the reduced map at order 2 and fail the slope gate
    rng = np.random.default_rng(54)
    inst = instance_swap2()
    k = 2
    fam0, _ = nf_form_family(inst, k, rng, with_tail=False)
    res0 = nilpotent_nf(fam0, inst.A0, inst.gd, inst.ip, k, lambdas=[[0.1]])
    ctx = build_lift(inst.A0, inst.S0, inst.gd, 1, radius=0.3)
    pert = 0.05 * rng.standard_normal((2, 3))
    fam_bad = MapFamily(
        lambda l: fam0.at(l).with_layer(2, fam0.at(l).layer(2) + pert),
        2, k, nparams=1)
    with pytest.raises(SlopeTestFailed):
        nf_reduction_consistency(res0, ctx, k, family=fam_bad)
