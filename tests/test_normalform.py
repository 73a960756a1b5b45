"""Normal forms: splittings, admissible spaces, linear and map stages."""
import functools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

import tracemalloc

from eqnf import corpus, groups, normalform, polymap
from eqnf.corpus import (equivariant_family, instance_block_swap,
                         instance_nilpotent_kron, instance_rot_reflect,
                         instance_sign_z2, instance_swap2, nf_form_family,
                         planted_q1, planted_q2, planted_q4,
                         random_group_with_characters,
                         random_semisimple_instance, rotation)
from eqnf.errors import (NoConvergence, NotEquivariant, ProblemTooLarge,
                         SplitFailure)
from eqnf.groups import (GroupData, extended_group, invariant_inner_product,
                         is_chi_equivariant_linear, project_map,
                         tilde_character)
from eqnf.linalg import (AdaptedInnerProduct, image_basis, nullspace,
                         require_invertible, su_decomposition)
from eqnf.normalform import (_degree_data, _jacobian, _linear_newton,
                             _Skeleton, admissible_exponent_basis, hk_projection,
                             nilpotent_nf, semisimple_nf)
from eqnf.polymap import (MapFamily, TruncatedMap, _linear_part_data, adk_field,
                          adk_operator, ck_operator, compose, exp_vf, hk_dim,
                          log_map, num_monomials)
from oracles import (_restrict, ad_conjugate, conjugator, dense_degree_spaces,
                     frozen_operator, is_identity, tabulate_group)

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_hk_projection_matches_project_map(rand_map):
    rng = np.random.default_rng(41)
    gd = GroupData.from_generators([rotation(np.pi / 2), np.diag([1.0, -1.0])],
                                   [1.0, -1.0])
    F = rand_map(rng, 2, 3)
    PF = project_map(F, gd, "chi")
    for k in range(1, 4):
        P = hk_projection(gd, k, "chi")
        assert np.max(np.abs(P @ P - P)) < 1e-12  # averaging is idempotent
        lhs = P @ F.layer(k).reshape(-1)
        assert np.max(np.abs(lhs - PF.layer(k).reshape(-1))) < 1e-12


def test_admissible_basis_shear_quadratic():
    # one admissible quadratic direction: (d (x+y)^2, -d (x+y)^2)
    inst = instance_swap2()
    B = admissible_exponent_basis(inst.A0, inst.gd, inst.ip, 2, "nilpotent")
    assert B.shape == (hk_dim(2, 2), 1)
    v = np.array([1.0, 2.0, 1.0, -1.0, -2.0, -1.0])
    v /= np.linalg.norm(v)
    assert abs(abs(float(B[:, 0] @ v)) - 1.0) < 1e-10


def _intersect(bases, dim: int) -> np.ndarray:
    """Reference oracle: orthonormal basis of the intersection of column
    spans, as the null space of the stacked complements I - B B^T."""
    rows = []
    for B in bases:
        if B.shape[1] == 0:
            return np.zeros((dim, 0))
        rows.append(np.eye(dim) - B @ B.T)
    return nullspace(np.vstack(rows))


def _admissible_oracle(A0, gd, ip, j, mode):
    """The admissible space as the intersection of its defining spaces, and
    the projection whose range grades it."""
    su = su_decomposition(A0)
    dim = hk_dim(A0.shape[0], j)
    pieces = [nullspace(adk_operator(su.S, j) - np.eye(dim))]
    if mode == "nilpotent":
        pieces.append(nullspace(adk_field(ip.adjoint(su.nil_log), j)))
        P = hk_projection(gd, j, "chi")
    else:
        ext = extended_group(gd, A0)
        P = hk_projection(ext, j, tilde_character(gd, "chi", ext))
    pieces.append(image_basis(P))
    return _intersect(pieces, dim), P


def _check_admissible_against_oracle(A0, gd, ip, j, mode):
    B = admissible_exponent_basis(A0, gd, ip, j, mode)
    ref, P = _admissible_oracle(A0, gd, ip, j, mode)
    assert B.shape == ref.shape
    assert np.max(np.abs(B @ B.T - ref @ ref.T), initial=0.0) <= 1e-12
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1])), initial=0.0) <= 1e-12
    K = adk_operator(su_decomposition(A0).S, j) - np.eye(B.shape[0])
    assert np.max(np.abs(K @ B), initial=0.0) <= 1e-10
    assert np.max(np.abs(P @ B - B), initial=0.0) <= 1e-10
    return B.shape[1]


ORACLE_SKELETONS = {
    "swap2": instance_swap2, "rot_reflect3": lambda: instance_rot_reflect(3),
    "rot_reflect4": lambda: instance_rot_reflect(4),
    "sign_z2": lambda: instance_sign_z2(3),
    "block_swap3": lambda: instance_block_swap(3),
    "nilpotent_kron4": lambda: instance_nilpotent_kron(4),
    "planted_q4": lambda: planted_q4().inst, "planted_q2": lambda: planted_q2().inst,
}


@pytest.mark.parametrize("mode", ["nilpotent", "semisimple"])
@pytest.mark.parametrize("name", sorted(ORACLE_SKELETONS))
def test_admissible_basis_matches_intersection_oracle(name, mode):
    inst = ORACLE_SKELETONS[name]()
    dims = [_check_admissible_against_oracle(inst.A0, inst.gd, inst.ip, j, mode)
            for j in range(1, 5)]
    assert any(dims)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4),
       st.sampled_from(["nilpotent", "semisimple"]))
def test_property_admissible_basis_random_skeletons(seed, j, mode):
    S0, gd = random_semisimple_instance(np.random.default_rng(seed))
    ip = invariant_inner_product(S0, gd)
    _check_admissible_against_oracle(S0, gd, ip, j, mode)


def _sin_max_angle(A, B) -> float:
    """Sine of the largest principal angle between the column spans of the
    orthonormal A and B, of equal dimension."""
    return float(np.linalg.norm(A - B @ (B.T @ A), 2)) if A.size else 0.0


def _check_degree_spaces_against_dense(sk: _Skeleton, j: int, unknowns=True):
    # image, kernel, resonant and admissible spaces: the enumeration's bases
    # are orthonormal and span the dense SVD's spaces, the admissible one
    # graded by restriction to the range of the element sum hk_projection
    adNs = adk_field(sk.Nstar, j) if sk.mode == "nilpotent" else None
    new = normalform._degree_spaces(sk.S0, j, sk.graded, adNs)
    old = dense_degree_spaces(sk.S0, j, sk.graded, adNs)
    for B, ref in zip(new, old):
        assert B.shape == ref.shape
        assert np.max(np.abs(B.T @ B - np.eye(B.shape[1])), initial=0.0) <= 1e-12
        assert _sin_max_angle(B, ref) <= 1e-12
    if unknowns:
        # the Newton unknowns: the trivially graded part of the image and,
        # in nilpotent mode, of the ad(N0*) image of the kernel
        P = hk_projection(sk.gd, j, "trivial")
        refs = [_restrict(old[0], P)]
        if adNs is not None:
            refs.append(_restrict(image_basis(adNs @ old[1]), P))
        dims = [R.shape[1] for R in refs]
        unknown = _degree_data(j, sk).unknown
        assert unknown.shape[1] == sum(dims)
        for B, R in zip(np.split(unknown, np.cumsum(dims)[:-1], axis=1), refs):
            assert _sin_max_angle(B, R) <= 1e-12
    return new[1].shape[1]


@functools.cache
def _dihedral_instance(m: int) -> corpus.Instance:
    """D_m, of order 2m, generated by R(2 pi/m) and diag(1, -1) with chi = -1
    on the reflections, around S0 = A0 = R(2 pi/5); built once per m."""
    S0 = rotation(2 * np.pi / 5)
    gd = GroupData.from_generators([rotation(2 * np.pi / m), np.diag([1.0, -1.0])],
                                   [1.0, -1.0])
    return corpus.Instance(name=f"D{m}", A0=S0.copy(), S0=S0, N0=np.zeros((2, 2)),
                           gd=gd, q=5, ip=invariant_inner_product(S0, gd))


def _klein_block_swap_instance() -> corpus.Instance:
    """instance_block_swap(5)'s S0 = diag(Q, Q^T) under Z2 x Z2, generated by
    two reversors (chi = -1): the block swap and diag(1, -1, 1, -1)."""
    base = instance_block_swap(5)
    swap = base.gd.elements[base.gd.generators[0]]
    gd = GroupData.from_generators([swap, np.diag([1.0, -1.0, 1.0, -1.0])],
                                   [-1.0, -1.0])
    return corpus.Instance(name="klein-block-swap", A0=base.A0, S0=base.S0,
                           N0=base.N0, gd=gd, q=5,
                           ip=invariant_inner_product(base.S0, gd))


CORPUS_SKELETONS = {**ORACLE_SKELETONS, "planted_q1": lambda: planted_q1().inst,
                    "D4": lambda: _dihedral_instance(4),
                    "D100": lambda: _dihedral_instance(100),
                    "klein_block_swap": _klein_block_swap_instance}


@pytest.mark.parametrize("mode", ["nilpotent", "semisimple"])
@pytest.mark.parametrize("name", sorted(CORPUS_SKELETONS))
def test_degree_spaces_match_the_dense_svd(name, mode):
    inst = CORPUS_SKELETONS[name]()
    sk = _Skeleton(mode, inst.A0, inst.gd, inst.ip)
    assert any([_check_degree_spaces_against_dense(sk, j) for j in range(1, 6)])


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_degree_spaces_match_the_dense_svd_wide6(j):
    inst = _wide_instance()
    sk = _Skeleton("semisimple", inst.A0, inst.gd, inst.ip)
    _check_degree_spaces_against_dense(sk, j, unknowns=j <= 4)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from(["nilpotent", "semisimple"]))
def test_property_degree_spaces_match_the_dense_svd(seed, j, mode):
    S0, gd = random_semisimple_instance(np.random.default_rng(seed))
    _check_degree_spaces_against_dense(
        _Skeleton(mode, S0, gd, invariant_inner_product(S0, gd)), j)


def _check_degree_spaces_of_a_conjugate(S, P, j: int):
    # Ad_j(P S P^-1) - I = Ad_j(P) (Ad_j(S) - I) Ad_j(P)^-1 has the kernel
    # and image dimensions of the operator at the normal S, which the dense
    # SVD gives; taken on the conjugated operator, the dense SVD itself
    # misses some of them from cond(P) = 10 on.  The bases span a kernel
    # and an image of the conjugated operator to a residual that grows
    # like cond(P)^2.
    n = S.shape[0]
    graded = (GroupData.from_generators([np.eye(n)], [1.0]), "chi")
    S1 = P @ S @ np.linalg.inv(P)
    im_b, ker_b, _, _ = normalform._degree_spaces(S1, j, graded)
    ref_im, ref_ker, _, _ = dense_degree_spaces(S, j, graded)
    assert (im_b.shape, ker_b.shape) == (ref_im.shape, ref_ker.shape)
    M = adk_operator(S1, j) - np.eye(hk_dim(n, j))
    tol = 1e-13 * np.linalg.cond(P) ** 2 * max(1.0, np.linalg.norm(M, 2))
    for B, residual in ((ker_b, M @ ker_b), (im_b, M - im_b @ (im_b.T @ M))):
        if B.size:
            assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-12
            assert np.linalg.norm(residual, 2) <= tol


@pytest.mark.parametrize("cond", [1e1, 1e2, 1e4])
@pytest.mark.parametrize("q", [3, 4, 6])
def test_degree_spaces_of_a_conjugated_rotation(q, cond):
    # S0 = P R(2 pi / q) P^-1 is semisimple but not normal: its eigenvalues
    # carry errors of about eps |S0| cond(P), which the resonance test allows
    # for
    P = conjugator(2, cond, q)
    for j in range(1, 7):
        _check_degree_spaces_of_a_conjugate(rotation(2 * math.pi / q), P, j)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from([1e1, 1e2, 1e3, 1e4]))
def test_property_degree_spaces_of_a_conjugated_s0(seed, j, cond):
    S0, _ = random_semisimple_instance(np.random.default_rng(seed))
    _check_degree_spaces_of_a_conjugate(S0, conjugator(S0.shape[0], cond, seed), j)


def test_degree_spaces_factor_no_operator_sized_matrix(monkeypatch):
    # wide6 at j = 4 has r = 18 resonant pairs among m = 756: its spaces
    # take factorizations of at most 2 r columns, where a dense SVD of the
    # 756 x 756 operator Ad_4(S0) - I was taken before
    inst = _wide_instance()
    normalform._DEGREE_DATA_MEMO.clear()
    shapes = []
    for name in ("svd", "qr"):
        def record(a, *args, _factor=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _factor(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    admissible_exponent_basis(inst.A0, inst.gd, inst.ip, 4, "semisimple")
    monkeypatch.undo()
    r = dense_degree_spaces(inst.S0, 4, (inst.gd, "chi"))[1].shape[1]
    assert r == 18
    assert (hk_dim(6, 4), r) in shapes  # the image's complete QR
    assert max(cols for _, cols in shapes) <= 2 * r, shapes
    normalform._DEGREE_DATA_MEMO.clear()


def test_degree_spaces_refuse_a_non_semisimple_s0():
    # a Jordan block has no eigenvector basis; the dense SVD would have
    # returned its one-dimensional kernel
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    gd = GroupData.from_generators([np.eye(2)], [1.0])
    with pytest.raises(SplitFailure, match="not semisimple"):
        normalform._degree_spaces(J, 2, (gd, "chi"))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
def test_property_hk_projection_random_groups(seed, j, dihedral):
    # P_chi is the chi-isotypic projection on degree-j layers: idempotent,
    # P_chi Ad_j(g) = chi(g) P_chi, and the two distinct characters of a
    # random group project onto complementary pieces.  The groups are
    # random_group_with_characters draws, or D_m of order 4 to 200 with the
    # sign of its reflections and the trivial character.
    rng = np.random.default_rng(seed)
    if dihedral:
        gd = _dihedral_instance((2, 3, 6, 25, 100)[rng.integers(5)]).gd
        gd1, gd2 = gd, GroupData(**{**vars(gd), "char": np.ones(gd.order)})
    else:
        gd1, gd2 = random_group_with_characters(rng)
    projections = [hk_projection(gd, j, "chi") for gd in (gd1, gd2)]
    ads = [adk_operator(g, j) for g in gd1.elements]
    scale = max(1.0, max(float(np.max(np.abs(ad))) for ad in ads))
    for gd, P in zip((gd1, gd2), projections):
        assert np.max(np.abs(P @ P - P)) <= 1e-12 * scale
        for chi, ad in zip(gd.char, ads):
            assert np.max(np.abs(P @ ad - chi * P)) <= 1e-12 * scale
    P1, P2 = projections
    assert np.max(np.abs(P1 @ P2)) <= 1e-12 * scale
    assert np.max(np.abs(P2 @ P1)) <= 1e-12 * scale
    # on a basis holding a graded part, the generator cut is the restriction
    # to the range of P, for each character and the trivial one
    dim = P1.shape[0]
    for gd, char in ((gd1, "chi"), (gd2, "chi"), (gd1, "trivial")):
        P = hk_projection(gd, j, char)
        B = image_basis(np.hstack([P @ rng.standard_normal((dim, 2)),
                                   rng.standard_normal((dim, 3))]))
        cut, ref = normalform._graded_part(B, (gd, char), j), _restrict(B, P)
        assert cut.shape == ref.shape
        assert _sin_max_angle(cut, ref) <= 1e-12


def _linear_nf(A, A0, gd, ip, mode="semisimple"):
    """Oracle: the driver's linear stage run alone.  Semisimple mode returns
    (phi, B) with e^phi A e^-phi = A0 e^B and B in ker(Ad(S0) - I); nilpotent
    mode returns (phi, C) with e^phi A e^-phi = S0 e^{N0 + C}, C commuting
    with S0 in the Ad sense and in ker(ad(N0*))."""
    A = require_invertible(A, "A")
    A0 = require_invertible(A0, "A0")
    if not is_chi_equivariant_linear(A, gd, tol=1e-8):
        raise NotEquivariant("A is not chi-equivariant for the given group")
    sk = _Skeleton(mode, A0, gd, ip)
    phi, _, W = _linear_newton(A, sk, "linear stage")
    return phi, (W - sk.N0 if mode == "nilpotent" else W)


def test_linear_nf_planted_recovery():
    gd = GroupData.from_generators([-np.eye(2)], [1.0])
    S0 = rotation(2 * np.pi / 3)
    ip = invariant_inner_product(S0, gd)
    # phi* symmetric traceless: the non-resonant directions for a rotation
    phi_star = 0.15 * np.array([[1.0, 0.3], [0.3, -1.0]])
    B_star = 0.1 * np.eye(2) + 0.2 * J2
    A = (scipy.linalg.expm(-phi_star) @ S0 @ scipy.linalg.expm(B_star)
         @ scipy.linalg.expm(phi_star))
    phi, B = _linear_nf(A, S0, gd, ip)
    assert np.max(np.abs(phi - phi_star)) < 1e-9
    assert np.max(np.abs(B - B_star)) < 1e-9
    E = scipy.linalg.expm(phi)
    assert np.max(np.abs(E @ A @ np.linalg.inv(E)
                         - S0 @ scipy.linalg.expm(B))) < 1e-11
    phi0, B0 = _linear_nf(S0, S0, gd, ip)
    assert np.max(np.abs(phi0)) < 1e-12 and np.max(np.abs(B0)) < 1e-12


def test_linear_nf_rejects_nonequivariant():
    inst = instance_rot_reflect(3)
    with pytest.raises(NotEquivariant):
        _linear_nf(np.diag([2.0, 3.0]), inst.A0, inst.gd, inst.ip)


def test_linear_nilpotent_nf_planted_recovery():
    inst = instance_swap2()
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    C_star = 0.1 * inst.N0.T  # commutes with N0*, survives the normalization
    phi_star = 0.2 * s
    A = (scipy.linalg.expm(-phi_star) @ inst.S0
         @ scipy.linalg.expm(inst.N0 + C_star) @ scipy.linalg.expm(phi_star))
    phi, C = _linear_nf(A, inst.A0, inst.gd, inst.ip, "nilpotent")
    assert np.max(np.abs(phi - phi_star)) < 1e-11
    assert np.max(np.abs(C - C_star)) < 1e-11
    phi0, C0 = _linear_nf(inst.A0, inst.A0, inst.gd, inst.ip, "nilpotent")
    assert np.max(np.abs(phi0)) < 1e-12 and np.max(np.abs(C0)) < 1e-12


def _fd_degree_derivative(psi, base, j, k, directions=None, eps=1e-6):
    """Central-difference derivative of the degree-j exponent layer with
    respect to a degree-j transform generator, at the given map, along the
    columns of `directions` (every coordinate direction by default)."""
    n = psi.n
    dim = hk_dim(n, j)
    Mj = num_monomials(n, j)
    base_inv = np.linalg.inv(base)
    directions = np.eye(dim) if directions is None else directions
    T = np.zeros((dim, directions.shape[1]))
    for c, d in enumerate(directions.T):
        sides = []
        for sgn in (eps, -eps):
            Phi = exp_vf(TruncatedMap.zero(n, k).with_layer(j, (sgn * d).reshape(n, Mj)))
            W = log_map(ad_conjugate(Phi, psi).linear_left(base_inv))
            sides.append(W.layer(j).reshape(-1))
        T[:, c] = (sides[0] - sides[1]) / (2 * eps)
    return T


def test_frozen_operator_semisimple_fd_oracle():
    inst = instance_rot_reflect(3)
    k, j = 3, 2
    psi = TruncatedMap.from_linear(inst.A0, k)
    T_fd = _fd_degree_derivative(psi, inst.A0, j, k)
    expected = adk_operator(np.linalg.inv(inst.A0), j) - np.eye(hk_dim(2, j))
    assert np.max(np.abs(T_fd - expected)) < 1e-7
    frozen = frozen_operator(inst.S0, inst.N0, inst.A0, j, "semisimple")
    assert np.max(np.abs(T_fd - frozen)) < 1e-7


def test_frozen_operator_nilpotent_fd_oracle():
    inst = instance_swap2()
    k, j = 3, 2
    psi = exp_vf(TruncatedMap.from_linear(inst.N0, k)).linear_left(inst.S0)
    T_fd = _fd_degree_derivative(psi, inst.S0, j, k)
    adN = adk_field(inst.N0, j)
    M = (adk_operator(np.linalg.inv(inst.S0), j) - scipy.linalg.expm(-adN))
    expected = np.linalg.solve(ck_operator(-inst.N0, j), M)
    assert np.max(np.abs(T_fd - expected)) < 1e-7
    frozen = frozen_operator(inst.S0, inst.N0, inst.A0, j, "nilpotent")
    assert np.max(np.abs(T_fd - frozen)) < 1e-7


def test_degree_derivative_off_the_linear_normal_form():
    # at A = A0 e^{W1} with W1 != 0 the degree-2 derivative is
    # C(-W1)^-1 Ad(A0^-1) - C(W1)^-1; leaving the first factor uninverted
    # is a different operator
    inst = instance_rot_reflect(3)
    k, j = 3, 2
    W1 = 0.1 * np.eye(2) + 0.2 * J2
    psi = TruncatedMap.from_linear(inst.A0 @ scipy.linalg.expm(W1), k)
    T_fd = _fd_degree_derivative(psi, inst.A0, j, k)
    Cm, Cp = ck_operator(-W1, j), ck_operator(W1, j)
    AdA = adk_operator(np.linalg.inv(inst.A0), j)
    derived = np.linalg.solve(Cm, AdA) - np.linalg.inv(Cp)
    uninverted = Cm @ AdA - np.linalg.inv(Cp)
    assert np.max(np.abs(T_fd - derived)) < 1e-7
    assert np.max(np.abs(T_fd - uninverted)) > 1e-3


# the skeletons of the nf-sweep benchmark
SWEEP_SKELETONS = {"block_swap3": lambda: instance_block_swap(3),
                   "nilpotent_kron4": lambda: instance_nilpotent_kron(4),
                   "swap2": instance_swap2,
                   "rot_reflect3": lambda: instance_rot_reflect(3)}


def _stage_data(inst, j, mode):
    """Degree-j Newton data of a skeleton, and the base of its mode."""
    sk = _Skeleton(mode, inst.A0, inst.gd, inst.ip)
    return _degree_data(j, sk), sk.base


def _jacobian_at(data, A, base, j):
    """J(A) as a degree stage builds it: on the C_j factors of log_map's
    data for base^-1 A."""
    ck_lu = _linear_part_data(np.linalg.inv(base) @ A).ck_factor(j)
    return _jacobian(data, A, ck_lu, j)


@pytest.mark.parametrize("mode", ["nilpotent", "semisimple"])
@pytest.mark.parametrize("name", sorted(SWEEP_SKELETONS))
def test_jacobian_at_A0_matches_frozen_operator_oracle(name, mode):
    # J(A0) is the old per-mode frozen operator restricted to the Newton
    # coordinates; the stored J0 and the homological singular values are
    # those of that J(A0)
    inst = SWEEP_SKELETONS[name]()
    for j in range(1, 5):
        data, base = _stage_data(inst, j, mode)
        J = _jacobian_at(data, inst.A0, base, j)
        frozen = frozen_operator(inst.S0, inst.N0, inst.A0, j, mode)
        ref = data.unwanted(frozen @ data.unknown)
        assert J.shape == data.J0.shape == ref.shape
        if not ref.size:
            assert data.jac_smin == data.jac_smax == 0.0
            continue
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(J - ref)) <= 1e-12 * scale
        assert np.max(np.abs(data.J0 - ref)) <= 1e-12 * scale
        s = np.linalg.svd(ref, compute_uv=False)
        assert abs(data.jac_smin - s[-1]) <= 1e-12 * scale
        assert abs(data.jac_smax - s[0]) <= 1e-12 * scale


@functools.lru_cache(maxsize=None)
def _sweep_family(name, k):
    inst = SWEEP_SKELETONS[name]()
    return inst, equivariant_family(inst, k, np.random.default_rng(3))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SWEEP_SKELETONS)),
       st.sampled_from(["nilpotent", "semisimple"]), st.integers(2, 4),
       st.floats(-0.05, 0.05), st.integers(0, 2**32 - 1))
def test_property_degree_jacobian_is_exact(name, mode, j, lam, seed):
    # at a map off A0, J(A) matches central differences along the Newton
    # coordinates, and the residual is affine in them
    k = 4
    inst, fam = _sweep_family(name, k)
    psi = fam.at([lam]).truncated(k)
    data, base = _stage_data(inst, j, mode)
    if not data.unknown.shape[1]:
        return
    J = _jacobian_at(data, psi.linear(), base, j)
    T = _fd_degree_derivative(psi, base, j, k, data.unknown)
    fd = data.unwanted(T)
    assert np.max(np.abs(J - fd)) <= 1e-7 * max(1.0, float(np.max(np.abs(J))))

    n, Mj = psi.n, num_monomials(psi.n, j)
    base_inv = np.linalg.inv(base)

    def residual(u):
        Phi = exp_vf(TruncatedMap.zero(n, k).with_layer(j, (data.unknown @ u).reshape(n, Mj)))
        W = log_map(ad_conjugate(Phi, psi).linear_left(base_inv))
        return data.unwanted(W.layer(j).reshape(-1))

    u = np.random.default_rng(seed).standard_normal(data.unknown.shape[1])
    u *= 0.1 / np.linalg.norm(u)
    r0, r1, r2 = residual(0 * u), residual(u), residual(2 * u)
    size = max(1.0, *(float(np.max(np.abs(r))) for r in (r0, r1, r2)))
    assert np.max(np.abs(r2 - 2 * r1 + r0)) <= 1e-12 * size
    assert np.max(np.abs(r1 - r0)) >= 1e-4
    assert np.max(np.abs(r1 - r0 - J @ u)) <= 1e-12 * size


def _count_log_maps(monkeypatch):
    """Patch normalform's log_map and _newton_degree to count log_map calls:
    returns (calls, per_stage), the running total and one entry per stage."""
    per_stage, calls = [], [0]
    log_map_fn, stage = normalform.log_map, normalform._newton_degree

    def counting_log_map(*args, **kwargs):
        calls[0] += 1
        return log_map_fn(*args, **kwargs)

    def counting_stage(*args):
        before = calls[0]
        out = stage(*args)
        per_stage.append(calls[0] - before)
        return out

    monkeypatch.setattr(normalform, "log_map", counting_log_map)
    monkeypatch.setattr(normalform, "_newton_degree", counting_stage)
    return calls, per_stage


def test_degree_stages_take_one_exact_step(monkeypatch):
    # a stage answers its evaluation at the start from the carried exponent,
    # and takes one more log_map where it has to step, after its single step
    # on J(A)
    calls, per_stage = _count_log_maps(monkeypatch)
    rng = np.random.default_rng(5)
    k, samples = 4, 4
    for name in sorted(SWEEP_SKELETONS):
        inst = SWEEP_SKELETONS[name]()
        fam = equivariant_family(inst, k, rng)
        runner = nilpotent_nf if np.any(inst.N0) else semisimple_nf
        runner(fam, inst.A0, inst.gd, inst.ip, k,
               lambdas=[[lam] for lam in rng.uniform(-0.05, 0.05, samples)])
    assert len(per_stage) == len(SWEEP_SKELETONS) * samples * (k - 1)
    assert max(per_stage) <= 1
    assert 1 in per_stage  # the families are not already normal


@pytest.mark.parametrize("make, k", [(instance_swap2, 4),
                                     (lambda: instance_rot_reflect(3), 3)])
def test_already_normal_family_takes_one_log_map_per_sample(monkeypatch, make, k):
    # no stage steps, so the one log_map after the linear stage is the
    # whole call's
    inst = make()
    fam, _ = nf_form_family(inst, k, np.random.default_rng(47), with_tail=False)
    calls, per_stage = _count_log_maps(monkeypatch)
    lambdas = [[-0.03], [0.02], [0.04]]
    res = nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, k, lambdas=lambdas)
    assert res.residual < 1e-10
    assert per_stage == [0] * (len(lambdas) * (k - 1))
    assert calls[0] == len(lambdas)


@pytest.mark.parametrize("mode", ["nilpotent", "semisimple"])
def test_degree_stages_carry_the_exponent_of_their_map(monkeypatch, mode):
    # each stage is handed W = log(base^-1 psi) of the very psi it is handed,
    # bit for bit: the first from the driver, the others from the stage
    # before
    seen, stage = [], normalform._newton_degree

    def recording_stage(psi, W, j, sk, k):
        seen.append((psi.copy(), W.copy(), sk.base_inv.copy()))
        return stage(psi, W, j, sk, k)

    monkeypatch.setattr(normalform, "_newton_degree", recording_stage)
    k, lambdas = 4, [[-0.04], [0.03]]
    for name in sorted(SWEEP_SKELETONS):
        inst, fam = _sweep_family(name, k)
        normalform._nf_driver(fam, inst.A0, inst.gd, inst.ip, k, lambdas, mode)
    assert len(seen) == len(SWEEP_SKELETONS) * len(lambdas) * (k - 1)
    for psi, W, base_inv in seen:
        expected = log_map(psi.linear_left(base_inv))
        assert all(np.array_equal(a, b) for a, b in zip(W.layers, expected.layers))


def test_semisimple_nf_recovers_planted_family():
    rng = np.random.default_rng(42)
    inst = instance_rot_reflect(3)
    k = 3
    fam, nf_field = nf_form_family(inst, k, rng, with_tail=False)
    lam = np.array([0.4])
    res = semisimple_nf(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[lam])
    assert res.mode == "semisimple"
    assert res.residual < 1e-10
    assert (res.exponents[0] - nf_field(lam)).max_abs() < 1e-10
    # higher layers of the transform stay trivial: input already normalized
    assert is_identity(res.transforms[0], 1e-10)


def test_semisimple_nf_undoes_conjugation():
    rng = np.random.default_rng(43)
    inst = instance_rot_reflect(3)
    k = 3
    fam, nf_field = nf_form_family(inst, k, rng, with_tail=False)
    lam = np.array([0.4])
    # quadratic generator: non-resonant (image) part, trivially graded, so
    # the conjugated family is still equivariant with the same normal form
    dim = hk_dim(2, 2)
    K = adk_operator(inst.S0, 2) - np.eye(dim)
    vec = hk_projection(inst.gd, 2, "trivial") @ (K @ rng.standard_normal(dim))
    vec *= 0.3 / max(1.0, np.max(np.abs(vec)))
    E = exp_vf(TruncatedMap.zero(2, k).with_layer(2, vec.reshape(2, -1)))
    conj = MapFamily(lambda l: ad_conjugate(E, fam.at(l)), 2, k, nparams=1)

    res = semisimple_nf(conj, inst.A0, inst.gd, inst.ip, k, lambdas=[lam])
    assert res.residual < 1e-10
    assert (res.exponents[0] - nf_field(lam)).max_abs() < 1e-10
    # the transform must undo the planted conjugation modulo degree k+1
    num = compose(res.transforms[0], E)
    assert is_identity(num, 1e-9)


def test_nilpotent_nf_recovers_planted_families():
    rng = np.random.default_rng(44)
    for inst, k in ((instance_swap2(), 3), (instance_nilpotent_kron(4), 2)):
        fam, nf_field = nf_form_family(inst, k, rng, with_tail=False)
        lam = np.array([0.25])
        res = nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[lam])
        assert res.mode == "nilpotent"
        assert res.residual < 1e-10
        # exponents carry N0 in the linear layer
        assert (res.exponents[0] - nf_field(lam)).max_abs() < 1e-10
        assert np.max(np.abs(res.N0 - inst.N0)) < 1e-10


@pytest.mark.parametrize("make, k", [(lambda: instance_nilpotent_kron(4), 2),
                                     (instance_swap2, 3),
                                     (lambda: instance_block_swap(3), 3)])
def test_nf_form_family_depends_on_spaces_only(monkeypatch, make, k):
    # rotate every basis nf_form_family is handed: the families must not move
    inst = make()
    fam, _ = nf_form_family(inst, k, np.random.default_rng(46), with_tail=True)
    rot_rng = np.random.default_rng(47)

    def rotate(B):
        # Haar-random orthogonal Q, so a one-dimensional space flips sign too
        Q, R = np.linalg.qr(rot_rng.standard_normal((B.shape[1], B.shape[1])))
        return B @ (Q * np.sign(np.diag(R)))

    basis, spaces = corpus.admissible_exponent_basis, corpus._degree_spaces

    monkeypatch.setattr(corpus, "admissible_exponent_basis",
                        lambda *args, **kwargs: rotate(basis(*args, **kwargs)))
    monkeypatch.setattr(corpus, "_degree_spaces", lambda *args, **kwargs: tuple(
        rotate(B) for B in spaces(*args, **kwargs)))
    fam_rot, _ = nf_form_family(inst, k, np.random.default_rng(46), with_tail=True)
    assert fam_rot.order == k + 1
    for lam in (-0.04, 0.0, 0.03):
        F = fam.at([lam])
        assert (fam_rot.at([lam]) - F).max_abs() <= 1e-12 * F.max_abs()


def test_nilpotent_nf_swap2_k6_needs_log_map_refinement():
    # At k = 6 one ascending log_map sweep leaves round-off that stalls the
    # degree-6 Newton near 5e-10; the later sweeps refine it away.
    inst = instance_swap2()
    fam = equivariant_family(inst, 6, np.random.default_rng(1))
    res = nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, 6, lambdas=[[0.0]])
    assert res.residual <= 1e-9


def test_nilpotent_nf_swap2_k6_census_of_stalls():
    # The degree-6 stage of swap2 works at its round-off floor, and some
    # cases stall there: 4 or 5 of these 36, depending on round-off.  A
    # cheaper flow or logarithm must not raise that floor.
    inst = instance_swap2()
    stalls = []
    for rng in range(12):
        fam = equivariant_family(inst, 6, np.random.default_rng(rng))
        for lam in (0.0, 0.02, -0.03):
            try:
                nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, 6, lambdas=[[lam]])
            except NoConvergence as exc:
                assert str(exc).startswith("degree 6: "), exc
                stalls.append((rng, lam))
    assert len(stalls) <= 5, stalls


@pytest.mark.parametrize("rng", [0, 1, 2])
def test_nilpotent_nf_swap2_k7_stalls_at_degree_7(rng):
    # the round-off floor of the degree-7 stage lies above its tolerance
    inst = instance_swap2()
    fam = equivariant_family(inst, 7, np.random.default_rng(rng))
    with pytest.raises(NoConvergence, match="^degree 7: "):
        nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, 7, lambdas=[[0.0]])


def test_nf_diagnostics_contents():
    rng = np.random.default_rng(45)
    inst = instance_rot_reflect(3)
    k = 2
    fam, _ = nf_form_family(inst, k, rng, with_tail=False)
    res = semisimple_nf(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[[0.4]])
    d = res.diagnostics
    assert d["transform_equivariance_defect"] < 1e-9
    assert d["exponent_kernel_defect"] < 1e-9
    assert d["exponent_chi_defect"] < 1e-9
    assert d["exponent_chitilde_defect"] < 1e-9
    assert set(d["homological_smin"]) == {2}
    assert d["homological_smin"][2] > 1e-6
    assert 2 in res.admissible
    # the tilde-chi grading is a semisimple-mode property
    inst = instance_swap2()
    fam, _ = nf_form_family(inst, k, rng, with_tail=False)
    res = nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[[0.4]])
    assert "exponent_chitilde_defect" not in res.diagnostics


# ---------------------------------------------------------------------------
# per-degree data kept across calls on one skeleton

MEMO_CASES = [(instance_swap2, nilpotent_nf, 3),
              (lambda: instance_block_swap(3), semisimple_nf, 3)]


def _assert_same_result(a, b):
    """Bitwise-equal transforms, exponents, residuals, admissible bases and
    diagnostics."""
    for maps_a, maps_b in ((a.transforms, b.transforms), (a.exponents, b.exponents)):
        assert len(maps_a) == len(maps_b)
        for F, G in zip(maps_a, maps_b):
            assert all(np.array_equal(x, y) for x, y in zip(F.layers, G.layers))
    assert a.residuals == b.residuals
    assert a.diagnostics == b.diagnostics
    assert a.admissible.keys() == b.admissible.keys()
    assert all(np.array_equal(a.admissible[j], b.admissible[j]) for j in a.admissible)


def _memo_run(make, runner, k, gd=None, ip=None, A0=None):
    inst = make()
    fam = equivariant_family(inst, k, np.random.default_rng(48))
    return runner(fam, inst.A0 if A0 is None else A0, gd or inst.gd,
                  ip or inst.ip, k, lambdas=[[0.02], [-0.01]])


@pytest.mark.parametrize("make, runner, k", MEMO_CASES)
def test_degree_data_memo_returns_the_same_answers(monkeypatch, make, runner, k):
    normalform._DEGREE_DATA_MEMO.clear()
    first = _memo_run(make, runner, k)
    built = []
    degree_data = normalform._degree_data

    def counting_degree_data(j, *args):
        built.append(j)
        return degree_data(j, *args)

    monkeypatch.setattr(normalform, "_degree_data", counting_degree_data)
    second = _memo_run(make, runner, k)
    assert built == []
    # a lower order reuses the same degrees; a higher one builds only its own
    _memo_run(make, runner, k - 1)
    _memo_run(make, runner, k + 1)
    assert built == [k + 1]
    normalform._DEGREE_DATA_MEMO.clear()
    cleared = _memo_run(make, runner, k)
    for res in (second, cleared):
        _assert_same_result(first, res)


def _variants():
    """(make, runner, k, what differs) for a skeleton one input away from a
    MEMO_CASES one: only chi, only the gram matrix, or one ulp of A0."""
    swap = instance_swap2()
    chi_plus = tabulate_group(swap.gd.elements, np.ones(swap.gd.order))
    gram = AdaptedInnerProduct(np.array([[2.0, 0.5], [0.5, 2.0]]))
    block = instance_block_swap(3)
    A0 = block.A0.copy()
    A0[0, 0] = np.nextafter(A0[0, 0], np.inf)
    return [(instance_swap2, nilpotent_nf, 3, {"gd": chi_plus}),
            (instance_swap2, nilpotent_nf, 3, {"ip": gram}),
            (lambda: instance_block_swap(3), semisimple_nf, 3, {"A0": A0})]


@pytest.mark.parametrize("make, runner, k, change", _variants(),
                         ids=["chi", "gram", "A0-ulp"])
def test_degree_data_memo_has_no_false_hit(make, runner, k, change):
    normalform._DEGREE_DATA_MEMO.clear()
    base = _memo_run(make, runner, k)
    after_base = _memo_run(make, runner, k, **change)
    assert len(normalform._DEGREE_DATA_MEMO) == 2
    normalform._DEGREE_DATA_MEMO.clear()
    alone = _memo_run(make, runner, k, **change)
    _assert_same_result(after_base, alone)
    # the change reaches the answer, so a false hit could not go unseen
    assert any(not np.array_equal(x, y)
               for F, G in zip(base.exponents, alone.exponents)
               for x, y in zip(F.layers, G.layers)) or any(
        not np.array_equal(base.admissible[j], alone.admissible[j])
        for j in base.admissible)


def test_degree_data_memo_is_read_only():
    make, runner, k = MEMO_CASES[1]
    normalform._DEGREE_DATA_MEMO.clear()
    first = _memo_run(make, runner, k)
    for array in (first.admissible[2], first.S0, first.N0):
        with pytest.raises(ValueError):
            array[0, 0] += 1.0
    _assert_same_result(first, _memo_run(make, runner, k))


def test_degree_data_memo_keeps_no_split_failure(monkeypatch):
    make, runner, k = MEMO_CASES[0]
    normalform._DEGREE_DATA_MEMO.clear()
    good = _memo_run(make, runner, k)
    normalform._DEGREE_DATA_MEMO.clear()
    # an empty image of ad(N0) on the kernel cannot complete the split
    monkeypatch.setattr(normalform, "image_basis",
                        lambda M: np.zeros((M.shape[0], 0)))
    for _ in range(2):
        with pytest.raises(SplitFailure):
            _memo_run(make, runner, k)
    # the skeleton is kept, without the degree data of the failed build
    (skeleton,) = normalform._DEGREE_DATA_MEMO.values()
    assert skeleton.degrees == {} and skeleton.admissible == {}
    monkeypatch.undo()
    _assert_same_result(good, _memo_run(make, runner, k))


def test_degree_data_memo_size_is_bounded():
    normalform._DEGREE_DATA_MEMO.clear()
    limit = normalform.DEGREE_DATA_SKELETONS
    assert limit >= 5  # the nf-sweep benchmark cycles through five skeletons
    for q in range(3, 3 + limit + 2):
        _memo_run(lambda: instance_rot_reflect(q), semisimple_nf, 2)
        assert len(normalform._DEGREE_DATA_MEMO) <= limit
    assert len(normalform._DEGREE_DATA_MEMO) == limit


def _count_calls(monkeypatch, module, *names):
    """Wrap module.<name> for each name; returns the live {name: calls}."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("make, runner, k", MEMO_CASES)
def test_warm_call_derives_no_skeleton(monkeypatch, make, runner, k):
    inst = make()
    fam = equivariant_family(inst, k, np.random.default_rng(48))

    def run():
        return runner(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[[0.02]])

    normalform._DEGREE_DATA_MEMO.clear()
    first = run()
    counts = _count_calls(monkeypatch, normalform, "su_decomposition",
                          "extended_group", "tilde_character")
    _assert_same_result(first, run())
    assert counts == {"su_decomposition": 0, "extended_group": 0,
                      "tilde_character": 0}
    # the counters see a cold call
    normalform._DEGREE_DATA_MEMO.clear()
    _assert_same_result(first, run())
    semisimple = runner is semisimple_nf
    assert counts == {"su_decomposition": 1, "extended_group": int(semisimple),
                      "tilde_character": int(semisimple)}


@pytest.mark.parametrize("runner", [semisimple_nf, nilpotent_nf])
def test_cold_normal_form_reads_the_generators(monkeypatch, runner):
    # D_4 (order 8) and D_100 (order 200) have the same two generators: a
    # cold call tabulates no group (its one matrix match is extended_group's
    # refusal of g A0 = e, where a tabulation takes |G|^2) and sums no
    # projection over the elements, and its adk_operator calls are bounded
    # by the generators times k for both, where the element sums took
    # 2|G| + 1 per degree
    k = 5
    for m in (4, 100):
        inst = _dihedral_instance(m)
        fam = equivariant_family(inst, k, np.random.default_rng(12))
        normalform._DEGREE_DATA_MEMO.clear()
        with monkeypatch.context() as mp:
            count = _count_calls(mp, normalform, "hk_projection", "adk_operator")
            matches = _count_calls(mp, groups, "_find_match")
            res = runner(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[[0.02]])
        assert res.residual <= 1e-10 and len(inst.gd.generators) == 2
        assert count["hk_projection"] == 0
        assert matches["_find_match"] == int(runner is semisimple_nf)
        assert count["adk_operator"] <= (3 * 2 + 2) * k
    normalform._DEGREE_DATA_MEMO.clear()


@pytest.mark.parametrize("runner", [semisimple_nf, nilpotent_nf])
@pytest.mark.parametrize("make, k, order", [
    (lambda: _dihedral_instance(4), 5, 8), (_klein_block_swap_instance, 4, 4)],
    ids=["D4", "klein-block-swap"])
def test_normal_forms_of_groups_with_two_generators(make, k, order, runner):
    # transforms equivariant, exponents graded (chi on G, or tilde-chi on the
    # extended group), the residual within tolerance, and the admissible
    # dimensions those of the element-sum oracle
    inst = make()
    assert inst.gd.order == order and len(inst.gd.generators) == 2
    fam = equivariant_family(inst, k, np.random.default_rng(13))
    normalform._DEGREE_DATA_MEMO.clear()
    res = runner(fam, inst.A0, inst.gd, inst.ip, k, lambdas=[[-0.02], [0.03]])
    assert res.residual <= 1e-10
    d = res.diagnostics
    graded = ("exponent_chitilde_defect" if res.mode == "semisimple"
              else "exponent_chi_defect")
    assert d["transform_equivariance_defect"] <= 1e-9 and d[graded] <= 1e-9
    sk = normalform._skeleton(res.mode, inst.A0, inst.gd, inst.ip, k)
    dims = []
    for j in range(2, k + 1):
        adNs = adk_field(sk.Nstar, j) if res.mode == "nilpotent" else None
        ref = dense_degree_spaces(sk.S0, j, sk.graded, adNs)[3]
        assert res.admissible[j].shape == ref.shape
        dims.append(ref.shape[1])
    assert any(dims)
    normalform._DEGREE_DATA_MEMO.clear()


@pytest.mark.parametrize("make, mode", [
    (lambda: instance_nilpotent_kron(4), "nilpotent"),
    (lambda: instance_rot_reflect(3), "nilpotent"),
    (lambda: instance_block_swap(3), "semisimple")])
def test_exponent_defects_match_the_dense_operators(rand_map, make, mode):
    # exponents far from the resonant space, so the defects are O(1); the
    # oracle is the per-degree dense Ad_j(S0) - I and ad_j(N0*).  A large
    # linear layer shows whether the ad defect leaves degree 1 out.
    inst, k = make(), 3
    sk = normalform._skeleton(mode, inst.A0, inst.gd, inst.ip, k)
    rng = np.random.default_rng(49)
    exponents = [W.with_layer(1, 20 * W.linear()) for W in
                 (rand_map(rng, inst.A0.shape[0], k) for _ in range(2))]
    d = normalform._nf_diagnostics(sk, [], exponents)
    kernel = ad = 0.0
    for W in exponents:
        X = W.with_layer(1, W.linear() - sk.N0) if mode == "nilpotent" else W
        for j in range(1, k + 1):
            vec = X.layer(j).reshape(-1)
            K = adk_operator(sk.S0, j) - np.eye(vec.size)
            kernel = max(kernel, np.max(np.abs(K @ vec)))
            if j >= 2:
                ad = max(ad, np.max(np.abs(adk_field(sk.Nstar, j) @ vec)))
    assert kernel > 0.1 and abs(d["exponent_kernel_defect"] - kernel) <= 1e-12 * kernel
    if mode == "nilpotent":
        assert abs(d["exponent_ad_defect"] - ad) <= 1e-12 * max(ad, 1.0)
    # no samples, no defects
    empty = normalform._nf_diagnostics(sk, [], [])
    assert all(v == 0.0 for v in empty.values())


def _wide_instance():
    """The nf-wide benchmark's n = 6 skeleton: planar rotations by 2 pi/3,
    2 pi/5 and 2.0, G generated by diag(1,-1,1,-1,1,-1) with chi = -1."""
    S0 = scipy.linalg.block_diag(*(rotation(theta) for theta in
                                   (2 * np.pi / 3, 2 * np.pi / 5, 2.0)))
    gd = GroupData.from_generators([np.diag([1.0, -1.0] * 3)], [-1.0])
    return corpus.Instance(name="wide6", A0=S0.copy(), S0=S0,
                           N0=np.zeros((6, 6)), gd=gd, q=1,
                           ip=invariant_inner_product(S0, gd))


def test_wide6_normal_form_takes_no_dense_ck(monkeypatch, ck_builds):
    # every C_j of nf-wide's skeleton has ||ad_j X1||_1 <= PSI_THETA: no
    # m x m C_j is built and none is LU-factored
    inst = _wide_instance()
    fam, _ = nf_form_family(inst, 3, np.random.default_rng(7), with_tail=False)
    normalform._DEGREE_DATA_MEMO.clear()
    counts = _count_calls(monkeypatch, polymap, "ck_operator", "_check_ck")
    res = semisimple_nf(fam, inst.A0, inst.gd, inst.ip, 3, lambdas=[[0.03]])
    assert counts == {"ck_operator": 0, "_check_ck": 0}
    assert ck_builds and all(path == "series" for _, path in ck_builds)
    assert res.residual <= 1e-12
    normalform._DEGREE_DATA_MEMO.clear()


def test_swap2_nilpotent_normal_form_keeps_the_dense_ck(ck_builds):
    # swap2's N0 gives ||ad_j N0||_1 = 8 to 20 at j = 1..4, above PSI_THETA:
    # its C_j, at the skeleton and in log_map, take the dense LU
    inst = instance_swap2()
    fam = equivariant_family(inst, 4, np.random.default_rng(3))
    normalform._DEGREE_DATA_MEMO.clear()
    nilpotent_nf(fam, inst.A0, inst.gd, inst.ip, 4, lambdas=[[0.02]])
    assert {d for d, _ in ck_builds} == {1, 2, 3, 4}
    assert all(path == "dense" for _, path in ck_builds)
    normalform._DEGREE_DATA_MEMO.clear()


@pytest.mark.parametrize("runner", [semisimple_nf, nilpotent_nf])
def test_reconstruction_reuses_the_last_log_map_flow(monkeypatch, runner):
    # _nf_driver's closing check psi = base exp_vf(W) takes the flow of the
    # log_map that made W: one exp_vf fewer per sample, and the same bits
    inst = instance_rot_reflect(3)
    fam = equivariant_family(inst, 4, np.random.default_rng(5))
    calls = []
    for module in (polymap, normalform):
        def counting_exp_vf(X, k=None, _fn=module.exp_vf):
            calls.append(k)
            return _fn(X, k)
        monkeypatch.setattr(module, "exp_vf", counting_exp_vf)
    recon = []

    def recording_flow(W, _fn=normalform._log_map_flow):
        before = len(calls)
        flow = _fn(W)
        recon.append((len(calls) - before, W, flow))
        return flow

    monkeypatch.setattr(normalform, "_log_map_flow", recording_flow)
    lams = [[-0.03], [0.0], [0.02]]
    res = runner(fam, inst.A0, inst.gd, inst.ip, 4, lambdas=lams)
    monkeypatch.undo()
    assert len(recon) == len(lams)
    for (fresh, W, flow), exponent in zip(recon, res.exponents):
        assert fresh == 0 and W is exponent
        assert all(np.array_equal(a, b) for a, b in zip(flow.layers, exp_vf(W).layers))


def test_nf_form_family_derives_each_space_once(monkeypatch):
    # k = 3, then k = 4: one split, and each degree's spaces derived once
    normalform._DEGREE_DATA_MEMO.clear()
    counts = _count_calls(monkeypatch, normalform, "su_decomposition",
                          "_degree_spaces")
    inst = _wide_instance()
    for k in (3, 4):
        nf_form_family(inst, k, np.random.default_rng(k), with_tail=False)
    assert counts == {"su_decomposition": 1, "_degree_spaces": 4}


@pytest.mark.parametrize("make, runner, k", MEMO_CASES)
def test_admissible_basis_reads_the_normal_forms_store(monkeypatch, make,
                                                       runner, k):
    inst = make()
    normalform._DEGREE_DATA_MEMO.clear()
    res = _memo_run(make, runner, k)
    counts = _count_calls(monkeypatch, normalform, "_degree_spaces")
    for j in range(2, k + 1):
        B = admissible_exponent_basis(inst.A0, inst.gd, inst.ip, j, res.mode)
        assert np.array_equal(B, res.admissible[j]) and not B.flags.writeable
    assert counts == {"_degree_spaces": 0}
    # bases read first leave the normal form as it was
    monkeypatch.undo()
    normalform._DEGREE_DATA_MEMO.clear()
    for j in range(1, k + 1):
        admissible_exponent_basis(inst.A0, inst.gd, inst.ip, j, res.mode)
    _assert_same_result(res, _memo_run(make, runner, k))


@pytest.mark.parametrize("bases_first", [False, True])
@pytest.mark.parametrize("make, runner, k", MEMO_CASES)
def test_newton_data_carry_the_admissible_basis(make, runner, k, bases_first):
    # every degree's Newton data carry its graded admissible basis, the
    # linear stage's too, and the store keeps the one stored first
    inst = make()
    mode = runner.__name__.split("_")[0]
    normalform._DEGREE_DATA_MEMO.clear()
    first = ([admissible_exponent_basis(inst.A0, inst.gd, inst.ip, j, mode)
              for j in range(1, k + 1)] if bases_first else [])
    _memo_run(make, runner, k)
    sk = normalform._skeleton(mode, inst.A0, inst.gd, inst.ip, k)
    for j in range(1, k + 1):
        assert np.array_equal(sk.degrees[j].admissible, sk.admissible[j])
    assert all(B is sk.admissible[j] for j, B in enumerate(first, start=1))


def test_nf_form_family_tail_is_within_the_budget(monkeypatch):
    # the tail builds degree-(k+1) spaces: a budget that order k fits and
    # order k + 1 does not refuses the family with its tail
    inst, k = instance_swap2(), 3
    side = max(hk_dim(2, k), math.comb(2 + k, k) - 1)
    monkeypatch.setattr(polymap, "DENSE_BYTES_BUDGET", 8 * side**2)
    normalform._DEGREE_DATA_MEMO.clear()
    nf_form_family(inst, k, np.random.default_rng(5), with_tail=False)
    with pytest.raises(ProblemTooLarge, match=f"order {k + 1}"):
        nf_form_family(inst, k, np.random.default_rng(5), with_tail=True)


def test_nf_refuses_oversized_order_without_allocating(monkeypatch):
    # n = 6, k = 8: one dense m x m operator at m = hk_dim(6, 8) = 7722
    # would take 477 MB
    n, k = 6, 8
    assert 8 * hk_dim(n, k) ** 2 > polymap.DENSE_BYTES_BUDGET
    gd = GroupData.from_generators([np.eye(n)], [1.0])
    ip = AdaptedInnerProduct.standard(n)
    fam = MapFamily(lambda lam: TruncatedMap.identity(n, k), n, k)
    monkeypatch.setattr(normalform, "_degree_data", None)  # never reached
    for runner in (semisimple_nf, nilpotent_nf):
        tracemalloc.start()
        try:
            with pytest.raises(ProblemTooLarge):
                runner(fam, np.eye(n), gd, ip, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    # the largest normal forms the suite and the benchmark run fit
    assert 8 * hk_dim(6, 5) ** 2 <= polymap.DENSE_BYTES_BUDGET
