"""Constructed systems with known closed-form behavior.

Everything here exists to be checked against an independent answer: the
rational worked example with its binomial Taylor coefficients, reversible
linear skeletons, randomly generated equivariant families, families built
directly in normal form, and families with planted periodic branches whose
bifurcation equations solve by hand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import (GroupData, invariant_inner_product,
                     is_chi_equivariant_map, project_map)
from .linalg import AdaptedInnerProduct, expm
from .normalform import _degree_spaces, _grading, admissible_exponent_basis
from .polymap import (MapFamily, TruncatedMap, _require_dense_fits, exp_vf,
                      num_monomials)


FIELD_AMP = 0.25  # scale of the random coefficients of a family's fields
LAMBDA_AMP = 0.2  # and of their lambda-slopes
RANDOM_GROUP_MAX_DIM = 5


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# the rational binomial-shear example (fixed diagonal line y = x)

def binomial_shear_group() -> GroupData:
    """Order-2 group generated by the coordinate swap, as a reversor."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return GroupData.from_generators([swap], [-1.0])


def binomial_shear_matrix() -> np.ndarray:
    return np.array([[3.0, -2.0], [2.0, -1.0]])


def binomial_shear_map(order: int = 3) -> TruncatedMap:
    """Taylor expansion of (x^3/y^2, x^2/y) about (1, 1), origin shifted.

    Coefficient of x^a y^b: comp 1 is C(3,a) * (-1)^b (b+1), comp 2 is
    C(2,a) * (-1)^b, for a + b >= 1.
    """
    terms = []
    for d in range(1, order + 1):
        for a in range(d + 1):
            b = d - a
            c1 = math.comb(3, a) * ((-1) ** b) * (b + 1) if a <= 3 else 0.0
            c2 = math.comb(2, a) * ((-1) ** b) if a <= 2 else 0.0
            if c1:
                terms.append({"component": 0, "exponents": (a, b), "coefficient": float(c1)})
            if c2:
                terms.append({"component": 1, "exponents": (a, b), "coefficient": float(c2)})
    return TruncatedMap.from_terms(2, order, terms)


def binomial_shear_family(order: int = 3) -> MapFamily:
    psi = binomial_shear_map(order)
    return MapFamily(lambda lam: psi, 2, order, nparams=1)


# ---------------------------------------------------------------------------
# linear skeletons

@dataclass
class Instance:
    """A linear skeleton: reference linearization, its parts, symmetry
    group, natural period, and an adapted inner product."""

    name: str
    A0: np.ndarray
    S0: np.ndarray
    N0: np.ndarray
    gd: GroupData
    q: int
    ip: AdaptedInnerProduct


def _finish(name, S0, N0, gd, q) -> Instance:
    A0 = S0 @ expm(N0)
    ip = invariant_inner_product(S0, gd)
    return Instance(name=name, A0=A0, S0=S0, N0=N0, gd=gd, q=q, ip=ip)


def instance_swap2() -> Instance:
    """Binomial-shear skeleton: unipotent linear part, swap reversor, q = 1."""
    N0 = np.array([[2.0, -2.0], [2.0, -2.0]])
    return _finish("swap2", np.eye(2), N0, binomial_shear_group(), 1)


def instance_rot_reflect(q: int) -> Instance:
    """Planar rotation by 2 pi / q reversed by the axis reflection."""
    S0 = rotation(2 * math.pi / q)
    refl = np.diag([1.0, -1.0])
    gd = GroupData.from_generators([refl], [-1.0])
    return _finish(f"rot-reflect-q{q}", S0, np.zeros((2, 2)), gd, q)


def instance_sign_z2(q: int = 3) -> Instance:
    """Planar rotation with the central -I as a plain symmetry."""
    S0 = rotation(2 * math.pi / q)
    gd = GroupData.from_generators([-np.eye(2)], [1.0])
    return _finish(f"sign-z2-q{q}", S0, np.zeros((2, 2)), gd, q)


def instance_block_swap(q: int = 3) -> Instance:
    """S0 = diag(Q, Q^-1) reversed by the block swap, n = 4."""
    Q = rotation(2 * math.pi / q)
    S0 = np.block([[Q, np.zeros((2, 2))], [np.zeros((2, 2)), Q.T]])
    R = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    gd = GroupData.from_generators([R], [-1.0])
    return _finish(f"block-swap-q{q}", S0, np.zeros((4, 4)), gd, q)


def instance_nilpotent_kron(q: int = 4) -> Instance:
    """n = 4 skeleton with nontrivial nilpotent part: S0 = rot x I,
    N0 = J x shift, reversed by diag(1,-1) x I."""
    J = rotation(math.pi / 2)
    N2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    S0 = np.kron(rotation(2 * math.pi / q), np.eye(2))
    N0 = np.kron(J, N2)
    g = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    gd = GroupData.from_generators([g], [-1.0])
    return _finish(f"nilpotent-kron-q{q}", S0, N0, gd, q)


# ---------------------------------------------------------------------------
# random equivariant families

def equivariant_family(inst: Instance, order: int, rng) -> MapFamily:
    """A chi-equivariant family A0 e^{X + lam Y} with random graded fields.

    X has no linear layer (so the linear part at lam = 0 is exactly A0);
    both fields are projected onto the tilde-character-graded subspace of
    the extended group, which characterizes equivariance of the family.
    """
    n = inst.A0.shape[0]
    ext, tchi = _grading(inst.gd, inst.A0, "semisimple")

    def graded_field(with_linear: bool) -> TruncatedMap:
        F = TruncatedMap.zero(n, order)
        for d in range(1, order + 1):
            if d == 1 and not with_linear:
                continue
            F.layers[d - 1] = FIELD_AMP * rng.standard_normal((n, num_monomials(n, d)))
        return project_map(F, ext, tchi)

    X = graded_field(with_linear=False)
    Y = graded_field(with_linear=True)
    A0 = inst.A0

    def fn(lam):
        field = X + float(lam[0]) * LAMBDA_AMP * Y
        return exp_vf(field, order).linear_left(A0)

    fam = MapFamily(fn, n, order, nparams=1)
    if not is_chi_equivariant_map(fam.at([0.03]), inst.gd):
        raise AssertionError("constructed family failed the equivariance check")
    return fam


def nf_form_family(inst: Instance, k: int, rng, tail_amp: float = 0.5,
                   with_tail: bool = True):
    """A family S0 e^{N0 + X_lam + T} already in normal form to order k.

    X_lam lives in the admissible (kernel) spaces per degree; T is an
    equivariant resonant tail at degree k+1, the planted remainder that the
    reduction slope test must detect.  Each layer is a Gaussian draw on the
    whole layer projected orthogonally onto its space, so the family depends
    on the spaces and not on the bases that span them.  Returns (family,
    nf_field_fn) where nf_field_fn(lam) is the exact exponent truncated to
    order k.
    """
    n = inst.A0.shape[0]
    order = k + 1 if with_tail else k
    _require_dense_fits(n, order)  # the tail's degree-(k+1) spaces too

    def draw(B, amp):
        v = amp * rng.standard_normal(B.shape[0])
        return (B @ (B.T @ v)).reshape(n, -1)

    X_layers = {}
    Y_layers = {}
    for j in range(1, k + 1):
        B = admissible_exponent_basis(inst.A0, inst.gd, inst.ip, j, "nilpotent")
        if B.shape[1] == 0:
            continue
        if j >= 2:
            X_layers[j] = draw(B, FIELD_AMP)
        Y_layers[j] = draw(B, LAMBDA_AMP)

    T = None
    if with_tail:
        *_, B = _degree_spaces(inst.S0, k + 1, graded=(inst.gd, "chi"))
        if B.shape[1]:
            T = draw(B, tail_amp)

    S0, N0 = inst.S0, inst.N0

    def field(lam, cut):
        F = TruncatedMap.zero(n, cut)
        F.layers[0] = N0.copy()
        for j, L in X_layers.items():
            F.layers[j - 1] += L
        for j, L in Y_layers.items():
            F.layers[j - 1] += float(lam[0]) * L
        if cut > k and T is not None:
            F.layers[k] = T.copy()
        return F

    def fn(lam):
        return exp_vf(field(lam, order), order).linear_left(S0)

    fam = MapFamily(fn, n, order, nparams=1)

    def nf_field_fn(lam):
        return field(lam, k)

    return fam, nf_field_fn


# ---------------------------------------------------------------------------
# planted periodic branches

def _z_terms(order: int, lin: float, alpha: float, beta: float,
             rot: np.ndarray) -> TruncatedMap:
    """TruncatedMap of rot @ [lin*z + alpha*z|z|^2 + beta*zbar^3] in real
    coordinates z = x + iy."""
    terms = []
    # z|z|^2 = (x^3 + x y^2, x^2 y + y^3)
    cubic1 = [(0, (3, 0), alpha), (0, (1, 2), alpha),
              (1, (2, 1), alpha), (1, (0, 3), alpha)]
    # zbar^3 = (x^3 - 3 x y^2, y^3 - 3 x^2 y)
    cubic2 = [(0, (3, 0), beta), (0, (1, 2), -3 * beta),
              (1, (0, 3), beta), (1, (2, 1), -3 * beta)]
    for comp, ex, c in cubic1 + cubic2:
        if c:
            terms.append({"component": comp, "exponents": ex, "coefficient": c})
    F = TruncatedMap.from_terms(2, order, terms)
    F = F + TruncatedMap.from_linear(lin * np.eye(2), order)
    return F.linear_left(rot)


def _z_branch_points(lam, alpha: float, beta: float) -> np.ndarray:
    """Nontrivial solutions of lam + r^2 (alpha +- beta) = 0 at angles
    k pi / 4: the '+' branch on the axes, the '-' branch on the diagonals."""
    lam = float(np.atleast_1d(lam)[0])
    pts = []
    for sgn, theta0 in ((1.0, 0.0), (-1.0, math.pi / 4)):
        s = alpha + sgn * beta
        if s == 0 or -lam / s <= 0:
            continue
        r = math.sqrt(-lam / s)
        for kk in range(4):
            th = theta0 + kk * math.pi / 2
            pts.append([r * math.cos(th), r * math.sin(th)])
    return np.array(pts) if pts else np.zeros((0, 2))


@dataclass
class PlantedFamily:
    """A family with hand-solvable q-periodic branches."""

    family: MapFamily
    inst: Instance
    q: int
    predict_points: object  # lam -> (N, n) array of nontrivial solutions


def planted_q4(alpha: float = 1.0, beta: float = 0.5) -> PlantedFamily:
    """f(z) = i(1+lam) z + i alpha z|z|^2 + i beta zbar^3; branches solve
    lam + r^2 (alpha +- beta) = 0 at angles k pi / 4."""
    J = rotation(math.pi / 2)
    gd = GroupData.from_generators([J], [1.0])
    inst = _finish("planted-q4", J, np.zeros((2, 2)), gd, 4)

    def fn(lam):
        return _z_terms(3, 1.0 + float(lam[0]), alpha, beta, J)

    fam = MapFamily(fn, 2, 3, nparams=1)
    return PlantedFamily(family=fam, inst=inst, q=4,
                         predict_points=lambda lam: _z_branch_points(lam, alpha, beta))


def planted_q2(alpha: float = 1.0, beta: float = 0.4) -> PlantedFamily:
    """f(z) = -(1+lam) z - alpha z|z|^2 - beta zbar^3; period-2 branches at
    lam + r^2 (alpha +- beta) = 0, angles k pi / 4; conjugation symmetry."""
    S0 = -np.eye(2)
    refl = np.diag([1.0, -1.0])
    gd = GroupData.from_generators([refl, -np.eye(2)], [1.0, 1.0])
    inst = _finish("planted-q2", S0, np.zeros((2, 2)), gd, 2)

    def fn(lam):
        return _z_terms(3, 1.0 + float(lam[0]), alpha, beta, -np.eye(2))

    fam = MapFamily(fn, 2, 3, nparams=1)
    return PlantedFamily(family=fam, inst=inst, q=2,
                         predict_points=lambda lam: _z_branch_points(lam, alpha, beta))


def planted_q1(gamma: float = 0.3) -> PlantedFamily:
    """Pitchfork with slaved second coordinate: psi = ((1+lam)x - x^3 + xy,
    y/2 + gamma x^2); fixed points x = +-sqrt(lam/(1-2 gamma)), y = 2 gamma x^2."""
    S0 = np.diag([1.0, 0.5])
    g = np.diag([-1.0, 1.0])
    gd = GroupData.from_generators([g], [1.0])
    A0 = S0.copy()
    ip = AdaptedInnerProduct.standard(2)
    inst = Instance(name="planted-q1", A0=A0, S0=S0, N0=np.zeros((2, 2)),
                    gd=gd, q=1, ip=ip)

    def fn(lam):
        terms = [
            {"component": 0, "exponents": (3, 0), "coefficient": -1.0},
            {"component": 0, "exponents": (1, 1), "coefficient": 1.0},
            {"component": 1, "exponents": (2, 0), "coefficient": gamma},
        ]
        F = TruncatedMap.from_terms(2, 3, terms)
        lin = np.diag([1.0 + float(lam[0]), 0.5])
        return F + TruncatedMap.from_linear(lin, 3)

    fam = MapFamily(fn, 2, 3, nparams=1)

    def predict(lam):
        lam = float(np.atleast_1d(lam)[0])
        s = lam / (1.0 - 2.0 * gamma)
        if s <= 0:
            return np.zeros((0, 2))
        x = math.sqrt(s)
        return np.array([[x, 2 * gamma * x * x], [-x, 2 * gamma * x * x]])

    return PlantedFamily(family=fam, inst=inst, q=1, predict_points=predict)


# ---------------------------------------------------------------------------
# random groups and semisimple parts for the projection / inner-product suites

def random_group_with_characters(rng):
    """A random finite group with two distinct (hence orthogonal) plus-minus
    characters; returns (gd1, gd2) sharing elements and order."""
    kind = rng.integers(0, 3)
    if kind == 0:
        n = int(rng.integers(1, RANDOM_GROUP_MAX_DIM + 1))
        eps1 = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if np.all(eps1 == 1.0):
            eps1[0] = -1.0
        gens = [np.diag(eps1)]
        chars1, chars2 = [1.0], [-1.0]
        if n >= 2 and rng.random() < 0.5:
            # the second involution must be neither the identity nor eps1,
            # otherwise the generator characters cannot disagree on it
            while True:
                eps2 = np.where(rng.random(n) < 0.5, -1.0, 1.0)
                if not np.all(eps2 == 1.0) and not np.all(eps2 == eps1):
                    break
            gens.append(np.diag(eps2))
            chars1.append(-1.0)
            chars2.append(-1.0 if rng.random() < 0.5 else 1.0)
            if chars1 == chars2:
                chars2[0] = 1.0
    elif kind == 1:
        n = int(rng.integers(2, RANDOM_GROUP_MAX_DIM + 1))
        q = int(rng.integers(2, 5))
        R = np.eye(n)
        R[:2, :2] = rotation(2 * math.pi / q)
        refl = np.eye(n)
        refl[1, 1] = -1.0
        gens = [R, refl]
        chars1 = [1.0, -1.0]
        chars2 = [1.0, 1.0]
    else:
        n = max(2, int(rng.integers(2, RANDOM_GROUP_MAX_DIM + 1)))
        P = np.eye(n)[:, list(range(1, 2)) + [0] + list(range(2, n))]
        gens = [P, -np.eye(n)]
        chars1 = [-1.0, 1.0]
        chars2 = [1.0, -1.0]
    gd1 = GroupData.from_generators(gens, chars1)
    gd2 = GroupData.from_generators(gens, chars2)
    return gd1, gd2


def random_semisimple_instance(rng):
    """Random (S0, gd) pair satisfying g S0 g^-1 = S0^chi(g), with S0
    semisimple and not necessarily orthogonal."""
    kind = rng.integers(0, 4)
    if kind == 0:
        theta = float(rng.uniform(0.3, 2.8))
        S0 = rotation(theta)
        gd = GroupData.from_generators([np.diag([1.0, -1.0])], [-1.0])
    elif kind == 1:
        vals = rng.uniform(0.5, 2.0, size=3) * np.where(rng.random(3) < 0.5, -1, 1)
        S0 = np.diag(vals)
        gd = GroupData.from_generators([-np.eye(3)], [1.0])
    elif kind == 2:
        theta = float(rng.uniform(0.3, 2.8))
        c = float(rng.uniform(0.6, 1.6))
        Q = c * rotation(theta)
        S0 = np.block([[Q, np.zeros((2, 2))], [np.zeros((2, 2)),
                                               np.linalg.inv(Q)]])
        R = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [np.eye(2), np.zeros((2, 2))]])
        gd = GroupData.from_generators([R], [-1.0])
    else:
        theta = float(rng.uniform(0.3, 2.8))
        S0 = np.eye(3)
        S0[:2, :2] = rotation(theta)
        S0[2, 2] = -1.0
        g = np.diag([1.0, -1.0, 1.0])
        gd = GroupData.from_generators([g], [-1.0])
    return S0, gd
