"""Finite matrix groups with a real one-dimensional character.

A group element g acts on maps by conjugation; the character chi (values in
{+1, -1}) marks which elements reverse the map (conjugate it to its inverse).
Groups are stored explicitly: element list, character values, multiplication
table, inverse table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadCharacter, DimensionMismatch, InvariantViolation,
                     NotClosed, NotEquivariant, NotSemisimple)
from .linalg import (EIGVEC_COND_LIMIT, AdaptedInnerProduct, as_square,
                     kernel_basis, rank_tolerance, require_invertible,
                     _cluster_means)

MATCH_TOL = 1e-9  # two matrices match to MATCH_TOL * (1 + max|M|)
MAX_GROUP_ORDER = 10_000
# A generator's eigenvalue mu counts as a root of unity when ||mu| - 1| is at
# most ROOT_OF_UNITY_TOL + e and, for some m <= MAX_GROUP_ORDER, the distance
# of m arg(mu) to a multiple of 2 pi is at most ROOT_OF_UNITY_TOL + m e / |mu|,
# where e = RANK_TOL_FACTOR eps |G| kappa bounds the error of eig(G) in mu,
# whose condition number is kappa.  The closure matches products to
# MATCH_TOL, so a generator it closes has |mu^m - 1| near MATCH_TOL cond(V);
# a rotation by 1 rad comes closest at m = 710, 6.0e-5 away.
ROOT_OF_UNITY_TOL = 1e-6
EQUIVARIANCE_TOL = 1e-9  # GL^chi and map equivariance tests, relative


def _find_match(stack: np.ndarray, M: np.ndarray, tol: float) -> int | None:
    """Index of the first matrix of the stack (m, n, n) that matches M."""
    scale = 1.0 + np.max(np.abs(M))
    hits = np.flatnonzero(np.max(np.abs(stack - M), axis=(1, 2)) <= tol * scale)
    return int(hits[0]) if hits.size else None


def _require_finite_order(G: np.ndarray) -> None:
    """Raise NotClosed unless G can have an order of at most MAX_GROUP_ORDER:
    an element of finite order m is diagonalizable, with m-th roots of unity
    as eigenvalues."""
    mu, V = np.linalg.eig(G)
    if np.linalg.cond(V) > EIGVEC_COND_LIMIT:
        raise NotClosed("a generator is not diagonalizable; it has infinite order")
    # eig normalizes V's columns, so |V^-1[i]| is mu_i's condition number
    err = rank_tolerance([1.0], 1) * np.linalg.norm(G) * np.linalg.norm(
        np.linalg.inv(V), axis=1)
    off = np.abs(np.abs(mu) - 1.0) > ROOT_OF_UNITY_TOL + err
    if off.any():
        raise NotClosed(f"a generator has an eigenvalue of modulus "
                        f"{abs(mu[off][0]):.6g}; it has infinite order")
    # one of each conjugate pair; a real mu on the unit circle is +-1
    upper = mu.imag > 0
    mu, err = mu[upper], err[upper] / np.abs(mu[upper])
    if not mu.size:
        return
    m = np.arange(1, MAX_GROUP_ORDER + 1)
    turns = np.outer(np.angle(mu) / (2 * np.pi), m)
    slack = 2 * np.pi * np.abs(turns - np.rint(turns)) - np.outer(err, m)
    far = np.min(slack, axis=1) > ROOT_OF_UNITY_TOL
    if far.any():
        raise NotClosed(f"a generator has the eigenvalue {mu[far][0]:.6g}, no "
                        f"root of unity of order <= {MAX_GROUP_ORDER}")


@dataclass
class GroupData:
    """Explicit finite matrix group with a character chi: G -> {+1, -1}."""

    elements: list[np.ndarray]
    char: np.ndarray
    mult_table: np.ndarray = field(repr=False)
    identity_index: int
    inverse_index: np.ndarray

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return self.elements[0].shape[0]

    def inverse(self, i: int) -> np.ndarray:
        return self.elements[self.inverse_index[i]]

    @classmethod
    def from_elements(cls, elements, char) -> "GroupData":
        elements = [as_square(E, "group element") for E in elements]
        char = np.asarray(char, dtype=float)
        if len(char) != len(elements):
            raise BadCharacter("one character value per element required")
        order = len(elements)
        n = elements[0].shape[0]
        for E in elements:
            if E.shape[0] != n:
                raise DimensionMismatch("group elements of mixed dimension")
        stack = np.stack(elements)
        table = np.empty((order, order), dtype=np.intp)
        for i in range(order):
            for j in range(order):
                k = _find_match(stack, elements[i] @ elements[j], MATCH_TOL)
                if k is None:
                    raise NotClosed(f"product of elements {i} and {j} is not in the set")
                table[i, j] = k
        ident = _find_match(stack, np.eye(n), MATCH_TOL)
        if ident is None:
            raise NotClosed("identity matrix missing from the element list")
        inv = np.full(order, -1, dtype=np.intp)
        for i in range(order):
            hits = np.nonzero(table[i] == ident)[0]
            if len(hits) == 0:
                raise NotClosed(f"element {i} has no inverse in the set")
            inv[i] = hits[0]
        return cls(elements=elements, char=char, mult_table=table,
                   identity_index=ident, inverse_index=inv)

    @classmethod
    def from_generators(cls, generators, gen_chars) -> "GroupData":
        """Close the generator set under multiplication (breadth-first).

        A generator of infinite order (see _require_finite_order) raises
        NotClosed before the closure starts; a product with a non-finite
        entry, or more than MAX_GROUP_ORDER elements, raises it during the
        closure: the generators generate an infinite group."""
        generators = [as_square(G, "generator") for G in generators]
        n = generators[0].shape[0] if generators else None
        if n is None:
            raise ValueError("at least one generator required (use np.eye for trivial)")
        for G in generators:
            _require_finite_order(G)
        # the elements found so far are stack[:len(chars)]
        stack = np.empty((MAX_GROUP_ORDER, n, n))
        stack[0] = np.eye(n)
        chars = [1.0]
        frontier = [0]
        gens = list(zip(generators, [float(c) for c in gen_chars]))
        while frontier:
            new_frontier = []
            for i in frontier:
                for G, c in gens:
                    with np.errstate(over="ignore", invalid="ignore"):
                        P = stack[i] @ G
                    pc = chars[i] * c
                    if not np.all(np.isfinite(P)):
                        raise NotClosed(f"a product of the generators has non-finite "
                                        f"entries after {len(chars)} elements; they "
                                        "generate an infinite group")
                    k = _find_match(stack[:len(chars)], P, MATCH_TOL)
                    if k is None:
                        if len(chars) == MAX_GROUP_ORDER:
                            raise NotClosed(
                                f"closure exceeded {MAX_GROUP_ORDER} elements; "
                                "generators likely generate an infinite group")
                        new_frontier.append(len(chars))
                        stack[len(chars)] = P
                        chars.append(pc)
                    elif abs(chars[k] - pc) > 1e-9:
                        raise BadCharacter(
                            f"character value conflict at element {k}: "
                            f"{chars[k]} vs {pc}")
            frontier = new_frontier
        return cls.from_elements([E.copy() for E in stack[:len(chars)]], chars)


@dataclass
class ExtendedGroupData(GroupData):
    """Group generated by {g : chi(g) = 1} and {g A0 : chi(g) = -1}.

    base_index[i] is the index in the parent group of the g that produced
    element i.
    """

    base_index: np.ndarray = None


def validate_group(gd: GroupData) -> list[str]:
    """Return the list of violated group invariants (empty means valid)."""
    bad: list[str] = []
    order = gd.order
    for i in range(order):
        for j in range(order):
            k = gd.mult_table[i, j]
            P = gd.elements[i] @ gd.elements[j]
            if np.max(np.abs(P - gd.elements[k])) > MATCH_TOL * (1.0 + np.max(np.abs(P))):
                bad.append(f"closure fails at ({i},{j})")
            if abs(gd.char[k] - gd.char[i] * gd.char[j]) > MATCH_TOL:
                bad.append(f"character not multiplicative at ({i},{j})")
    if np.max(np.abs(gd.elements[gd.identity_index] - np.eye(gd.n))) > MATCH_TOL:
        bad.append("identity element wrong")
    for i in range(order):
        if gd.mult_table[i, gd.inverse_index[i]] != gd.identity_index:
            bad.append(f"inverse table wrong at {i}")
    if np.any(np.abs(np.abs(gd.char) - 1.0) > MATCH_TOL):
        bad.append("character values not in {+1,-1}")
    return bad


def _resolve_char(gd: GroupData, char) -> np.ndarray:
    if isinstance(char, str):
        if char == "chi":
            return gd.char
        if char == "trivial":
            return np.ones(gd.order)
        raise ValueError(f"unknown character selector {char!r}")
    values = np.asarray(char, dtype=float)
    if len(values) != gd.order:
        raise BadCharacter("character array length != group order")
    return values


def is_chi_equivariant_linear(A, gd: GroupData,
                              tol: float = EQUIVARIANCE_TOL) -> bool:
    """Membership test for GL^chi: g A g^-1 = A^chi(g) for every g."""
    A = require_invertible(A, "A")
    Ainv = np.linalg.inv(A)
    scale = 1.0 + np.max(np.abs(A)) + np.max(np.abs(Ainv))
    for i in range(gd.order):
        target = A if gd.char[i] > 0 else Ainv
        lhs = gd.elements[i] @ A @ gd.inverse(i)
        if np.max(np.abs(lhs - target)) > tol * scale:
            return False
    return True


def is_chi_equivariant_map(F, gd: GroupData) -> bool:
    """Check g o F o g^-1 = F^chi(g) as truncated maps (coefficientwise)."""
    from .polymap import conjugate_linear, inverse_truncated

    Finv = None
    scale = 1.0 + F.max_abs()
    for i in range(gd.order):
        lhs = conjugate_linear(gd.elements[i], F)
        if gd.char[i] > 0:
            rhs = F
        else:
            if Finv is None:
                Finv = inverse_truncated(F)
            rhs = Finv
        if not lhs.allclose(rhs, EQUIVARIANCE_TOL * scale):
            return False
    return True


def project_map(F, gd: GroupData, char="chi"):
    """Character-weighted average of conjugated truncated maps."""
    from .polymap import conjugate_linear

    values = _resolve_char(gd, char)
    out = None
    for i in range(gd.order):
        term = conjugate_linear(gd.elements[i], F) * values[i]
        out = term if out is None else out + term
    return out * (1.0 / gd.order)


def extended_group(gd: GroupData, A0) -> ExtendedGroupData:
    """Elements {g : chi(g)=1} together with {g A0 : chi(g)=-1}, closed and
    tabulated as GroupData.from_elements does."""
    A0 = require_invertible(A0, "A0")
    if not is_chi_equivariant_linear(A0, gd):
        raise NotEquivariant("A0 is not in GL^chi for the given group")
    elements, base = [], []
    for i in range(gd.order):
        if gd.char[i] > 0:
            elements.append(gd.elements[i].copy())
        else:
            elements.append(gd.elements[i] @ A0)
        base.append(i)
    group = GroupData.from_elements(elements, np.ones(len(elements)))
    return ExtendedGroupData(**vars(group),
                             base_index=np.asarray(base, dtype=np.intp))


def tilde_character(gd: GroupData, alpha, ext: ExtendedGroupData) -> np.ndarray:
    """Push a character alpha of G to the extended group ext of G and A0.

    alpha~(h) = alpha(h) on chi=1 elements, alpha~(g A0) = alpha(g); verified
    multiplicative on the extended multiplication table.
    """
    alpha = _resolve_char(gd, alpha)
    values = alpha[ext.base_index]
    for i in range(ext.order):
        for j in range(ext.order):
            k = ext.mult_table[i, j]
            if abs(values[k] - values[i] * values[j]) > 1e-9:
                raise BadCharacter(
                    f"tilde character not multiplicative at ({i},{j})")
    return values


# ---------------------------------------------------------------------------
# adapted inner product (spectral construction + group averaging)

def invariant_inner_product(S0, gd: GroupData) -> AdaptedInnerProduct:
    """Inner product making S0 normal, every g orthogonal, and the adjoint
    satisfy g S0* = (S0*)^chi(g) g.

    Built blockwise on the real spectral decomposition of S0 (standard product
    on real eigenspaces, the J-symmetrized product on complex pairs), then
    averaged over the group.
    """
    S0 = require_invertible(S0, "S0")
    n = S0.shape[0]
    if not is_chi_equivariant_linear(S0, gd, tol=1e-8):
        raise NotEquivariant("S0 is not in GL^chi for the given group")
    eigs = np.linalg.eigvals(S0)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    means = _cluster_means(eigs, 1e-7 * scale)

    bases = []
    mats = []
    seen_conj = set()
    for mu in means:
        if abs(mu.imag) <= 1e-7 * scale:
            lam = mu.real
            B = kernel_basis(S0 - lam * np.eye(n))
            if B.shape[1] == 0:
                raise NotSemisimple(f"empty eigenspace for eigenvalue {lam}")
            bases.append(B)
            mats.append(np.eye(n))
        else:
            key = (round(mu.real, 9), round(abs(mu.imag), 9))
            if key in seen_conj:
                continue
            seen_conj.add(key)
            alpha, beta = mu.real, abs(mu.imag)
            K = (S0 - alpha * np.eye(n)) @ (S0 - alpha * np.eye(n)) + beta ** 2 * np.eye(n)
            B = kernel_basis(K)
            if B.shape[1] == 0:
                raise NotSemisimple(f"empty real block for eigenvalue pair {mu}")
            bases.append(B)
            J = (S0 - alpha * np.eye(n)) / beta
            mats.append(0.5 * (np.eye(n) + J.T @ J))
    total = int(sum(B.shape[1] for B in bases))
    if total != n:
        raise NotSemisimple(
            f"spectral blocks span dimension {total} != {n}; S0 not semisimple")

    Ball = np.hstack(bases)
    Binv = np.linalg.inv(Ball)
    G1 = np.zeros((n, n))
    offset = 0
    for B, M in zip(bases, mats):
        kb = B.shape[1]
        P = B @ Binv[offset:offset + kb, :]  # projector onto block along the others
        G1 += P.T @ M @ P
        offset += kb

    G = np.zeros((n, n))
    for i in range(gd.order):
        g = gd.elements[i]
        G += g.T @ G1 @ g
    G = (G + G.T) / 2
    G *= n / np.trace(G)
    ip = AdaptedInnerProduct(G)

    # postconditions
    S0s = ip.adjoint(S0)
    snorm = max(1.0, np.linalg.norm(S0) ** 2)
    if np.linalg.norm(S0 @ S0s - S0s @ S0) > 1e-9 * snorm:
        raise InvariantViolation("adapted product failed to make S0 normal")
    S0s_inv = np.linalg.inv(S0s)
    for i in range(gd.order):
        g = gd.elements[i]
        if np.linalg.norm(ip.adjoint(g) @ g - np.eye(n)) > 1e-9 * max(1.0, np.linalg.norm(g) ** 2):
            raise InvariantViolation("adapted product failed to make the group orthogonal")
        target = S0s if gd.char[i] > 0 else S0s_inv
        if np.linalg.norm(g @ S0s - target @ g) > 1e-9 * snorm:
            raise InvariantViolation("adapted product failed the twisted adjoint identity")
    return ip
