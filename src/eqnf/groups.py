"""Finite matrix groups with a real one-dimensional character.

A group element g acts on maps by conjugation; the character chi (values in
{+1, -1}) marks which elements reverse the map (conjugate it to its inverse).
Groups are stored explicitly: element list, character values, the indices
of the generators and the Cayley table of right multiplication by them,
which the one breadth-first closure of the generators records.  A grading
holds on the group when it holds on the generators, and the extended group
of G and A0 is an image of G that takes G's generators and table.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadCharacter, InvariantViolation,
                     NotClosed, NotEquivariant, NotSemisimple)
from .linalg import (EIGVEC_COND_LIMIT, AdaptedInnerProduct, _clusters,
                     as_square, rank_tolerance, require_invertible)

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
    """Finite matrix group with a character chi: G -> {+1, -1}, generated by
    its elements at `generators`.  Its one structure table is the Cayley
    table of right multiplication by the generators: cayley[i, s] is the
    index of elements[i] @ elements[generators[s]]."""

    elements: list[np.ndarray]
    char: np.ndarray
    generators: np.ndarray
    cayley: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        return self.elements[0].shape[0]

    @classmethod
    def from_generators(cls, generators, gen_chars) -> "GroupData":
        """Close the generator set under multiplication (breadth-first),
        recording the Cayley table; the identity is element 0.  gen_chars
        holds one character value per generator (BadCharacter otherwise).

        A generator of infinite order (see _require_finite_order) raises
        NotClosed before the closure starts; a product with a non-finite
        entry, or more than MAX_GROUP_ORDER elements, raises it during the
        closure: the generators generate an infinite group."""
        generators = [as_square(G, "generator") for G in generators]
        n = generators[0].shape[0] if generators else None
        if n is None:
            raise ValueError("at least one generator required (use np.eye for trivial)")
        gen_chars = [float(c) for c in gen_chars]
        if len(gen_chars) != len(generators):
            raise BadCharacter(f"{len(generators)} generators but {len(gen_chars)} "
                               "character values; one per generator required")
        for G in generators:
            _require_finite_order(G)
        # the elements found so far are stack[:len(chars)]; breadth-first,
        # element i is multiplied by each generator in the order found, and
        # the indices of its products are row i of the Cayley table
        stack = np.empty((MAX_GROUP_ORDER, n, n))
        stack[0] = np.eye(n)
        chars = [1.0]
        cayley = []
        gens = list(zip(generators, gen_chars))
        while len(cayley) < len(chars):
            i, row = len(cayley), []
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
                    k = len(chars)
                    stack[k] = P
                    chars.append(pc)
                elif abs(chars[k] - pc) > 1e-9:
                    raise BadCharacter(
                        f"character value conflict at element {k}: "
                        f"{chars[k]} vs {pc}")
                row.append(k)
            cayley.append(row)
        cayley = np.array(cayley, dtype=np.intp)
        return cls(elements=[E.copy() for E in stack[:len(chars)]],
                   char=np.array(chars), generators=cayley[0].copy(),
                   cayley=cayley)


def _cayley_products(gd: GroupData) -> np.ndarray:
    """P[i, s] = elements[i] @ elements[generators[s]], one per table entry."""
    E = np.stack(gd.elements)
    return E[:, None] @ E[gd.generators][None]


def _not_multiplicative(values: np.ndarray, gd: GroupData) -> np.ndarray:
    """The (i, s) pairs of the Cayley table at which values[cayley[i, s]] !=
    values[i] values[generators[s]] (to MATCH_TOL)."""
    return np.argwhere(np.abs(values[gd.cayley] - np.outer(
        values, values[gd.generators])) > MATCH_TOL)


def validate_group(gd: GroupData) -> list[str]:
    """Return the list of violated group invariants (empty means valid).

    On each (i, s) pair of the Cayley table the product must match to
    MATCH_TOL and chi be multiplicative; the identity must be an element
    that reaches every element through the table, every generator must
    permute the elements, and chi be +-1.  Together: the elements are the
    group the generators generate, and chi is a homomorphism on it."""
    P, E = _cayley_products(gd), np.stack(gd.elements)
    defect = np.max(np.abs(P - E[gd.cayley]), axis=(2, 3))
    tol = MATCH_TOL * (1.0 + np.max(np.abs(P), axis=(2, 3)))
    bad = [f"closure fails at element {i}, generator {s}"
           for i, s in np.argwhere(defect > tol)]
    bad += [f"character not multiplicative at element {i}, generator {s}"
            for i, s in _not_multiplicative(gd.char, gd)]
    ident = _find_match(E, np.eye(gd.n), MATCH_TOL)
    if ident is None:
        bad.append("identity element missing")
    else:
        reached, frontier = np.zeros(gd.order, dtype=bool), [ident]
        while len(frontier):
            reached[frontier] = True
            frontier = np.setdiff1d(gd.cayley[frontier], np.flatnonzero(reached))
        bad += [f"element {i} is not reachable from the identity"
                for i in np.flatnonzero(~reached)]
    unpermuted = np.sort(gd.cayley, axis=0) != np.arange(gd.order)[:, None]
    bad += [f"generator {s} is not invertible: right multiplication by it "
            "does not permute the elements" for s in np.flatnonzero(unpermuted.any(0))]
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
    inverses = np.linalg.inv(np.stack(gd.elements))
    for i in range(gd.order):
        target = A if gd.char[i] > 0 else Ainv
        lhs = gd.elements[i] @ A @ inverses[i]
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


def extended_group(gd: GroupData, A0) -> GroupData:
    """The group generated by {g : chi(g)=1} and {g A0 : chi(g)=-1}: for A0 in
    GL^chi, the image of gd under the homomorphism g -> g A0^((1-chi(g))/2),
    whose element i is the image of gd's element i, with gd's generators and
    Cayley table.  The map is one-to-one unless g A0 = e for a g with
    chi(g) = -1, where tilde-chi is not defined: BadCharacter."""
    A0 = require_invertible(A0, "A0")
    if not is_chi_equivariant_linear(A0, gd):
        raise NotEquivariant("A0 is not in GL^chi for the given group")
    elements = [g @ A0 if c < 0 else g.copy() for g, c in zip(gd.elements, gd.char)]
    if _find_match(np.stack(elements)[gd.char < 0], np.eye(gd.n), MATCH_TOL) is not None:
        raise BadCharacter("g A0 = e for a g with chi(g) = -1: tilde-chi is not defined")
    return GroupData(elements=elements, char=np.ones(gd.order),
                     generators=gd.generators, cayley=gd.cayley)


def tilde_character(gd: GroupData, alpha, ext: GroupData) -> np.ndarray:
    """Push a character alpha of G to the extended group ext of G and A0.

    alpha~(h) = alpha(h) on chi=1 elements, alpha~(g A0) = alpha(g); verified
    multiplicative on ext's Cayley table, as validate_group verifies chi
    (exact for values +-1).
    """
    values = _resolve_char(gd, alpha).copy()
    bad = _not_multiplicative(values, ext)
    if bad.size:
        raise BadCharacter("tilde character not multiplicative at element {}, "
                           "generator {}".format(*bad[0]))
    return values


# ---------------------------------------------------------------------------
# adapted inner product (spectral projectors + group averaging)

def invariant_inner_product(S0, gd: GroupData) -> AdaptedInnerProduct:
    """Inner product making S0 normal, every g orthogonal, and the adjoint
    satisfy g S0* = (S0*)^chi(g) g.

    Built from one eigendecomposition S0 = V diag(mu) V^-1: the sum over the
    eigenvalue clusters c of Re P_c^H P_c, where P_c = V[:, c] V^-1[c] is the
    spectral projector of c, makes the spectral subspaces orthogonal and
    keeps the standard product inside each (on a complex pair, the
    J-symmetrized product of its real block); then averaged over the group.
    """
    S0 = require_invertible(S0, "S0")
    n = S0.shape[0]
    if not is_chi_equivariant_linear(S0, gd, tol=1e-8):
        raise NotEquivariant("S0 is not in GL^chi for the given group")
    mu, V = np.linalg.eig(S0)
    if np.linalg.cond(V) > EIGVEC_COND_LIMIT:
        raise NotSemisimple("S0 is not semisimple: its eigenvector matrix has "
                            f"condition number above {EIGVEC_COND_LIMIT:.0e}")
    Vinv = np.linalg.inv(V)
    scale = max(1.0, float(np.max(np.abs(mu))))
    G1 = np.zeros((n, n))
    for c in _clusters(mu, 1e-7 * scale):
        P = V[:, c] @ Vinv[c]
        G1 += (P.conj().T @ P).real

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
