"""Finite matrix groups, characters, projections, and adapted products."""
import math
import time

import numpy as np
import pytest
import scipy.linalg

from eqnf import groups
from eqnf.corpus import (binomial_shear_group, binomial_shear_matrix,
                         binomial_shear_map, instance_block_swap,
                         instance_nilpotent_kron, instance_rot_reflect,
                         instance_sign_z2, instance_swap2, planted_q1,
                         planted_q2, planted_q4, random_group_with_characters,
                         random_semisimple_instance, rotation)
from eqnf.errors import BadCharacter, NotClosed, NotEquivariant, NotSemisimple
from eqnf.groups import (GroupData, _resolve_char, extended_group,
                         invariant_inner_product, is_chi_equivariant_linear,
                         is_chi_equivariant_map, project_map, tilde_character,
                         validate_group)
from eqnf.polymap import TruncatedMap, conjugate_linear
from oracles import conjugator, tabulate_group


def test_from_generators_dihedral_closure():
    R = rotation(math.pi / 2)
    refl = np.diag([1.0, -1.0])
    gd = GroupData.from_generators([R, refl], [1.0, -1.0])
    assert gd.order == 8
    assert gd.n == 2
    assert validate_group(gd) == []
    # four rotations carry chi = +1, four reflections chi = -1
    assert np.sum(gd.char > 0) == 4
    # the identity is element 0, and every element's inverse is an element
    assert np.array_equal(gd.elements[0], np.eye(2))
    stack = np.stack(gd.elements)
    for E in gd.elements:
        assert groups._find_match(stack, np.linalg.inv(E), 1e-9) is not None


def test_groups_record_their_generators():
    # from_generators records the generators it was given, the identity
    # (element 0) among them, as the Cayley table's row of the identity;
    # the tabulation oracle records every element
    gens = [rotation(math.pi / 2), np.diag([1.0, -1.0]), np.eye(2)]
    gd = GroupData.from_generators(gens, [1.0, -1.0, 1.0])
    assert gd.generators.tolist() == [1, 2, 0]
    assert np.array_equal(gd.cayley[0], gd.generators)
    assert gd.cayley.shape == (gd.order, 3)
    for i, G in zip(gd.generators, gens):
        assert np.array_equal(gd.elements[i], G)
    again = tabulate_group(gd.elements, gd.char)
    assert again.generators.tolist() == list(range(gd.order))
    assert np.array_equal(again.cayley[:, gd.generators], gd.cayley)


def test_from_generators_rejects_infinite_group(monkeypatch):
    # two reflections, each of order 2, whose product is a rotation by 1 rad
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 12)
    refl = np.diag([1.0, -1.0])
    with pytest.raises(NotClosed, match="closure exceeded 12 elements"):
        GroupData.from_generators([refl, rotation(1.0) @ refl], [1.0, 1.0])


def test_from_generators_rejects_unipotent_generator():
    with pytest.raises(NotClosed, match="not diagonalizable"):
        GroupData.from_generators([np.array([[1.0, 1.0], [0.0, 1.0]])], [1.0])


def test_from_generators_rejects_overflowing_powers():
    # two involutions whose product diag(2^-16, 2^16) overflows at its 64th
    # power; inf would match the inf of the next power, so the closure stops
    # at the first non-finite product instead
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    skew = np.array([[0.0, 2.0**16], [2.0**-16, 0.0]])
    with pytest.raises(NotClosed, match="non-finite entries after 254 elements"):
        GroupData.from_generators([swap, skew], [1.0, 1.0])


@pytest.mark.parametrize("generator, message", [
    (np.array([[1.0, 1.0], [0.0, 1.0]]), "not diagonalizable"),
    (rotation(1.0), r"eigenvalue 0\.540302\+0\.841471j, no root of unity"),
    (np.diag([2.0, 1.0]), "modulus 2;"),
])
def test_from_generators_refuses_infinite_order_at_once(generator, message):
    # a generator of infinite order is refused before the closure starts;
    # the shear and the rotation each took about 4.5 s to reach the
    # 10,000-element cap before
    start = time.perf_counter()
    with pytest.raises(NotClosed, match=message):
        GroupData.from_generators([generator], [1.0])
    assert time.perf_counter() - start < 0.1


def _corpus_groups():
    groups_ = [binomial_shear_group()]
    groups_ += [make().gd for make in (
        instance_swap2, lambda: instance_rot_reflect(3),
        lambda: instance_rot_reflect(4), instance_sign_z2, instance_block_swap,
        instance_nilpotent_kron, lambda: planted_q4().inst,
        lambda: planted_q2().inst, lambda: planted_q1().inst)]
    for seed in range(40):
        groups_ += random_group_with_characters(np.random.default_rng(seed))
    for seed in range(20):
        groups_.append(random_semisimple_instance(np.random.default_rng(seed))[1])
    return groups_


def test_finite_order_check_passes_every_corpus_element():
    # every element of a finite group has finite order, generators included
    for gd in _corpus_groups():
        for E in gd.elements:
            groups._require_finite_order(E)


FINITE_ORDER_BASES = {"reflection": (np.diag([1.0, -1.0]), 2),
                      "rotation3": (rotation(2 * math.pi / 3), 3),
                      "rotation5+1": (scipy.linalg.block_diag(
                          rotation(2 * math.pi / 5), 1.0), 5)}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(FINITE_ORDER_BASES))
def test_non_orthogonal_generators_of_finite_order(name, seed):
    # P B P^-1 has B's order whatever cond(P); eig(G) is off by up to about
    # eps |G| cond(P), so the root-of-unity test allows for that error: at
    # cond(P) = 1e6 a fixed 1e-6 tolerance refused most of these generators
    B, order = FINITE_ORDER_BASES[name]
    P = conjugator(B.shape[0], 1e6, seed)
    groups._require_finite_order(P @ B @ np.linalg.inv(P))
    # at a conditioning the closure's match tolerance resolves, the
    # closure finds the order
    P = conjugator(B.shape[0], 1e2, seed)
    gd = GroupData.from_generators([P @ B @ np.linalg.inv(P)], [1.0])
    assert gd.order == order


def test_from_generators_elements_own_their_data():
    # no element is a view into the closure's working stack
    gd = GroupData.from_generators([rotation(math.pi / 2), np.diag([1.0, -1.0])],
                                   [1.0, -1.0])
    assert all(E.base is None for E in gd.elements)


def test_from_generators_rejects_inconsistent_character():
    # an order-3 generator cannot carry chi = -1: g^3 = e forces (-1)^3 = +1
    with pytest.raises(BadCharacter):
        GroupData.from_generators([rotation(2 * math.pi / 3)], [-1.0])


def test_group_work_is_linear_in_the_order(monkeypatch):
    # D_100: the closure matches each (element, generator) product once, and
    # validate_group forms each once; a tabulation takes |G|^2 of both
    gens = [rotation(math.pi / 50), np.diag([1.0, -1.0])]
    calls = {"_find_match": 0, "products": 0}
    find_match, products = groups._find_match, groups._cayley_products

    def counted_match(*args):
        calls["_find_match"] += 1
        return find_match(*args)

    def counted_products(gd):
        P = products(gd)
        calls["products"] += P.shape[0] * P.shape[1]
        return P

    monkeypatch.setattr(groups, "_find_match", counted_match)
    monkeypatch.setattr(groups, "_cayley_products", counted_products)
    gd = GroupData.from_generators(gens, [1.0, -1.0])
    assert gd.order == 200 and calls["_find_match"] == 200 * 2
    assert validate_group(gd) == [] and calls["products"] == 200 * 2


def test_tabulation_oracle_rejects_missing_products():
    R = rotation(2 * math.pi / 3)
    with pytest.raises(NotClosed):
        tabulate_group([np.eye(2), R], [1.0, 1.0])


def test_validate_group_flags_bad_character():
    # on the oracle's full table, and on the Cayley table of a generator
    R = rotation(2 * math.pi / 3)
    gd = tabulate_group([np.eye(2), R, R @ R], [1.0, -1.0, 1.0])
    bad = validate_group(gd)
    assert any("character not multiplicative" in msg for msg in bad)
    gd2 = tabulate_group([np.eye(2), R, R @ R], [1.0, 0.5, 1.0])
    assert any("not in" in msg for msg in validate_group(gd2))
    gd3 = GroupData.from_generators([R], [1.0])
    gd3.char = np.array([1.0, -1.0, 1.0])
    assert any("character not multiplicative" in msg for msg in validate_group(gd3))
    gd3.char = np.array([1.0, 0.5, 0.25])
    assert any("not in" in msg for msg in validate_group(gd3))


def _corrupted_cayley():
    gd = GroupData.from_generators([rotation(math.pi / 2), np.diag([1.0, -1.0])],
                                   [1.0, -1.0])
    gd.cayley = gd.cayley.copy()
    gd.cayley[3, 1] = gd.cayley[3, 0]
    return gd


def _unreachable():
    # {+-I, +-R} is closed under right multiplication by -I, but R and -R
    # are not reached from I
    R = rotation(math.pi / 2)
    return GroupData(elements=[np.eye(2), -np.eye(2), R, -R], char=np.ones(4),
                     generators=np.array([1]),
                     cayley=np.array([[1], [0], [3], [2]]))


def _singular_generator():
    # {I, P} for the projection P = diag(1, 0) is closed, and reached from I,
    # but P has no inverse: it sends both elements to P
    return GroupData(elements=[np.eye(2), np.diag([1.0, 0.0])], char=np.ones(2),
                     generators=np.array([1]), cayley=np.array([[1], [1]]))


@pytest.mark.parametrize("make, message", [
    (_corrupted_cayley, "closure fails at element 3, generator 1"),
    (_unreachable, "element 2 is not reachable from the identity"),
    (_singular_generator, "generator 0 is not invertible"),
], ids=["corrupted-cayley", "unreachable", "singular-generator"])
def test_validate_group_flags_a_set_that_is_not_the_generated_group(make, message):
    bad = validate_group(make())
    assert any(msg.startswith(message) for msg in bad), bad


def _project(A, gd, char="chi"):
    """project_map on the order-1 map x -> A x, as a matrix."""
    return project_map(TruncatedMap.from_linear(A, 1), gd, char).linear()


def test_project_swap_hand_oracle():
    gd = binomial_shear_group()
    s = gd.elements[1]
    rng = np.random.default_rng(10)
    A = rng.standard_normal((2, 2))
    # chi-weighted average over {e, s} with chi(s) = -1
    assert np.max(np.abs(_project(A, gd) - (A - s @ A @ s) / 2)) < 1e-14
    assert np.max(np.abs(_project(A, gd, "trivial") - (A + s @ A @ s) / 2)) < 1e-14


def test_project_idempotent_and_orthogonal_characters():
    rng = np.random.default_rng(11)
    for _ in range(10):
        gd1, gd2 = random_group_with_characters(rng)
        A = rng.standard_normal((gd1.n, gd1.n))
        P1 = _project(A, gd1)
        scale = 1.0 + np.max(np.abs(A))
        assert np.max(np.abs(_project(P1, gd1) - P1)) < 1e-12 * scale
        # distinct plus-minus characters average each other to zero
        assert np.max(np.abs(_project(P1, gd2))) < 1e-12 * scale
        assert np.max(np.abs(_project(_project(A, gd2), gd1))) < 1e-12 * scale


def test_is_chi_equivariant_linear():
    gd = binomial_shear_group()
    assert is_chi_equivariant_linear(binomial_shear_matrix(), gd)
    assert not is_chi_equivariant_linear(np.diag([2.0, 3.0]), gd)
    refl = np.diag([1.0, -1.0])
    gd_rot = GroupData.from_generators([refl], [-1.0])
    assert is_chi_equivariant_linear(rotation(0.9), gd_rot)


def _gl_chi_defect(A, gd, char="chi"):
    """Oracle: max deviation from the linear-space condition
    g A g^-1 = chi(g) A."""
    values = _resolve_char(gd, char)
    return max(float(np.max(np.abs(g @ A @ np.linalg.inv(g) - values[i] * A)))
               for i, g in enumerate(gd.elements))


def test_gl_chi_defect():
    gd = binomial_shear_group()
    N0 = np.array([[2.0, -2.0], [2.0, -2.0]])
    assert _gl_chi_defect(N0, gd) < 1e-14  # s N0 s = -N0
    assert abs(_gl_chi_defect(np.eye(2), gd) - 2.0) < 1e-14


def test_is_chi_equivariant_map():
    gd = binomial_shear_group()
    F = binomial_shear_map(order=3)
    assert is_chi_equivariant_map(F, gd)
    G = binomial_shear_map(order=3)
    G.layers[1] = G.layers[1].copy()
    G.layers[1][0, 0] += 0.1  # breaks the swap relation
    assert not is_chi_equivariant_map(G, gd)


def test_project_map_grades_coefficients(rand_map):
    rng = np.random.default_rng(12)
    gd = GroupData.from_generators([rotation(math.pi), np.diag([1.0, -1.0])],
                                   [1.0, -1.0])
    F = rand_map(rng, 2, 3)
    PF = project_map(F, gd)
    for i in range(gd.order):
        lhs = conjugate_linear(gd.elements[i], PF)
        rhs = PF * float(gd.char[i])
        assert lhs.allclose(rhs, 1e-12 * (1.0 + F.max_abs()))
    PPF = project_map(PF, gd)
    assert PPF.allclose(PF, 1e-12 * (1.0 + F.max_abs()))


def test_extended_group_swap_skeleton():
    gd = binomial_shear_group()
    A0 = binomial_shear_matrix()
    ext = extended_group(gd, A0)
    assert ext.order == gd.order
    assert np.all(ext.char == 1.0)
    assert validate_group(ext) == []
    # element i is the image of the parent's element i
    for i in range(ext.order):
        if gd.char[i] > 0:
            assert np.max(np.abs(ext.elements[i] - gd.elements[i])) < 1e-12
        else:
            assert np.max(np.abs(ext.elements[i] - gd.elements[i] @ A0)) < 1e-12
    assert np.sum(gd.char < 0) == 1
    # the reversor composed with A0 is an involution of the extended group;
    # it is the one generator, so its square is read off the Cayley table
    r = int(np.nonzero(gd.char < 0)[0][0])
    assert ext.generators.tolist() == [r]
    assert ext.cayley[r, 0] == 0
    assert np.max(np.abs(ext.elements[r] @ ext.elements[r] - np.eye(2))) < 1e-12


def test_extended_group_rejects_nonequivariant_base():
    gd = binomial_shear_group()
    with pytest.raises(NotEquivariant):
        extended_group(gd, np.diag([2.0, 3.0]))


def _extended_group_cases():
    """(gd, A0) with A0 in GL^chi: the corpus skeletons, random semisimple
    skeletons, the random groups at A0 = I, and D_100 around R(2 pi/5)."""
    cases = [(binomial_shear_group(), binomial_shear_matrix())]
    cases += [(inst.gd, inst.A0) for inst in (
        instance_swap2(), instance_rot_reflect(3), instance_rot_reflect(4),
        instance_sign_z2(), instance_block_swap(), instance_nilpotent_kron(),
        planted_q4().inst, planted_q2().inst, planted_q1().inst)]
    for seed in range(10):
        S0, gd = random_semisimple_instance(np.random.default_rng(seed))
        cases.append((gd, S0))
        cases += [(gd, np.eye(gd.n))
                  for gd in random_group_with_characters(np.random.default_rng(seed))]
    d100 = GroupData.from_generators([rotation(math.pi / 50), np.diag([1.0, -1.0])],
                                     [1.0, -1.0])
    return cases + [(d100, rotation(2 * math.pi / 5))]


def test_extended_group_table_is_a_tabulation_of_its_elements():
    # the extended group takes G's Cayley table and generators; the oracle's
    # full tabulation of its own elements agrees at the generator columns,
    # and finds the identity at index 0 (its row of the table is the
    # identity permutation)
    for gd, A0 in _extended_group_cases():
        ext = extended_group(gd, A0)
        ref = tabulate_group(ext.elements, ext.char)
        assert np.array_equal(ext.cayley, ref.cayley[:, ext.generators])
        assert np.array_equal(ref.cayley[0], np.arange(gd.order))
        assert validate_group(gd) == [] and validate_group(ext) == []
        assert ext.generators is gd.generators and ext.cayley is gd.cayley
    assert gd.order == 200


def test_tilde_character_rejects_a_non_multiplicative_character():
    R = rotation(2 * math.pi / 3)
    gd = tabulate_group([np.eye(2), R, R @ R], [1.0, -1.0, 1.0])
    ext = extended_group(gd, np.eye(2))  # I is in GL^chi for any chi
    with pytest.raises(BadCharacter, match="not multiplicative"):
        tilde_character(gd, "chi", ext)


@pytest.mark.parametrize("A0", [-np.eye(2), np.diag([1.0, -1.0])])
def test_extended_group_refuses_a_reversor_that_inverts_a0(A0):
    # A0 is a reversor of G (chi = -1) and an involution, so the reversor
    # times A0 is e: the extended group is a proper image of G, on which
    # tilde-chi would take both values at e
    gd = GroupData.from_generators([A0], [-1.0])
    assert is_chi_equivariant_linear(A0, gd)
    with pytest.raises(BadCharacter, match="tilde-chi is not defined"):
        extended_group(gd, A0)


def test_tilde_character_values():
    gd = binomial_shear_group()
    A0 = binomial_shear_matrix()
    ext = extended_group(gd, A0)
    tchi = tilde_character(gd, "chi", ext)
    assert np.max(np.abs(tchi - gd.char)) < 1e-12
    triv = tilde_character(gd, "trivial", ext)
    assert np.all(triv == 1.0)


def test_invariant_inner_product_identities():
    rng = np.random.default_rng(13)
    for _ in range(8):
        S0, gd = random_semisimple_instance(rng)
        ip = invariant_inner_product(S0, gd)
        n = S0.shape[0]
        S0s = ip.adjoint(S0)
        assert np.linalg.norm(S0 @ S0s - S0s @ S0) < 1e-10 * max(1.0, np.linalg.norm(S0) ** 2)
        S0s_inv = np.linalg.inv(S0s)
        for i in range(gd.order):
            g = gd.elements[i]
            assert np.linalg.norm(ip.adjoint(g) @ g - np.eye(n)) < 1e-10 * max(1.0, np.linalg.norm(g) ** 2)
            target = S0s if gd.char[i] > 0 else S0s_inv
            assert np.linalg.norm(g @ S0s - target @ g) < 1e-10 * max(1.0, np.linalg.norm(S0) ** 2)


def test_invariant_inner_product_nonnormal_input():
    # eigenvectors v = (1,t), w = sv are oblique, so S0 is semisimple but not
    # normal for the standard product; the adapted gram must differ from I
    t = 0.4
    V = np.array([[1.0, t], [t, 1.0]])
    S0 = V @ np.diag([2.0, 0.5]) @ np.linalg.inv(V)
    gd = binomial_shear_group()  # swap maps the 2-eigenspace to the 1/2 one
    assert is_chi_equivariant_linear(S0, gd)
    ip = invariant_inner_product(S0, gd)
    assert np.max(np.abs(ip.gram - np.eye(2))) > 1e-3
    S0s = ip.adjoint(S0)
    assert np.linalg.norm(S0 @ S0s - S0s @ S0) < 1e-9
    # the eigenvectors are orthogonal in the adapted product
    assert abs(V[:, 0] @ ip.gram @ V[:, 1]) < 1e-9


def test_invariant_inner_product_rejects_nonsemisimple():
    with pytest.raises(NotSemisimple):
        invariant_inner_product(np.array([[1.0, 1.0], [0.0, 1.0]]),
                                GroupData.from_generators([np.eye(2)], [1.0]))
