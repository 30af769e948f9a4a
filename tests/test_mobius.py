from fractions import Fraction

import pytest

from ratsym import mobius
from ratsym.fields import (QQ, CyclotomicField, QuadraticField, lift, root_of_unity,
                           root_of_unity_field)
from ratsym.mobius import (CapExceeded, GroupSpec, MobiusMap, group_closure,
                           identity, inversion, mobius_order, rotation, scaling,
                           standard_generators)


def test_orders():
    assert mobius_order(inversion(QQ)) == 2
    assert mobius_order(rotation(5)) == 5
    assert mobius_order(MobiusMap(QQ, 1, 1, 0, 1)) is None        # parabolic
    assert mobius_order(scaling(QQ(2)).compose(inversion(QQ))) == 2  # z -> 2/z
    assert mobius_order(identity(QQ)) == 1
    # entries with denominators, whose order does not change under scaling
    assert mobius_order(MobiusMap(QQ, 0, Fraction(1, 2), Fraction(3, 7), 0)) == 2
    assert mobius_order(MobiusMap(QQ, Fraction(1, 2), 0, 0, Fraction(-1, 3))) is None
    K = CyclotomicField(12)
    T6 = MobiusMap(K, K.from_coeffs([Fraction(1, 3), 0, 0, 0]), 0, 0,
                   K.from_coeffs([0, Fraction(1, 3), 0, 0]))
    assert mobius_order(T6) == 12
    # rotation(5) conjugated over the icosahedral quadratic layer
    _, D = standard_generators(GroupSpec("A5"))
    R = rotation(5).lift(D.field)
    assert mobius_order(D.compose(R).compose(D.inverse())) == 5
    assert mobius_order(D.compose(scaling(D.field(Fraction(2, 3)))).compose(D.inverse())) is None


def test_projective_equality_and_keys():
    T1 = MobiusMap(QQ, 2, 0, 0, 2)
    assert T1.is_identity()
    T2 = MobiusMap(QQ, 0, 3, 3, 0)
    assert T2 == inversion(QQ)
    assert hash(T2) == hash(inversion(QQ))


def test_cyclic_and_dihedral_generators():
    (g,) = standard_generators(GroupSpec("cyclic", 2))
    assert g == scaling(QQ(-1))
    gens = standard_generators(GroupSpec("dihedral", 3))
    assert mobius_order(gens[0]) == 3 and mobius_order(gens[1]) == 2


def test_exceptional_relations():
    T3, B = standard_generators(GroupSpec("A4"))
    assert mobius_order(T3) == 3
    assert mobius_order(B) == 2
    assert mobius_order(T3.compose(B)) == 3
    # the plain inversion pairs with the rotation to order two (a dihedral
    # pairing); only the displayed involution closes the tetrahedral triangle
    A = inversion(CyclotomicField(12))
    assert mobius_order(T3.compose(A)) == 2

    T4, C = standard_generators(GroupSpec("S4"))
    assert mobius_order(T4) == 4
    assert mobius_order(C) == 2
    assert mobius_order(T4.compose(C)) == 3

    T5, D = standard_generators(GroupSpec("A5"))
    assert mobius_order(T5) == 5
    assert mobius_order(D) == 2
    assert mobius_order(T5.compose(D)) == 3


def test_closures():
    assert len(group_closure([scaling(QQ(-1)), inversion(QQ)])) == 4
    sizes = {}
    for kind in ("A4", "S4", "A5"):
        closure = group_closure(standard_generators(GroupSpec(kind)))
        sizes[kind] = len(closure)
        order = GroupSpec(kind).order()
        for g in closure:
            assert order % mobius_order(g) == 0
    assert sizes == {"A4": 12, "S4": 24, "A5": 60}


def test_dihedral_closures():
    for n in range(2, 13):
        closure = group_closure(standard_generators(GroupSpec("dihedral", n)))
        assert len(closure) == 2 * n


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        group_closure([MobiusMap(QQ, 1, 1, 0, 1)], cap=50)


def test_normalizer():
    # the normaliser of a rotation group: the scalings z -> lam z and 1/z
    F4 = CyclotomicField(4)
    A_i = scaling(F4.zeta())
    assert A_i == MobiusMap(F4, F4.zeta(), 0, 0, 1)
    # scalings commute with scalings, so they normalise every rotation group
    two = scaling(QQ(2))
    r2 = rotation(2)
    assert two.compose(r2).compose(two.inverse()) == r2
    # the involution inverts rotations
    F7 = CyclotomicField(7)
    B = inversion(F7)
    T = rotation(7).lift(F7)
    assert B.compose(T).compose(B.inverse()) == scaling(F7.zeta(6))
    # A(2) o B has order 2
    assert mobius_order(scaling(QQ(2)).compose(inversion(QQ))) == 2


def test_mobius_serialization_roundtrip():
    from ratsym.jsonio import mobius_to_json, mobius_from_json
    for T in (inversion(QQ), rotation(5), standard_generators(GroupSpec("A5"))[1]):
        assert mobius_from_json(mobius_to_json(T)) == T


def test_order_bound_follows_the_field_degree():
    # phi(127) = 126 = [Q(zeta_127):Q]; a fixed cutoff of 120 missed it
    assert mobius_order(rotation(127)) == 127
    assert mobius_order(rotation(7).compose(inversion(CyclotomicField(7)))) == 2
    # infinite order over Q and over a cyclotomic field
    assert mobius_order(scaling(QQ(2))) is None
    assert mobius_order(scaling(CyclotomicField(12).zeta(1) * 2)) is None


def _order_by_composition(T):
    # the oracle: compose until T^k is scalar, up to the same cutoff
    cutoff = mobius._largest_order(2 * mobius._absolute_degree(T.field))
    acc = T
    for k in range(1, cutoff + 1):
        if acc.is_identity():
            return k
        acc = acc.compose(T)
    return None


@pytest.mark.parametrize("k", range(1, 14))
def test_order_of_conjugated_rotations_matches_composition(k):
    # h R_k h^-1 over Q(zeta_k) and over the layer with sqrt(7), which no
    # Q(zeta_k) with k < 28 contains
    F = root_of_unity_field(k)
    for K in (F, QuadraticField(F, F(7))):
        s = K.sqrt_delta() if isinstance(K, QuadraticField) else K(3)
        h = MobiusMap(K, 1, s, 1, 2)
        T = h.compose(scaling(lift(root_of_unity(k), K))).compose(h.inverse())
        assert mobius_order(T) == _order_by_composition(T) == k


def test_order_of_scalar_parabolic_and_elliptic_maps():
    QI = CyclotomicField(4)
    cases = [(MobiusMap(QQ, 2, 0, 0, 2), 1),                 # 2 I
             (MobiusMap(QQ, 1, 1, 0, 1), None),              # z -> z + 1
             (scaling((3 + 4 * QI.zeta()) / 5), None)]       # |lambda| = 1
    for T, order in cases:
        assert mobius_order(T) == _order_by_composition(T) == order
