import itertools
import random
from fractions import Fraction

import pytest
from test_poly import gauss_jordan_nullspace

from ratsym import poly, symmetry
from ratsym.fields import QQ, CyclotomicField, QuadraticField, lift
from ratsym.mobius import (GroupSpec, MobiusMap, group_closure, icosahedral_field,
                           inversion, mobius_order, rotation, standard_generators)
from ratsym.poly import Poly, nullspace, resultant
from ratsym.ratmap import conjugate, is_automorphism, make_map, maps_equal
from ratsym.symmetry import (AutSearchIncomplete, CoefficientConditionViolated,
                             CyclicFamily, DihedralFamily, NotAdmissible,
                             WitnessReport, WitnessUnavailable,
                             WitnessVerificationFailed, aut_in_normalizer,
                             build_cyclic,
                             build_dihedral,
                             classify_lemma_case, cyclic_admissible,
                             cyclic_family_from_map, dihedral_admissible,
                             lemma_witness, platonic_admissible,
                             random_cyclic_family, random_dihedral_family,
                             simple_cyclic_family, simple_dihedral_family)


def test_cyclic_admissible_examples():
    assert cyclic_admissible(7, 5) == []
    assert cyclic_admissible(2, 3) == [("C", 1)]
    assert cyclic_admissible(3, 2) == [("A", 1), ("C", 2)]
    # the accepted rotation orders never exceed d+1
    for d in range(2, 25):
        for n in range(2, 3 * d):
            if cyclic_admissible(d, n):
                assert n <= d + 1
    # order 2 occurs in every degree
    assert all(cyclic_admissible(d, 2) for d in range(2, 40))


def test_dihedral_admissible_examples():
    assert dihedral_admissible(9, 3) == []
    assert dihedral_admissible(7, 3) == [("I", 2)]
    assert dihedral_admissible(2, 3) == [("II", 1)]
    assert sorted(dihedral_admissible(5, 2)) == [("I", 2), ("II", 3)]


def test_platonic_admissible_examples():
    assert platonic_admissible(11, GroupSpec("A5"))
    assert platonic_admissible(7, GroupSpec("S4"))
    assert not platonic_admissible(4, GroupSpec("A4"))
    assert [d for d in range(2, 32) if platonic_admissible(d, GroupSpec("A5"))] == \
        [11, 19, 29, 31]


def test_icosahedral_symmetry_occurs_in_degree_29():
    # Klein's coordinates over Q(zeta_5): the rotation z -> zeta z and
    # Klein's involution generate the icosahedral group, and the symplectic
    # gradient T^perp = (-T_y, T_x) of Klein's degree-30 invariant form
    # T = x^30 + y^30 + 522 (x^25 y^5 - x^5 y^25) - 10005 (x^20 y^10 + x^10 y^20)
    # is a degree-29 map that commutes with both, so 29 (mod 30) is admissible
    F = CyclotomicField(5)
    e = F.zeta()
    S = MobiusMap(F, e, F.zero(), F.zero(), F.one())
    B = MobiusMap(F, e ** 4 - e, e ** 2 - e ** 3, e ** 2 - e ** 3, e - e ** 4)
    assert len(group_closure((S, B), 60)) == 60
    form = {30: 1, 0: 1, 25: 522, 5: -522, 20: -10005, 10: -10005}
    tx, ty = [0] * 30, [0] * 30
    for k, c in form.items():
        if k:
            tx[k - 1] += k * c
        if k < 30:
            ty[k] -= (30 - k) * c
    P, Q = Poly(F, ty), Poly(F, tx)
    assert not resultant(P, Q, 29, 29).is_zero()
    phi = make_map(P, Q)
    assert phi.degree == 29
    assert is_automorphism(phi, S) and is_automorphism(phi, B)
    assert platonic_admissible(29, GroupSpec("A5"))
    assert not platonic_admissible(21, GroupSpec("A5"))


def test_family_validation():
    with pytest.raises(CoefficientConditionViolated):
        CyclicFamily(3, 1, "A", (QQ(2), QQ(0)), (QQ(1), QQ(0)))   # a_r = 0
    with pytest.raises(CoefficientConditionViolated):
        CyclicFamily(3, 1, "B", (QQ(2), QQ(1)), (QQ(1), QQ(1)))   # b_0 != 0
    with pytest.raises(CoefficientConditionViolated):
        # common factor u+1
        CyclicFamily(3, 1, "A", (QQ(1), QQ(1)), (QQ(2), QQ(2)))


def test_build_cyclic_examples():
    phi = build_cyclic(CyclicFamily(3, 1, "A", (QQ(2), QQ(1)), (QQ(1), QQ(0))))
    assert phi.degree == 4
    assert maps_equal(phi, make_map(Poly(QQ, [0, 2, 0, 0, 1]), Poly(QQ, [1])))
    phi2 = build_cyclic(CyclicFamily(3, 1, "C", (QQ(1), QQ(0)), (QQ(0), QQ(1))))
    assert phi2.degree == 2
    assert maps_equal(phi2, make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1])))
    phi3 = build_cyclic(CyclicFamily(2, 1, "B", (QQ(1), QQ(1)), (QQ(0), QQ(1))))
    assert phi3.degree == 2
    assert maps_equal(phi3, make_map(Poly(QQ, [1, 0, 1]), Poly(QQ, [0, 1])))


def test_build_cyclic_matches_make_map():
    # a validated family shares at most the factor z between z P(z^n) and
    # Q(z^n); the reduction by a shift agrees with the gcd route
    rng = random.Random(228)
    checked = 0
    for field in (QQ, CyclotomicField(4), CyclotomicField(3), CyclotomicField(12)):
        for n, r, case, _ in itertools.product((2, 3, 4), (1, 2, 3), "ABC", range(2)):
            fam = random_cyclic_family(rng, n, r, case, field=field)
            num = fam.psi_num().inflate(n).shift(1)
            phi, ref = build_cyclic(fam), make_map(num, fam.psi_den().inflate(n))
            assert (phi.num, phi.den, phi.degree) == (ref.num, ref.den, ref.degree)
            checked += 1
    assert checked == 216


def test_degree_law_and_equivariance():
    rng = random.Random(42)
    for n in range(2, 8):
        for r in range(1, 5):
            for case, expected in (("A", n * r + 1), ("B", n * r), ("C", n * r - 1)):
                for _ in range(5):
                    fam = random_cyclic_family(rng, n, r, case)
                    phi = build_cyclic(fam)
                    assert phi.degree == expected
                    assert is_automorphism(phi, rotation(n))


@pytest.mark.parametrize("K", [QQ, CyclotomicField(4), CyclotomicField(12),
                               QuadraticField(QQ, QQ(2))], ids=repr)
def test_coprimality_by_resultant_agrees_with_gcd(K):
    # small coefficients x + u*y share a factor often enough to test both ways
    from ratsym.poly import poly_gcd
    u = K.sqrt_delta() if isinstance(K, QuadraticField) else \
        K.zeta() if isinstance(K, CyclotomicField) else K.one()
    rng = random.Random(23)
    outcomes = set()
    for _ in range(150):
        a, b = ([K(rng.randint(-1, 1)) + u * K(rng.randint(-1, 1)) for _ in range(3)]
                for _ in range(2))
        if a[2].is_zero() or b[0].is_zero():
            continue
        coprime = poly_gcd(Poly(K, a), Poly(K, b)).degree == 0
        try:
            CyclicFamily(2, 2, "A", tuple(a), tuple(b))
            accepted = True
        except CoefficientConditionViolated:
            accepted = False
        assert accepted == coprime
        outcomes.add(coprime)
    assert outcomes == {True, False}


@pytest.mark.parametrize("K", [QQ, CyclotomicField(12)], ids=repr)
def test_coprimality_is_exact_when_the_resultant_vanishes_mod_p(K):
    # Res(x, x + c) = c is nonzero, but it vanishes under the first residue
    # map of the modular kernels for c = p over Q and c = zeta - w over
    # Q(zeta_12): the family is still coprime
    n = 1 if K == QQ else 12
    p, maps, _ = poly._residue_maps(n, 0)
    c = K(p) if n == 1 else K.zeta() - K(maps[0][1])
    CyclicFamily(2, 1, "A", (K.zero(), K.one()), (c, K.one()))
    # (x + 1)(x + 2) and (x + 1)(x + 3) share a factor
    with pytest.raises(CoefficientConditionViolated):
        CyclicFamily(2, 2, "A", (K(2), K(3), K.one()), (K(3), K(4), K.one()))


def test_case_c_forces_nonzero_constant_term():
    # with b_0 = 0 the denominator is divisible by u, so coprimality forces
    # a_0 != 0; the validator must reject a_0 = 0 via the coprimality check
    with pytest.raises(CoefficientConditionViolated):
        CyclicFamily(3, 2, "C", (QQ(0), QQ(1), QQ(0)), (QQ(0), QQ(0), QQ(1)))
    rng = random.Random(1)
    for _ in range(50):
        fam = random_cyclic_family(rng, 3, 2, "C")
        assert not fam.a[0].is_zero()


def test_dihedral_build_and_symmetry():
    fam = DihedralFamily(2, 1, "I", 1, (QQ(2), QQ(1)))
    phi = build_dihedral(fam)
    assert phi.degree == 3
    assert is_automorphism(phi, rotation(2))
    assert is_automorphism(phi, inversion(QQ))
    # reciprocal identity: phi(1/z) = 1/phi(z) as reduced maps
    assert maps_equal(conjugate(phi, inversion(QQ)), phi)
    rng = random.Random(8)
    for n, r, case in [(2, 2, "I"), (3, 2, "I"), (4, 1, "II"), (5, 2, "II")]:
        for sign in (1, -1):
            f = random_dihedral_family(rng, n, r, case, sign)
            p = build_dihedral(f)
            assert is_automorphism(p, rotation(n))
            assert is_automorphism(p, inversion(QQ))


def test_lemma_witness_examples():
    w = lemma_witness(3, 4)
    assert w.group == GroupSpec("dihedral", 3)
    assert maps_equal(w.map, make_map(Poly(QQ, [0, 2, 0, 0, 1]), Poly(QQ, [1, 0, 0, 2])))
    assert {order for _, order in w.autos} == {3, 2}
    assert w.verify()

    w2 = lemma_witness(3, 2)
    assert maps_equal(w2.map, make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1])))
    assert {order for _, order in w2.autos} == {3, 2}

    w3 = lemma_witness(5, 10)
    assert w3.group == GroupSpec("cyclic", 10)
    assert w3.family.a == (QQ(1), QQ(0), QQ(1))
    assert w3.family.b == (QQ(0), QQ(0), QQ(1))
    assert w3.verify()

    with pytest.raises(NotAdmissible):
        lemma_witness(5, 7)
    with pytest.raises(NotAdmissible):
        lemma_witness(4, 5)


def test_lemma_gap_classification():
    # even inner degree: always constructible
    assert classify_lemma_case(3, 6) == "constructible"
    assert classify_lemma_case(5, 10) == "constructible"
    assert classify_lemma_case(3, 4) == "constructible"
    # odd inner degree: for p = 3 the witness is a tetrahedral normal form
    # (the degree is odd); for p >= 5 no degree-d map carries both symmetry
    # orders at all
    assert classify_lemma_case(3, 9) == "exists_via_exceptional"
    assert classify_lemma_case(3, 21) == "exists_via_exceptional"
    w = lemma_witness(3, 9)
    assert w.group == GroupSpec("A4")
    assert w.map.degree == 9 and w.verify()
    assert sorted(order for _, order in w.autos) == [2, 3]
    assert maps_equal(build_cyclic(w.family), w.map)
    for p, d in [(5, 5), (5, 15), (5, 25), (5, 35), (7, 7), (7, 21), (7, 35),
                 (11, 11), (11, 33), (13, 13), (13, 39)]:
        assert classify_lemma_case(p, d) == "provably_empty", (p, d)
        with pytest.raises(WitnessUnavailable) as info:
            lemma_witness(p, d)
        assert info.value.analysis == "provably_empty"


def _reference_tetrahedral_rows(d, sign):
    # the A4 system as the Poly products of U = t + s z and V = w + u z
    # over Q(zeta_12), kept to check the construction over Z[zeta_12]
    _, B = standard_generators(GroupSpec("A4"))
    field = B.field
    s, t, u, w = B.entries()
    c = B.compose(B).a
    r = d // 3
    unknowns = ([(True, 3 * k) for k in range(r + 1)]
                + [(False, 3 * k - 1) for k in range(1, r + 1)])
    U, V = Poly(field, (t, s)), Poly(field, (w, u))
    upow, vpow = [Poly(field, (1,))], [Poly(field, (1,))]
    for _ in range(d):
        upow.append(upow[-1] * U)
        vpow.append(vpow[-1] * V)
    zero = field.zero()
    lam = c ** ((d - 1) // 2) * sign
    cols = []
    for in_num, j in unknowns:
        sub = upow[j] * vpow[d - j]
        top = [sub[i] if in_num else zero for i in range(d + 1)]
        bottom = [zero if in_num else sub[i] for i in range(d + 1)]
        top[j] = top[j] - lam * (s if in_num else t)
        bottom[j] = bottom[j] - lam * (u if in_num else w)
        cols.append(top + bottom)
    return [[col[i] for col in cols] for i in range(2 * d + 2)]


@pytest.mark.parametrize("d", [3, 9, 15, 21])
def test_tetrahedral_system_matches_poly_products(monkeypatch, d):
    # the A4 system built over Z[zeta_12], as kernel_vector takes it, has
    # the same rows as the Poly products over the field, and the witness is
    # the first valid vector of the reference kernel (Gauss-Jordan over the
    # field)
    seen = []
    real = poly.kernel_vector

    def spy(ring, rows, ncols):
        seen.append([[ring.to_field(x, 1) for x in row] for row in rows])
        return real(ring, rows, ncols)
    monkeypatch.setattr(poly, "kernel_vector", spy)
    report = symmetry._tetrahedral_witness(d)
    refs = [_reference_tetrahedral_rows(d, sign) for sign in (1, -1)]
    assert seen and seen == refs[:len(seen)]
    field = report.family.field
    bases = (gauss_jordan_nullspace(rows, len(rows[0]), field) for rows in refs)
    expected = _first_tetrahedral_family(bases, d)
    assert report.family == expected
    assert report.map == build_cyclic(expected)


def _first_tetrahedral_family(bases, d):
    # the family of the first vector, over the kernel bases of both signs in
    # turn, with a_r != 0 that gives a valid family of exact degree d
    r = d // 3
    for basis in bases:
        for v in basis:
            if v[r].is_zero():
                continue
            field = v[r].field
            a = tuple(x / v[r] for x in v[:r + 1])
            b = (field.zero(),) + tuple(x / v[r] for x in v[r + 1:])
            try:
                family = CyclicFamily(3, r, "B", a, b)
                build_cyclic(family)
                return family
            except (CoefficientConditionViolated, symmetry.UnexpectedDegree):
                continue
    return None


@pytest.mark.parametrize("d", range(3, 46, 6))
def test_tetrahedral_family_is_the_first_valid_basis_vector(monkeypatch, d):
    # kernel_vector gives nullspace's first basis vector, or None for the
    # sign whose kernel is {0}, and the witness is the family that the first
    # valid vector of the whole basis gives.  The witness never asks for a
    # second vector: for d = 3 (mod 12) the first sign's kernel is {0} and
    # the second sign's first vector gives the witness, and for d = 9
    # (mod 12) the first sign's does
    systems = []
    real = poly.kernel_vector

    def spy(ring, rows, ncols):
        v = real(ring, rows, ncols)
        systems.append((ring, rows, ncols, v))
        return v
    monkeypatch.setattr(poly, "kernel_vector", spy)
    report = symmetry._tetrahedral_witness(d)
    monkeypatch.undo()
    assert [v is not None for *_, v in systems] == ([False, True] if d % 12 == 3 else [True])
    bases = [nullspace(ring, rows, ncols) for ring, rows, ncols, _ in systems]
    for basis, (*_, v) in zip(bases, systems):
        assert v == (basis[0] if basis else None)
    assert report.family == _first_tetrahedral_family(bases, d)


def test_lemma_witness_failed_verification_raises(monkeypatch):
    # an explicit exception, so the check survives python -O
    monkeypatch.setattr(WitnessReport, "verify", lambda self: False)
    with pytest.raises(WitnessVerificationFailed):
        lemma_witness(3, 4)
    with pytest.raises(WitnessVerificationFailed):
        lemma_witness(3, 3)


def test_lemma_emptiness_is_exhaustively_checked():
    # directly re-verify the (5, 5) emptiness from the admissibility
    # criteria: every finite symmetry type containing orders 5 and 2 fails
    d = 5
    for m in (10, 20, 30):                      # cyclic overgroups
        assert not cyclic_admissible(d, m)
    for m in (5, 10, 15, 20):                   # dihedral overgroups
        assert not dihedral_admissible(d, m)
    assert not platonic_admissible(d, GroupSpec("A5"))


def test_aut_in_normalizer_examples():
    inv2 = make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1]))
    autos = aut_in_normalizer(inv2)
    assert len(autos) == 5
    assert sorted(mobius_order(T) for T in autos) == [2, 2, 2, 3, 3]
    for T in autos:
        assert is_automorphism(inv2, T)

    phi = make_map(Poly(QQ, [0, 2, 0, 0, 1]), Poly(QQ, [1]))   # z(z^3+2)
    autos2 = aut_in_normalizer(phi)
    assert len(autos2) == 2
    assert all(mobius_order(T) == 3 for T in autos2)
    assert all(T.b.is_zero() and T.c.is_zero() for T in autos2)

    cube = make_map(Poly(QQ, [0, 0, 0, 1]), Poly(QQ, [1]))     # z^3
    autos3 = aut_in_normalizer(cube)
    assert len(autos3) == 3
    assert sorted(mobius_order(T) for T in autos3) == [2, 2, 2]
    for T in autos3:
        assert is_automorphism(cube, T)


def test_aut_in_normalizer_scaled_coset():
    # z^5 / 2 has inversion-type automorphisms with mu^4 = 4; the coset is
    # sqrt(2) times the fourth roots of unity, exactly representable
    phi = make_map(Poly(QQ, [0, 0, 0, 0, 0, 1]), Poly(QQ, [2]))
    autos = aut_in_normalizer(phi)
    invs = [T for T in autos if T.a.is_zero()]
    assert len(invs) == 4
    for T in invs:
        assert is_automorphism(phi, T)


def test_binomial_system_folds_to_one_equation():
    solve = symmetry._binomial_system
    assert solve([(4, QQ(16)), (6, QQ(64))]) == (2, QQ(4))
    assert solve([(2, QQ(4)), (3, QQ(9))]) is None
    # negative exponents: mu^-2 = 1/4 and mu^3 = 8 leave mu = 2, and a
    # lone negative exponent turns round
    assert solve([(-2, QQ(1) / 4), (3, QQ(8))]) == (1, QQ(2))
    assert solve([(-4, QQ(1) / 16)]) == (4, QQ(16))
    assert solve([(3, QQ(1)), (-6, QQ(1))]) == (3, QQ(1))
    # all exponents zero: solvable exactly when every right side is 1
    assert solve([(0, QQ(1)), (0, QQ(1))]) == (0, QQ(1))
    assert solve([(0, QQ(1)), (0, QQ(2))]) is None
    F = CyclotomicField(3)
    w = F.zeta()
    assert solve([(3, F.one()), (2, w * w)]) == (1, w)


@pytest.mark.parametrize("F", [CyclotomicField(3), CyclotomicField(4)],
                         ids=["zeta_3", "i"])
@pytest.mark.parametrize("c", [2, 4, 9])
def test_rational_gamma_in_a_cyclotomic_field(F, c):
    # z^3/c has the inversions mu/z with mu^2 = c^2, so mu = +-c in F
    # itself, never a layer F(sqrt(c^2)) with zero divisors
    cube = make_map(Poly(F, [0, 0, 0, 1]), Poly(F, [c]))
    invs = [T for T in aut_in_normalizer(cube) if T.a.is_zero()]
    assert [T.field for T in invs] == [F, F]
    assert sorted(T.b.payload for T in invs) == [F(-c).payload, F(c).payload]
    # z^5/c: mu^4 = c^2 has four roots, as over Q
    quintic = make_map(Poly(F, [0, 0, 0, 0, 0, 1]), Poly(F, [c]))
    invs = [T for T in aut_in_normalizer(quintic) if T.a.is_zero()]
    assert len(invs) == 4
    assert all(is_automorphism(quintic, T) for T in invs)


@pytest.mark.parametrize("F", [QQ, CyclotomicField(4)], ids=["QQ", "i"])
def test_family_from_map_roundtrip(F):
    # every admissible (n, case, r) with n <= 6 and r <= 3, as built and
    # conjugated by 1/z: that swaps 0 and infinity, so case B turns into
    # the transitional shape and is inverted back, while A and C stay
    rng = random.Random(5)
    offset = {"A": 1, "B": 0, "C": -1}
    shapes = [(n, case, r) for n in range(2, 7) for case in "ABC" for r in range(1, 4)
              if (case, r) in cyclic_admissible(n * r + offset[case], n)]
    assert len(shapes) == 44
    for n, case, r in shapes:
        phi = build_cyclic(random_cyclic_family(rng, n, r, case, field=F))
        fam2, U = cyclic_family_from_map(phi, n)
        assert (fam2.n, fam2.case, fam2.r, fam2.field) == (n, case, r, F)
        assert U.is_identity()
        assert maps_equal(build_cyclic(fam2), phi)
        psi = conjugate(phi, inversion(F))
        fam3, U = cyclic_family_from_map(psi, n)
        assert (fam3.case, fam3.r) == (case, r)
        assert U.is_identity() == (case != "B")
        assert maps_equal(build_cyclic(fam3), conjugate(psi, U))


def test_family_from_map_rejects_what_is_not_a_normal_form():
    # (z^3 + z + 1) / z^2 sends 0 and infinity to infinity, the shape of
    # case B for n = 3, but z^1 is not a slot of that form
    phi = make_map(Poly(QQ, [1, 1, 0, 1]), Poly(QQ, [0, 0, 1]))
    with pytest.raises(CoefficientConditionViolated):
        cyclic_family_from_map(phi, 3)
    # the degree of no case: z^3 fixes 0 and infinity, but 3 is not 4k + 1
    with pytest.raises(CoefficientConditionViolated):
        cyclic_family_from_map(make_map(Poly(QQ, [0, 0, 0, 1]), Poly(QQ, [1])), 4)
    # 1 is neither 0 nor infinity
    with pytest.raises(CoefficientConditionViolated):
        cyclic_family_from_map(make_map(Poly(QQ, [1, 0, 1]), Poly(QQ, [1, 0, 2])), 2)


def test_dihedral_cases_are_the_cyclic_rows_a_and_c():
    rename = {"A": "I", "C": "II"}
    for d in range(2, 41):
        for n in range(2, d + 2):
            cyclic = cyclic_admissible(d, n)
            assert dihedral_admissible(d, n) == [
                (rename[case], r) for case, r in cyclic if case in rename]


def test_aut_search_beyond_the_field_tower_is_incomplete():
    # (z^3 + sqrt 2)/z^2 commutes with the scalings by cube roots of unity,
    # and z^5 with those by fourth roots; no supported field holds them
    # together with Q(sqrt 2) or the icosahedral layer over Q(zeta_5)
    K = QuadraticField(QQ, QQ(2))
    phi = make_map(Poly(K, [K.sqrt_delta(), 0, 0, 1]), Poly(K, [0, 0, 1]))
    L = icosahedral_field()
    quintic = make_map(Poly(L, [0, 0, 0, 0, 0, 1]), Poly(L, [1]))
    for f in (phi, quintic):
        with pytest.raises(AutSearchIncomplete):
            aut_in_normalizer(f)
    # mu^2 = -1 needs i, which Q(sqrt 2) lacks: out of reach, not a TypeError
    assert symmetry._solve_power_equation(2, K(-1)) is None


def test_rational_gamma_on_a_quadratic_layer():
    # (z^3 + 2z)/(3z^2 + 2/3) has the inversions mu/z with mu^2 = 4/9 over
    # Q; over Q(sqrt 2) the roots +-2/3 lie in the base, so the same three
    # automorphisms are found
    K = QuadraticField(QQ, QQ(2))
    phi = make_map(Poly(K, [0, 2, 0, 1]), Poly(K, [Fraction(2, 3), 0, 3]))
    autos = aut_in_normalizer(phi)
    assert all(T.field == K and is_automorphism(phi, T) for T in autos)
    assert len(autos) == 3
    assert {(T.a, T.b) for T in autos} == {
        (K(a), K(b)) for a, b in ((-1, 0), (0, Fraction(2, 3)), (0, Fraction(-2, 3)))}
    # mu^4 = 16 has the roots +-2 and +-2i, and Q(sqrt 2) lacks i
    assert symmetry._solve_power_equation(4, K(16)) is None


def test_family_from_map_transitional_shape():
    # conjugating a case-B map by 1/z sends 0 and infinity both to 0; the
    # recovery conjugates back and records the inversion
    rng = random.Random(6)
    fam = random_cyclic_family(rng, 3, 2, "B")
    phi = conjugate(build_cyclic(fam), inversion(QQ))
    fam2, U = cyclic_family_from_map(phi, 3)
    assert fam2.case == "B" and not U.is_identity()
    assert maps_equal(build_cyclic(fam2), conjugate(phi, U))


def test_simple_families_cover_all_entries():
    for d in range(2, 16):
        for n in range(2, d + 2):
            for case, r in cyclic_admissible(d, n):
                fam = simple_cyclic_family(d, n, case)
                assert build_cyclic(fam).degree == d
            for case, r in dihedral_admissible(d, n):
                fam = simple_dihedral_family(d, n, case)
                assert build_dihedral(fam).degree == d


def test_rational_perfect_root_is_exact_on_large_inputs():
    from fractions import Fraction
    from ratsym.fields import _rational_perfect_root
    assert _rational_perfect_root(Fraction(0), 3) == 0
    big = Fraction(3 ** 700)
    assert _rational_perfect_root(big, 2) == 3 ** 350
    assert _rational_perfect_root(big, 7) == 3 ** 100
    assert _rational_perfect_root(big, 700) == 3
    assert _rational_perfect_root(big + 1, 2) is None
    assert _rational_perfect_root(Fraction(3 ** 700, 2 ** 700), 700) == Fraction(3, 2)
    assert _rational_perfect_root(Fraction(-3 ** 7), 7) == -3
    assert _rational_perfect_root(Fraction(-9), 2) is None


@pytest.mark.parametrize("n", [127, 60])
def test_square_roots_of_a_high_order_root_of_unity(n):
    # zeta_n is a root of unity of order above 24 M: its square roots are the
    # coset of a primitive 2n-th root, not sqrt(zeta_n) as a quadratic layer,
    # which over Q(zeta_127) has a square radicand (zeta^64)^2
    gamma = CyclotomicField(n).zeta()
    roots = symmetry._solve_power_equation(2, gamma)
    assert len(roots) == 2
    for mu in roots:
        assert not isinstance(mu.field, QuadraticField)
        assert mu * mu == lift(gamma, mu.field)


def _walked_order(gamma):
    """The order of gamma as a root of unity by a running product up to the
    largest s with phi(s) <= [K:Q], the search's former route."""
    from ratsym.fields import _absolute_degree
    from ratsym.mobius import _largest_order
    acc = one = gamma.field.one()
    for s in range(1, _largest_order(_absolute_degree(gamma.field)) + 1):
        acc = acc * gamma
        if acc == one:
            return s
    return None


def _unit_order_cases():
    cases = [QQ(1), QQ(-1), QQ(2), QQ(-3)]
    for n in (4, 5, 12, 127):
        F = CyclotomicField(n)
        z = F.zeta()
        cases += [z, -z, z * z, z ** 3, F.one(), -F.one(), 2 + z, z + F.zeta(n - 1)]
    K = QuadraticField(CyclotomicField(3), CyclotomicField(3)(-1))   # holds i
    cases += [K.sqrt_delta(), K.sqrt_delta() + 1, -K.one(),
              K.sqrt_delta() * lift(CyclotomicField(3).zeta(), K)]        # order 12 = 2w
    E = QuadraticField(QQ, QQ(-3))                                          # mu_6 = mu_3w
    cases += [(1 + E.sqrt_delta()) / 2, (E.sqrt_delta() - 1) / 2, E.sqrt_delta()]
    L = QuadraticField(CyclotomicField(5), CyclotomicField(5)(-3))         # mu_30 = mu_3w
    cases += [lift(CyclotomicField(5).zeta(), L) * (1 + L.sqrt_delta()) / 2]
    # 48 - 48 z + 24 z^3 = (6 - 2 sqrt(3))^2 over Q(zeta_12): F x F, whose
    # sqrt(delta) / (6 - 2 sqrt(3)) is a square root of 1 other than +-1
    F = CyclotomicField(12)
    z = F.zeta()
    S = QuadraticField(F, 48 - 48 * z + 24 * z ** 3)
    u = S.sqrt_delta() / lift(6 - 2 * (z + z ** 11), S)
    return cases + [u, u * lift(z, S), S.sqrt_delta()]


def test_root_of_unity_order_agrees_with_the_walk():
    for gamma in _unit_order_cases():
        assert symmetry._root_of_unity_order(gamma) == _walked_order(gamma), gamma


@pytest.mark.parametrize("offset", [0, 2], ids=["zeta", "2+zeta"])
def test_root_of_unity_order_over_q_zeta_127_takes_few_products(monkeypatch, offset):
    # the walk takes 462 products over Q(zeta_127); powers of divisors of
    # w = 254 by repeated squaring take at most 2 bits(w) each, and a
    # non-root needs only gamma^w
    from ratsym.fields import FieldElement
    gamma = offset + CyclotomicField(127).zeta()
    count = 0
    original = FieldElement.__mul__

    def counting(self, other):
        nonlocal count
        count += 1
        return original(self, other)
    monkeypatch.setattr(FieldElement, "__mul__", counting)
    order = symmetry._root_of_unity_order(gamma)
    monkeypatch.undo()
    assert order == (None if offset else 127)
    assert count <= (2 if offset else 8) * (254).bit_length()


@pytest.mark.parametrize("root", [False, True], ids=["sqrt+1", "-zeta"])
def test_root_of_unity_order_on_a_layer_takes_few_products(monkeypatch, root):
    # over K = Q(zeta_127)(sqrt(2 + zeta_127)) the walk takes 1,050 products;
    # every order divides W = 6 lcm(2, 127) = 1524, so a non-root needs only
    # gamma^W and -zeta_127 (order 254) powers for the 8 divisors up to 254
    from ratsym.fields import FieldElement
    F = CyclotomicField(127)
    K = QuadraticField(F, 2 + F.zeta())
    gamma = -lift(F.zeta(), K) if root else K.sqrt_delta() + 1
    count = 0
    original = FieldElement.__mul__

    def counting(self, other):
        nonlocal count
        count += self.field is K
        return original(self, other)
    monkeypatch.setattr(FieldElement, "__mul__", counting)
    order = symmetry._root_of_unity_order(gamma)
    monkeypatch.undo()
    assert order == (254 if root else None)
    assert count <= (18 if root else 2) * (1524).bit_length()


def test_square_roots_of_a_non_root_of_unity_need_one_layer():
    # 2 + zeta_127 is no root of unity: its square roots generate
    # Q(zeta_127)(sqrt(2 + zeta_127)), as before the order search changed
    gamma = 2 + CyclotomicField(127).zeta()
    roots = symmetry._solve_power_equation(2, gamma)
    assert len(roots) == 2 and roots[0] == -roots[1]
    K = roots[0].field
    assert isinstance(K, QuadraticField) and K.base == gamma.field
    assert roots[0] == K.sqrt_delta() and roots[0] * roots[0] == lift(gamma, K)
