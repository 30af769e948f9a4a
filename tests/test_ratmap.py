import random
from fractions import Fraction

import pytest

from ratsym.fields import (QQ, CyclotomicField, FieldMismatch, InexactDivision,
                           QuadraticField, common_field)
from ratsym.mobius import (MobiusMap, icosahedral_field, identity, inversion,
                           rotation, scaling)
from ratsym.poly import Poly
from ratsym.ratmap import (DegenerateMap, ProjPoint, RationalMap, compose,
                           conjugate, eval_proj, is_automorphism, make_map,
                           maps_equal)
from ratsym.symmetry import lemma_witness


def qpoly(*coeffs):
    return Poly(QQ, coeffs)


def test_make_map_examples():
    m = make_map(qpoly(1), qpoly(0, 0, 1))      # 1/z^2
    assert m.degree == 2
    m2 = make_map(qpoly(-1, 0, 1), qpoly(-1, 1))  # (z^2-1)/(z-1) -> z+1
    assert m2.degree == 1
    assert maps_equal(m2, make_map(qpoly(1, 1), qpoly(1)))
    m3 = make_map(qpoly(0, 0, 0, 1), qpoly(1))
    assert m3.degree == 3
    with pytest.raises(DegenerateMap):
        make_map(qpoly(2, 2), qpoly(1, 1))       # reduces to a constant
    with pytest.raises(DegenerateMap):
        make_map(qpoly(0), qpoly(0))


def test_make_map_rejects_a_zero_side():
    # gcd(0, z^2) = z^2, so 0/z^2 is the constant 0, not a map of degree 2
    for P, Q in ((qpoly(0), qpoly(0, 0, 1)), (qpoly(0, 0, 1), qpoly(0)),
                 (qpoly(0), qpoly(3)), (qpoly(1, 1), qpoly(0))):
        with pytest.raises(DegenerateMap):
            make_map(P, Q)


def test_canonical_scale():
    m = make_map(qpoly(0, 0, 3), qpoly(6))
    assert m.num[2] == 1 and m.den[0] == 2
    m2 = make_map(qpoly(5), qpoly(0, 0, 10))    # numerator degree drops
    assert m2.den[2] == 1


def test_eval_proj_examples():
    inv2 = make_map(qpoly(1), qpoly(0, 0, 1))
    inf = ProjPoint.infinity(QQ)
    assert eval_proj(inv2, inf) == ProjPoint.finite(QQ(0))
    assert eval_proj(inv2, ProjPoint.finite(QQ(0))).is_infinity()
    cube = make_map(qpoly(0, 0, 0, 1), qpoly(1))
    assert eval_proj(cube, inf).is_infinity()
    phi = make_map(qpoly(0, 2, 0, 0, 1), qpoly(1))   # z(z^3+2)
    assert eval_proj(phi, ProjPoint.finite(QQ(1))) == ProjPoint.finite(QQ(3))


def test_compose_examples():
    z2 = make_map(qpoly(0, 0, 1), qpoly(1))
    z3 = make_map(qpoly(0, 0, 0, 1), qpoly(1))
    assert maps_equal(compose(z2, z3), make_map(qpoly(0, 0, 0, 0, 0, 0, 1), qpoly(1)))
    invz = make_map(qpoly(1), qpoly(0, 1))
    inv2 = make_map(qpoly(1), qpoly(0, 0, 1))
    assert maps_equal(compose(invz, inv2), z2)
    zp1 = make_map(qpoly(1, 1), qpoly(1))
    assert maps_equal(compose(zp1, z2), make_map(qpoly(1, 0, 1), qpoly(1)))


def test_compose_degree_multiplicative():
    rng = random.Random(9)
    built = 0
    while built < 15:
        try:
            f = make_map(qpoly(*[rng.randint(-4, 4) for _ in range(3)]),
                         qpoly(*[rng.randint(-4, 4) for _ in range(3)]))
            g = make_map(qpoly(*[rng.randint(-4, 4) for _ in range(3)]),
                         qpoly(*[rng.randint(-4, 4) for _ in range(3)]))
        except (DegenerateMap, ZeroDivisionError):
            continue
        assert compose(f, g).degree == f.degree * g.degree
        built += 1


def test_conjugate_examples():
    z2 = make_map(qpoly(0, 0, 1), qpoly(1))
    assert maps_equal(conjugate(z2, inversion(QQ)), z2)
    inv2 = make_map(qpoly(1), qpoly(0, 0, 1))
    assert maps_equal(conjugate(inv2, rotation(3)), inv2.lift(CyclotomicField(3)))
    assert maps_equal(conjugate(inv2, identity(QQ)), inv2)


def test_conjugate_inverse_roundtrip_and_equivariance():
    rng = random.Random(3)
    done = 0
    while done < 20:
        try:
            phi = make_map(qpoly(*[rng.randint(-4, 4) for _ in range(4)]),
                           qpoly(*[rng.randint(-4, 4) for _ in range(4)]))
            T = MobiusMap(QQ, *[rng.randint(-3, 3) for _ in range(4)])
        except (DegenerateMap, ValueError):
            continue
        assert maps_equal(conjugate(conjugate(phi, T), T.inverse()), phi)
        p = ProjPoint.finite(QQ(rng.randint(-5, 5)))
        assert eval_proj(conjugate(phi, T), T.apply(p)) == T.apply(eval_proj(phi, p))
        done += 1


def test_is_automorphism_examples():
    inv2 = make_map(qpoly(1), qpoly(0, 0, 1))
    assert is_automorphism(inv2, rotation(3))
    assert is_automorphism(inv2, inversion(QQ))
    phi = make_map(qpoly(0, 1, 0, 1), qpoly(1))     # z^3 + z
    assert not is_automorphism(phi, rotation(3))


def test_automorphism_group_property():
    inv2 = make_map(qpoly(1), qpoly(0, 0, 1))
    F3 = CyclotomicField(3)
    gens = [rotation(3), inversion(F3), scaling(F3.zeta(2))]
    verified = [T for T in gens if is_automorphism(inv2, T)]
    assert len(verified) == 3
    for T in verified:
        for S in verified:
            assert is_automorphism(inv2, T.compose(S))


# --- the composition route as an oracle --------------------------------------

def mobius_as_map(T):
    """The degree-1 map (az + b)/(cz + d) of a Moebius map T."""
    return make_map(Poly(T.field, [T.b, T.a]), Poly(T.field, [T.d, T.c]))


def _oracle_conjugate(phi, T):
    """T o phi o T^{-1} by two compositions, each reduced by make_map."""
    return compose(compose(mobius_as_map(T), phi), mobius_as_map(T.inverse()))


def _agrees_with_oracle(phi, T):
    """Check conjugate and is_automorphism against the oracle; return the
    automorphism verdict."""
    expected = _oracle_conjugate(phi, T)
    got = conjugate(phi, T)
    assert (got.num, got.den, got.degree) == (expected.num, expected.den,
                                               expected.degree)
    verdict = maps_equal(expected, phi)
    assert is_automorphism(phi, T) is verdict
    return verdict


QI, Q12 = CyclotomicField(4), CyclotomicField(12)
ICOSA = icosahedral_field()


def _random_element(K, rng):
    """A small element: an integer in Q, at most two nonzero coordinates in
    the power basis of a cyclotomic field, and a + b sqrt(delta) with
    rational a, b in a quadratic layer."""
    if K == QQ:
        return K(rng.randint(-2, 2))
    def rat():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
    if not isinstance(K, CyclotomicField):
        return K.from_parts(rat(), rat())
    v = [0] * K.degree
    for i in rng.sample(range(K.degree), 2):
        v[i] = rat()
    return K.from_coeffs(v)


def _random_mobius(K, kind, rng):
    while True:
        a, b, c, d = (_random_element(K, rng) for _ in range(4))
        if kind == "diagonal":
            b = c = K.zero()
        elif kind == "antidiagonal":
            a = d = K.zero()
        try:
            return MobiusMap(K, a, b, c, d)
        except ValueError:
            continue


def _random_map(K, d, rng):
    while True:
        P, Q = (Poly(K, [_random_element(K, rng) for _ in range(d + 1)])
                for _ in range(2))
        if P.is_zero() or Q.is_zero():
            continue                    # a constant map, not a degree-d one
        try:
            return make_map(P, Q)
        except DegenerateMap:
            continue


@pytest.mark.parametrize("K", [QQ, QI, Q12, ICOSA], ids=["Q", "Qi", "Qz12", "icosa"])
@pytest.mark.parametrize("kind", ["diagonal", "antidiagonal", "general"])
def test_conjugate_and_automorphism_match_composition_route(K, kind):
    rng = random.Random(f"{K!r}/{kind}")
    count = 12 if K == ICOSA else 20
    for _ in range(count):
        phi = _random_map(K, rng.randint(1, 4 if K == ICOSA else 6), rng)
        _agrees_with_oracle(phi, _random_mobius(K, kind, rng))


@pytest.mark.parametrize("K", [QQ, QI, Q12, ICOSA], ids=["Q", "Qi", "Qz12", "icosa"])
@pytest.mark.parametrize("kind", ["diagonal", "antidiagonal", "general"])
def test_conjugated_witnesses_keep_their_automorphisms(K, kind):
    """True cases: conjugating a verified witness (phi, S) by any T gives a
    map with automorphism T S T^{-1}; adding 1 to its numerator changes the
    verdict only as the oracle says.  The icosahedral layer holds the
    fifth roots of unity but not the third."""
    rng = random.Random(7)
    pairs = [(5, 6)] if K == ICOSA else [(3, 4)]
    if K == Q12 and kind == "diagonal":
        pairs.append((3, 9))            # a tetrahedral witness
    for p, d in pairs:
        w = lemma_witness(p, d)
        T = _random_mobius(K, kind, rng)
        phi = _oracle_conjugate(w.map, T)
        for S, order in w.autos:
            S2 = T.compose(S).compose(T.inverse())
            assert _agrees_with_oracle(phi, S2)
            if order == 2:
                _agrees_with_oracle(make_map(phi.num + 1, phi.den), S2)


def test_perturbed_witness_rejected():
    w = lemma_witness(3, 9)
    S = next(T for T, order in w.autos if order == 2)
    assert is_automorphism(w.map, S)
    bad = make_map(w.map.num + 1, w.map.den)
    assert not is_automorphism(bad, S)
    assert not maps_equal(_oracle_conjugate(bad, S), bad)


def test_degree_drops_raise_not_assert():
    # RationalMap's constructor is internal; this pair breaks its invariants.
    # A pair of degree 2 that claims degree 3: conjugators fixing infinity
    # leave both degree-3 coefficients zero
    overstated = RationalMap(QQ, qpoly(0, 0, 1), qpoly(1), 3)
    for T in (scaling(QQ(2)), MobiusMap(QQ, 1, 1, 0, 2)):
        with pytest.raises(DegenerateMap):
            conjugate(overstated, T)


# --- compose and maps_equal against the Poly routes they replaced ------------

def _subst_homogeneous(f, d, U, V):
    """sum_k f_k U^k V^(d-k) for f of formal degree d, by Poly products."""
    field = f.field
    upow = [Poly(field, (field.one(),))]
    vpow = [Poly(field, (field.one(),))]
    for _ in range(d):
        upow.append(upow[-1] * U)
        vpow.append(vpow[-1] * V)
    out = Poly.zero(field)
    for k in range(d + 1):
        if not f[k].is_zero():
            out = out + (upow[k] * vpow[d - k]) * f[k]
    return out


def _reference_compose(phi, psi):
    """phi o psi by Poly products, reduced by make_map's gcd."""
    if phi.field != psi.field:
        k = common_field(phi.field, psi.field)
        phi, psi = phi.lift(k), psi.lift(k)
    N = _subst_homogeneous(phi.num, phi.degree, psi.num, psi.den)
    D = _subst_homogeneous(phi.den, phi.degree, psi.num, psi.den)
    result = make_map(N, D)
    if result.degree != phi.degree * psi.degree:
        raise DegenerateMap("composition degree drop")
    return result


def _reference_maps_equal(phi, psi):
    """Equal degrees and P Q' = P' Q by Poly cross multiplication."""
    if phi.field != psi.field:
        k = common_field(phi.field, psi.field)
        phi, psi = phi.lift(k), psi.lift(k)
    return phi.degree == psi.degree and phi.num * psi.den == psi.num * phi.den


# 48 - 48 z + 24 z^3 = (6 - 2 sqrt(3))^2 over Q(zeta_12): a square radicand
SQUARE_LAYER = QuadraticField(Q12, Q12.from_coeffs([48, -48, 0, 24]))
Q5 = CyclotomicField(5)
MAP_FIELDS = [QQ, Q5, Q12, ICOSA, SQUARE_LAYER]
MAP_IDS = ["Q", "Qz5", "Qz12", "icosa", "square"]


def _random_layer_map(K, d, rng):
    """A reduced map of degree at most d; over a quadratic layer its
    coefficients are a + b sqrt(delta) with a, b drawn over the base."""
    if not isinstance(K, QuadraticField):
        return _random_map(K, d, rng)
    while True:
        P, Q = (Poly(K, [K.from_parts(_random_element(K.base, rng),
                                      _random_element(K.base, rng))
                         for _ in range(d + 1)]) for _ in range(2))
        try:
            return make_map(P, Q)
        except (DegenerateMap, InexactDivision, ZeroDivisionError):
            continue


def _one_coefficient_changed(phi, rng):
    """phi with 1 added to one coefficient of its numerator or denominator,
    reduced again, or None if that leaves no map."""
    k = rng.randrange(phi.degree + 1)
    bump = Poly(phi.field, [0] * k + [1])
    P, Q = (phi.num + bump, phi.den) if rng.random() < 0.5 else (phi.num, phi.den + bump)
    try:
        return make_map(P, Q)
    except (DegenerateMap, InexactDivision, ZeroDivisionError):
        return None


@pytest.mark.parametrize("K", MAP_FIELDS, ids=MAP_IDS)
def test_compose_matches_the_poly_route(K):
    rng = random.Random(f"compose/{K!r}")
    small = isinstance(K, QuadraticField)
    for _ in range(6 if small else 12):
        phi = _random_layer_map(K, rng.randint(1, 2 if small else 4), rng)
        psi = _random_layer_map(K, rng.randint(1, 2 if small else 3), rng)
        got, expected = compose(phi, psi), _reference_compose(phi, psi)
        assert (got.num, got.den, got.degree) == (expected.num, expected.den,
                                                   expected.degree)
    # over a subfield on either side
    phi = _random_map(QQ, 3, rng)
    psi = _random_layer_map(K, 2, rng)
    for pair in ((phi, psi), (psi, phi)):
        got, expected = compose(*pair), _reference_compose(*pair)
        assert (got.num, got.den) == (expected.num, expected.den)


@pytest.mark.parametrize("K", MAP_FIELDS, ids=MAP_IDS)
def test_maps_equal_matches_the_poly_route(K):
    rng = random.Random(f"equal/{K!r}")
    small = isinstance(K, QuadraticField)
    seen = set()
    for _ in range(8 if small else 16):
        phi = _random_layer_map(K, rng.randint(1, 3 if small else 6), rng)
        psi = _random_layer_map(K, phi.degree, rng)
        changed = _one_coefficient_changed(phi, rng)
        s = _random_element(K, rng)
        while s.is_zero():
            s = _random_element(K, rng)
        # the same map as an unscaled pair over the field
        scaled = RationalMap(K, phi.num * s, phi.den * s, phi.degree)
        for other in (psi, changed, scaled, phi):
            if other is None:
                continue
            verdict = maps_equal(phi, other)
            assert verdict is _reference_maps_equal(phi, other)
            assert maps_equal(other, phi) is verdict
            seen.add(verdict)
    assert seen == {True, False}
    # a map over Q against its lift
    phi = _random_map(QQ, 3, rng)
    assert maps_equal(phi, phi.lift(K)) and maps_equal(phi.lift(K), phi)


def test_maps_equal_over_unrelated_fields_raises():
    phi = _random_map(ICOSA, 2, random.Random(1))
    psi = _random_map(CyclotomicField(3), 2, random.Random(2))
    with pytest.raises(FieldMismatch):
        maps_equal(phi, psi)
    with pytest.raises(FieldMismatch):
        _reference_maps_equal(phi, psi)
    # found before the degrees are compared
    with pytest.raises(FieldMismatch):
        maps_equal(phi, _random_map(CyclotomicField(3), 3, random.Random(3)))


def test_maps_equal_takes_a_slot_width_that_bounds_both_products(monkeypatch):
    # _slot_width promises h(y) < 2^(S-2) for each product y, which makes
    # evaluation at 2^S injective on their difference; A z against 1/(B z)
    # nearly attains the bound H H', since P Q' = A B z^2
    from ratsym import ratmap
    from ratsym.fields import _integral_ring
    from ratsym.poly import _coordinate_height, _ring_mul
    widths = []
    pack = ratmap._pack
    monkeypatch.setattr(ratmap, "_pack",
                        lambda ring, f, S: widths.append(S) or pack(ring, f, S))
    A = B = 2 ** 20
    pairs = [(make_map(qpoly(0, A), qpoly(1)), make_map(qpoly(1), qpoly(0, B)))]
    for K in MAP_FIELDS:
        rng = random.Random(f"width/{K!r}")
        found = 0
        while found < 3:
            phi, psi = (_random_layer_map(K, 3, rng) for _ in range(2))
            if phi.degree == psi.degree:
                pairs += [(phi, psi), (phi, phi)]
                found += 1
    for phi, psi in pairs:
        widths.clear()
        maps_equal(phi, psi)
        (S,) = set(widths)
        ring = _integral_ring(phi.field)
        (P, Q), (P2, Q2) = ratmap._cleared_map(ring, phi), ratmap._cleared_map(ring, psi)
        for y in (_ring_mul(ring, P, Q2), _ring_mul(ring, P2, Q)):
            assert sum(_coordinate_height(ring, c) for c in y) < 2 ** (S - 2)


@pytest.mark.parametrize("s", [1, 2, 3, 8, 30, 62])
def test_maps_equal_is_not_fooled_by_a_root_at_a_power_of_two(s):
    # z Q' - P' Q = 2 (z - 2^s) for z against 2^(s+1) - z: the products
    # agree at X = 2^s, so the slot width must exceed s
    z = make_map(qpoly(0, 1), qpoly(1))
    assert not maps_equal(z, make_map(qpoly(2 ** (s + 1), -1), qpoly(1)))


@pytest.mark.parametrize("p, d", [(3, 4), (5, 10), (3, 9)])
def test_validating_a_witness_clears_each_map_once(monkeypatch, p, d):
    # the witness checks of `ratsym validate` on a parsed certificate: its
    # map is cleared once for both automorphisms and the comparison with
    # the map its family rebuilds, which is cleared once too
    import json
    from ratsym import fields
    from ratsym.jsonio import canon_dumps, witness_from_json, witness_to_json
    from ratsym.symmetry import build_cyclic
    report = witness_from_json(json.loads(canon_dumps(witness_to_json(lemma_witness(p, d)))))
    phi = report.map
    coeffs = [f[k] for f in (phi.num, phi.den) for k in range(d + 1)]
    ring = fields._integral_ring(phi.field)
    seen = []
    clear = ring.clear
    monkeypatch.setattr(ring, "clear", lambda elems: seen.append(list(elems)) or clear(elems))
    assert report.verify()
    assert maps_equal(build_cyclic(report.family), phi)
    assert seen.count(coeffs) == 2


SQUARE_ROOT_2 = QuadraticField(QQ, QQ(2))
SCALE_FIELDS = [QQ, QI, Q5, SQUARE_ROOT_2]


def _scale_factor(K):
    """A nonzero element of K with a nonrational part where K has one."""
    if K == QQ:
        return K(Fraction(3, 2))
    if K == SQUARE_ROOT_2:
        return K.one() + K.sqrt_delta()
    return K.zeta() + 2


def _dense_scaled(N, D, d):
    """The reference scaling: every coefficient, zeros included, times the
    inverse of the degree-d coefficient of N, or of D when N drops."""
    scale = N[d] if not N[d].is_zero() else D[d]
    inv = scale.inv()
    return [[c.payload for c in Poly(f.field, [c * inv for c in f.coeffs]).coeffs]
            for f in (N, D)]


def _payloads(phi):
    return [[c.payload for c in f.coeffs] for f in (phi.num, phi.den)]


@pytest.mark.parametrize("K", SCALE_FIELDS, ids=["Q", "Qi", "Qz5", "sqrt2"])
def test_scaling_matches_a_dense_reference(K):
    from ratsym.ratmap import _scaled
    from ratsym.symmetry import CyclicFamily, build_cyclic, random_cyclic_family
    rng = random.Random(f"scaled/{K!r}")
    s = _scale_factor(K)
    for n, r, case in ((2, 2, "A"), (3, 1, "B"), (3, 2, "C"), (5, 2, "A")):
        fam = random_cyclic_family(rng, n, r, case, field=K)
        fam = CyclicFamily(n, r, case, tuple(c * s for c in fam.a), fam.b)
        # z P(z^n) over Q(z^n), divided by z when b_0 = 0
        N = [K.zero()] * (n * r + 2)
        D = [K.zero()] * (n * r + 1)
        for k in range(r + 1):
            N[n * k + 1], D[n * k] = fam.a[k], fam.b[k]
        if fam.b[0].is_zero():
            N, D = N[1:], D[1:]
        N, D, d = Poly(K, N), Poly(K, D), fam.degree
        expected = _dense_scaled(N, D, d)
        assert _payloads(build_cyclic(fam)) == expected
        assert _payloads(make_map(N, D)) == expected
        assert _payloads(_scaled(N, D, d)) == expected
        # a pair already scaled comes back with the same coefficients
        phi = _scaled(N, D, d)
        assert _payloads(_scaled(phi.num, phi.den, d)) == expected
        assert _payloads(make_map(phi.num * s, phi.den * s)) == expected
