"""Differential tests of the map layer's Kronecker substitution.

``is_automorphism`` and ``conjugate`` evaluate every substitution at one
integer point X = 2^S and read coefficients off signed digits; the
references here substitute the linear forms as polynomials in w by Horner's
rule with ``_ring_mul``, the routine the map layer used before.  The rings
are Z, Z[zeta_n] for n in {3, 4, 5, 12} and the icosahedral quadratic
layer over Z[zeta_5].  The inputs are true automorphisms (the witnesses'
and the standard generators') and copies of the maps with one coordinate
changed, on which both routes and a composition must agree.  The
tetrahedral columns U^j V^(d-j) are checked against products of powers,
and the sparse ``_homogeneous_at`` and ``_pack`` against the dense loops of
``test_sparse_kernel`` on random lists with many zeros.  Skips when
hypothesis is absent.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_ratmap import mobius_as_map  # noqa: E402
from test_sparse_kernel import _dense_at, _dense_pack  # noqa: E402

from ratsym.fields import (QQ, CyclotomicField, FieldElement,  # noqa: E402
                           QuadraticField, _integral_ring)
from ratsym.mobius import GroupSpec, MobiusMap, standard_generators  # noqa: E402
from ratsym.poly import (Poly, _coordinate_height, _pack,  # noqa: E402
                         _product_constant, _ring_mul)
from ratsym.ratmap import (DegenerateMap, RationalMap, _homogeneous_at,  # noqa: E402
                           _integral_data, _power_products, _scaled, compose, conjugate,
                           is_automorphism, make_map, maps_equal)
from ratsym.symmetry import (build_cyclic, lemma_witness,  # noqa: E402
                             random_cyclic_family)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --- the polynomial routine, as the reference --------------------------------

def _substitute(ring, fs: list, U: list, V: list) -> list:
    """sum_k f_k U^k V^(d-k) for each coefficient list f in fs, all of
    formal degree d, as polynomials in w: Horner in U over the shared
    powers of V."""
    d = len(fs[0]) - 1
    vpows = [[ring.one]]
    for _ in range(d):
        vpows.append(_ring_mul(ring, vpows[-1], V))
    out = []
    for f in fs:
        acc = [f[d]]
        for k in range(d - 1, -1, -1):
            acc = _ring_mul(ring, acc, U)
            acc = [ring.add(x, ring.mul(f[k], v)) for x, v in zip(acc, vpows[d - k])]
        out.append(acc)
    return out


def _pencil(ring, s, f: list, t, g: list) -> list:
    return [ring.add(ring.mul(s, x), ring.mul(t, y)) for x, y in zip(f, g)]


def reference_is_automorphism(phi: RationalMap, T: MobiusMap) -> bool:
    _, ring, P, Q, _, (a, b, c, e) = _integral_data(phi, T)
    A, B = _substitute(ring, [P, Q], [b, a], [e, c])
    return _ring_mul(ring, A, _pencil(ring, c, P, e, Q)) == \
        _ring_mul(ring, B, _pencil(ring, a, P, b, Q))


def reference_conjugate(phi: RationalMap, T: MobiusMap) -> RationalMap:
    field, ring, P, Q, _, (a, b, c, e) = _integral_data(phi, T)
    zero = ring.zero
    N, D = _substitute(ring, [P, Q], [ring.sub(zero, b), e], [a, ring.sub(zero, c)])
    N, D = _pencil(ring, a, N, b, D), _pencil(ring, c, N, e, D)
    return _scaled(Poly(field, [ring.to_field(x, 1) for x in N]),
                   Poly(field, [ring.to_field(x, 1) for x in D]), phi.degree)


def commutes_by_composition(phi: RationalMap, T: MobiusMap) -> bool:
    return maps_equal(compose(phi, mobius_as_map(T)), compose(mobius_as_map(T), phi))


# --- true automorphisms over each ring ---------------------------------------

def _cyclic4_witness():
    """A map with the rotation z -> iz, over Z[zeta_4]."""
    fam = random_cyclic_family(random.Random(4), 4, 1, "A", QQ)
    (T,) = standard_generators(GroupSpec("cyclic", 4))
    return build_cyclic(fam), T


def _icosahedral_pairs():
    """A witness and its automorphisms conjugated by the icosahedral
    involution, over the quadratic layer Q(zeta_5)(sqrt(3 + z^2 + z^3))."""
    _, D = standard_generators(GroupSpec("A5"))
    w = lemma_witness(5, 4)
    phi = reference_conjugate(w.map.lift(D.field), D)
    return [(phi, D.compose(S).compose(D.inverse())) for S, _ in w.autos]


def _pairs() -> list[tuple[RationalMap, MobiusMap]]:
    pairs = []
    for p, d in ((3, 4), (3, 5), (5, 4), (5, 6), (3, 9)):
        w = lemma_witness(p, d)
        pairs += [(w.map, T) for T, _ in w.autos]
    pairs.append(_cyclic4_witness())
    pairs += _icosahedral_pairs()
    return pairs


PAIRS = _pairs()
PAIR_IDS = [f"{T.field!r}-d{phi.degree}" for phi, T in PAIRS]


def test_the_pairs_cover_every_ring():
    rings = {repr(T.field) for _, T in PAIRS}
    assert {"QQ", "QQ(zeta_3)", "QQ(zeta_4)", "QQ(zeta_5)", "QQ(zeta_12)"} <= rings
    assert any(isinstance(T.field, QuadraticField) for _, T in PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_true_automorphisms_are_accepted(pair):
    phi, T = pair
    assert is_automorphism(phi, T)
    assert reference_is_automorphism(phi, T)


def _changed(x: FieldElement, i: int, delta: int) -> FieldElement:
    """x with its i-th power-basis coordinate (in the order of the nested
    payload) moved by delta."""
    field = x.field
    if isinstance(field, QuadraticField):
        a, b = x.payload
        m = 1 if field.base == QQ else field.base.degree
        if i < m:
            return field.from_parts(_changed(a, i, delta), b)
        return field.from_parts(a, _changed(b, i - m, delta))
    if field == QQ:
        return QQ(x.payload + delta)
    coords = list(x.payload)
    coords[i % len(coords)] += delta
    return field.from_coeffs(coords)


def _coordinates(field) -> int:
    if isinstance(field, QuadraticField):
        return 2 * _coordinates(field.base)
    return 1 if field == QQ else field.degree


def _with_changed_coordinate(phi: RationalMap, side: str, k: int, i: int,
                             delta) -> RationalMap:
    """phi with coordinate i of the z^k coefficient of its numerator or
    denominator moved by delta; DegenerateMap if that leaves no map."""
    P, Q = list(phi.num.coeffs), list(phi.den.coeffs)
    for f in (P, Q):
        f += [phi.field.zero()] * (phi.degree + 1 - len(f))
    f = P if side == "num" else Q
    f[k] = _changed(f[k], i, delta)
    return make_map(Poly(phi.field, P), Poly(phi.field, Q))


@st.composite
def changed_pairs(draw):
    phi, T = draw(st.sampled_from(PAIRS))
    side = draw(st.sampled_from(["num", "den"]))
    k = draw(st.integers(0, phi.degree))
    i = draw(st.integers(0, _coordinates(phi.field) - 1))
    delta = draw(st.sampled_from([-2, -1, 1, 3, Fraction(1, 2)]))
    try:
        return _with_changed_coordinate(phi, side, k, i, delta), T
    except DegenerateMap:
        hypothesis.assume(False)


@SETTINGS
@given(changed_pairs())
def test_changed_maps_agree_with_the_reference(pair):
    # a changed coordinate breaks the symmetry unless the new term keeps
    # it; the Kronecker route, the polynomial route and a composition agree
    bad, T = pair
    got = is_automorphism(bad, T)
    assert got is reference_is_automorphism(bad, T)
    assert got is commutes_by_composition(bad, T)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_changed_copies_are_rejected(pair):
    # a change inside the support the symmetry allows keeps it; every other
    # change must be rejected, and some change of each map is
    phi, T = pair
    rejected = 0
    for side in ("num", "den"):
        for k in range(phi.degree + 1):
            bad = _with_changed_coordinate(phi, side, k, 0, 7)
            got = is_automorphism(bad, T)
            assert got is reference_is_automorphism(bad, T)
            assert got is commutes_by_composition(bad, T)
            rejected += not got
    assert rejected > 0


def _conjugators(field):
    """Small invertible Moebius maps over a field, with denominators."""
    one = field.one()
    half = field(Fraction(1, 2))
    return st.tuples(*[st.sampled_from([field.zero(), one, -one, half, one + one])] * 4) \
        .filter(lambda e: not (e[0] * e[3] - e[1] * e[2]).is_zero()) \
        .map(lambda e: MobiusMap(field, *e))


@SETTINGS
@given(st.one_of(changed_pairs(), st.sampled_from(PAIRS)).flatmap(
    lambda pair: st.tuples(st.just(pair[0]), st.one_of(
        st.just(pair[1]), _conjugators(pair[1].field)))))
def test_conjugate_matches_the_reference(pair):
    phi, T = pair
    got, expected = conjugate(phi, T), reference_conjugate(phi, T)
    assert (got.field, got.num, got.den, got.degree) == \
        (expected.field, expected.num, expected.den, expected.degree)


# --- tetrahedral columns -----------------------------------------------------

def _products_of_powers(ring, U: list, V: list, d: int, js) -> list[list]:
    upow, vpow = [[ring.one]], [[ring.one]]
    for _ in range(d):
        upow.append(_ring_mul(ring, upow[-1], U))
        vpow.append(_ring_mul(ring, vpow[-1], V))
    return [_ring_mul(ring, upow[j], vpow[d - j]) for j in js]


@pytest.mark.parametrize("d", [9, 15])
def test_tetrahedral_columns_are_products_of_powers(d):
    _, B = standard_generators(GroupSpec("A4"))
    ring = _integral_ring(B.field)
    _, (s, t, u, w) = ring.clear(B.entries())
    js = list(range(d + 1))
    assert _power_products(ring, [t, s], [w, u], d, js) == \
        _products_of_powers(ring, [t, s], [w, u], d, js)


K12 = CyclotomicField(12)
RINGS = [_integral_ring(K) for K in
         (QQ, CyclotomicField(3), CyclotomicField(4), CyclotomicField(5), K12,
          standard_generators(GroupSpec("A5"))[0].field,
          QuadraticField(QQ, QQ(-3)), QuadraticField(K12, K12.from_coeffs([48, -48, 0, 24])))]


def _ring_element(ring, draw):
    coord = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
    if ring.base is None:
        return draw(coord)
    if hasattr(ring, "D"):
        return (_ring_element(ring.base, draw), _ring_element(ring.base, draw))
    return tuple(draw(st.lists(coord, min_size=ring.m, max_size=ring.m)))


@SETTINGS
@given(st.sampled_from(RINGS), st.integers(1, 7), st.data())
def test_power_products_match_ring_products(ring, d, data):
    U, V = ([_ring_element(ring, data.draw), _ring_element(ring, data.draw)]
            for _ in range(2))
    js = list(range(d + 1))
    assert _power_products(ring, U, V, d, js) == _products_of_powers(ring, U, V, d, js)


@SETTINGS
@given(st.sampled_from(RINGS), st.integers(1, 6), st.integers(1, 3), st.data())
def test_product_constant_bounds_sums_of_products(ring, k, terms, data):
    # h(sum_t prod_i x_(t,i)) <= C sum_t prod_i h(x_(t,i)) for at most k
    # factors per product, with one reduction for the whole sum; a factor
    # may be a conjugate of x_(t,i) (sigma_u over Z[zeta_n], sqrt(D) ->
    # -sqrt(D) over a layer), which still counts at h(x_(t,i)), as the
    # norm's slot width assumes
    h = lambda x: _coordinate_height(ring, x)  # noqa: E731
    total, bound = ring.zero, 0
    for _ in range(terms):
        xs = [_ring_element(ring, data.draw) for _ in range(data.draw(st.integers(1, k)))]
        prod, hs = ring.one, 1
        for x in xs:
            images = [x] if ring.base is None else [x, *ring.conjugates(x)]
            prod, hs = ring.mul(prod, data.draw(st.sampled_from(images))), hs * h(x)
        total, bound = ring.add(total, prod), bound + hs
    assert h(total) <= _product_constant(ring, k) * bound


# --- the sparse kernel against a dense Horner --------------------------------

@SETTINGS
@given(st.sampled_from(RINGS), st.integers(0, 30), st.integers(1, 3),
       st.integers(1, 90), st.data())
def test_sparse_kernel_matches_dense_horner(ring, d, count, S, data):
    # half the coefficients zero, so the gaps between nonzero exponents vary
    coeff = lambda: ring.zero if data.draw(st.booleans()) \
        else _ring_element(ring, data.draw)  # noqa: E731
    fs = [[coeff() for _ in range(d + 1)] for _ in range(count)]
    u, v = _ring_element(ring, data.draw), _ring_element(ring, data.draw)
    assert _homogeneous_at(ring, fs, u, v) == [_dense_at(ring, f, u, v) for f in fs]
    assert [_pack(ring, f, S) for f in fs] == [_dense_pack(ring, f, S) for f in fs]
