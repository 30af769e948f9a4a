"""Differential tests of the integer certification kernel against sympy.

The gcd over Z and the square-free parts it gives are compared with
sympy's ``gcd`` and ``sqf_part`` on products with contents and leading
coefficients that the modular gcd must skip a prime for, and the gcd over
Q(zeta_n) with sympy's over QQ<zeta_n> and with Euclid.  The Sylvester
resultants are compared with sympy's over Q, Q(i) and Q(zeta_n) at formal
degrees above the actual ones, the segment obstruction polynomials with
sympy's resultant over Q and Q(i), the modular pencil resultant with
sympy's resultant over Q[zeta_n][t], also on pencils lifted from a
subfield, where each distinct residue image is reduced once (counted by
patching the kernels modulo p), the square-free norms over every kind
of supported field with ``sqf_part`` of sympy's resultants
against the minimal polynomials of zeta_n and sqrt(delta), and the
real-root count (:func:`sturm_roots_in_interval`) with sympy's
``count_roots``.  At the map layer, :func:`conjugate` and
:func:`is_automorphism` are compared with the route through two reduced
compositions, and the inversions that :func:`aut_in_normalizer` finds are
counted against the nonzero roots of sympy's gcd of the inversion
equations.  The residue maps of Z[zeta_n] that the modular kernels take
are checked to respect sums and products, and the kernel bases of rows
over Z are compared with sympy's ``Matrix.nullspace`` over Q.  Products,
inverses and complex conjugates in Q(zeta_n), which run on the integral ring
Z[zeta_n], are compared with sympy's remainder, inverse and substitution
modulo Phi_n, and the field axioms are checked over the icosahedral layer.
Both oracles are test-only imports: the module is skipped when sympy or
hypothesis is absent.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

pytest.importorskip("mpmath")     # sympy needs it; without it, skip, not error
sp = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_poly import euclid_gcd  # noqa: E402
from test_ratmap import mobius_as_map  # noqa: E402

from ratsym import poly  # noqa: E402
from ratsym.fields import (QQ, CyclotomicField, QuadraticField,  # noqa: E402
                           _absolute_degree, _integral_ring, _RationalIntegers,
                           _residue_prime, lift)
from ratsym.mobius import MobiusMap, icosahedral_field, scaling  # noqa: E402
from ratsym.moduli import _segment_obstruction  # noqa: E402
from ratsym.poly import (Poly, _integer_norm, _residue_maps,  # noqa: E402
                         _ring_mul, _trim, _squarefree_z, nullspace, pencil_resultant,
                         poly_eval, poly_gcd, resultant, squarefree_norm,
                         sturm_roots_in_interval)
from ratsym.ratmap import (DegenerateMap, compose, conjugate,  # noqa: E402
                           is_automorphism, make_map, maps_equal)
from ratsym.symmetry import (AutSearchIncomplete, aut_in_normalizer,  # noqa: E402
                             build_cyclic, cyclic_admissible, lemma_witness,
                             random_cyclic_family, simple_cyclic_family)

QI = CyclotomicField(4)
X, T = sp.symbols("x t")
TR = sp.Symbol("t", real=True)
SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _to_sympy(c):
    if c.field == QQ:
        return sp.Rational(c.payload.numerator, c.payload.denominator)
    re, im = c.payload
    return sp.Rational(re.numerator, re.denominator) + \
        sp.I * sp.Rational(im.numerator, im.denominator)


def _from_sympy(value, K):
    re, im = sp.re(value), sp.im(value)
    if K == QQ:
        assert im == 0
        return QQ(Fraction(int(re.p), int(re.q)))
    return K.from_coeffs([Fraction(int(re.p), int(re.q)),
                          Fraction(int(im.p), int(im.q))])


def _sympy_resultant(F, G, m, n):
    # sympy's resultant(F, G) is Res(G, F) = (-1)^(mn) Res(F, G) when
    # deg F < deg G, so the larger degree goes first
    return sp.resultant(F, G, X) if m >= n else (-1) ** (m * n) * sp.resultant(G, F, X)


def _coeff(K):
    ints = st.integers(-4, 4)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if K == QQ:
        return st.one_of(ints, small).map(lambda v: QQ(Fraction(v)))
    return st.tuples(st.one_of(ints, small), ints).map(
        lambda p: K.from_coeffs([Fraction(p[0]), Fraction(p[1])]))


@st.composite
def polynomial_pairs(draw):
    K = draw(st.sampled_from([QQ, QI]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    f = draw(st.lists(_coeff(K), min_size=m + 1, max_size=m + 1))
    g = draw(st.lists(_coeff(K), min_size=n + 1, max_size=n + 1))
    # sympy takes the actual degrees; keep them at the formal ones
    hypothesis.assume(not f[-1].is_zero() and not g[-1].is_zero())
    return f, g, m, n


@st.composite
def cyclotomic_pairs(draw):
    """(f, g, m, n) over Q(zeta_n) for n in {3, 5, 12}, with integer
    coordinates up to 2^80, so that several primes are needed, and the
    formal degree of g above its actual degree, as milnor_coordinates
    takes it."""
    K = CyclotomicField(draw(st.sampled_from([3, 5, 12])))
    coord = st.one_of(st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80))
    elem = st.lists(coord, min_size=K.degree, max_size=K.degree).map(K.from_coeffs)
    f, g = (draw(st.lists(elem, min_size=1, max_size=3)) for _ in range(2))
    return f, g, len(f) - 1 + draw(st.integers(0, 1)), len(g) + draw(st.integers(0, 1))


def _units_case(u, v):
    # the Sylvester matrix of (u (1 + x^3), v x^3) needs row swaps, and its
    # Bareiss pivots are units other than 1 (the obstruction of a segment
    # starting at a = (1, 0, 0, 1), b = (0, 0, 0, 1) meets it at t = 0)
    u, v, zero = QI.from_coeffs(u), QI.from_coeffs(v), QI.zero()
    return [u, zero, zero, u], [zero, zero, zero, v], 3, 3


Z = sp.Symbol("z")


def _sympy_elem(c):
    """c in Q or Q(zeta_n) as a polynomial in z."""
    if c.field == QQ:
        return sp.Rational(c.payload.numerator, c.payload.denominator)
    return sum(sp.Rational(x.numerator, x.denominator) * Z ** i
               for i, x in enumerate(c.payload))


BIG = CyclotomicField(12).from_coeffs


@SETTINGS
@given(st.one_of(polynomial_pairs(), cyclotomic_pairs()))
@example(_units_case([1, 0], [1, 0]))
@example(_units_case([0, 1], [-1, 0]))
@example(_units_case([-1, 0], [0, -1]))
@example(([BIG([2 ** 80 - 1] * 4)] * 2, [BIG([-2 ** 80, 2 ** 79, 1, 2 ** 80])] * 2, 2, 3))
def test_resultant_matches_sympy(problem):
    # sympy's resultant in x over Q[z], reduced modulo Phi_n(z); sympy
    # takes the actual degrees, so a symbol e is added to both top
    # coefficients, which keeps the formal ones, and then set to 0
    f, g, m, n = problem
    K, e = f[0].field, sp.Symbol("e")
    F = sum(_sympy_elem(c) * X ** k for k, c in enumerate(f)) + e * X ** m
    G = sum(_sympy_elem(c) * X ** k for k, c in enumerate(g)) + e * X ** n
    expect = sp.expand(_sympy_resultant(F, G, m, n)).subs(e, 0)
    diff = sp.expand(expect - _sympy_elem(resultant(Poly(K, f), Poly(K, g), m, n)))
    if K != QQ:
        diff = sp.rem(diff, sp.cyclotomic_poly(K.n, Z), Z)
    assert diff == 0




@st.composite
def cyclotomic_pencils(draw):
    """Pencils (f0, df, g0, dg) over Z[zeta_n], some coordinates large enough
    to need several primes, with f of formal degree 1..3 and g of 1..2, each
    with a top entry that is not zero all along, and sometimes a zero
    direction."""
    ring = _integral_ring(CyclotomicField(draw(st.sampled_from([3, 4, 5, 7, 8, 12]))))
    coord = st.one_of(st.integers(-5, 5), st.integers(-2 ** 80, 2 ** 80))
    elem = st.lists(coord, min_size=ring.m, max_size=ring.m).map(tuple)
    vecs = []
    for length in (draw(st.integers(2, 4)), draw(st.integers(2, 3))):
        v0, dv = (draw(st.lists(elem, min_size=length, max_size=length)) for _ in range(2))
        if draw(st.booleans()):
            dv = [ring.zero] * length
        hypothesis.assume(v0[-1] != ring.zero or dv[-1] != ring.zero)
        vecs += [v0, dv]
    return ring, vecs


def _sympy_pencil_check(ring, f0, df, g0, dg, got):
    # sympy's resultant in x over Q[z, t], reduced modulo Phi_n(z)
    def expr(v0, dv):
        return sum((sum(c * Z ** i for i, c in enumerate(x))
                    + T * sum(c * Z ** i for i, c in enumerate(y))) * X ** k
                   for k, (x, y) in enumerate(zip(v0, dv)))
    expect = _sympy_resultant(expr(f0, df), expr(g0, dg), len(f0) - 1, len(g0) - 1)
    ours = sum(c * Z ** i * T ** j for j, y in enumerate(got) for i, c in enumerate(y))
    assert sp.rem(sp.expand(expect - ours), sp.cyclotomic_poly(ring.n, Z), Z) == 0


@settings(SETTINGS, max_examples=20)
@given(cyclotomic_pencils())
def test_pencil_resultant_matches_sympy(pencils):
    ring, (f0, df, g0, dg) = pencils
    a, b = len(f0) - 1, len(g0) - 1
    got = pencil_resultant(ring, f0, df, g0, dg)
    # one node more than the degree in t, b [df != 0] + a [dg != 0]
    zero = ring.zero
    assert len(got) == b * any(x != zero for x in df) + a * any(x != zero for x in dg) + 1
    _sympy_pencil_check(ring, f0, df, g0, dg, got)


# --- each distinct Galois image reduced once ---------------------------------

# (m, n): Z[zeta_m] inside Z[zeta_n], by zeta_m = zeta_n^(n/m)
SUBRINGS = [(3, 12), (4, 20), (4, 12), (5, 20)]


def _subring_lift(m, n, x):
    return CyclotomicField(n).ring.at_power(x, n // m)


def _count_by_prime(monkeypatch, name):
    """Calls of the poly kernel ``name`` by prime, its last argument."""
    calls = {}
    real = getattr(poly, name)

    def spy(*args, **kw):
        calls[args[-1]] = calls.get(args[-1], 0) + 1
        return real(*args, **kw)
    monkeypatch.setattr(poly, name, spy)
    return calls


@pytest.mark.parametrize("m, n", SUBRINGS)
@pytest.mark.parametrize("constant", [False, True])
def test_pencil_resultant_reduces_each_distinct_image_once(m, n, constant, monkeypatch):
    # a pencil over Z[zeta_m] lifted into Z[zeta_n] has phi(m) distinct
    # images modulo each prime, not phi(n): Euclid runs phi(m) (k + 1)
    # times per prime for k + 1 nodes, and once per image, with no
    # interpolation, for two constant pencils.  The result is still the
    # resultant over Z[zeta_n], the lift of the one over Z[zeta_m]
    rng = random.Random(m * n + constant)
    size = CyclotomicField(m).degree

    def vec(length):
        return [tuple(rng.randrange(-2 ** 40, 2 ** 40) for _ in range(size))
                for _ in range(length)]
    f0, df, g0, dg = vec(4), vec(4), vec(3), vec(3)
    if constant:
        df, dg = [(0,) * size] * 4, [(0,) * size] * 3
    nodes = 1 if constant else 2 + 3 + 1           # R has degree b + a in t
    lifted = [[_subring_lift(m, n, x) for x in v] for v in (f0, df, g0, dg)]
    small = pencil_resultant(CyclotomicField(m).ring, f0, df, g0, dg)
    euclid = _count_by_prime(monkeypatch, "_resultant_mod")
    newton = _count_by_prime(monkeypatch, "_interpolate_mod")
    got = pencil_resultant(CyclotomicField(n).ring, *lifted)
    assert len(got) == nodes
    assert set(euclid.values()) == {size * nodes}
    assert set(newton.values()) == (set() if constant else {size})
    assert got == [_subring_lift(m, n, c) for c in small]
    _sympy_pencil_check(CyclotomicField(n).ring, *lifted, got)


@pytest.mark.parametrize("m, n", SUBRINGS)
def test_nullspace_of_lifted_rows_is_the_lifted_nullspace(m, n, monkeypatch):
    # rows over Z[zeta_m] of rank 3 with 5 columns, lifted into Z[zeta_n]:
    # each kernel_vector call reduces phi(m) images per prime, and the basis
    # is the lift of the basis over Q(zeta_m)
    rng = random.Random(m * n)
    small, big = CyclotomicField(m), CyclotomicField(n)

    def elem():
        return small.from_coeffs([rng.randrange(-2 ** 30, 2 ** 30)
                                  for _ in range(small.degree)])
    left = [[elem() for _ in range(3)] for _ in range(4)]
    right = [[elem() for _ in range(5)] for _ in range(3)]
    rows = [[sum((a * right[k][j] for k, a in enumerate(row)), small.zero())
             for j in range(5)] for row in left]
    expect = nullspace(small.ring, [small.ring.clear(row)[1] for row in rows], 5)
    per_call = []                       # reductions by prime, per kernel_vector call
    real_vector, real_mod = poly.kernel_vector, poly._kernel_mod

    def vector_spy(*args):
        per_call.append({})
        return real_vector(*args)

    def mod_spy(*args):
        calls = per_call[-1]
        calls[args[-1]] = calls.get(args[-1], 0) + 1
        return real_mod(*args)
    monkeypatch.setattr(poly, "kernel_vector", vector_spy)
    monkeypatch.setattr(poly, "_kernel_mod", mod_spy)
    got = nullspace(big.ring, [big.ring.clear([lift(x, big) for x in row])[1]
                               for row in rows], 5)
    assert len(expect) == 2
    assert got == [[lift(x, big) for x in v] for v in expect]
    reduced = [calls for calls in per_call if calls]
    assert len(reduced) >= 2
    assert all(set(calls.values()) == {small.degree} for calls in reduced)


FAMILY_TYPES = [(2, 1, "A"), (2, 2, "B"), (3, 2, "A"), (2, 3, "B"), (2, 2, "C"),
                (3, 3, "C")]


@SETTINGS
@given(st.sampled_from([QQ, QI]), st.sampled_from(FAMILY_TYPES),
       st.integers(0, 10 ** 6))
def test_segment_obstruction_matches_sympy(K, family_type, seed):
    n, r, case = family_type
    rng = random.Random(seed)
    f0 = random_cyclic_family(rng, n, r, case, field=K)
    f1 = random_cyclic_family(rng, n, r, case, field=K)

    def pencil(c0, c1):
        return [(1 - T) * _to_sympy(x) + T * _to_sympy(y) for x, y in zip(c0, c1)]

    a, b = pencil(f0.a, f1.a), pencil(f0.b, f1.b)
    m = r - 1 if case == "C" else r
    # keep sympy's degrees in x at the formal degrees (m, r)
    hypothesis.assume(sp.expand(a[m]) != 0 and sp.expand(b[r]) != 0)
    P = sum(c * X ** k for k, c in enumerate(a[:m + 1]))
    Q = sum(c * X ** k for k, c in enumerate(b))
    cond = {"A": a[r] * b[0], "B": a[r], "C": b[r]}[case]
    expect = sp.expand(_sympy_resultant(P, Q, m, r) * cond)
    coeffs = sp.Poly(expect, T).all_coeffs()[::-1] if expect != 0 else []
    assert _segment_obstruction(f0, f1) == Poly(K, [_from_sympy(c, K) for c in coeffs])


NORM_FIELDS = [QQ, QI, CyclotomicField(3), CyclotomicField(5), CyclotomicField(12),
               QuadraticField(QQ, QQ(2)), QuadraticField(QQ, QQ(-3)),
               icosahedral_field()]
Y = sp.Symbol("y")


def _element(K):
    """Small elements of any supported field, in its power basis."""
    if isinstance(K, QuadraticField):
        return st.tuples(_element(K.base), _element(K.base)).map(
            lambda p: K.from_parts(*p))
    if K == QQ:
        return _coeff(QQ)
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return st.lists(small, min_size=K.degree, max_size=K.degree).map(K.from_coeffs)


def _power_basis_expr(c):
    """c as a polynomial in X = zeta_n and Y = sqrt(delta)."""
    if isinstance(c.field, QuadraticField):
        a, b = c.payload
        return _power_basis_expr(a) + Y * _power_basis_expr(b)
    if c.field == QQ:
        return sp.Rational(c.payload.numerator, c.payload.denominator)
    return sum(sp.Rational(v.numerator, v.denominator) * X ** j
               for j, v in enumerate(c.payload))


def _sympy_norm(G):
    """resultant(Phi_n(x), resultant(y^2 - delta, G, y), x), the product of
    the images of G under every embedding of its field."""
    K, g = G.field, sum(_power_basis_expr(c) * TR ** k for k, c in enumerate(G.coeffs))
    if isinstance(K, QuadraticField):
        g = sp.resultant(Y ** 2 - _power_basis_expr(K.delta), g, Y)
        K = K.base
    if isinstance(K, CyclotomicField):
        g = sp.resultant(sp.cyclotomic_poly(K.n, X), g, X)
    return sp.expand(g)


@SETTINGS
@given(st.sampled_from(NORM_FIELDS).flatmap(
    lambda K: st.lists(_element(K), min_size=1,
                       max_size=4 if isinstance(K, QuadraticField) else 6)))
def test_squarefree_norm_matches_sympy(coeffs):
    G = Poly(coeffs[0].field, coeffs)
    hypothesis.assume(not G.is_zero())
    expect = sp.Poly(_sympy_norm(G), TR).sqf_part().monic().all_coeffs()[::-1]
    assert squarefree_norm(G) == Poly(QQ, [_from_sympy(c, QQ) for c in expect])


def _product_norm(G):
    """N over Z as the product of the cleared G with its conjugate
    polynomials over each layer in turn, one ring product per coefficient
    pair: the reference for the Kronecker substitution of _integer_norm."""
    ring = _integral_ring(G.field)
    _, N = ring.clear(G.coeffs)
    while ring.base is not None:
        for sigma in zip(*[ring.conjugates(c) for c in N]):
            N = _ring_mul(ring, N, sigma)
        N, ring = [ring.to_base(c) for c in N], ring.base
    return N


def _orbit_index(G):
    """e = [K:Q] / |orbit|, from the conjugate polynomials compared
    coefficient by coefficient: over each layer, the number of images of the
    polynomial over the layer below, divided by the number of distinct
    ones; the product of the distinct ones is passed down."""
    ring = _integral_ring(G.field)
    _, N = ring.clear(G.coeffs)
    e = 1
    while ring.base is not None:
        images = [tuple(N), *zip(*[ring.conjugates(c) for c in N])]
        distinct = list(dict.fromkeys(images))
        assert len(images) % len(distinct) == 0
        e *= len(images) // len(distinct)
        prod = list(distinct[0])
        for sigma in distinct[1:]:
            prod = _ring_mul(ring, prod, list(sigma))
        N, ring = [ring.to_base(c) for c in prod], ring.base
    return e


def _z_power(f, e):
    out = [1]
    for _ in range(e):
        out = _ring_mul(_RationalIntegers, out, f)
    return out


K12 = CyclotomicField(12)
K20 = CyclotomicField(20)
# 48 - 48 z + 24 z^3 = (6 - 2 sqrt(3))^2 with sqrt(3) = 2 z - z^3, so this
# layer has the zero divisor ZD = (6 - 2 sqrt(3)) - sqrt(delta), of norm 0
SQUARE_LAYER = QuadraticField(K12, K12.from_coeffs([48, -48, 0, 24]))
ZD = SQUARE_LAYER.from_parts(K12.from_coeffs([6, -4, 0, 2]), K12(-1))
BIG_NORM_FIELDS = [QQ] + [CyclotomicField(n) for n in (3, 4, 5, 8, 12, 20)] + [
    QuadraticField(QQ, QQ(-3)), icosahedral_field(), SQUARE_LAYER]
# (F, K): polynomials over F lifted into K, whose coefficients generate a
# proper subfield of K, so that the distinct images of G are fewer than
# [K:Q]
SUBFIELDS = [(QQ, CyclotomicField(5)), (CyclotomicField(3), K12), (QI, K20),
             (QI, CyclotomicField(8)), (CyclotomicField(5), K20),
             (K12, SQUARE_LAYER), (CyclotomicField(5), icosahedral_field()),
             (QQ, QuadraticField(QQ, QQ(-3)))]


def _big_element(K):
    """Elements with coordinates up to 2^256 in absolute value, of either
    sign, over small denominators; multiples of ZD over SQUARE_LAYER."""
    if K is SQUARE_LAYER:
        return st.tuples(_big_element(K.base), _big_element(K.base), st.booleans()).map(
            lambda p: K.from_parts(p[0], p[1]) * (ZD if p[2] else K(1)))
    if isinstance(K, QuadraticField):
        return st.tuples(_big_element(K.base), _big_element(K.base)).map(
            lambda p: K.from_parts(*p))
    coord = st.builds(Fraction, st.one_of(st.integers(-3, 3),
                                          st.integers(-2 ** 256, 2 ** 256)),
                      st.integers(1, 3))
    if K == QQ:
        return coord.map(QQ)
    return st.lists(coord, min_size=K.degree, max_size=K.degree).map(K.from_coeffs)


def _lifted_elements(pair):
    F, K = pair
    return st.lists(_big_element(F), min_size=1, max_size=4).map(
        lambda cs: [lift(c, K) for c in cs])


def _lifted(F, K, coeffs):
    return [lift(F.from_coeffs(c) if isinstance(c, list) else F(c), K) for c in coeffs]


@SETTINGS
@given(st.one_of(
    st.sampled_from(BIG_NORM_FIELDS).flatmap(
        lambda K: st.lists(_big_element(K), min_size=1, max_size=4)),
    st.sampled_from(SUBFIELDS).flatmap(_lifted_elements)))
@example([QQ(7)])
@example([QQ(1), QQ(-2 ** 256)])
@example([K12.from_coeffs([2 ** 256, -1, 0, 3]), K12.from_coeffs([-5, 0, -2 ** 256, 0])])
@example([ZD])
@example([ZD, ZD])
@example([ZD, SQUARE_LAYER(1)])
@example([SQUARE_LAYER(1), ZD])
# coefficients in Q(zeta_3) inside Q(zeta_12), in Q(i) inside Q(zeta_20),
# and in the base of a quadratic layer
@example(_lifted(CyclotomicField(3), K12, [[2, -1], [2 ** 256, 3], [0, 1]]))
@example(_lifted(QI, K20, [[-7, 2 ** 200], [1, 1]]))
@example(_lifted(K12, SQUARE_LAYER, [[1, 2, 3, 4], [5, 0, -6, 2 ** 256]]))
@example(_lifted(CyclotomicField(5), icosahedral_field(), [[1, 0, 0, 1], [0, -3, 2, 0]]))
def test_integer_norm_matches_the_product_of_conjugates(coeffs):
    # N' has k (len(g) - 1) + 1 digits at the bound S, and its e-th power
    # is the full norm, e = [K:Q] / |orbit|; zero norms and a zero-divisor
    # leading coefficient included
    G = Poly(coeffs[0].field, coeffs)
    hypothesis.assume(not G.is_zero())
    full, norm = _product_norm(G), _integer_norm(G)
    assert len(norm) == len(full) == _absolute_degree(G.field) * G.degree + 1
    assert _trim(_z_power(norm, _orbit_index(G))) == _trim(full)


@pytest.mark.parametrize("F, K, coeffs, e", [
    (CyclotomicField(3), K12, [[2, -1], [2 ** 256, 3], [0, 1]], 2),
    (QI, K20, [[-7, 2 ** 200], [1, 1]], 4),
    (QQ, K20, [3, -1, 2], 8),
    (K12, SQUARE_LAYER, [[1, 2, 3, 4], [5, 0, -6, 2 ** 256]], 2),
    (CyclotomicField(3), SQUARE_LAYER, [[1, 1], [4, 0]], 4),
])
def test_integer_norm_of_a_polynomial_over_a_subfield(F, K, coeffs, e):
    # the digits are those of the norm from the subfield, of degree
    # [F:Q] (len(g) - 1); the full norm is its e-th power
    G = Poly(K, _lifted(F, K, coeffs))
    norm = _trim(_integer_norm(G))
    assert _orbit_index(G) == e
    assert len(norm) - 1 == _absolute_degree(K) // e * G.degree
    assert _z_power(norm, e) == _product_norm(G)
    assert norm == _trim(_product_norm(Poly(F, _lifted(F, F, coeffs))))


def _at_height(K, h, signs):
    """An element of K whose power-basis coordinates over Q, down the
    tower, are h times the next signs in turn."""
    if isinstance(K, QuadraticField):
        return K.from_parts(_at_height(K.base, h, signs), _at_height(K.base, h, signs))
    if K == QQ:
        return QQ(next(signs) * h)
    return K.from_coeffs([next(signs) * h for _ in range(K.degree)])


@pytest.mark.parametrize("K", [CyclotomicField(5), K12, K20, icosahedral_field(),
                               QuadraticField(QQ, QQ(2 ** 61 - 1))], ids=repr)
@pytest.mark.parametrize("pattern", [(1,), (1, -1), (-1, 1, 1)])
def test_integer_norm_with_every_coordinate_at_the_height(K, pattern):
    # each coefficient's coordinates all sit at +-h, as large as the
    # coordinate height the slot width of the norm rests on allows; over
    # Q(sqrt(2^61 - 1)) the radicand's own height dominates the bound
    signs = itertools.cycle(pattern)
    G = Poly(K, [_at_height(K, 2 ** 64 - 1, signs) for _ in range(3)])
    norm = _integer_norm(G)
    assert _trim(_z_power(norm, _orbit_index(G))) == _trim(_product_norm(G))


ROOTS = st.fractions(min_value=-2, max_value=2, max_denominator=7)


@st.composite
def root_problems(draw):
    roots = draw(st.lists(ROOTS, min_size=0, max_size=4))
    f = Poly(QQ, [draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))])
    for r in roots:
        f = f * Poly(QQ, [-r, 1])
        for _ in range(draw(st.integers(0, 2))):     # repeated roots
            f = f * Poly(QQ, [-r, 1])
    # a factor with no rational roots, or roots of its own
    extra = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    if any(extra):
        f = f * Poly(QQ, extra)
    # endpoints are often roots themselves
    ends = roots + [draw(ROOTS), draw(ROOTS)]
    lo, hi = sorted((draw(st.sampled_from(ends)), draw(st.sampled_from(ends))))
    return f, lo, hi if lo < hi else lo + 1


def _count_with_sympy(f, lo, hi):
    g = sp.Poly([_to_sympy(c) for c in reversed(f.coeffs)], X)
    closed = g.count_roots(sp.Rational(lo.numerator, lo.denominator),
                           sp.Rational(hi.numerator, hi.denominator))
    return closed - (1 if poly_eval(f, QQ(lo)).is_zero() else 0)


@SETTINGS
@given(root_problems())
@example((Poly(QQ, [-1, 3]) * Poly(QQ, [-1, 3]) * Poly(QQ, [-2, 7]),
          Fraction(1, 3), Fraction(9, 7)))
@example((Poly(QQ, [0, 1]) * Poly(QQ, [-1, 1]) * Poly(QQ, [-1, 1]) * Poly(QQ, [-1, 1]),
          Fraction(0), Fraction(1)))
def test_sturm_roots_in_interval_matches_sympy(problem):
    f, lo, hi = problem
    assert sturm_roots_in_interval(f, lo, hi) == _count_with_sympy(f, lo, hi)


# leading coefficients that the modular gcd must skip a prime for, or lift
# over several primes
LEADS = [1, -3, _residue_prime(1, 0), -_residue_prime(1, 0) * _residue_prime(1, 1), 2 ** 40]


@st.composite
def integer_polys(draw):
    coeffs = draw(st.lists(st.one_of(st.integers(-3, 3),
                                     st.integers(-10 ** 15, 10 ** 15)),
                           min_size=1, max_size=4))
    return sp.Poly((draw(st.sampled_from(LEADS)), *coeffs[::-1]), X)


def _monic_qq(F):
    return Poly(QQ, [Fraction(int(c.p), int(c.q)) for c in F.monic().all_coeffs()[::-1]])


@SETTINGS
@given(integer_polys(), integer_polys(), integer_polys(),
       st.integers(1, 2 ** 40), st.integers(1, 2 ** 40))
def test_modular_gcd_matches_sympy(c, u, v, k, m):
    # products with a common factor and contents of their own
    F, G = k * u * c, m * v * c
    f, g = (Poly(QQ, [int(a) for a in H.all_coeffs()[::-1]]) for H in (F, G))
    assert poly_gcd(f, g) == _monic_qq(sp.gcd(F, G))
    H = F * c
    h = _squarefree_z([int(a) for a in H.all_coeffs()[::-1]])
    assert Poly(QQ, h).monic() == _monic_qq(H.sqf_part())


@st.composite
def cyclotomic_gcd_pairs(draw):
    """(u c, v c) over Q(zeta_n), n in {3, 5, 12}, with u, v and c of
    degree 0..2: mostly coprime when c is constant, a common factor
    otherwise."""
    K = CyclotomicField(draw(st.sampled_from([3, 5, 12])))
    coord = st.integers(-3, 3)
    elem = st.lists(coord, min_size=K.degree, max_size=K.degree).map(K.from_coeffs)
    u, v, c = (Poly(K, draw(st.lists(elem, min_size=1, max_size=3))) for _ in range(3))
    hypothesis.assume(not (u.is_zero() or v.is_zero() or c.is_zero()))
    return u * c, v * c


@functools.cache
def _sympy_cyclotomic_field(n):
    # sympy's QQ<zeta_n>, whose elements it keeps in the power basis of
    # zeta_n modulo Phi_n, as ours are
    A = sp.QQ.algebraic_field(sp.exp(2 * sp.pi * sp.I / n))
    assert A.mod.to_list() == [int(c) for c in CyclotomicField(n).phi_coeffs][::-1]
    return A


def _sympy_cyclotomic_gcd(f, g):
    K = f.field
    A = _sympy_cyclotomic_field(K.n)
    F, G = (sp.Poly.from_list([A([sp.Rational(x.numerator, x.denominator)
                                  for x in c.payload[::-1]]) for c in h.coeffs[::-1]],
                              X, domain=A) for h in (f, g))
    H = sp.gcd(F, G)
    return Poly(K, [K.from_coeffs([Fraction(int(x.numerator), int(x.denominator))
                                   for x in c.to_list()[::-1]])
                    for c in H.rep.to_list()[::-1]])


_P5, _MAPS5, _ = _residue_maps(5, 0)
_LOST = CyclotomicField(5).zeta() - _MAPS5[0][1]       # zero under the first map


@settings(SETTINGS, max_examples=20)
@given(cyclotomic_gcd_pairs())
@example((Poly(CyclotomicField(5), [3, 3 * _LOST + 1, _LOST]),      # ((zeta - w) x + 1)
          Poly(CyclotomicField(5), [5, 5 * _LOST + 1, _LOST])))     # times x + 3, x + 5
def test_cyclotomic_gcd_matches_euclid_and_sympy(pair):
    f, g = pair
    got = poly_gcd(f, g)
    assert got == euclid_gcd(f, g) == _sympy_cyclotomic_gcd(f, g)


# --- map layer: automorphism test and conjugation over Z and Z[i] ------------

def _oracle_conjugate(phi, T):
    """T o phi o T^{-1} by two compositions, each reduced by make_map."""
    return compose(compose(mobius_as_map(T), phi), mobius_as_map(T.inverse()))


@st.composite
def mobius_maps(draw, K):
    kind = draw(st.sampled_from(["diagonal", "antidiagonal", "general"]))
    a, b, c, d = (draw(_coeff(K)) for _ in range(4))
    if kind == "diagonal":
        b = c = K.zero()
    elif kind == "antidiagonal":
        a = d = K.zero()
    hypothesis.assume(not (a * d - b * c).is_zero())
    return MobiusMap(K, a, b, c, d)


@st.composite
def maps_with_mobius(draw):
    K = draw(st.sampled_from([QQ, QI]))
    d = draw(st.integers(1, 4))
    P, Q = (Poly(K, draw(st.lists(_coeff(K), min_size=d + 1, max_size=d + 1)))
            for _ in range(2))
    hypothesis.assume(not P.is_zero() and not Q.is_zero())
    try:
        phi = make_map(P, Q)
    except DegenerateMap:
        hypothesis.assume(False)
    return phi, draw(mobius_maps(K))


@SETTINGS
@given(maps_with_mobius())
def test_conjugate_and_automorphism_match_composition(pair):
    phi, T = pair
    expected = _oracle_conjugate(phi, T)
    got = conjugate(phi, T)
    assert (got.num, got.den, got.degree) == (expected.num, expected.den,
                                               expected.degree)
    assert is_automorphism(phi, T) is maps_equal(expected, phi)


@settings(SETTINGS, max_examples=15)
@given(st.sampled_from([QQ, QI]).flatmap(mobius_maps), st.sampled_from([(3, 4), (5, 6)]))
def test_conjugated_witness_automorphisms_match_composition(T, pair):
    w = lemma_witness(*pair)
    phi = _oracle_conjugate(w.map, T)
    for S, _ in w.autos:
        S2 = T.compose(S).compose(T.inverse())
        assert is_automorphism(phi, S2)
        bad = make_map(phi.num + 1, phi.den)
        assert is_automorphism(bad, S2) is maps_equal(_oracle_conjugate(bad, S2), bad)


# --- normaliser search against the gcd of the inversion equations ------------

MU = sp.Symbol("mu")


def _inversion_root_count(phi):
    """The number of distinct nonzero mu with mu/z an automorphism: the
    common roots, over Q(i), of the z-coefficients of
    z^d N(mu/z) N(z) - mu z^d D(mu/z) D(z)."""
    d = phi.degree
    N = [_to_sympy(phi.num[k]) for k in range(d + 1)]
    D = [_to_sympy(phi.den[k]) for k in range(d + 1)]
    expr = sum(N[j] * N[k] * MU ** j * X ** (d - j + k)
               - D[j] * D[k] * MU ** (j + 1) * X ** (d - j + k)
               for j in range(d + 1) for k in range(d + 1))
    coeffs = [sp.Poly(c, MU, extension=sp.I)
              for c in sp.Poly(sp.expand(expr), X).all_coeffs() if c != 0]
    g = functools.reduce(sp.Poly.gcd, coeffs).sqf_part()
    return g.degree() - (g.eval(0) == 0)


def _normaliser_maps():
    rng = random.Random(3)
    for n in range(2, 8):
        for d in range(2, 16):
            for case, _ in cyclic_admissible(d, n):
                phi = build_cyclic(simple_cyclic_family(d, n, case))
                yield phi
                yield conjugate(phi, scaling(QQ(2)))
    for K in (QQ, QI):
        for d, c in [(2, 3), (3, 2), (3, 4), (4, -1), (5, 4), (5, 16), (6, 9)]:
            yield make_map(Poly(K, [0] * d + [1]), Poly(K, [c]))
            yield make_map(Poly(K, [c] + [0] * (d - 1) + [1]),
                           Poly(K, [0] * (d - 1) + [1]))
    for n, r, case in [(2, 1, "A"), (2, 2, "C"), (3, 1, "B"), (4, 1, "C")]:
        yield build_cyclic(random_cyclic_family(rng, n, r, case, QI))


def test_normaliser_inversions_match_the_gcd_of_the_inversion_equations():
    searched = 0
    for phi in _normaliser_maps():
        expected = _inversion_root_count(phi)
        try:
            autos = aut_in_normalizer(phi)
        except AutSearchIncomplete:
            # an inversion exists but its mu is out of the field tower's reach
            assert expected > 0
            continue
        searched += 1
        assert sum(T.a.is_zero() for T in autos) == expected, phi
        assert all(is_automorphism(phi, T) for T in autos)
    assert searched > 100


@st.composite
def cyclotomic_integer_pairs(draw):
    ring = _integral_ring(CyclotomicField(draw(st.sampled_from([3, 4, 5, 8, 12]))))
    ints = st.integers(-10 ** 12, 10 ** 12)
    a, b = (tuple(draw(st.lists(ints, min_size=ring.m, max_size=ring.m)))
            for _ in range(2))
    return ring, a, b, draw(st.integers(0, 2))


@SETTINGS
@given(cyclotomic_integer_pairs())
def test_residue_map_is_a_ring_homomorphism(quadruple):
    # each zeta -> w^u with Phi_n(w^u) = 0 mod p respects add and mul, so a
    # minor that is nonzero mod p is nonzero in the ring; the Lagrange
    # matrix takes the phi(n) images back to the coordinates mod p
    ring, a, b, k = quadruple
    p, maps, lagrange = _residue_maps(ring.n, k)
    assert len(maps) == ring.m
    for w in maps:
        def h(x):
            return sum(c * y for c, y in zip(x, w)) % p
        assert h(ring.add(a, b)) == (h(a) + h(b)) % p
        assert h(ring.mul(a, b)) == h(a) * h(b) % p
        assert h(ring.one) == 1 and h(ring.zero) == 0
    images = [sum(c * y for c, y in zip(a, w)) % p for w in maps]
    assert [sum(map(lambda x, y: x * y, row, images)) % p for row in lagrange] \
        == [c % p for c in a]


@st.composite
def rational_matrices(draw):
    # the product of an m x k and a k x n matrix has rank at most k; the
    # 60-bit entries give kernels that need several primes
    m, n, k = draw(st.integers(0, 5)), draw(st.integers(1, 6)), draw(st.integers(0, 4))
    entry = st.one_of(st.integers(-5, 5), st.integers(-2 ** 60, 2 ** 60),
                      st.fractions(min_value=-3, max_value=3, max_denominator=7))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum((Fraction(a) * Fraction(right[t][j]) for t, a in enumerate(row)),
                 Fraction(0)) for j in range(n)] for row in left], n


@SETTINGS
@given(rational_matrices())
@example(([[Fraction(_residue_maps(1, 0)[0]), Fraction(1)]], 2))
def test_nullspace_matches_sympy(problem):
    # sympy's nullspace is the reduced echelon basis too: one vector per
    # free column, one there and zero at the other free columns
    rows, n = problem
    ring = _integral_ring(QQ)
    got = nullspace(ring, [ring.clear([QQ(x) for x in row])[1] for row in rows], n)
    M = sp.Matrix(len(rows), n, [sp.Rational(x.numerator, x.denominator)
                                 for row in rows for x in row])
    expect = [[QQ(Fraction(int(x.p), int(x.q))) for x in v] for v in M.nullspace()]
    assert got == expect


CONDUCTORS = [3, 4, 5, 7, 8, 12, 15, 20]


def _cyclotomic_element(F):
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return st.lists(coeff, min_size=F.degree, max_size=F.degree).map(F.from_coeffs)


@st.composite
def cyclotomic_pairs(draw):
    F = CyclotomicField(draw(st.sampled_from(CONDUCTORS)))
    return draw(_cyclotomic_element(F)), draw(_cyclotomic_element(F))


def _to_sympy_poly(a):
    return sum(sp.Rational(c.numerator, c.denominator) * X ** j
               for j, c in enumerate(a.payload))


def _reduced(expr, F):
    """The element of F that a sympy polynomial in X is modulo Phi_n."""
    rem = sp.Poly(sp.rem(sp.expand(expr), sp.cyclotomic_poly(F.n, X), X), X)
    coeffs = rem.all_coeffs()[::-1] if not rem.is_zero else []
    return F.from_coeffs([Fraction(int(c.p), int(c.q)) for c in coeffs])


@SETTINGS
@given(cyclotomic_pairs())
def test_cyclotomic_arithmetic_matches_sympy(pair):
    a, b = pair
    F, A, B = a.field, _to_sympy_poly(a), _to_sympy_poly(b)
    phi = sp.cyclotomic_poly(F.n, X)
    assert a * b == _reduced(A * B, F)
    assert a.conj() == _reduced(A.subs(X, X ** (F.n - 1)), F)
    if not a.is_zero():
        assert a.inv() == _reduced(sp.invert(A, phi, X), F)


def _icosahedral_element(K):
    F = K.base
    return st.tuples(_cyclotomic_element(F), _cyclotomic_element(F)).map(
        lambda p: K.from_parts(*p))


ICOSAHEDRAL = icosahedral_field()


@SETTINGS
@given(st.tuples(*[_icosahedral_element(ICOSAHEDRAL)] * 3))
def test_icosahedral_layer_field_axioms(triple):
    a, b, c = triple
    K = ICOSAHEDRAL
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + K.zero() == a and a * K.one() == a and (a - a).is_zero()
    assert (a * b).conj() == a.conj() * b.conj() and a.conj().conj() == a
    if not a.is_zero():
        assert a * a.inv() == K.one() and (b / a) * a == b
