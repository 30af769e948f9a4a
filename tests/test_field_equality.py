"""Field elements compare and hash by payload.

Payloads are canonical: a reduced Fraction over Q, the phi(n) power-basis
coordinates over Q(zeta_n), and a pair of base elements over a quadratic
layer.  So ``x == y`` must agree with ``(x - y).is_zero()`` however the two
elements were built -- from an int or a Fraction, from an over-long
coordinate vector that folds modulo Phi_n, out of the integral ring, from
JSON, or as the result of arithmetic -- and equal elements must hash equal.
This holds also over Q(zeta_3)(sqrt(-3)), where sqrt(-3) = 1 + 2 zeta_3
lies in the base and the layer has zero divisors.  The property is checked
with hypothesis, and the module is skipped when it is absent.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ratsym import jsonio  # noqa: E402
from ratsym.fields import (QQ, CyclotomicField, QuadraticField,  # noqa: E402
                           _integral_ring)
from ratsym.mobius import icosahedral_field  # noqa: E402

FIELDS = [QQ, *(CyclotomicField(n) for n in (3, 4, 5, 8, 12)),
          QuadraticField(QQ, QQ(2)),
          QuadraticField(CyclotomicField(3), CyclotomicField(3)(-3)),
          icosahedral_field()]
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _vectors(K):
    """Coordinate vectors for K.from_coeffs: phi(n) of them, or up to three
    more, which fold modulo Phi_n."""
    return st.lists(RATIONALS, min_size=K.degree, max_size=K.degree + 3)


def _elements(K):
    """Small elements of K, built by from_fraction, from_coeffs or
    from_parts."""
    if isinstance(K, QuadraticField):
        return st.tuples(_elements(K.base), _elements(K.base)).map(
            lambda p: K.from_parts(*p))
    if K == QQ:
        return st.one_of(st.integers(-5, 5), RATIONALS).map(QQ)
    return _vectors(K).map(K.from_coeffs)


def _refolded(K, x, c: int, j: int):
    """x over Q(zeta_n) again, from the over-long vector of its coordinates
    plus c x^j Phi_n(x), which is zero in the field."""
    v = list(x.payload) + [Fraction(0)] * (len(K.phi_coeffs) + j - K.degree)
    for i, p in enumerate(K.phi_coeffs):
        v[i + j] += c * p
    return K.from_coeffs(v)


def _rebuilt(K, x, route: str, w, c: int, j: int):
    """An element equal to x, built by the named route."""
    if route == "json":
        return jsonio.elem_from_json(jsonio.elem_to_json(x), K)
    if route == "ring":
        ring = _integral_ring(K)
        den, (v,) = ring.clear([x])
        return ring.to_field(v, den)
    if route == "sum":
        return (x + w) - w
    if route == "product":
        try:
            return (x * w) / w
        except ZeroDivisionError:       # w is zero, or a zero divisor
            return x * K.one()
    if route == "fold" and isinstance(K, CyclotomicField):
        return _refolded(K, x, c, j)
    if route == "fold" and isinstance(K, QuadraticField) and \
            isinstance(K.base, CyclotomicField):
        a, b = x.payload
        return K.from_parts(_refolded(K.base, a, c, j), _refolded(K.base, b, -c, j))
    return x


ROUTES = st.sampled_from(["as built", "json", "ring", "sum", "product", "fold"])


@st.composite
def element_pairs(draw):
    """(x, y) in one field, each rebuilt by its own route; y is often x."""
    K = draw(st.sampled_from(FIELDS))
    x = draw(_elements(K))
    y = x if draw(st.booleans()) else draw(_elements(K))
    c, j = draw(st.integers(-3, 3)), draw(st.integers(0, 2))
    return tuple(_rebuilt(K, e, draw(ROUTES), draw(_elements(K)), c, j)
                 for e in (x, y)) + (y is x,)


@SETTINGS
@given(element_pairs())
def test_equality_agrees_with_a_zero_difference(pair):
    x, y, same = pair
    assert (x == y) is (x - y).is_zero()
    assert (x == y) is (y == x)
    if same:
        assert x == y
    if x == y:
        assert hash(x) == hash(y)


@SETTINGS
@given(st.sampled_from(FIELDS), st.one_of(st.integers(-6, 6), RATIONALS))
def test_a_rational_is_the_same_element_by_every_route(K, q):
    # from an int or a Fraction, and against the plain number
    x, y = K(q), K(Fraction(q))
    assert x == y and hash(x) == hash(y)
    assert x == q and (x == q + 1) is False
    if isinstance(K, CyclotomicField):
        z = K.from_coeffs([q] + [0] * (K.degree + 2))
        assert z == x and hash(z) == hash(x)
    if isinstance(K, QuadraticField):
        z = K.from_parts(q, 0)
        assert z == x and hash(z) == hash(x)
    assert _rebuilt(K, x, "json", None, 0, 0) == x


def test_the_zero_divisor_layer_compares_by_payload():
    # sqrt(-3) = 1 + 2 zeta_3 in the base, so (1 + 2 zeta_3) - sqrt(delta)
    # is a nonzero zero divisor: equal to itself, unequal to zero
    F3 = CyclotomicField(3)
    K = QuadraticField(F3, F3(-3))
    zd = K.from_parts(F3(1) + 2 * F3.zeta(), F3(-1))
    assert zd * K.from_parts(F3(1) + 2 * F3.zeta(), F3(1)) == 0
    assert zd != 0 and zd != K.zero()
    assert zd == K.from_parts(F3.from_coeffs([1, 2]), -1)
    assert hash(zd) == hash(K.from_parts(F3.from_coeffs([1, 2]), -1))
