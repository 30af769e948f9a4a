"""Property test of the certified enclosures: for random elements of every
supported kind of field, the complex embedding computed by mpmath at 4p bits
lies inside ``interval_embed(a, p)``, whose sides are at most 2^(5 - p).

Test-only use of hypothesis and mpmath; the module is skipped when either
is absent.
"""

from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ratsym.fields import (QQ, CyclotomicField, QuadraticField,  # noqa: E402
                           RationalField, interval_embed)
from ratsym.mobius import icosahedral_field  # noqa: E402

# Q(i)(sqrt(-2)) turns a b-part with an imaginary side by i
FIELDS = ([QQ] + [CyclotomicField(n) for n in (3, 4, 5, 7, 8, 12)]
          + [QuadraticField(QQ, QQ(2)), QuadraticField(QQ, QQ(-3)),
             icosahedral_field(),
             QuadraticField(CyclotomicField(4), CyclotomicField(4)(-2))])

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


def _base_element(draw, K):
    if isinstance(K, RationalField):
        return K(draw(rationals))
    return K.from_coeffs(draw(st.lists(rationals, min_size=K.degree,
                                       max_size=K.degree)))


@st.composite
def elements(draw):
    K = draw(st.sampled_from(FIELDS))
    if isinstance(K, QuadraticField):
        return K.from_parts(_base_element(draw, K.base), _base_element(draw, K.base))
    return _base_element(draw, K)


def _embedding(a):
    """The declared complex embedding of ``a``, at mpmath's working
    precision."""
    K = a.field
    if isinstance(K, RationalField):
        return mpmath.mpf(a.payload.numerator) / a.payload.denominator
    if isinstance(K, CyclotomicField):
        zeta = mpmath.exp(2j * mpmath.pi / K.n)
        return sum((mpmath.mpf(c.numerator) / c.denominator * zeta ** j
                    for j, c in enumerate(a.payload)), mpmath.mpc(0))
    x, y = a.payload
    # the principal root: nonnegative real part, i * |.| for a negative radicand
    return _embedding(x) + _embedding(y) * mpmath.sqrt(_embedding(K.delta).real)


@settings(max_examples=150, deadline=None)
@given(a=elements(), precision=st.integers(1, 300))
def test_enclosure_contains_the_embedding_and_is_narrow(a, precision):
    re_lo, re_hi, im_lo, im_hi = interval_embed(a, precision)
    with mpmath.workprec(4 * precision + 16):
        z = mpmath.mpc(_embedding(a)) * mpmath.mpf(2) ** precision
        # slack far below one unit of the enclosure's scale, for the
        # rounding of z itself
        eps = mpmath.mpf(2) ** (-2 * precision)
        assert re_lo - eps <= z.real <= re_hi + eps
        assert im_lo - eps <= z.imag <= im_hi + eps
    assert re_hi - re_lo <= 2 ** 5 and im_hi - im_lo <= 2 ** 5
