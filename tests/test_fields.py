import math
import random
from fractions import Fraction

import pytest

from ratsym.fields import (QQ, CyclotomicField, FieldMismatch, QuadraticField,
                           cyclotomic_coeffs, interval_embed, lift, sign_real)


def test_rational_arithmetic():
    assert QQ(Fraction(1, 2)) + QQ(Fraction(1, 3)) == Fraction(5, 6)
    assert QQ(3) / QQ(7) == Fraction(3, 7)
    with pytest.raises(ZeroDivisionError):
        QQ(1) / QQ(0)


def test_root_of_unity_product():
    F3 = CyclotomicField(3)
    z = F3.zeta()
    assert z * z ** 2 == 1


def test_quadratic_conjugate_product():
    K = QuadraticField(QQ, QQ(2))
    s = K.sqrt_delta()
    assert (K.one() + s) * (-K.one() + s) == 1


def test_field_mismatch_is_explicit():
    a = CyclotomicField(3).zeta()
    b = CyclotomicField(5).zeta()
    with pytest.raises(FieldMismatch):
        a + b
    # declared lift to the compositum works
    F15 = CyclotomicField(15)
    assert lift(a, F15) * lift(b, F15) == F15.zeta(5) * F15.zeta(3)


def test_conjugation_examples():
    F5 = CyclotomicField(5)
    assert F5.zeta().conj() == F5.zeta(4)
    assert QQ(Fraction(3, 7)).conj() == Fraction(3, 7)
    F4 = CyclotomicField(4)
    assert F4.from_coeffs([1, 2]).conj() == F4.from_coeffs([1, -2])


def test_cyclotomic_polynomial_values():
    assert cyclotomic_coeffs(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_coeffs(4) == (Fraction(1), Fraction(0), Fraction(1))
    # divide x^12 - 1 by the product of the trivially known lower factors
    lower = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 6: [1, -1, 1]}
    prod = [Fraction(1)]
    for coeffs in lower.values():
        nxt = [Fraction(0)] * (len(prod) + len(coeffs) - 1)
        for i, x in enumerate(prod):
            for j, y in enumerate(coeffs):
                nxt[i + j] += x * y
        prod = nxt
    num = [Fraction(-1)] + [Fraction(0)] * 11 + [Fraction(1)]
    # schoolbook exact division
    quo = [Fraction(0)] * (len(num) - len(prod) + 1)
    rem = list(num)
    while len(rem) >= len(prod):
        c = rem[-1] / prod[-1]
        k = len(rem) - len(prod)
        quo[k] = c
        for j, y in enumerate(prod):
            rem[k + j] -= c * y
        while rem and rem[-1] == 0:
            rem.pop()
    assert not rem
    assert cyclotomic_coeffs(12) == tuple(quo)
    assert tuple(quo) == (Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1))


def test_roots_of_unity_orders_up_to_30():
    for n in range(3, 31):
        F = CyclotomicField(n)
        z = F.zeta()
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1
        # defining relation holds exactly
        acc, p = F.zero(), F.one()
        for c in cyclotomic_coeffs(n):
            acc = acc + p * c
            p = p * z
        assert acc.is_zero()


def test_field_axioms_random_triples():
    F5 = CyclotomicField(5)
    F12 = CyclotomicField(12)
    K = QuadraticField(F5, F5(2) - F5.zeta() - F5.zeta(4))
    rng = random.Random(7)

    def sample(field):
        if field is QQ:
            return QQ(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if isinstance(field, QuadraticField):
            base = field.base
            return field.from_parts(
                base.from_coeffs([rng.randint(-5, 5) for _ in range(base.degree)]),
                base.from_coeffs([rng.randint(-5, 5) for _ in range(base.degree)]))
        return field.from_coeffs([rng.randint(-5, 5) for _ in range(field.degree)])

    for field in (QQ, F5, F12, K):
        for _ in range(25):
            a, b, c = sample(field), sample(field), sample(field)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inv() == 1
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()


def _width(box):
    re_lo, re_hi, im_lo, im_hi = box
    return max(re_hi - re_lo, im_hi - im_lo)


def test_interval_embed_examples():
    # an enclosure at precision p is (re_lo, re_hi, im_lo, im_hi) times 2^-p
    re_lo, re_hi, im_lo, im_hi = interval_embed(QQ(Fraction(1, 2)), 32)
    assert re_lo <= 2 ** 31 <= re_hi
    assert im_lo == im_hi == 0

    re_lo, re_hi, im_lo, im_hi = interval_embed(CyclotomicField(4).zeta(), 30)
    assert re_lo <= 0 <= re_hi
    assert im_lo <= 2 ** 30 <= im_hi

    K = QuadraticField(QQ, QQ(2))
    box_s = interval_embed(K.sqrt_delta(), 53)
    assert box_s[0] > 0 and box_s[0] ** 2 <= 2 * 4 ** 53 <= box_s[1] ** 2
    assert _width(box_s) <= 2 ** 3


def test_interval_width_contract():
    F7 = CyclotomicField(7)
    a = F7.from_coeffs([3, -2, 5, 1, 0, -4])
    for prec in (16, 64, 200):
        # |a| <= 15 crude; the promised width 2^(5 - prec) is generous
        assert _width(interval_embed(a, prec)) <= 2 ** 5


def test_interval_product_contains_exact_value():
    mpmath = pytest.importorskip("mpmath")
    F5 = CyclotomicField(5)
    v = F5.from_coeffs([1, 2, 3, 4])
    re_lo, re_hi, im_lo, im_hi = interval_embed(F5.zeta() * v, 80)
    with mpmath.workprec(320):
        zeta = mpmath.exp(2j * mpmath.pi / 5)
        exact = zeta * (1 + 2 * zeta + 3 * zeta ** 2 + 4 * zeta ** 3) * 2 ** 80
        assert re_lo <= exact.real <= re_hi
        assert im_lo <= exact.imag <= im_hi
    assert _width((re_lo, re_hi, im_lo, im_hi)) <= 2 ** 5


def test_sign_real():
    F5 = CyclotomicField(5)
    delta = F5(2) - F5.zeta() - F5.zeta(4)
    assert sign_real(delta) == 1
    assert sign_real(-delta) == -1
    assert sign_real(QQ(0)) == 0
    with pytest.raises(ValueError):
        sign_real(F5.zeta())


def test_quadratic_over_cyclotomic():
    F5 = CyclotomicField(5)
    delta = F5(2) - F5.zeta() - F5.zeta(4)
    K = QuadraticField(F5, delta)
    s = K.sqrt_delta()
    assert s * s == lift(delta, K)
    assert s.conj() == s  # real positive branch
    re_lo = interval_embed(s, 64)[0]
    true = math.sqrt(2 - 2 * math.cos(2 * math.pi / 5))
    assert abs(re_lo / 2 ** 64 - true) < 1e-12
    with pytest.raises(ValueError):
        QuadraticField(K, s)  # no nested towers


def test_rational_square_radicand_rejected():
    for delta in (QQ(4), QQ(Fraction(9, 4)), QQ(1)):
        with pytest.raises(ValueError):
            QuadraticField(QQ, delta)
    for delta in (QQ(2), QQ(-4), QQ(Fraction(1, 2))):
        K = QuadraticField(QQ, delta)
        s = K.sqrt_delta()
        x = s + K(2)        # a zero divisor if delta were 4
        assert s * s == K(delta.payload) and x * x.inv() == K.one()


def test_negative_radicand_branch():
    K = QuadraticField(QQ, QQ(-1))
    s = K.sqrt_delta()
    assert s * s == K(-1)
    assert s.conj() == -s
    re_lo, re_hi, im_lo, im_hi = interval_embed(s, 40)
    assert re_lo == re_hi == 0
    assert im_lo <= 2 ** 40 <= im_hi


def test_serialization_roundtrip():
    from ratsym.jsonio import elem_to_json, elem_from_json, field_to_json, field_from_json
    F5 = CyclotomicField(5)
    K = QuadraticField(F5, F5(2) - F5.zeta() - F5.zeta(4))
    vals = [QQ(Fraction(-3, 7)), F5.from_coeffs([1, 0, -2, 5]),
            K.from_parts(F5.zeta(), F5.from_coeffs([1, 1, 0, 0]))]
    for v in vals:
        blob = elem_to_json(v)
        back = elem_from_json(blob, field_from_json(field_to_json(v.field)))
        assert back == v
    assert elem_to_json(QQ(Fraction(-3, 7))) == "-3/7"
    blob = elem_to_json(F5.zeta())
    assert blob["conductor"] == 5 and blob["coeffs"] == ["0", "1", "0", "0"]


def test_inexact_cyclotomic_division_raises(monkeypatch):
    # Phi_7 is x^7 - 1 divided over Z by Phi_1; a wrong Phi_1 = x - 2 leaves
    # the remainder 2^7 - 1, which the exact integer division rejects
    from ratsym import fields
    monkeypatch.setattr(fields, "_cyclo_cache", {1: (Fraction(-2), Fraction(1))})
    with pytest.raises(fields.InexactDivision):
        cyclotomic_coeffs(7)


def test_inversion_modulo_a_reducible_modulus_raises(monkeypatch):
    from ratsym.fields import InexactDivision
    K = CyclotomicField(4)
    # replace the powers of zeta_4 by those of a root of x^2 - 1, which
    # shares the factor x + 1: the norm cofactor of 1 + x then leaves the
    # "norm" (1 + x)^2 = 2 + 2x, which is not rational
    monkeypatch.setattr(K.ring, "pows", [(1, 0), (0, 1), (1, 0), (0, 1)])
    with pytest.raises(InexactDivision):
        K.from_coeffs([1, 1]).inv()
