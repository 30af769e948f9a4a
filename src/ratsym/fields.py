"""Exact coefficient fields: rationals, cyclotomic fields and quadratic extensions.

Three kinds of field are supported, forming a small tower:

* ``QQ`` -- the rationals, backed by :class:`fractions.Fraction`;
* ``CyclotomicField(n)`` -- Q(zeta_n) as the quotient Q[x]/(Phi_n), elements
  stored in the power basis ``1, zeta, ..., zeta^(phi(n)-1)``;
* ``QuadraticField(base, delta)`` -- a single layer base(sqrt(delta)) on top
  of either of the above (nested radical towers are not supported).

Every element is a :class:`FieldElement` holding a reference to its field and
an immutable payload; all arithmetic is exact and pure.  Elements of distinct
fields never mix implicitly -- use :func:`lift` / :func:`common_field`.  The
declared complex embedding sends zeta_n to exp(2*pi*i/n) and picks the branch
of sqrt(delta) with nonnegative real part (positive imaginary part on ties);
:func:`interval_embed` returns certified rectangles for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

import mpmath

__all__ = [
    "Field",
    "FieldElement",
    "RationalField",
    "CyclotomicField",
    "QuadraticField",
    "QQ",
    "ComplexBox",
    "FieldMismatch",
    "InexactDivision",
    "field_arith",
    "complex_conjugate",
    "interval_embed",
    "lift",
    "common_field",
    "sign_real",
    "cyclotomic_coeffs",
    "euler_phi",
]


class FieldMismatch(TypeError):
    """Raised when elements of incompatible fields are combined."""


class InexactDivision(ArithmeticError):
    """A division that exact arithmetic requires to be exact left a
    remainder, or an inversion modulo an irreducible polynomial met a
    nonconstant gcd.  Raised, never asserted, so that ``python -O`` keeps
    it."""


Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# rational polynomial helpers (ascending coefficient lists of Fractions)
# ---------------------------------------------------------------------------

def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mul(f, g):
    if not f or not g:
        return []
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _fp_trim(out)


def _fp_divmod(f, g):
    # exact division over Q; g must be nonzero
    f = list(f)
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    inv_lead = 1 / g[-1]
    while len(f) >= len(g) and _fp_trim(f):
        if len(f) < len(g):
            break
        c = f[-1] * inv_lead
        k = len(f) - len(g)
        q[k] = c
        for j, b in enumerate(g):
            f[k + j] -= c * b
        _fp_trim(f)
    return _fp_trim(q), f


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


_cyclo_cache: dict[int, tuple[Fraction, ...]] = {}


def cyclotomic_coeffs(n: int) -> tuple[Fraction, ...]:
    """Ascending rational coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    if n not in _cyclo_cache:
        # (x^n - 1) divided by the product of all lower-level factors
        num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        den = [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                den = _fp_mul(den, list(cyclotomic_coeffs(d)))
        q, r = _fp_divmod(num, den)
        if r:
            raise InexactDivision(f"x^{n} - 1 is not divisible by the lower "
                                  f"cyclotomic polynomials")
        _cyclo_cache[n] = tuple(q)
    return _cyclo_cache[n]


# ---------------------------------------------------------------------------
# certified complex boxes
# ---------------------------------------------------------------------------

def _dyadic_floor(x: Fraction, prec: int) -> Fraction:
    scale = 1 << prec
    return Fraction(math.floor(x * scale), scale)


def _dyadic_ceil(x: Fraction, prec: int) -> Fraction:
    scale = 1 << prec
    return Fraction(math.ceil(x * scale), scale)


def _sqrt_interval(lo: Fraction, hi: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    # enclosure of sqrt on [lo, hi] with 0 <= lo <= hi
    scale = 1 << (2 * prec)

    def lower(v):
        s = math.isqrt(v.numerator * v.denominator * scale)
        return Fraction(s, v.denominator << prec)

    def upper(v):
        s = math.isqrt(v.numerator * v.denominator * scale)
        return Fraction(s + 1, v.denominator << prec)

    return lower(lo), upper(hi)


class ComplexBox:
    """Axis-aligned rectangle in C with exact rational endpoints.

    The box is a certificate: the embedded value it was computed for is
    guaranteed to lie inside.  Arithmetic is outward-exact (no rounding), so
    combining certified boxes yields certified boxes.
    """

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi")

    def __init__(self, re_lo, re_hi, im_lo, im_hi):
        re_lo, re_hi = Fraction(re_lo), Fraction(re_hi)
        im_lo, im_hi = Fraction(im_lo), Fraction(im_hi)
        if re_lo > re_hi or im_lo > im_hi:
            raise ValueError("malformed box")
        self.re_lo, self.re_hi = re_lo, re_hi
        self.im_lo, self.im_hi = im_lo, im_hi

    @classmethod
    def exact(cls, re: Fraction, im: Fraction = Fraction(0)) -> "ComplexBox":
        return cls(re, re, im, im)

    def __repr__(self):
        return (f"ComplexBox([{self.re_lo}, {self.re_hi}] + "
                f"[{self.im_lo}, {self.im_hi}]*i)")

    def __add__(self, other):
        return ComplexBox(self.re_lo + other.re_lo, self.re_hi + other.re_hi,
                          self.im_lo + other.im_lo, self.im_hi + other.im_hi)

    def __sub__(self, other):
        return ComplexBox(self.re_lo - other.re_hi, self.re_hi - other.re_lo,
                          self.im_lo - other.im_hi, self.im_hi - other.im_lo)

    def __neg__(self):
        return ComplexBox(-self.re_hi, -self.re_lo, -self.im_hi, -self.im_lo)

    @staticmethod
    def _imul(a_lo, a_hi, b_lo, b_hi):
        prods = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
        return min(prods), max(prods)

    def __mul__(self, other):
        ac_lo, ac_hi = self._imul(self.re_lo, self.re_hi, other.re_lo, other.re_hi)
        bd_lo, bd_hi = self._imul(self.im_lo, self.im_hi, other.im_lo, other.im_hi)
        ad_lo, ad_hi = self._imul(self.re_lo, self.re_hi, other.im_lo, other.im_hi)
        bc_lo, bc_hi = self._imul(self.im_lo, self.im_hi, other.re_lo, other.re_hi)
        return ComplexBox(ac_lo - bd_hi, ac_hi - bd_lo, ad_lo + bc_lo, ad_hi + bc_hi)

    def scale(self, f: Fraction) -> "ComplexBox":
        f = Fraction(f)
        if f >= 0:
            return ComplexBox(self.re_lo * f, self.re_hi * f,
                              self.im_lo * f, self.im_hi * f)
        return ComplexBox(self.re_hi * f, self.re_lo * f,
                          self.im_hi * f, self.im_lo * f)

    def contains_zero(self) -> bool:
        return (self.re_lo <= 0 <= self.re_hi) and (self.im_lo <= 0 <= self.im_hi)

    def contains_box(self, other: "ComplexBox") -> bool:
        return (self.re_lo <= other.re_lo and other.re_hi <= self.re_hi
                and self.im_lo <= other.im_lo and other.im_hi <= self.im_hi)

    def intersect(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(max(self.re_lo, other.re_lo), min(self.re_hi, other.re_hi),
                          max(self.im_lo, other.im_lo), min(self.im_hi, other.im_hi))

    def overlaps(self, other: "ComplexBox") -> bool:
        return (self.re_lo <= other.re_hi and other.re_lo <= self.re_hi
                and self.im_lo <= other.im_hi and other.im_lo <= self.im_hi)

    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def round_out(self, prec: int) -> "ComplexBox":
        return ComplexBox(_dyadic_floor(self.re_lo, prec), _dyadic_ceil(self.re_hi, prec),
                          _dyadic_floor(self.im_lo, prec), _dyadic_ceil(self.im_hi, prec))


def _mpf_to_fraction(raw) -> Fraction:
    p, q = mpmath.libmp.to_rational(raw)
    return Fraction(int(p), int(q))


def _unit_root_box(n: int, k: int, prec: int) -> ComplexBox:
    """Certified box for exp(2*pi*i*k/n)."""
    k %= n
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec + 16
        theta = (iv.pi * (2 * k)) / n
        c, s = iv.cos(theta), iv.sin(theta)
        c_lo, c_hi = c._mpi_
        s_lo, s_hi = s._mpi_
        box = ComplexBox(_mpf_to_fraction(c_lo), _mpf_to_fraction(c_hi),
                         _mpf_to_fraction(s_lo), _mpf_to_fraction(s_hi))
    finally:
        iv.prec = old
    return box.round_out(prec + 8)


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class Field:
    """Abstract base; subclasses implement arithmetic on raw payloads."""

    def __call__(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is self or value.field == self:
                return value
            raise FieldMismatch(f"cannot reinterpret element of {value.field} in {self}")
        if isinstance(value, (int, Fraction)):
            return FieldElement(self, self.from_fraction(Fraction(value)))
        raise TypeError(f"cannot build element of {self} from {value!r}")

    def zero(self) -> "FieldElement":
        return self(0)

    def one(self) -> "FieldElement":
        return self(1)

    # payload protocol ------------------------------------------------
    def from_fraction(self, fr: Fraction):
        raise NotImplementedError

    def p_add(self, a, b):
        raise NotImplementedError

    def p_neg(self, a):
        raise NotImplementedError

    def p_mul(self, a, b):
        raise NotImplementedError

    def p_inv(self, a):
        raise NotImplementedError

    def p_is_zero(self, a) -> bool:
        raise NotImplementedError

    def p_conj(self, a):
        raise NotImplementedError

    def p_embed(self, a, prec: int) -> ComplexBox:
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class FieldElement:
    __slots__ = ("field", "payload")

    def __init__(self, field: Field, payload):
        self.field = field
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise FieldMismatch(
                f"elements of {self.field} and {other.field} do not mix; "
                f"lift explicitly")
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.p_add(self.payload, o.payload))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field,
                            self.field.p_add(self.payload, self.field.p_neg(o.payload)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.p_mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.field.p_is_zero(o.payload):
            raise ZeroDivisionError("division by zero field element")
        return FieldElement(self.field,
                            self.field.p_mul(self.payload, self.field.p_inv(o.payload)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FieldElement(self.field, self.field.p_neg(self.payload))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.field.one() / self
            k = -k
        acc = self.field.one()
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inv(self) -> "FieldElement":
        return self.field.one() / self

    def conj(self) -> "FieldElement":
        return FieldElement(self.field, self.field.p_conj(self.payload))

    def is_zero(self) -> bool:
        return self.field.p_is_zero(self.payload)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if not (other.field is self.field or other.field == self.field):
                return False
            return self.field.p_is_zero(
                self.field.p_add(self.payload, self.field.p_neg(other.payload)))
        if isinstance(other, (int, Fraction)):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.key(), self.payload))

    def __repr__(self):
        return f"{self.field.describe(self.payload)}"


# ---------------------------------------------------------------------------
# the rationals
# ---------------------------------------------------------------------------

class RationalField(Field):
    def key(self):
        return ("Q",)

    def __repr__(self):
        return "QQ"

    def from_fraction(self, fr):
        return fr

    def p_add(self, a, b):
        return a + b

    def p_neg(self, a):
        return -a

    def p_mul(self, a, b):
        return a * b

    def p_inv(self, a):
        return 1 / a

    def p_is_zero(self, a):
        return a == 0

    def p_conj(self, a):
        return a

    def p_embed(self, a, prec):
        return ComplexBox.exact(a)

    def describe(self, payload):
        return str(payload)


QQ = RationalField()


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------

_cyclo_fields: dict[int, "CyclotomicField"] = {}


class CyclotomicField(Field):
    """Q(zeta_n) for n >= 3, reduced power-basis representation mod Phi_n.

    For n in {1, 2} use ``QQ`` (the root of unity is rational there);
    :func:`root_of_unity_field` makes that choice automatically.
    """

    def __new__(cls, n: int):
        if n < 3:
            raise ValueError("use QQ for conductors 1 and 2")
        if n in _cyclo_fields:
            return _cyclo_fields[n]
        self = super().__new__(cls)
        self.n = n
        self.degree = euler_phi(n)
        phi = cyclotomic_coeffs(n)
        self.phi_coeffs = phi
        m = self.degree
        # reduction rows: x^(m+k) mod Phi_n for k = 0..m-2, built by
        # shifting and folding the spilled top term through x^m = -(lower Phi)
        rows = [tuple(-phi[i] for i in range(m))]
        for _ in range(m - 2):
            prev = rows[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            top = prev[-1]
            if top:
                first = rows[0]
                shifted = [shifted[i] + top * first[i] for i in range(m)]
            rows.append(tuple(shifted))
        self._red_rows = rows
        # zeta^j in the power basis, j = 0..n-1
        pows = []
        cur = [Fraction(0)] * m
        cur[0] = Fraction(1)
        for _ in range(n):
            pows.append(tuple(cur))
            cur = self._reduce([Fraction(0)] + list(cur))
        self._zeta_pows = pows
        _cyclo_fields[n] = self
        return self

    def key(self):
        return ("cyc", self.n)

    def __repr__(self):
        return f"QQ(zeta_{self.n})"

    def _reduce(self, coeffs):
        m = self.degree
        coeffs = list(coeffs)
        for j in range(len(coeffs) - 1, m - 1, -1):
            c = coeffs[j]
            if c:
                row = self._red_rows[j - m]
                for i in range(m):
                    if row[i]:
                        coeffs[i] += c * row[i]
            del coeffs[j]
        while len(coeffs) < m:
            coeffs.append(Fraction(0))
        return coeffs

    def from_fraction(self, fr):
        v = [Fraction(0)] * self.degree
        v[0] = fr
        return tuple(v)

    def from_coeffs(self, coeffs: Iterable[Scalar]) -> FieldElement:
        v = [Fraction(c) for c in coeffs]
        if len(v) > self.degree:
            v = self._reduce(v)
        while len(v) < self.degree:
            v.append(Fraction(0))
        return FieldElement(self, tuple(v))

    def zeta(self, power: int = 1) -> FieldElement:
        return FieldElement(self, self._zeta_pows[power % self.n])

    def p_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def p_neg(self, a):
        return tuple(-x for x in a)

    def p_mul(self, a, b):
        if all(x == 0 for x in a) or all(x == 0 for x in b):
            return self.from_fraction(Fraction(0))
        m = self.degree
        conv = [Fraction(0)] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return tuple(self._reduce(conv))

    def p_inv(self, a):
        # extended Euclid against Phi_n in Q[x]; Phi_n irreducible, so any
        # nonzero residue is invertible
        f = _fp_trim(list(a))
        if not f:
            raise ZeroDivisionError
        r0, r1 = list(self.phi_coeffs), f
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _fp_divmod(r0, r1)
            qs = _fp_mul(q, s1)
            ns = [Fraction(0)] * max(len(s0), len(qs))
            for i, v in enumerate(s0):
                ns[i] += v
            for i, v in enumerate(qs):
                ns[i] -= v
            _fp_trim(ns)
            r0, r1, s0, s1 = r1, r, s1, ns
        if len(r0) != 1:
            raise InexactDivision("nonconstant gcd against an irreducible modulus")
        c = r0[0]
        return tuple(self._reduce([x / c for x in s0]))

    def p_is_zero(self, a):
        return all(x == 0 for x in a)

    def galois(self, a, k: int):
        # zeta -> zeta^k on the payload; k must be coprime to n for a field map
        m = self.degree
        out = [Fraction(0)] * m
        for j, c in enumerate(a):
            if c:
                row = self._zeta_pows[(j * k) % self.n]
                for i in range(m):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def p_conj(self, a):
        return self.galois(a, self.n - 1)

    def p_embed(self, a, prec):
        box = ComplexBox.exact(Fraction(0))
        work = prec + 8
        for j, c in enumerate(a):
            if c:
                box = box + _unit_root_box(self.n, j, work).scale(c)
        return box

    def describe(self, payload):
        terms = []
        for j, c in enumerate(payload):
            if c:
                if j == 0:
                    terms.append(str(c))
                else:
                    terms.append(f"{c}*z{self.n}^{j}" if j > 1 else f"{c}*z{self.n}")
        return " + ".join(terms) if terms else "0"


def root_of_unity_field(n: int) -> Field:
    """Smallest supported field containing a primitive n-th root of unity."""
    return QQ if n <= 2 else CyclotomicField(n)


def root_of_unity(n: int) -> FieldElement:
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return QQ(1)
    if n == 2:
        return QQ(-1)
    return CyclotomicField(n).zeta()


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------

class QuadraticField(Field):
    """base(sqrt(delta)) with delta a non-square element of the base field.

    Elements are pairs (a, b) for a + b*sqrt(delta).  Exactly one radical
    layer is supported; the base must be QQ or a cyclotomic field.  Complex
    conjugation and embedding are implemented for real delta (checked via
    exact self-conjugacy), which covers every radicand used here.
    """

    def __init__(self, base: Field, delta: FieldElement):
        if isinstance(base, QuadraticField):
            raise ValueError("nested quadratic extensions are not supported")
        delta = base(delta)
        if delta.is_zero():
            raise ValueError("radicand must be nonzero")
        if isinstance(base, RationalField):
            fr = delta.payload
            if fr > 0 and all(math.isqrt(v) ** 2 == v
                              for v in (fr.numerator, fr.denominator)):
                # sqrt(delta) would be rational: 2 - sqrt(4) is a zero divisor
                raise ValueError(f"radicand {fr} is a square in Q")
        self.base = base
        self.delta = delta
        self._sqrt_sign = None  # +1 real branch, -1 imaginary branch

    def key(self):
        return ("quad", self.base.key(), self.delta.payload)

    def __repr__(self):
        return f"{self.base!r}(sqrt({self.delta!r}))"

    def from_fraction(self, fr):
        return (self.base(fr), self.base.zero())

    def from_parts(self, a, b) -> FieldElement:
        return FieldElement(self, (self.base(a), self.base(b)))

    def sqrt_delta(self) -> FieldElement:
        return FieldElement(self, (self.base.zero(), self.base.one()))

    def p_add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def p_neg(self, x):
        return (-x[0], -x[1])

    def p_mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c + self.delta * (b * d), a * d + b * c)

    def p_inv(self, x):
        a, b = x
        nrm = a * a - self.delta * (b * b)
        if nrm.is_zero():
            raise ZeroDivisionError("norm vanishes; radicand is a square in the base")
        return (a / nrm, -(b / nrm))

    def p_is_zero(self, x):
        return x[0].is_zero() and x[1].is_zero()

    def _branch_sign(self) -> int:
        # valid only for real delta: +1 when sqrt(delta) is real (delta > 0),
        # -1 when it is purely imaginary (delta < 0)
        if self._sqrt_sign is None:
            if self.delta.conj() != self.delta:
                raise NotImplementedError(
                    "conjugation/embedding implemented for real radicands only")
            s = sign_real(self.delta)
            if s == 0:
                raise ValueError("radicand is zero")
            self._sqrt_sign = 1 if s > 0 else -1
        return self._sqrt_sign

    def p_conj(self, x):
        a, b = x
        bc = b.conj()
        if self._branch_sign() < 0:
            bc = -bc
        return (a.conj(), bc)

    def _sqrt_delta_box(self, prec: int) -> ComplexBox:
        sgn = self._branch_sign()
        work = prec + 8
        attempt = work
        while True:
            dbox = self.base.p_embed(self.delta.payload, attempt)
            lo, hi = dbox.re_lo, dbox.re_hi
            if sgn > 0 and lo > 0:
                s_lo, s_hi = _sqrt_interval(lo, hi, work)
                return ComplexBox(s_lo, s_hi, Fraction(0), Fraction(0))
            if sgn < 0 and hi < 0:
                s_lo, s_hi = _sqrt_interval(-hi, -lo, work)
                return ComplexBox(Fraction(0), Fraction(0), s_lo, s_hi)
            attempt *= 2
            if attempt > 1 << 20:
                raise RuntimeError("failed to separate radicand from zero")

    def p_embed(self, x, prec):
        a, b = x
        work = prec + 8
        box_a = self.base.p_embed(a.payload, work)
        box_b = self.base.p_embed(b.payload, work)
        return box_a + box_b * self._sqrt_delta_box(work)

    def describe(self, payload):
        a, b = payload
        return f"({a!r}) + ({b!r})*sqrt({self.delta!r})"


# ---------------------------------------------------------------------------
# coercions between fields
# ---------------------------------------------------------------------------

def lift(x: FieldElement, target: Field) -> FieldElement:
    """Map x into ``target`` along the declared tower inclusions.

    Supported: QQ into anything; Q(zeta_m) into Q(zeta_n) when m | n; any
    base field into its quadratic extensions.  Anything else raises
    :class:`FieldMismatch` -- coercion is always explicit.
    """
    src = x.field
    if src == target:
        return target(x) if x.field is not target else x
    if isinstance(src, RationalField):
        if isinstance(target, CyclotomicField):
            return FieldElement(target, target.from_fraction(x.payload))
        if isinstance(target, QuadraticField):
            return FieldElement(target, (lift(x, target.base), target.base.zero()))
    if isinstance(src, CyclotomicField):
        if isinstance(target, CyclotomicField) and target.n % src.n == 0:
            k = target.n // src.n
            out = target.zero()
            for j, c in enumerate(x.payload):
                if c:
                    out = out + target.zeta(j * k) * c
            return out
        if isinstance(target, QuadraticField):
            return FieldElement(target, (lift(x, target.base), target.base.zero()))
    raise FieldMismatch(f"no declared embedding of {src} into {target}")


def common_field(f1: Field, f2: Field) -> Field:
    if f1 == f2:
        return f1
    if isinstance(f1, RationalField):
        return f2
    if isinstance(f2, RationalField):
        return f1
    if isinstance(f1, CyclotomicField) and isinstance(f2, CyclotomicField):
        n = math.lcm(f1.n, f2.n)
        return CyclotomicField(n)
    if isinstance(f1, QuadraticField) and not isinstance(f2, QuadraticField):
        if common_field(f1.base, f2) == f1.base:
            return f1
    if isinstance(f2, QuadraticField) and not isinstance(f1, QuadraticField):
        if common_field(f2.base, f1) == f2.base:
            return f2
    raise FieldMismatch(f"no common field for {f1} and {f2}")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def field_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Exact field arithmetic on two elements of the same field."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def complex_conjugate(a: FieldElement) -> FieldElement:
    return a.conj()


def interval_embed(a: FieldElement, precision: int = 128) -> ComplexBox:
    """Certified box containing the complex embedding of ``a``.

    Independent calls at different precisions need not nest; use
    :func:`refine_box` for a monotone refinement chain.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    return a.field.p_embed(a.payload, precision).round_out(precision)


def refine_box(a: FieldElement, previous: ComplexBox, precision: int) -> ComplexBox:
    """Refinement of ``previous`` at higher precision; result nests inside it."""
    return interval_embed(a, precision).intersect(previous)


def sign_real(a: FieldElement) -> int:
    """Exact sign of an element that is real under the declared embedding.

    Requires conj(a) == a; decides by interval refinement, which terminates
    because the embedding is injective on the represented field.
    """
    if a.conj() != a:
        raise ValueError("element is not fixed by complex conjugation")
    if a.is_zero():
        return 0
    prec = 64
    while prec <= (1 << 20):
        box = interval_embed(a, prec)
        if box.re_lo > 0:
            return 1
        if box.re_hi < 0:
            return -1
        prec *= 2
    raise RuntimeError("sign determination exceeded precision cap")
