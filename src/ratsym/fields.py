"""Exact coefficient fields and their integral rings: rationals, cyclotomic
fields and quadratic extensions.

Three kinds of field are supported, forming a small tower:

* ``QQ`` -- the rationals, backed by :class:`fractions.Fraction`;
* ``CyclotomicField(n)`` -- Q(zeta_n) as the quotient Q[x]/(Phi_n), elements
  stored in the power basis ``1, zeta, ..., zeta^(phi(n)-1)``;
* ``QuadraticField(base, delta)`` -- a single layer base(sqrt(delta)) on top
  of either of the above (nested radical towers are not supported).

Every element is a :class:`FieldElement` holding a reference to its field and
an immutable payload; all arithmetic is exact and pure.  Payloads are
canonical, so equality and hashing read them and take no arithmetic: a
reduced ``Fraction`` over Q, the phi(n)-tuple of ``Fraction`` coordinates in
the power basis over Q(zeta_n), and the pair (a, b) of base elements for
a + b sqrt(delta) over a quadratic layer.  Elements of distinct
fields never mix implicitly -- use :func:`lift` / :func:`common_field`.  The
declared complex embedding sends zeta_n to exp(2*pi*i/n) and picks the branch
of sqrt(delta) with nonnegative real part (positive imaginary part on ties);
:func:`interval_embed` encloses it in a rectangle whose corners are integers
at one binary scale.

Every field also has an integral ring, on which the polynomial kernel runs:
Z for Q, Z[zeta_n] for Q(zeta_n), and pairs over the base's ring for a
quadratic layer.  Z[zeta_n] is defined once, by the integer coordinates of
zeta^j for j < n; a cyclotomic field clears denominators and takes its
products, inverses (a norm cofactor over the norm) and conjugates there.
Z and Z[zeta_n] have residue homomorphisms onto F_p, zeta -> w^u for the
roots w^u of Phi_n modulo primes p = 1 (mod n) below 2^30
(:func:`_residue_prime`, :func:`_root_of_unity_mod`), on which every
resultant (through ``poly.pencil_resultant``) and null-space vector
(``poly.kernel_vector``) over them runs; a quadratic layer has none, and its
resultants run over its base ring, with sqrt(D) as an indeterminate.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

__all__ = [
    "Field",
    "FieldElement",
    "RationalField",
    "CyclotomicField",
    "QuadraticField",
    "QQ",
    "FieldMismatch",
    "InexactDivision",
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
    remainder, or a norm that must be rational was not.  Raised, never
    asserted, so that ``python -O`` keeps it."""


class BadResidueMap(ValueError):
    """A residue map whose prime or root of unity fails its exact check."""


Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# exact integer division
# ---------------------------------------------------------------------------

def _exact_quo(x: int, d: int) -> int:
    q, r = divmod(x, d)
    if r:
        # bit lengths, not values: str() of an int above 4300 digits raises
        raise InexactDivision(f"a {d.bit_length()}-bit divisor does not divide "
                              f"a {x.bit_length()}-bit dividend")
    return q


def _zpoly_exact_quo(f: list[int], g: list[int]) -> list[int]:
    """f / g in Z[x]; a remainder raises :class:`InexactDivision`."""
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = _exact_quo(r[k + len(g) - 1], g[-1])
        if c:
            for j, y in enumerate(g):
                r[k + j] -= c * y
    if any(r):
        raise InexactDivision("polynomial division leaves a remainder")
    return q


def _rational_perfect_root(fr: Fraction, k: int) -> Optional[Fraction]:
    """The rational r with r^k = fr, nonnegative for even k, if there is
    one (0 for 0), else None.  Each integer k-th root is taken as
    floor(n^(1/k)) by Newton's method from above and checked exactly."""
    def root(n: int) -> int:
        if n < 2:
            return n
        x = 1 << -(-n.bit_length() // k)
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                return x
            x = y
    if fr < 0 and k % 2 == 0:
        return None
    num, den = abs(fr.numerator), fr.denominator
    rn, rd = root(num), root(den)
    if rn ** k != num or rd ** k != den:
        return None
    return Fraction(-rn if fr < 0 else rn, rd)


def _rational_value(x: FieldElement) -> Optional[Fraction]:
    """x as a Fraction when it is rational: any element of Q, a cyclotomic
    payload (q, 0, ..., 0), or a layer element a + 0 sqrt(delta) with a
    rational; else None."""
    if isinstance(x.field, RationalField):
        return x.payload
    if isinstance(x.field, CyclotomicField) and not any(x.payload[1:]):
        return x.payload[0]
    if isinstance(x.field, QuadraticField) and x.payload[1].is_zero():
        return _rational_value(x.payload[0])
    return None


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
        # x^n - 1 divided exactly, over Z, by each lower-level factor
        f = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                f = _zpoly_exact_quo(f, [int(c) for c in cyclotomic_coeffs(d)])
        _cyclo_cache[n] = tuple(map(Fraction, f))
    return _cyclo_cache[n]


# ---------------------------------------------------------------------------
# certified enclosures: four integers (re_lo, re_hi, im_lo, im_hi) standing
# for the rectangle [re_lo, re_hi] + [im_lo, im_hi]*i scaled by 2^-prec
# ---------------------------------------------------------------------------

Enclosure = tuple[int, int, int, int]


def _round_out(lo: int, hi: int, k: int) -> tuple[int, int]:
    """[lo, hi] at scale 2^-(p+k), rounded outward to scale 2^-p."""
    return lo >> k, -(-hi >> k)


@functools.lru_cache(maxsize=32)
def _pi(w: int) -> tuple[int, int]:
    """(P, e) with |P - 2^w pi| < e, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), arctan(1/m) = sum_j +-1/(j m^j)
    over odd j.  Each term floor(floor(2^w/m^j)/j) = floor(2^w/(j m^j)) lies
    within 1 of its exact value; the sum stops at the first j with
    floor(2^w/m^j) = 0, so the alternating, decreasing tail is below
    2^w/(j m^j) < 1.  An arctan is off by less than its count of terms plus
    one, and e counts those 16 and 4 times."""
    total = err = 0
    for c, m in ((16, 5), (-4, 239)):
        p, j = (1 << w) // m, 1
        while p:
            total += c * (p // j)
            c, j, p, err = -c, j + 2, p // (m * m), err + abs(c)
        err += abs(c)
    return total, err


# every coefficient of a polynomial over Q(zeta_n) asks for the same roots
@functools.lru_cache(maxsize=1024)
def _unit_root_box(n: int, k: int, prec: int) -> Enclosure:
    """Enclosure at 2^-prec of exp(2*pi*i*k/n), in integers, with each side
    at most 2 units wide.

    Reduction: 4 (k mod n) = qn + r with 0 <= r < n makes the angle q
    quarter turns plus (pi/2) r/n, and r -> n - r, swapping cos and sin,
    brings it to a = (pi/2) r/n in [0, pi/4].  r = 0 is exact, and quarter
    turns map boxes to boxes exactly.

    Error: at w = prec + g bits, x = floor(P r/(2n)) for (P, e) of
    :func:`_pi` is within e/4 + 1 < e of 2^w a, as r/(2n) <= 1/4 and
    e >= 20.  With u = x/2^w < 1, the terms t_0 = 2^w,
    t_j = floor(t_(j-1) x/(2^w j)) fall short of 2^w u^j/j! by
    d_j < d_(j-1) u/j + 1 < 2; they stop at the first t_J = 0, and the exact
    terms decrease, so each alternating tail is below 2.  cos and sin are
    1-Lipschitz, so each sum is within E = e + 2J + 2 of 2^w cos a or
    2^w sin a, and floor and ceiling of (sum -+ E)/2^g enclose.  The checked
    2E <= 2^g makes each side at most 2 units wide; it also gives
    e < 2^(g-1) <= 2^(w-2), so |u - a| < (e/4 + 1)/2^w < 1/8 and u < 1."""
    q, r = divmod(4 * (k % n), n)
    swap = 2 * r > n
    if swap:
        r = n - r
    if r == 0:
        cos, sin = (1 << prec, 1 << prec), (0, 0)
    else:
        g = prec.bit_length() + 8
        w = prec + g
        pi, err = _pi(w)
        x = pi * r // (2 * n)
        sums, t, j = [0, 0], 1 << w, 0
        while t:
            sums[j & 1] += t if j % 4 < 2 else -t
            j += 1
            t = ((t * x) >> w) // j
        err += 2 * j + 2
        if 2 * err > 1 << g:
            raise ArithmeticError(f"enclosure error {err} exceeds 2^{g - 1}")
        cos, sin = (((v - err) >> g, -((-v - err) >> g)) for v in sums)
        if swap:
            cos, sin = sin, cos
    for _ in range(q):
        cos, sin = (-sin[1], -sin[0]), cos
    return cos + sin


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
            # a Fraction is immutable, so one already built is taken as it is
            return FieldElement(self, self.from_fraction(
                value if type(value) is Fraction else Fraction(value)))
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

    def p_embed(self, a, prec: int) -> Enclosure:
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
            return self.payload == other.payload
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
        # floor and ceiling of a * 2^prec
        return ((a.numerator << prec) // a.denominator,
                -((-a.numerator << prec) // a.denominator), 0, 0)

    def describe(self, payload):
        return str(payload)


QQ = RationalField()


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------

_cyclo_fields: dict[int, "CyclotomicField"] = {}


class CyclotomicField(Field):
    """Q(zeta_n) for n >= 3, reduced power-basis representation mod Phi_n.

    Payloads are tuples of Fractions.  Products, inverses and conjugates
    clear denominators and run on the integral ring Z[zeta_n]
    (``self.ring``), whose table of the powers of zeta is the field's only
    reduction data.

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
        self.phi_coeffs = cyclotomic_coeffs(n)
        self.ring = _CyclotomicIntegers(self)
        _cyclo_fields[n] = self
        return self

    def key(self):
        return ("cyc", self.n)

    def __repr__(self):
        return f"QQ(zeta_{self.n})"

    def from_fraction(self, fr):
        v = [Fraction(0)] * self.degree
        v[0] = fr
        return tuple(v)

    def from_coeffs(self, coeffs: Iterable[Scalar]) -> FieldElement:
        # a Fraction is immutable, so one already built is taken as it is
        v = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(v) > self.degree:
            den, x = _clear(v)
            return FieldElement(self, _fractions(self.ring.at_power(x, 1), den))
        v += [Fraction(0)] * (self.degree - len(v))
        return FieldElement(self, tuple(v))

    def zeta(self, power: int = 1) -> FieldElement:
        return FieldElement(self, _fractions(self.ring.pows[power % self.n], 1))

    def p_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def p_neg(self, a):
        return tuple(-x for x in a)

    def p_mul(self, a, b):
        if not any(a) or not any(b):
            return self.from_fraction(Fraction(0))
        da, x = _clear(a)
        db, y = _clear(b)
        return _fractions(self.ring.mul(x, y), da * db)

    def p_inv(self, a):
        # with a = x / D and x * cof = N(x), a rational integer:
        # 1 / a = D * cof / N(x)
        den, x = _clear(a)
        if not any(x):
            raise ZeroDivisionError("division by zero field element")
        cof, norm = self.ring.norm_cofactor(x)
        return _fractions(self.ring.scale(cof, den), norm)

    def p_is_zero(self, a):
        return not any(a)

    def p_conj(self, a):
        den, x = _clear(a)
        return _fractions(self.ring.at_power(x, -1), den)

    def p_embed(self, a, prec):
        # D * a = sum x_j zeta^j with integers x_j: sum x_j times each unit
        # root's enclosure at 2^-(prec+16), then divide outward by D * 2^16
        den, x = _clear(a)
        re_lo = re_hi = im_lo = im_hi = 0
        for j, c in enumerate(x):
            if c:
                u = _unit_root_box(self.n, j, prec + 16)
                if c < 0:
                    u = (u[1], u[0], u[3], u[2])
                re_lo += c * u[0]
                re_hi += c * u[1]
                im_lo += c * u[2]
                im_hi += c * u[3]
        d = den << 16
        return (re_lo // d, -(-re_hi // d), im_lo // d, -(-im_hi // d))

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
        q = _rational_value(delta)
        if q is not None and _rational_perfect_root(q, 2) is not None:
            # sqrt(delta) would be rational: 2 - sqrt(4) is a zero divisor
            raise ValueError(f"radicand {q} is a square in Q")
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

    def _sqrt_abs_delta(self, prec: int) -> tuple[int, int]:
        """Enclosure [lo, hi] of |sqrt(delta)| at scale 2^-prec."""
        attempt = 2 * prec
        while True:
            lo, hi = self.base.p_embed(self.delta.payload, attempt)[:2]
            if self._branch_sign() < 0:
                lo, hi = -hi, -lo
            if lo > 0:
                # |delta| in [lo, hi] at 2^-(2 prec), then integer roots
                lo, hi = _round_out(lo, hi, attempt - 2 * prec)
                s = math.isqrt(hi)
                return math.isqrt(lo), s + (s * s < hi)
            attempt *= 2
            if attempt > 1 << 20:
                raise RuntimeError("failed to separate radicand from zero")

    def p_embed(self, x, prec):
        # a + b * |sqrt(delta)|, the b-part turned by i when delta < 0,
        # summed at 2^-(2w) and rounded outward once to 2^-prec
        a, b = x
        w = prec + 8
        s_lo, s_hi = self._sqrt_abs_delta(w)
        box_b = self.base.p_embed(b.payload, w)
        re_b, im_b = ((lo * (s_lo if lo >= 0 else s_hi), hi * (s_hi if hi >= 0 else s_lo))
                      for lo, hi in (box_b[:2], box_b[2:]))
        if self._branch_sign() < 0:
            re_b, im_b = (-im_b[1], -im_b[0]), re_b
        box_a = self.base.p_embed(a.payload, w)
        k = 2 * w - prec
        return (_round_out((box_a[0] << w) + re_b[0], (box_a[1] << w) + re_b[1], k)
                + _round_out((box_a[2] << w) + im_b[0], (box_a[3] << w) + im_b[1], k))

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
            # zeta_m = zeta_n^(n/m), read from the target's table
            den, v = _clear(x.payload)
            return FieldElement(target, _fractions(
                target.ring.at_power(v, target.n // src.n), den))
        if isinstance(target, QuadraticField):
            return FieldElement(target, (lift(x, target.base), target.base.zero()))
    raise FieldMismatch(f"no declared embedding of {src} into {target}")


def _ring_lift(x, src, ring):
    """The image of x, an element of the integral ring ``src`` of a field,
    in the integral ring ``ring`` of a field that :func:`lift` maps that
    field into: an integer is a multiple of one, Z[zeta_m] goes into
    Z[zeta_n] by zeta_m = zeta_n^(n/m) (:meth:`_CyclotomicIntegers.at_power`),
    and the base's ring into a quadratic layer's as the pairs (x, 0).
    A zero goes to the target ring's zero."""
    if src is ring:
        return x
    if x == src.zero:
        return ring.zero
    if src.base is None:
        return ring.scale(ring.one, x)
    if isinstance(ring, _QuadraticIntegers):
        return (_ring_lift(x, src, ring.base), ring.base.zero)
    return ring.at_power(x, ring.n // src.n)


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


def _absolute_degree(field: Field) -> int:
    """[K:Q], the number of complex embeddings of the field."""
    if isinstance(field, QuadraticField):
        return 2 * _absolute_degree(field.base)
    return field.degree if isinstance(field, CyclotomicField) else 1


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def interval_embed(a: FieldElement, precision: int = 128) -> Enclosure:
    """Certified enclosure of the complex embedding of ``a``: integers
    (re_lo, re_hi, im_lo, im_hi) with re_lo <= 2^precision * Re(a) <= re_hi
    and im_lo <= 2^precision * Im(a) <= im_hi."""
    if precision < 1:
        raise ValueError("precision must be positive")
    return a.field.p_embed(a.payload, precision)


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
        re_lo, re_hi = interval_embed(a, prec)[:2]
        if re_lo > 0:
            return 1
        if re_hi < 0:
            return -1
        prec *= 2
    raise RuntimeError("sign determination exceeded precision cap")


# ---------------------------------------------------------------------------
# primes and roots of unity modulo them, for the modular kernels of poly
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is
    deterministic below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _residue_prime(n: int, k: int = 0) -> int:
    """The k-th prime p < 2^30 with p = 1 (mod n), from the largest
    downwards, so that F_p holds the n-th roots of unity and residues fit
    one CPython digit.  For n = 1 these are the primes below 2^30."""
    p = _residue_prime(n, k - 1) - n if k else (2 ** 30 - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
    return p


def _root_of_unity_mod(field: CyclotomicField, p: int) -> int:
    """A root w of Phi_n modulo the prime p = 1 (mod n): the first
    g^((p-1)/n), g = 2, 3, ..., at which Phi_n vanishes.  A p that is not
    such a prime, or a search that finds no root, raises
    :class:`BadResidueMap`."""
    n = field.n
    if not _is_prime(p) or (p - 1) % n:
        raise BadResidueMap(f"{p} is not a prime = 1 (mod {n})")
    phi = [int(c) for c in field.phi_coeffs]
    for g in range(2, min(p, 1000)):
        w = pow(g, (p - 1) // n, p)
        if sum(c * pow(w, k, p) for k, c in enumerate(phi)) % p == 0:
            return w
    raise BadResidueMap(f"no root of Phi_{n} found modulo {p}")


# ---------------------------------------------------------------------------
# the integral rings: Z for Q, Z[zeta_n] for Q(zeta_n), pairs for a
# quadratic layer
# ---------------------------------------------------------------------------

def _clear(payload) -> tuple[int, list[int]]:
    """The least denominator D of a cyclotomic payload and the integer
    coordinates of D times it."""
    den = math.lcm(*[c.denominator for c in payload])
    return den, [c.numerator * (den // c.denominator) for c in payload]


def _fractions(v, den: int) -> tuple[Fraction, ...]:
    """The payload of the integer coordinates v divided by den."""
    if den == 1:
        return tuple(map(Fraction, v))
    return tuple(Fraction(x, den) for x in v)


class _RationalIntegers:
    """Z inside Q; elements are ints."""
    zero, one, base = 0, 1, None
    add, sub, mul = operator.add, operator.sub, operator.mul

    @staticmethod
    def scale(a: int, k: int) -> int:
        return a * k

    @staticmethod
    def quo(a: int, d: int) -> int:
        return _exact_quo(a, d)

    @staticmethod
    def clear(elems: Sequence[FieldElement]) -> tuple[int, list[int]]:
        """A common denominator D and the integers D * e."""
        den = math.lcm(1, *(e.payload.denominator for e in elems))
        return den, [e.payload.numerator * (den // e.payload.denominator)
                     for e in elems]

    @staticmethod
    def to_field(a: int, den: int) -> FieldElement:
        return QQ(Fraction(a, den))


class _CyclotomicIntegers:
    """Z[zeta_n] inside Q(zeta_n); elements are int tuples in the power basis
    1, zeta, ..., zeta^(m-1), m = phi(n).

    Phi_n is monic with integer coefficients, so every power of zeta has
    integer coordinates.  One table holds them for zeta^j, j < n, and serves
    reduction, conjugation and lifting (:meth:`at_power`)."""
    base = _RationalIntegers

    def __init__(self, field: CyclotomicField):
        self.field = field
        n, m = self.n, self.m = field.n, field.degree
        phi = [int(c) for c in field.phi_coeffs]
        # zeta^(j+1) = zeta * zeta^j, folding zeta^m = -(Phi_n - x^m)
        pows, cur = [], [1] + [0] * (m - 1)
        for _ in range(n):
            pows.append(tuple(cur))
            top, cur = cur[-1], [0] + cur[:-1]
            if top:
                cur = [c - top * f for c, f in zip(cur, phi)]
        self.pows = pows
        self._units = [k for k in range(2, n) if math.gcd(k, n) == 1]
        self.zero = (0,) * m
        self.one = pows[0]

    @staticmethod
    def add(a, b):
        return tuple(map(operator.add, a, b))

    @staticmethod
    def sub(a, b):
        return tuple(map(operator.sub, a, b))

    @staticmethod
    def scale(a, k: int):
        return tuple(x * k for x in a)

    @staticmethod
    def quo(a, d: int):
        return tuple(_exact_quo(x, d) for x in a)

    def mul(self, a, b):
        m, n, pows = self.m, self.n, self.pows
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = conv[:m]
        for k in range(m, 2 * m - 1):
            c = conv[k]
            if c:
                for i, e in enumerate(pows[k % n]):
                    out[i] += c * e
        return tuple(out)

    def at_power(self, p, k: int) -> tuple:
        """p(zeta^k) in the power basis, for integer coordinates p of any
        length: sigma_k(p) for k prime to n, the reduction of p for k = 1,
        and the image of p in Z[zeta_(n/k)] inside Z[zeta_n] for k | n."""
        n, pows = self.n, self.pows
        out = [0] * self.m
        for j, c in enumerate(p):
            if c:
                for i, e in enumerate(pows[j * k % n]):
                    if e:
                        out[i] += c * e
        return tuple(out)

    def conjugates(self, p) -> list[tuple]:
        """sigma_k(p) for the automorphisms sigma_k other than 1."""
        return [self.at_power(p, k) for k in self._units]

    @staticmethod
    def to_base(a) -> int:
        if any(a[1:]):
            raise InexactDivision("the norm of a cyclotomic integer is not rational")
        return a[0]

    def norm_cofactor(self, p) -> tuple[tuple, int]:
        """(c, N) with p * c = N: c is the product of the Galois conjugates
        of p other than p, and N = N(p) is a rational integer."""
        cof = self.one
        for sigma in self.conjugates(p):
            cof = self.mul(cof, sigma)
        return cof, self.to_base(self.mul(p, cof))

    @staticmethod
    def clear(elems: Sequence[FieldElement]) -> tuple[int, list[tuple]]:
        """A common denominator D and the integer tuples D * e."""
        den = math.lcm(1, *(c.denominator for e in elems for c in e.payload))
        return den, [tuple(c.numerator * (den // c.denominator) for c in e.payload)
                     for e in elems]

    def to_field(self, a, den: int) -> FieldElement:
        return FieldElement(self.field, _fractions(a, den))


class _QuadraticIntegers:
    """R[sqrt(D)] inside base(sqrt(delta)), for the base's ring R; elements
    are pairs (a, b) over R for a + b sqrt(D).  With k the denominator that
    clears delta, D = k^2 delta lies in R and sqrt(D) = k sqrt(delta).
    It has no residue map, since sqrt(D) need not exist modulo a prime: a
    resultant over it runs over R with sqrt(D) as an indeterminate
    (``poly.pencil_resultant``) and inverts no element."""

    def __init__(self, field: QuadraticField):
        self.field = field
        base = self.base = _integral_ring(field.base)
        self.k, (kdelta,) = base.clear([field.delta])
        self.D = base.scale(kdelta, self.k)
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def sub(self, x, y):
        return (self.base.sub(x[0], y[0]), self.base.sub(x[1], y[1]))

    def scale(self, x, k: int):
        return (self.base.scale(x[0], k), self.base.scale(x[1], k))

    def mul(self, x, y):
        base = self.base
        (a, b), (c, e) = x, y
        return (base.add(base.mul(a, c), base.mul(self.D, base.mul(b, e))),
                base.add(base.mul(a, e), base.mul(b, c)))

    def conjugates(self, p) -> list[tuple]:
        """[conj(p)]: the image of p under sqrt(D) -> -sqrt(D)."""
        return [(p[0], self.base.scale(p[1], -1))]

    def to_base(self, p):
        if p[1] != self.base.zero:
            raise InexactDivision("the norm of a quadratic integer lies in the base")
        return p[0]

    def clear(self, elems: Sequence[FieldElement]) -> tuple[int, list[tuple]]:
        """A common denominator E and the pairs E * e."""
        base, k = self.base, self.k
        den, ints = base.clear([e.payload[0] for e in elems]
                               + [e.payload[1] for e in elems])
        n = len(elems)
        return den * k, [(base.scale(a, k), b) for a, b in zip(ints[:n], ints[n:])]

    def to_field(self, x, den: int) -> FieldElement:
        base = self.base
        return FieldElement(self.field, (base.to_field(x[0], den),
                                         base.to_field(base.scale(x[1], self.k), den)))


_rings: dict[tuple, object] = {}


def _integral_ring(field: Field):
    """The integral ring of the kernel for any supported field: Z for Q,
    the ring a cyclotomic field holds for Q(zeta_n), and pairs over the
    base's ring for a quadratic layer, cached by the field's key."""
    if field == QQ:
        return _RationalIntegers
    if isinstance(field, CyclotomicField):
        return field.ring
    key = field.key()
    if key not in _rings:
        _rings[key] = _QuadraticIntegers(field)
    return _rings[key]
