"""Rational self-maps of the projective line over an exact field.

A :class:`RationalMap` is a reduced pair (P, Q) with a certified degree:
gcd(P, Q) is constant and max(deg P, deg Q) = d >= 1, which together are
equivalent to the nonvanishing of the Sylvester resultant at formal degrees
(d, d).  Construction goes through :func:`make_map`, so every later
operation may assume nondegeneracy; only :func:`conjugate` and
:meth:`RationalMap.lift` skip its gcd, because a Moebius substitution and a
field extension both keep a reduced pair reduced.  Derivatives may drop
degree and are returned as unchecked :class:`FormalRatFunc` values instead.
:func:`conjugate` and :func:`is_automorphism` run over the integral ring
that every supported field has (:mod:`ratsym.fields`), at one integer point
X = 2^S (Kronecker substitution): each substitution (P, Q)(U, V) of linear
forms is a single ring element, taken by Horner's rule in O(d) ring
products, and S comes from a bound on the power-basis coordinates of the
polynomials it stands for, at which evaluation at X is injective.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .fields import (Field, FieldElement, FieldMismatch, _integral_ring,
                     _ring_lift, common_field, lift)
from .poly import (Poly, _coordinate_height, _pack, _slot_width, _unpack,
                   poly_gcd)

__all__ = [
    "ProjPoint",
    "RationalMap",
    "FormalRatFunc",
    "DegenerateMap",
    "make_map",
    "eval_proj",
    "compose",
    "conjugate",
    "derivative",
    "is_automorphism",
    "maps_equal",
]


class DegenerateMap(ValueError):
    """The reduced pair is constant (degree 0) or identically undefined."""


class ProjPoint:
    """Point of P^1: pair (x, y) up to scale, normalised to y=1 or (1,0)."""

    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement, y: FieldElement):
        if x.is_zero() and y.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        if not y.is_zero():
            x = x / y
            y = y.field.one()
        else:
            x = x.field.one()
        self.x = x
        self.y = y

    @classmethod
    def finite(cls, value: FieldElement) -> "ProjPoint":
        return cls(value, value.field.one())

    @classmethod
    def infinity(cls, field: Field) -> "ProjPoint":
        return cls(field.one(), field.zero())

    def is_infinity(self) -> bool:
        return self.y.is_zero()

    def lift(self, target: Field) -> "ProjPoint":
        return ProjPoint(lift(self.x, target), lift(self.y, target))

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.x * other.y == other.x * self.y and \
            (self.y.is_zero() == other.y.is_zero())

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "inf" if self.is_infinity() else f"{self.x!r}"


class RationalMap:
    __slots__ = ("field", "num", "den", "degree")

    def __init__(self, field: Field, num: Poly, den: Poly, degree: int):
        # internal: use make_map
        self.field = field
        self.num = num
        self.den = den
        self.degree = degree

    def __repr__(self):
        return f"RationalMap(({self.num!r}) / ({self.den!r}), degree={self.degree})"

    def __eq__(self, other):
        if not isinstance(other, RationalMap):
            return NotImplemented
        return maps_equal(self, other)

    def lift(self, target: Field) -> "RationalMap":
        # a coprime pair stays coprime over an extension, and keeps its scale
        if target == self.field:
            return self
        return RationalMap(target, self.num.lift(target), self.den.lift(target),
                           self.degree)

    def __call__(self, point):
        if isinstance(point, ProjPoint):
            return eval_proj(self, point)
        if isinstance(point, (int, Fraction)):
            point = self.field(point)
        return eval_proj(self, ProjPoint.finite(point))


def make_map(P: Poly, Q: Poly) -> RationalMap:
    """Reduce, certify and canonicalise a rational map P/Q.

    Divides out the gcd, certifies d = max(deg P, deg Q) >= 1 (so the
    resultant at formal degrees (d, d) is nonzero) and scales so the
    degree-d coefficient of the numerator -- or of the denominator when the
    numerator drops degree -- equals one.
    """
    if P.field != Q.field:
        raise FieldMismatch("numerator and denominator over different fields")
    if P.is_zero() or Q.is_zero():
        # 0/0, or gcd(0, Q) = Q: the pair reduces to the constant 0 or infinity
        raise DegenerateMap("a zero numerator or denominator gives no map")
    g = poly_gcd(P, Q)
    if g.degree > 0:
        P = P // g
        Q = Q // g
    d = max(P.degree, Q.degree)
    if d < 1:
        raise DegenerateMap("reduced map is constant")
    return _scaled(P, Q, d)


def _scaled(P: Poly, Q: Poly, d: int) -> RationalMap:
    """The coprime pair (P, Q) of degree d, scaled so that the degree-d
    coefficient of P -- or of Q when P drops degree -- equals one."""
    scale = P[d] if not P[d].is_zero() else Q[d]
    if scale.is_zero():
        raise DegenerateMap(f"pair has dropped below degree {d}")
    inv = scale.inv()
    return RationalMap(P.field, P * inv, Q * inv, d)


def maps_equal(phi: RationalMap, psi: RationalMap) -> bool:
    """Projective equality of reduced maps via cross multiplication."""
    if phi.field != psi.field:
        k = common_field(phi.field, psi.field)
        phi, psi = phi.lift(k), psi.lift(k)
    if phi.degree != psi.degree:
        return False
    return phi.num * psi.den == psi.num * phi.den


def eval_proj(phi: RationalMap, p: ProjPoint) -> ProjPoint:
    """Homogeneous evaluation at the map's formal degree."""
    if p.x.field != phi.field:
        k = common_field(phi.field, p.x.field)
        phi = phi.lift(k)
        p = p.lift(k)
    d = phi.degree
    x, y = p.x, p.y
    xs = [phi.field.one()]
    ys = [phi.field.one()]
    for _ in range(d):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    num = phi.field.zero()
    den = phi.field.zero()
    for k in range(d + 1):
        mono = xs[k] * ys[d - k]
        num = num + phi.num[k] * mono
        den = den + phi.den[k] * mono
    return ProjPoint(num, den)


def _subst_homogeneous(f: Poly, d: int, U: Poly, V: Poly) -> Poly:
    """sum_k f_k U^k V^(d-k) for f of formal degree d."""
    field = f.field
    upow = [Poly(field, (field.one(),))]
    vpow = [Poly(field, (field.one(),))]
    for _ in range(d):
        upow.append(upow[-1] * U)
        vpow.append(vpow[-1] * V)
    out = Poly.zero(field)
    for k in range(d + 1):
        c = f[k]
        if not c.is_zero():
            out = out + (upow[k] * vpow[d - k]) * c
    return out


def compose(phi: RationalMap, psi: RationalMap) -> RationalMap:
    """phi o psi, reduced; degree is the product of degrees."""
    if phi.field != psi.field:
        k = common_field(phi.field, psi.field)
        phi, psi = phi.lift(k), psi.lift(k)
    N = _subst_homogeneous(phi.num, phi.degree, psi.num, psi.den)
    D = _subst_homogeneous(phi.den, phi.degree, psi.num, psi.den)
    result = make_map(N, D)
    if result.degree != phi.degree * psi.degree:
        raise DegenerateMap("composition degree drop")
    return result


def _homogeneous_at(ring, fs: list, u, v) -> list:
    """f(u, v) = sum_k f_k u^k v^(d-k) for each coefficient list f in fs,
    all of formal degree d, at single ring elements u and v: Horner in u
    over the shared powers of v, O(d) ring products."""
    d = len(fs[0]) - 1
    zero, add, mul = ring.zero, ring.add, ring.mul
    vpows = [ring.one]
    for _ in range(d):
        vpows.append(mul(vpows[-1], v))
    out = []
    for f in fs:
        acc = f[d]
        for k in range(d - 1, -1, -1):
            acc = mul(acc, u)
            if f[k] != zero:
                acc = add(acc, mul(f[k], vpows[d - k]))
        out.append(acc)
    return out


def _substituted(ring, P: list, Q: list, U: list, V: list, k: int):
    """(S, A, B): the values A, B at X = 2^S of the pair (P, Q)(U, V) of
    formal degree d, for linear forms U and V given by their coefficient
    lists.  Here h is the coordinate height summed over a polynomial's
    coefficients (:func:`poly._coordinate_height`), H = h(P) + h(Q) and
    M = max(h(U), h(V)).  Expanded, A and B are sums of products of a
    coefficient of P or Q and d entries of U and V, whose heights come to
    at most M^d H in all.  S is the slot width of :func:`poly._slot_width`
    for d + 1 + k factors and the bound M^(d+1) H^k, which covers A and B
    times one ring element of height at most M (k = 1), or times a
    combination of P and Q with two such weights (k = 2)."""
    h = functools.partial(_coordinate_height, ring)
    d = len(P) - 1
    H = sum(map(h, P)) + sum(map(h, Q))
    M = max(sum(map(h, U)), sum(map(h, V)))
    S = _slot_width(ring, d + 1 + k, M ** (d + 1) * H ** k)
    return (S, *_homogeneous_at(ring, [P, Q], _pack(ring, U, S), _pack(ring, V, S)))


def _power_products(ring, U: list, V: list, d: int, js: list[int]) -> list[list]:
    """[U^j V^(d-j) for j in js], d >= 1, for linear forms U and V over the
    ring given by their coefficient lists, by Kronecker substitution: each
    product is read off the value u^j v^(d-j) at X = 2^S of u = U(X) and
    v = V(X) (:func:`poly._unpack`), from the shared powers of u and v.

    *The point.*  With h and M as in :func:`_substituted`, a product of d
    linear forms, expanded, is a sum of products of d of their entries,
    whose heights come to at most M^d in all; S is the slot width of
    :func:`poly._slot_width` for d factors and that bound."""
    h = functools.partial(_coordinate_height, ring)
    S = _slot_width(ring, d, max(sum(map(h, U)), sum(map(h, V))) ** d)
    u, v = _pack(ring, U, S), _pack(ring, V, S)
    upow, vpow = [ring.one], [ring.one]
    for _ in range(d):
        upow.append(ring.mul(upow[-1], u))
        vpow.append(ring.mul(vpow[-1], v))
    return [_unpack(ring, ring.mul(upow[j], vpow[d - j]), S, d + 1) for j in js]


def _integral_data(phi: RationalMap, T):
    """The field of phi and T together, its ring, and the numerator,
    denominator and matrix entries with denominators cleared (each up to a
    scalar, which changes neither the map nor the Moebius transformation).
    Each is cleared in the ring of its own field and then lifted into that
    ring (:func:`fields._ring_lift`), so a map over a subfield clears only
    its own coordinates."""
    from .mobius import MobiusMap  # local import to avoid a cycle
    if not isinstance(T, MobiusMap):
        raise TypeError("conjugator must be a MobiusMap")
    field = common_field(phi.field, T.field)
    ring = _integral_ring(field)
    d = phi.degree
    pq = _cleared(ring, phi.field, [phi.num[k] for k in range(d + 1)]
                  + [phi.den[k] for k in range(d + 1)])
    return field, ring, pq[:d + 1], pq[d + 1:], _cleared(ring, T.field, T.entries())


def _cleared(ring, field: Field, elems) -> list:
    """The elements of the field, cleared of denominators together in the
    field's own ring and lifted into ``ring``."""
    src = _integral_ring(field)
    return [_ring_lift(x, src, ring) for x in src.clear(elems)[1]]


def conjugate(phi: RationalMap, T) -> RationalMap:
    """T o phi o T^{-1} for a Moebius map T = (az + b)/(cz + d).

    With T^{-1} = (dw - b)/(-cw + a), phi o T^{-1} is the pair
    (P, Q)(dw - b, -cw + a) of formal degree d = deg phi, and T o phi o T^{-1}
    is (aP + bQ, cP + dQ) of that pair.  Computed over the field's integral
    ring (Z, Z[zeta_n], or pairs over it for a quadratic layer) at one
    integer point X = 2^S (Kronecker substitution): one Horner pass on
    single ring elements gives the values N(X) and D(X) of the result, and
    N and D are read off the signed base-2^S digits of their coordinates
    (:func:`poly._unpack`).  A Moebius map sends a coprime homogeneous pair
    of degree d to another, so the result needs no gcd, only the canonical
    scaling of :func:`make_map`.

    *The point.*  With h, H and M as in :func:`_substituted`, N and D
    expanded are sums of products of d + 2 ring elements: one of
    a, b, c, d, which are at most M, times a term of the substituted pair.
    Their heights come to at most M^(d+1) H in all, which the slot width S
    taken with k = 1 covers.
    """
    field, ring, P, Q, (a, b, c, e) = _integral_data(phi, T)
    zero, add, sub, mul = ring.zero, ring.add, ring.sub, ring.mul
    S, A, B = _substituted(ring, P, Q, [sub(zero, b), e], [a, sub(zero, c)], 1)
    count = phi.degree + 1
    N = _unpack(ring, add(mul(a, A), mul(b, B)), S, count)
    D = _unpack(ring, add(mul(c, A), mul(e, B)), S, count)
    return _scaled(Poly(field, [ring.to_field(x, 1) for x in N]),
                   Poly(field, [ring.to_field(x, 1) for x in D]), phi.degree)


class FormalRatFunc:
    """Reduced quotient of polynomials without the degree certificate."""

    __slots__ = ("field", "num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        s = den.lc().inv()
        self.field = num.field
        self.num = num * s
        self.den = den * s

    def __call__(self, a: FieldElement) -> FieldElement:
        from .poly import poly_eval
        return poly_eval(self.num, a) / poly_eval(self.den, a)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self):
        return f"FormalRatFunc(({self.num!r}) / ({self.den!r}))"


def derivative(phi: RationalMap) -> FormalRatFunc:
    """(P'Q - PQ')/Q^2 as a reduced formal rational function."""
    P, Q = phi.num, phi.den
    num = P.derivative() * Q - P * Q.derivative()
    return FormalRatFunc(num, Q * Q)


def is_automorphism(phi: RationalMap, T) -> bool:
    """True when the Moebius map T = (az + b)/(cz + d) commutes with phi.

    Decides phi o T = T o phi without composing, inverting or reducing:
    with A, B = (P, Q)(aw + b, cw + d) at the formal degree d of phi, both
    sides are coprime pairs of formal degree d, so they agree exactly when
    A (cP + dQ) = B (aP + bQ).  The test runs over the field's integral ring
    after clearing denominators once, on the values of both sides at one
    integer point X = 2^S (Kronecker substitution): O(d) ring products, and
    nothing unpacked.

    *The point.*  With h, H and M as in :func:`_substituted`, both sides
    expanded are sums of products of d + 3 ring elements: a term of A or B,
    one of a, b, c, d and a coefficient of P or Q.  Their heights come to
    at most M^d H times M H in all, which the slot width S taken with k = 2
    covers, so the two sides are equal exactly when their values at X are.
    """
    _, ring, P, Q, (a, b, c, e) = _integral_data(phi, T)
    add, mul = ring.add, ring.mul
    S, A, B = _substituted(ring, P, Q, [b, a], [e, c], 2)
    p, q = _pack(ring, P, S), _pack(ring, Q, S)
    return mul(A, add(mul(c, p), mul(e, q))) == mul(B, add(mul(a, p), mul(b, q)))
