"""Rational self-maps of the projective line over an exact field.

A :class:`RationalMap` is a reduced pair (P, Q) with a certified degree:
gcd(P, Q) is constant and max(deg P, deg Q) = d >= 1, which together are
equivalent to the nonvanishing of the Sylvester resultant at formal degrees
(d, d).  Construction goes through :func:`make_map`, so every later
operation may assume nondegeneracy; :func:`compose`, :func:`conjugate`
and :meth:`RationalMap.lift` skip its gcd, because each keeps a reduced
pair reduced.
:func:`maps_equal`, :func:`compose`, :func:`conjugate` and
:func:`is_automorphism` run over the integral ring of the field
(:mod:`ratsym.fields`) at one integer point X = 2^S (Kronecker
substitution), with S from a bound on the power-basis coordinates of the
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
    "DegenerateMap",
    "make_map",
    "eval_proj",
    "compose",
    "conjugate",
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
    # _pair: the integral pair of _cleared_map in the map's own ring and its
    # height, filled on first use; nothing assigns num, den or degree after
    # construction
    __slots__ = ("field", "num", "den", "degree", "_pair")

    def __init__(self, field: Field, num: Poly, den: Poly, degree: int):
        # internal: use make_map
        self.field = field
        self.num = num
        self.den = den
        self.degree = degree
        self._pair = None

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
    if scale != 1:
        inv = scale.inv()
        P, Q = P * inv, Q * inv
    return RationalMap(P.field, P, Q, d)


def maps_equal(phi: RationalMap, psi: RationalMap) -> bool:
    """Projective equality of reduced maps: equal degrees and P Q' = P' Q,
    on the pairs of :func:`_cleared_map` at one integer point X = 2^S.

    *The point.*  With h as in :func:`_substituted`, each product expanded
    is a sum of products of two ring elements whose heights come to at most
    h(P) h(Q') or h(P') h(Q), so at most H H' for H = h(P) + h(Q) and
    H' = h(P') + h(Q'); S for 2 factors and that bound covers both, so they
    are equal exactly when their values at X are (:func:`poly._slot_width`)."""
    field = common_field(phi.field, psi.field)
    if phi.degree != psi.degree:
        return False
    ring = _integral_ring(field)
    (P, Q, H), (P2, Q2, H2) = _cleared_map(ring, phi), _cleared_map(ring, psi)
    S = _slot_width(ring, 2, H * H2)
    p, q, p2, q2 = (_pack(ring, f, S) for f in (P, Q, P2, Q2))
    return ring.mul(p, q2) == ring.mul(p2, q)


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


def compose(phi: RationalMap, psi: RationalMap) -> RationalMap:
    """phi o psi = (P, Q)(U, V) of degree d e, for phi = P/Q and psi = U/V
    of degrees d and e, by :func:`_substituted`.  It needs no gcd: at a
    common zero on P^1 of the composite pair, either U and V both vanish or
    (U : V) is a common zero of P and Q, and reduced pairs have neither."""
    field = common_field(phi.field, psi.field)
    ring = _integral_ring(field)
    U, V, _ = _cleared_map(ring, psi)
    S, A, B = _substituted(ring, *_cleared_map(ring, phi), U, V, 1)
    return _read_map(field, ring, S, A, B, phi.degree * psi.degree)


def _homogeneous_at(ring, fs: list, u, v) -> list:
    """f(u, v) = sum_k f_k u^k v^(d-k) for each coefficient list f in fs,
    all of formal degree d, at single ring elements u and v.

    Horner runs only over the exponents k_0 < ... < k_t at which some f has
    a nonzero coefficient: for each gap g between neighbours each
    accumulator is multiplied by u^g and the shared power v^(k_t - k) by
    v^g, and one last product puts in u^(k_0) v^(d - k_t).  The powers of
    u and v are taken once each, by squaring (:func:`_powers`).  With
    n = len(fs), that is at most (2n + 1) t + n + 1 ring products, plus
    O(log d) to take each distinct gap and k_0 and d - k_t as powers: a
    dense list has gaps of 1, which need no power, and costs what a dense
    Horner pass does, and a normal form z psi(z^m), whose nonzero terms
    sit on two residues modulo m, costs its nonzero terms, not d."""
    d = len(fs[0]) - 1
    zero, add, mul = ring.zero, ring.add, ring.mul
    zeros = (zero,) * len(fs)
    ks = [k for k, cs in enumerate(zip(*fs)) if cs != zeros]
    if not ks:
        return [zero] * len(fs)
    lo, hi = ks[0], ks[-1]
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    upow, vpow = _powers(ring, u, {*gaps, lo}), _powers(ring, v, {*gaps, d - hi})
    steps, w = [], None    # (k, u^g, v^(hi - k)) from k = hi - g down to lo
    for k, g in zip(reversed(ks[:-1]), reversed(gaps)):
        w = vpow[g] if w is None else mul(w, vpow[g])
        steps.append((k, upow[g], w))
    out = []
    for f in fs:
        acc = f[hi]
        for k, ug, w in steps:
            acc = mul(acc, ug)
            if f[k] != zero:
                acc = add(acc, mul(f[k], w))
        out.append(acc)
    ends = [pows[e] for pows, e in ((upow, lo), (vpow, d - hi)) if e]
    if ends:
        end = functools.reduce(mul, ends)
        out = [mul(acc, end) for acc in out]
    return out


def _powers(ring, x, exps: set) -> dict:
    """{e: x^e} for the positive exponents e in exps, by square and
    multiply over one shared table of the squares x^(2^i)."""
    mul, squares, out = ring.mul, [x], {}
    for e in exps:
        if e < 1:
            continue
        acc = None
        for i in range(e.bit_length()):
            if i == len(squares):
                squares.append(mul(squares[-1], squares[-1]))
            if e >> i & 1:
                acc = squares[i] if acc is None else mul(acc, squares[i])
        out[e] = acc
    return out


def _substituted(ring, P: list, Q: list, H: int, U: list, V: list, k: int):
    """(S, A, B): the values A, B at X = 2^S of the pair (P, Q)(U, V) of
    formal degree d, for polynomials U and V given by their coefficient
    lists.  Here h is the coordinate height summed over a polynomial's
    coefficients (:func:`_height`), H = h(P) + h(Q), as
    :func:`_cleared_map` gives it, and M = max(h(U), h(V)).  Expanded, A
    and B are sums of products of a coefficient of P or Q and one entry of
    each of d factors U or V, whose heights come to at most M^d H in all.
    S is the slot width of :func:`poly._slot_width` for d + 1 + k factors
    and the bound M^(d+1) H^k, which covers A and B times one ring element
    of height at most M (k = 1), and so A and B themselves, as M >= 1 and
    the product constant never falls as factors are added, or times a
    combination of P and Q with two such weights (k = 2)."""
    d = len(P) - 1
    M = max(_height(ring, U), _height(ring, V))
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
    S = _slot_width(ring, d, max(_height(ring, U), _height(ring, V)) ** d)
    u, v = _pack(ring, U, S), _pack(ring, V, S)
    upow, vpow = [ring.one], [ring.one]
    for _ in range(d):
        upow.append(ring.mul(upow[-1], u))
        vpow.append(ring.mul(vpow[-1], v))
    return [_unpack(ring, ring.mul(upow[j], vpow[d - j]), S, d + 1) for j in js]


def _integral_data(phi: RationalMap, T):
    """The field of phi and T together, its ring, the pair and height of
    :func:`_cleared_map` and the matrix entries of T cleared likewise."""
    from .mobius import MobiusMap  # local import to avoid a cycle
    if not isinstance(T, MobiusMap):
        raise TypeError("conjugator must be a MobiusMap")
    field = common_field(phi.field, T.field)
    ring = _integral_ring(field)
    return (field, ring, *_cleared_map(ring, phi), _cleared(ring, T.field, T.entries()))


def _height(ring, f: list) -> int:
    """h(f), the sum of the coordinate heights of the coefficients of f
    (:func:`poly._coordinate_height`)."""
    return sum(_coordinate_height(ring, c) for c in f)


def _cleared_map(ring, phi: RationalMap) -> tuple[list, list, int]:
    """(P, Q, H): P and Q at formal degree d, cleared together (up to a
    scalar, which changes no map) in the map's own ring once per map, and
    lifted into ``ring`` as by :func:`_cleared`, with H = h(P) + h(Q)
    (:func:`_height`).  H is kept with the pair in the map's own ring; a
    lift may change the coordinates, so a lifted pair is measured again."""
    src = _integral_ring(phi.field)
    if phi._pair is None:
        d = phi.degree
        pq = src.clear([f[k] for f in (phi.num, phi.den) for k in range(d + 1)])[1]
        phi._pair = (pq[:d + 1], pq[d + 1:], _height(src, pq))
    if src is ring:
        return phi._pair
    P, Q = ([_ring_lift(x, src, ring) for x in f] for f in phi._pair[:2])
    return P, Q, _height(ring, P) + _height(ring, Q)


def _cleared(ring, field: Field, elems) -> list:
    """The elements of the field, cleared of denominators together in the
    field's own ring and lifted into ``ring`` (:func:`fields._ring_lift`),
    so a map or matrix over a subfield clears only its own coordinates."""
    src = _integral_ring(field)
    return [_ring_lift(x, src, ring) for x in src.clear(elems)[1]]


def conjugate(phi: RationalMap, T) -> RationalMap:
    """T o phi o T^{-1} for a Moebius map T = (az + b)/(cz + d).

    With T^{-1} = (dw - b)/(-cw + a), phi o T^{-1} is the pair
    (P, Q)(dw - b, -cw + a) of formal degree d = deg phi, and T o phi o T^{-1}
    is (aP + bQ, cP + dQ) of that pair.  One Horner pass on single ring
    elements gives the values N(X) and D(X) of the result at X = 2^S, and
    :func:`_read_map` reads N and D off their digits.  A Moebius map sends a
    coprime homogeneous pair of degree d to another, so the result needs no
    gcd, only the canonical scaling of :func:`_scaled`.

    *The point.*  With h, H and M as in :func:`_substituted`, N and D
    expanded are sums of products of d + 2 ring elements: one of
    a, b, c, d, which are at most M, times a term of the substituted pair.
    Their heights come to at most M^(d+1) H in all, which the slot width S
    taken with k = 1 covers.
    """
    field, ring, P, Q, H, (a, b, c, e) = _integral_data(phi, T)
    zero, add, sub, mul = ring.zero, ring.add, ring.sub, ring.mul
    S, A, B = _substituted(ring, P, Q, H, [sub(zero, b), e], [a, sub(zero, c)], 1)
    return _read_map(field, ring, S, add(mul(a, A), mul(b, B)),
                     add(mul(c, A), mul(e, B)), phi.degree)


def _read_map(field: Field, ring, S: int, N, D, d: int) -> RationalMap:
    """The scaled pair of formal degree d with the values N, D at X = 2^S."""
    return _scaled(*(Poly(field, [ring.to_field(x, 1) for x in _unpack(ring, v, S, d + 1)])
                     for v in (N, D)), d)


def is_automorphism(phi: RationalMap, T) -> bool:
    """True when the Moebius map T = (az + b)/(cz + d) commutes with phi.

    Decides phi o T = T o phi without composing, inverting or reducing:
    with A, B = (P, Q)(aw + b, cw + d) at the formal degree d of phi, both
    sides are coprime pairs of formal degree d, so they agree exactly when
    A (cP + dQ) = B (aP + bQ), which is tested on the values of both sides
    at X = 2^S, and nothing unpacked: a few ring products for each
    exponent at which P or Q is nonzero, and O(log d) for each distinct
    gap between those exponents (:func:`_homogeneous_at`).

    *The point.*  With h, H and M as in :func:`_substituted`, both sides
    expanded are sums of products of d + 3 ring elements: a term of A or B,
    one of a, b, c, d and a coefficient of P or Q.  Their heights come to
    at most M^d H times M H in all, which the slot width S taken with k = 2
    covers, so the two sides are equal exactly when their values at X are.
    """
    _, ring, P, Q, H, (a, b, c, e) = _integral_data(phi, T)
    add, mul = ring.add, ring.mul
    S, A, B = _substituted(ring, P, Q, H, [b, a], [e, c], 2)
    p, q = _pack(ring, P, S), _pack(ring, Q, S)
    return mul(A, add(mul(c, p), mul(e, q))) == mul(B, add(mul(a, p), mul(b, q)))
