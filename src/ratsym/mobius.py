"""Moebius transformations as exact 2x2 matrices up to scale.

Matrices are deliberately left unnormalised (no determinant-one scaling,
which could leave the coefficient field); equality, hashing and group
closure all work projectively.  The module also provides the standard
finite-subgroup generators: rotations z -> w_n z, the inversion 1/z, and the
three exceptional involutions pairing with rotations of orders 3, 4, 5 to
generate the tetrahedral, octahedral and icosahedral groups.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .fields import (QQ, CyclotomicField, Field, FieldElement, QuadraticField,
                     _absolute_degree, _integral_ring, common_field, lift,
                     root_of_unity)
from .ratmap import ProjPoint

__all__ = [
    "MobiusMap",
    "GroupSpec",
    "CapExceeded",
    "identity",
    "scaling",
    "inversion",
    "rotation",
    "translation",
    "mobius_order",
    "standard_generators",
    "group_closure",
]


class CapExceeded(RuntimeError):
    """Generated group larger than the closure cap (possibly infinite)."""


class MobiusMap:
    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: Field, a, b, c, d):
        a, b, c, d = field(a), field(b), field(c), field(d)
        if (a * d - b * c).is_zero():
            raise ValueError("matrix is singular")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d

    def entries(self) -> tuple[FieldElement, ...]:
        return (self.a, self.b, self.c, self.d)

    def lift(self, target: Field) -> "MobiusMap":
        if target == self.field:
            return self
        return MobiusMap(target, *(lift(e, target) for e in self.entries()))

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        if other.field != self.field:
            k = common_field(self.field, other.field)
            return self.lift(k).compose(other.lift(k))
        return MobiusMap(self.field,
                         self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.field, self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> "MobiusMap":
        if k < 0:
            return self.inverse() ** (-k)
        acc = identity(self.field)
        base = self
        while k:
            if k & 1:
                acc = acc.compose(base)
            base = base.compose(base)
            k >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def __eq__(self, other):
        if not isinstance(other, MobiusMap):
            return NotImplemented
        if self.field != other.field:
            k = common_field(self.field, other.field)
            return self.lift(k) == other.lift(k)
        mine, theirs = self.entries(), other.entries()
        for i in range(4):
            for j in range(i + 1, 4):
                if mine[i] * theirs[j] != mine[j] * theirs[i]:
                    return False
        return True

    def canonical_key(self):
        """Scale so the first nonzero entry is one; hashable projective key."""
        for e in self.entries():
            if not e.is_zero():
                inv = e.inv()
                return tuple((x * inv) for x in self.entries())
        raise AssertionError("zero matrix")

    def __hash__(self):
        return hash((self.field.key(), self.canonical_key()))

    def apply(self, point) -> ProjPoint:
        if isinstance(point, (int, Fraction, FieldElement)):
            point = ProjPoint.finite(self.field(point)
                                     if not isinstance(point, FieldElement) else point)
        if point.x.field != self.field:
            k = common_field(self.field, point.x.field)
            return self.lift(k).apply(point.lift(k))
        return ProjPoint(self.a * point.x + self.b * point.y,
                         self.c * point.x + self.d * point.y)

    def __call__(self, point):
        return self.apply(point)

    def __repr__(self):
        return (f"MobiusMap([{self.a!r}, {self.b!r}; "
                f"{self.c!r}, {self.d!r}])")


# --- convenient constructors ------------------------------------------------

def identity(field: Field = QQ) -> MobiusMap:
    return MobiusMap(field, 1, 0, 0, 1)


def scaling(lam: FieldElement) -> MobiusMap:
    """z -> lam * z."""
    if isinstance(lam, (int, Fraction)):
        lam = QQ(lam)
    if lam.is_zero():
        raise ValueError("scaling factor must be nonzero")
    return MobiusMap(lam.field, lam, 0, 0, 1)


def inversion(field: Field = QQ, mu=1) -> MobiusMap:
    """z -> mu / z."""
    m = MobiusMap(field, 0, field(mu) if not isinstance(mu, FieldElement) else mu,
                  1, 0)
    return m


def translation(c: FieldElement) -> MobiusMap:
    if isinstance(c, (int, Fraction)):
        c = QQ(c)
    return MobiusMap(c.field, 1, c, 0, 1)


def rotation(n: int) -> MobiusMap:
    """z -> w_n z for the primitive root of unity w_n = exp(2 pi i / n)."""
    w = root_of_unity(n)
    return scaling(w)


# --- element order -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _largest_order(bound: int) -> int:
    """The largest m with phi(m) <= bound; phi(m) >= sqrt(m) for m > 6, so
    every such m is at most max(6, bound^2), which a totient sieve covers."""
    top = max(6, bound * bound)
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return max(m for m in range(1, top + 1) if phi[m] <= bound)


def mobius_order(T: MobiusMap) -> Optional[int]:
    """Least k >= 1 with T^k projectively the identity, or None if infinite.

    A scalar T has order 1.  Otherwise, by Cayley-Hamilton,
    T^2 = tr(T) T - det(T) I, so T^k = alpha_k T + beta_k I with
    alpha_1 = 1, beta_1 = 0, alpha_(k+1) = tr(T) alpha_k + beta_k and
    beta_(k+1) = -det(T) alpha_k.  Since T is not scalar, T^k is scalar
    exactly when alpha_k = 0, and then beta_k != 0 because T is invertible:
    each step costs two products and no matrix.  The projective order of T
    is that of any nonzero multiple, so the recurrence runs over the
    field's integral ring on T with its denominators cleared once.

    A finite projective order m makes the ratio of the eigenvalues of T a
    primitive m-th root of unity.  The eigenvalues lie in an extension of
    degree at most 2 of the coefficient field K, so phi(m) <= 2 [K:Q], and
    powers beyond the largest such m need not be tried.
    """
    if T.is_identity():
        return 1
    cutoff = _largest_order(2 * _absolute_degree(T.field))
    ring = _integral_ring(T.field)
    add, sub, mul = ring.add, ring.sub, ring.mul
    _, (a, b, c, d) = ring.clear(T.entries())
    trace, neg_det = add(a, d), sub(mul(b, c), mul(a, d))
    alpha, beta = ring.one, ring.zero
    for k in range(2, cutoff + 1):
        alpha, beta = add(mul(trace, alpha), beta), mul(neg_det, alpha)
        if alpha == ring.zero:
            return k
    return None


# --- standard generators ------------------------------------------------------

@dataclass(frozen=True)
class GroupSpec:
    """One of the finite Moebius group types: cyclic/dihedral of order
    parameter n, or the three exceptional types."""
    kind: str             # "cyclic" | "dihedral" | "A4" | "S4" | "A5"
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind in ("cyclic", "dihedral"):
            if self.n is None or self.n < 2:
                raise ValueError("cyclic/dihedral groups need n >= 2")
        elif self.kind in ("A4", "S4", "A5"):
            if self.n is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    def order(self) -> int:
        if self.kind == "cyclic":
            return self.n
        if self.kind == "dihedral":
            return 2 * self.n
        return {"A4": 12, "S4": 24, "A5": 60}[self.kind]


def _sqrt3_in_z12() -> FieldElement:
    # sqrt(3) = zeta + zeta^{-1} = 2*zeta - zeta^3 in Q(zeta_12)
    return CyclotomicField(12).from_coeffs([0, 2, 0, -1])


def _sqrt2_in_z8() -> FieldElement:
    # sqrt(2) = zeta + zeta^{-1} = zeta - zeta^3 in Q(zeta_8)
    return CyclotomicField(8).from_coeffs([0, 1, 0, -1])


def tetrahedral_involution() -> MobiusMap:
    """The involution pairing with the order-3 rotation to generate the
    order-12 tetrahedral group; entries in Q(zeta_12)."""
    F = CyclotomicField(12)
    s = _sqrt3_in_z12() - 1
    return MobiusMap(F, s, s * s, F(2), -s)


def octahedral_involution() -> MobiusMap:
    """Involution pairing with the order-4 rotation; entries in Q(zeta_8)."""
    F = CyclotomicField(8)
    c = _sqrt2_in_z8() + 1
    return MobiusMap(F, -c, c * c, F(1), c)


def icosahedral_field() -> QuadraticField:
    F5 = CyclotomicField(5)
    delta = F5(2) - F5.zeta(1) - F5.zeta(4)
    return QuadraticField(F5, delta)


def icosahedral_involution() -> MobiusMap:
    """Involution pairing with the order-5 rotation; entries in
    Q(zeta_5)(sqrt(2 - zeta_5 - zeta_5^4))."""
    K = icosahedral_field()
    F5 = K.base
    t = K.one() + K.sqrt_delta()
    w = lift(F5(1) - F5.zeta(1) - F5.zeta(4), K)
    return MobiusMap(K, -t, t * t, w, t)


def standard_generators(spec: GroupSpec) -> list[MobiusMap]:
    """Exact generators for each finite group type.

    Cyclic(n): the rotation; Dihedral(n): rotation and 1/z; the exceptional
    groups: a rotation of order 3/4/5 with the matching involution, all
    placed in one field so they compose.  The pairing (rotation o involution)
    has order 3 in each exceptional case; pairing the order-3 rotation with
    the plain inversion 1/z instead would give an element of order 2 and
    generate a dihedral group, not the tetrahedral one.
    """
    if spec.kind == "cyclic":
        return [rotation(spec.n)]
    if spec.kind == "dihedral":
        T = rotation(spec.n)
        return [T, inversion(T.field)]
    if spec.kind == "A4":
        F = CyclotomicField(12)
        T = scaling(F.zeta(4))      # zeta_12^4 = zeta_3
        return [T, tetrahedral_involution()]
    if spec.kind == "S4":
        F = CyclotomicField(8)
        T = scaling(F.zeta(2))      # zeta_8^2 = zeta_4 = i
        return [T, octahedral_involution()]
    if spec.kind == "A5":
        K = icosahedral_field()
        T = scaling(lift(K.base.zeta(), K))
        return [T, icosahedral_involution()]
    raise AssertionError


def group_closure(gens: Iterable[MobiusMap], cap: int = 200) -> list[MobiusMap]:
    """Closure of the generated group by breadth-first products.

    Raises :class:`CapExceeded` as soon as more than ``cap`` projectively
    distinct elements appear.  Deterministic ordering.
    """
    gens = list(gens)
    if not gens:
        return []
    field = gens[0].field
    for g in gens[1:]:
        field = common_field(field, g.field)
    gens = [g.lift(field) for g in gens]
    seen: dict = {}
    start = identity(field)
    seen[start.canonical_key()] = start
    frontier = [start]
    while frontier:
        new_frontier = []
        for elem in frontier:
            for g in gens:
                prod = elem.compose(g)
                key = prod.canonical_key()
                if key not in seen:
                    seen[key] = prod
                    new_frontier.append(prod)
                    if len(seen) > cap:
                        raise CapExceeded(f"closure exceeds {cap} elements")
        frontier = new_frontier
    return list(seen.values())
