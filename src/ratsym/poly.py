"""Univariate polynomials over the exact fields, with the certification kit:
gcd (modular over Q, one residue image before Euclid over Q(zeta_n),
Euclidean over a quadratic layer), Sylvester resultants at *formal*
degrees, the norm over Q of a polynomial over any supported field, and
counting of real roots over Q.

Coefficients are stored ascending; the zero polynomial has an empty tuple and
degree -1.  The resultant takes formal degrees as explicit parameters because
degree drop must be detectable, not silently normalised away.

The kernel runs on the integral ring that :mod:`ratsym.fields` defines for
every supported field: Z for Q, Z[zeta_n] for Q(zeta_n), and pairs over the
base's ring for a quadratic layer.  The ring alone picks each kernel's
route.  The modular kernels take primes p = 1 (mod n) below 2^30 from one
sequence (``fields._residue_prime``, n = 1 over Z) and one Chinese
remainder join (:func:`_crt`): Brown's gcd over Z (:func:`_zgcd`),
:func:`pencil_resultant`, the resultant of two pencils in t that a path
segment's obstruction polynomial is made of, over Z and Z[zeta_n] (Euclid
over F_p under each residue map, up to a Hadamard bound), and
:func:`kernel_vector`, the first vector of a null space (row reduction
over F_p, rational reconstruction and an exact check), which
:func:`nullspace` calls once per basis vector.  Over a
quadratic layer :func:`pencil_resultant` takes sqrt(D) as an
indeterminate and runs over the base ring at nodes in it.
:func:`resultant` is its value on two constant pencils.
:func:`interpolate` takes forward differences in the ring.
:func:`squarefree_norm` substitutes t = 2^S into the polynomial
(Kronecker substitution), multiplies that one ring element by its
distinct conjugates down the tower to Z, and reads the norm's
coefficients off its digits in base 2^S; the map layer reads its
substitutions off such digits too, with S from the same coordinate bound
(:func:`_slot_width`).  :func:`sturm_roots_in_interval` counts in Z[x] by
the modular gcd and Descartes bisection.  The results are the same exact
values, polynomials and counts as over the field.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .fields import (QQ, CyclotomicField, Field, FieldElement, FieldMismatch,
                     InexactDivision, _absolute_degree, _integral_ring, _QuadraticIntegers,
                     _RationalIntegers, _residue_prime, _root_of_unity_mod,
                     _zpoly_exact_quo, cyclotomic_coeffs, lift)

__all__ = [
    "Poly",
    "poly_gcd",
    "resultant",
    "pencil_resultant",
    "squarefree_norm",
    "sturm_roots_in_interval",
    "poly_eval",
    "cyclotomic_polynomial",
    "interpolate",
    "nullspace",
    "kernel_vector",
    "BothZero",
    "InexactDivision",
]


class BothZero(ValueError):
    """gcd of two zero polynomials is undefined."""


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        elems = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if not (c.field is field or c.field == field):
                    raise FieldMismatch("coefficient from a different field")
                elems.append(c)
            else:
                elems.append(field(c))
        while elems and elems[-1].is_zero():
            elems.pop()
        self.field = field
        self.coeffs = tuple(elems)

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    # --- basic queries -------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def lc(self) -> FieldElement:
        if not self.coeffs:
            return self.field.zero()
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.key(), self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c!r})*x^{k}" if k else f"({c!r})"
                 for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return "Poly(" + " + ".join(terms) + ")"

    # --- arithmetic ----------------------------------------------------
    def _as_poly(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Poly(self.field, (other,))
        return None

    def __add__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[k] + other[k] for k in range(n)))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, (self[k] - other[k] for k in range(n)))

    def __rsub__(self, other) -> "Poly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Poly":
        return Poly(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            s = other if isinstance(other, FieldElement) else self.field(other)
            return Poly(self.field, (c if c.is_zero() else c * s for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.field), self
        inv_lead = other.lc().inv()
        quo = [self.field.zero()] * (dq + 1)
        ocs = other.coeffs
        while len(rem) >= len(ocs):
            c = rem[-1] * inv_lead
            k = len(rem) - len(ocs)
            quo[k] = c
            for j, b in enumerate(ocs):
                rem[k + j] = rem[k + j] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.lc().inv()

    def derivative(self) -> "Poly":
        return Poly(self.field, (self.coeffs[k] * k for k in range(1, len(self.coeffs))))

    # --- structure maps -------------------------------------------------
    def lift(self, target: Field) -> "Poly":
        if target == self.field:
            return self
        return Poly(target, (lift(c, target) for c in self.coeffs))

    def inflate(self, n: int) -> "Poly":
        """Substitute x -> x^n."""
        if n == 1 or self.is_zero():
            return self
        out = [self.field.zero()] * (self.degree * n + 1)
        for k, c in enumerate(self.coeffs):
            out[k * n] = c
        return Poly(self.field, out)

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k, for k >= 0."""
        if k < 0:
            raise ValueError("shift needs k >= 0")
        if self.is_zero() or k == 0:
            return self
        return Poly(self.field, (self.field.zero(),) * k + self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.coeffs) if not c.is_zero())


def poly_eval(f: Poly, a: FieldElement) -> FieldElement:
    """Horner evaluation; lifts the argument or coefficients as needed."""
    if not isinstance(a, FieldElement):
        a = f.field(a)
    if a.field != f.field:
        from .fields import common_field
        k = common_field(f.field, a.field)
        f = f.lift(k)
        a = lift(a, k)
    acc = f.field.zero()
    for c in reversed(f.coeffs):
        acc = acc * a + c
    return acc


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------

def _trim(v: list) -> list:
    while v and v[-1] == 0:
        v.pop()
    return v


def _int_content(v: list[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g or 1


def _crt(coords: list[int], modulus: int, residues: list[int], p: int) -> list[int]:
    """The integers x in [0, M p) with x = coords (mod M) and x = residues
    (mod p), entry by entry, for a prime p that does not divide M, by the
    Chinese remainder theorem; an empty coords at M = 1 starts the join."""
    inv = pow(modulus, -1, p)
    return [x + modulus * ((c - x) * inv % p)
            for x, c in zip(coords or [0] * len(residues), residues)]


def _symmetric_lift(coords: list[int], modulus: int) -> list[int]:
    """The representatives in (-M/2, M/2] of residues in [0, M)."""
    return [x - modulus if 2 * x > modulus else x for x in coords]


def _gcd_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """A gcd of f and g, not both zero modulo p, by Euclid over F_p."""
    a, b = _trim([c % p for c in f]), _trim([c % p for c in g])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, off = a[-1] * inv % p, len(a) - len(b)
            for j, y in enumerate(b):
                a[off + j] = (a[off + j] - c * y) % p
            _trim(a)
        a, b = b, a
    return a


def _zgcd(f: list[int], g: list[int]) -> list[int]:
    """The primitive gcd h, with lc h > 0, of nonzero f and g in Z[x], by
    Brown's modular algorithm (J. ACM 18, 1971).  A prime p that does not
    divide l = gcd(lc f, lc g) keeps deg h, since lc h divides l: a
    constant image proves f and g coprime, and no image has lower degree.
    Images scaled to leading coefficient l are joined by the Chinese
    remainder theorem, restarting at a lower degree and dropping a higher
    one.  The primitive symmetric lift is h once it divides f and g."""
    l, h, m, k = math.gcd(f[-1], g[-1]), [], 1, 0
    while True:
        p, k = _residue_prime(1, k), k + 1
        if l % p == 0:
            continue
        a = _gcd_mod(f, g, p)
        if len(a) == 1:
            return [1]
        if not h or len(a) < len(h):
            h, m = [], 1
        elif len(a) > len(h):
            continue
        s = l * pow(a[-1], -1, p)
        h, m = _crt(h, m, [c * s for c in a], p), m * p
        lift = _symmetric_lift(h, m)
        cont = _int_content(lift) * (1 if lift[-1] > 0 else -1)
        lift = [x // cont for x in lift]
        try:
            _zpoly_exact_quo(f, lift)
            _zpoly_exact_quo(g, lift)
        except InexactDivision:
            continue
        return lift


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; over Q the primitive gcd over Z of the cleared operands
    (:func:`_zgcd`), elsewhere monic Euclid.  Over Q(zeta_n) one residue
    image comes first: the cleared operands are taken to F_p by the first
    residue map of :func:`_residue_maps`, and if both leading coefficients
    survive there and the gcd modulo p is constant, then Res(f, g) is
    nonzero modulo p, hence nonzero, and the gcd is 1 without Euclid."""
    if f.field != g.field:
        raise FieldMismatch("gcd operands in different fields")
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.field == QQ:
        h = _zgcd(_integer_poly(f), _integer_poly(g))
        return Poly(QQ, [Fraction(c, h[-1]) for c in h])
    if isinstance(f.field, CyclotomicField):
        ring = f.field.ring
        p, maps, _ = _residue_maps(ring.n, 0)
        images = [_image(ring.clear(h.coeffs)[1], p, maps[0], False) for h in (f, g)]
        if all(image[-1] for image in images) and len(_gcd_mod(*images, p)) == 1:
            return Poly(f.field, [f.field.one()])
    a, b = f, g
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()
    return a.monic()


# ---------------------------------------------------------------------------
# null spaces modulo primes
# ---------------------------------------------------------------------------

def nullspace(ring, rows: Sequence[Sequence], ncols: int) -> list[list[FieldElement]]:
    """Exact basis of {v : rows * v = 0} for rows over Z or Z[zeta_n], the
    integral rings of Q and Q(zeta_n) in :mod:`ratsym.fields`: one vector
    per free column of the reduced row echelon form, in column order, which
    is one at that column, zero at the other free columns, and solves for
    the pivots; its entries are field elements.  This basis depends only
    on the kernel.  It is :func:`_kernel_vectors` in a list."""
    return list(_kernel_vectors(ring, rows, ncols))


def _kernel_vectors(ring, rows: Sequence[Sequence], ncols: int):
    """The vectors of :func:`nullspace` in order, lazily: the first is
    :func:`kernel_vector` of the rows, and each next one is
    :func:`kernel_vector` of the rows with the unit rows e_f appended, f
    the last nonzero column of each vector found.

    Let v_g be the basis vector of the free column g.  It is zero at every
    other free column, so v_(f2), v_(f3), ... satisfy e_(f1) v = 0, and
    they are independent, as many as the dimension of the smaller kernel
    (v_(f1) leaves it), and each is one at its column and zero at the other
    free columns, f1 now a pivot: they are its reduced echelon basis, whose
    first vector is v_(f2), zero beyond f2."""
    rows = list(rows)
    while (v := kernel_vector(ring, rows, ncols)) is not None:
        yield v
        unit = [ring.zero] * ncols
        unit[max(j for j, x in enumerate(v) if not x.is_zero())] = ring.one
        rows.append(unit)


def kernel_vector(ring, rows: Sequence[Sequence], ncols: int) -> list[FieldElement] | None:
    """The first vector of :func:`nullspace`, or None when the kernel is
    {0}: one at the first free column f, zero beyond it, and solving for
    the pivots 0..f-1.

    The rows that are independent modulo the k-th prime, under its first
    residue map, are picked greedily (:func:`_independent_mod_prime`,
    k = 0 first); a minor that is nonzero modulo p is nonzero in the ring,
    so they are independent over the field, and when there are ``ncols`` of
    them the kernel is {0}.  Otherwise :func:`_modular_kernel` gives the
    first vector v of the picked rows' kernel, by row reductions over F_p
    joined by the Chinese remainder theorem and rational reconstruction
    (Cabay, SYMSAC 1971; Wang, SYMSAC 1981), checked exactly on those
    rows.  That kernel contains the full one, so if v annihilates the other
    rows exactly, v lies in the full kernel; no nonzero vector of the full
    kernel ends left of f, since none of the picked kernel does, so v is
    the full kernel's first vector too.  If v fails, the picked rows'
    kernel is larger, so their rank over the field is below that of all
    rows, and the rank of all rows dropped modulo the k-th prime: the rows
    are picked again with the next prime that finds more of them.  Only
    finitely many primes divide the norm of a nonzero minor of full rank,
    so this ends.
    """
    n, k = 1 if ring.base is None else ring.n, 0
    picked = _independent_mod_prime(rows, ncols, n, k)
    while len(picked) < ncols:
        chosen = set(picked)
        den, w = _modular_kernel([rows[i] for i in picked], ncols, ring)
        if _annihilates([row for i, row in enumerate(rows) if i not in chosen], w, ring):
            return [ring.to_field(x, den) for x in w]
        rank = len(picked)
        while len(picked) <= rank:
            k += 1
            picked = _independent_mod_prime(rows, ncols, n, k)
    return None


def _modular_kernel(rows: list[list], ncols: int, ring) -> tuple[int, list]:
    """The first vector v of the reduced echelon kernel basis of r rows over
    Z or Z[zeta_n] that are linearly independent over the field, as the pair
    (e, e v) of the common denominator e of its coordinates and e v over
    the ring.

    *Images.*  For the k-th prime p = 1 (mod n) below 2^30, k = 0, 1, ...,
    each residue map sigma_u: zeta -> w^u of :func:`_residue_maps` takes
    the rows to F_p, where :func:`_kernel_mod` finds the first free column
    f of the reduced echelon form R and the entries -R[i][f], i < f.  Since
    r rows have at most r pivots, f <= r over the field and modulo every
    prime, so only the columns 0..r are taken to F_p.  Maps that give the
    same rows modulo p give the same reduction, so each distinct image is
    reduced once: the rows of a matrix over Z[zeta_m] lifted into
    Z[zeta_n] have at most phi(m) distinct images.  A prime whose phi(n)
    maps disagree on f is dropped.  A smaller f than the largest seen is
    dropped too, and a larger one restarts the Chinese remainder theorem
    (:func:`_crt`), as a lower degree does in :func:`_zgcd`.  The Lagrange
    matrix of :func:`_residue_maps` takes the images to power-basis
    coordinates modulo p, and the primes are joined to a modulus M.  Each
    coordinate c is recovered against the common denominator e of those
    before it: the residue of e c is reconstructed as a / b with
    |a| <= B and 0 < b <= B / e, B = isqrt((M - 1) / 2)
    (:func:`_rational_reconstruction`), and c = a / (b e).  The vector is
    returned once every coordinate reconstructs and it annihilates every
    row exactly.

    *Why it is the first basis vector.*  It is one at f and zero beyond,
    and it annihilates every row, so the first free column over the field
    is at most f.  The columns 0..f-1 are independent modulo p, so some
    minor on them is nonzero modulo p, hence nonzero, and they are
    independent over the field: f is the first free column, and v, the one
    kernel vector that is one at f and zero beyond, is the first basis
    vector.

    *Why it ends.*  Let f* be the first free column over the field, and
    delta a nonzero f* x f* minor on the columns 0..f*-1.  The rank of
    every leading block of columns can only drop modulo p, so every map
    gives at most f*, and a map with sigma_u(delta) != 0 modulo p gives f*
    and the image of v, the unique solution there too.  Such a bad prime
    divides N(delta) = prod_u sigma_u(delta), a nonzero integer, so only
    finitely many primes are bad, and after them only good primes are
    joined.  Let H^2 = prod_i sum_j ||a_ij||_1^2, with ||x||_1 the sum of
    the absolute values of the coordinates.  Since |sigma(x)| <= ||x||_1
    for every complex embedding sigma, Hadamard's inequality gives
    |sigma(m)| <= H for every minor m of the rows.  By Cramer's rule an
    entry of v is m / delta = m c / N(delta), c the product of the other
    conjugates of delta, and |sigma(m c)| <= H^phi(n); so, by the Lagrange
    bound C_n of :func:`_lagrange_bound`, its coordinates are x / N(delta)
    with |x| <= C_n H^phi(n) and |N(delta)| <= H^phi(n).  Let X be the
    larger bound.  Each e divides N(delta), so e c reduces to a fraction
    with numerator at most |x| and denominator at most |N(delta)| / e.
    Once M > 2 X^2 + 1, B >= X and 2 B^2 < M, so the reconstruction of
    every coordinate is unique and true, and the vector passes the check.
    """
    scalar = ring.base is None
    n = 1 if scalar else ring.n
    width = min(ncols, len(rows) + 1)
    leading = [row[:width] for row in rows]
    best, coords, modulus, k = -1, [], 1, 0
    while True:
        p, maps, lagrange = _residue_maps(n, k)
        k += 1
        kernels, done = [], {}
        for w in maps:
            image = tuple(tuple(_image(row, p, w, scalar)) for row in leading)
            if image not in done:
                done[image] = _kernel_mod(list(map(list, image)), width, p)
            kernels.append(done[image])
        f = kernels[0][0]
        if any(other != f for other, _ in kernels) or f < best:
            continue
        if f > best:
            best, coords, modulus = f, [], 1
        residues = [sum(map(operator.mul, col, row)) % p
                    for col in zip(*(values for _, values in kernels)) for row in lagrange]
        coords, modulus = _crt(coords, modulus, residues, p), modulus * p
        found = _reconstruct_vector(coords, modulus, f, ncols, ring)
        if found is not None and _annihilates(rows, found[1], ring):
            return found


def _reconstruct_vector(coords: list[int], modulus: int, f: int, ncols: int,
                        ring) -> tuple[int, list] | None:
    """The pair (e, e v) of :func:`_modular_kernel` from the coordinates
    modulo M of the entries of v at the pivots 0..f-1; None when a
    coordinate does not reconstruct within the bound."""
    bound = math.isqrt((modulus - 1) // 2)
    size = 1 if ring.base is None else ring.m
    den, fracs = 1, []
    for c in coords:
        q = _rational_reconstruction(c * den % modulus, modulus, bound, bound // den)
        if q is None:
            return None
        den *= q[1]
        fracs.append((q[0], den))
    w = [ring.zero] * ncols
    w[f] = ring.scale(ring.one, den)
    for j in range(f):
        x = [a * (den // d) for a, d in fracs[j * size:(j + 1) * size]]
        w[j] = x[0] if size == 1 else tuple(x)
    return den, w


def _rational_reconstruction(t: int, modulus: int, nbound: int, dbound: int):
    """(a, b) with a = b t (mod M), |a| <= nbound and 0 < b <= dbound, by
    the extended Euclidean algorithm stopped at the first remainder within
    nbound (Wang, SYMSAC 1981); None if that b is out of bounds.  When
    2 nbound dbound < M such a fraction a / b is unique."""
    r0, r1, s0, s1 = modulus, t, 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if not 0 < s1 <= dbound:
        return None
    return r1, s1


def _image(row: list, p: int, w: list[int], scalar: bool) -> list[int]:
    """A row under the residue map with weights w (w^(uj), j < phi(n))
    modulo p."""
    if scalar:
        return [x % p for x in row]
    return [sum(map(operator.mul, x, w)) % p for x in row]


def _kernel_mod(rows: list[list[int]], ncols: int, p: int) -> tuple[int, list[int]]:
    """The first free column f of the reduced row echelon form R of rows
    modulo p, and the entries -R[i][f] of its first kernel vector, i < f.
    The rows are reduced in place to echelon form, each 1 at its pivot,
    until a column has no pivot, so the pivots are 0..f-1; then column f
    alone is eliminated upwards.  Since ncols > len(rows), column
    len(rows) has no pivot if no column before it lacks one."""
    for f in range(ncols):
        piv = next((i for i in range(f, len(rows)) if rows[i][f]), None)
        if piv is None:
            break
        rows[f], rows[piv] = rows[piv], rows[f]
        inv = pow(rows[f][f], -1, p)
        rows[f] = [x * inv % p for x in rows[f]]
        tail = rows[f][f:]
        for row in rows[f + 1:]:
            c = row[f]
            if c:
                row[f:] = [(x - c * y) % p for x, y in zip(row[f:], tail)]
    x = [row[f] for row in rows[:f]]
    for k in range(f - 1, 0, -1):
        for i in range(k):
            c = rows[i][k]
            if c:
                x[i] = (x[i] - c * x[k]) % p
    return f, [-c % p for c in x]


def _independent_mod_prime(rows: list[list], ncols: int, n: int, k: int) -> list[int]:
    """Indices of rows over Z (n = 1) or Z[zeta_n], in order, that are
    linearly independent modulo the k-th prime of :func:`_residue_maps`
    under its first residue map, picked greedily until ``ncols`` are found.
    Their residues form an echelon system with distinct pivots, so some
    maximal minor is nonzero modulo p."""
    p, maps, _ = _residue_maps(n, k)
    reduced: dict[int, list[int]] = {}      # pivot column -> row, 1 at the pivot
    picked = []
    for i, row in enumerate(rows):
        v = _image(row, p, maps[0], n == 1)
        for col in range(ncols):
            c = v[col]
            if not c:
                continue
            b = reduced.get(col)
            if b is None:
                inv = pow(c, -1, p)
                reduced[col] = [x * inv % p for x in v]
                picked.append(i)
                break
            for j in range(col, ncols):
                if b[j]:
                    v[j] = (v[j] - c * b[j]) % p
        if len(picked) == ncols:
            break
    return picked


def _annihilates(rows: list[list], w: list, ring) -> bool:
    """Whether every row times the vector w is exactly zero over Z or
    Z[zeta_n].

    Over Z[zeta_n] the coordinates of an element sum_k c_k zeta^k are
    packed into the integer sum_k c_k 2^(sk) (:func:`_pack` over Z,
    Kronecker substitution), so that the product of two packed elements is
    their product as polynomials in zeta before the reduction modulo
    Phi_n.  Each coefficient of a row's sum of products is at most
    ncols phi(n) max|a| max|w| in absolute value, a bound for which
    :func:`_slot_width` gives s, so the sum unpacks into its signed
    coefficients (:func:`_signed_digits`), which the ring reduces modulo
    Phi_n (:meth:`at_power`)."""
    if not rows:
        return True
    if ring.base is None:
        return not any(sum(map(operator.mul, row, w)) for row in rows)
    m, Z = ring.m, _RationalIntegers
    top = max(abs(c) for row in rows for x in row for c in x)
    s = _slot_width(Z, 2, len(w) * m * top * max(abs(c) for x in w for c in x))
    packed = [_pack(Z, x, s) for x in w]
    for row in rows:
        total = sum(map(operator.mul, (_pack(Z, x, s) for x in row), packed))
        if total and any(ring.at_power(_signed_digits(total, s, 2 * m - 1), 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# resultants: modulo primes over Z and Z[zeta_n], and through the base ring
# ---------------------------------------------------------------------------

def resultant(f: Poly, g: Poly, formal_deg_f: int, formal_deg_g: int) -> FieldElement:
    """Determinant of the Sylvester matrix at the stated formal degrees.

    Vanishes exactly when the formal-degree homogenisations share a
    projective root: a common affine root, or a simultaneous degree drop
    (a shared root at infinity).  Each coefficient vector is cleared of
    denominators once into the field's integral ring, and the determinant
    is :func:`pencil_resultant` of two constant pencils: one node modulo
    primes over Z and Z[zeta_n], and over a quadratic layer one such node
    over the base ring at each value y = 0..Y of sqrt(D), taken as an
    indeterminate.
    """
    if f.field != g.field:
        raise FieldMismatch("resultant operands in different fields")
    if f.degree > formal_deg_f or g.degree > formal_deg_g:
        raise ValueError("formal degree below actual degree")
    ring = _integral_ring(f.field)
    # the rows of f are scaled by its denominator, those of g by its own
    df, fa = ring.clear([f[k] for k in range(formal_deg_f + 1)])
    dg, ga = ring.clear([g[k] for k in range(formal_deg_g + 1)])
    (value,) = pencil_resultant(ring, fa, [ring.zero] * len(fa), ga, [ring.zero] * len(ga))
    return ring.to_field(value, df ** formal_deg_g * dg ** formal_deg_f)


def pencil_resultant(ring, f0: list, df: list, g0: list, dg: list) -> list:
    """The coefficients in t, ascending, of R(t) = Res_x(f0 + t df, g0 + t dg)
    at the formal degrees a = len(f0) - 1 and b = len(g0) - 1, for ascending
    coefficient lists over an integral ring of :mod:`ratsym.fields`.  The
    Sylvester matrix has b rows of f and a rows of g, linear in t and
    constant where the direction is zero, so R has degree at most
    m = b [df != 0] + a [dg != 0]; the list has m + 1 ring elements, one
    for two constant pencils (:func:`resultant`).

    *Over Z and Z[zeta_n]* (rings with a residue map) R is computed modulo
    the primes p = 1 (mod n) below 2^30 in turn, after Collins (J. ACM 18,
    1971).  Modulo p, Phi_n has the phi(n) roots w^u, u prime to n, and
    each zeta -> w^u is a ring homomorphism sigma_u onto F_p.  A
    determinant commutes with it, so every prime is good:
    sigma_u(R)(t) = Res(sigma_u f_t, sigma_u g_t) at the nodes t = 0..m,
    each by Euclid over F_p (:func:`_resultant_mod`), and Newton
    interpolation (:func:`_interpolate_mod`) gives sigma_u of each
    coefficient.  The power-basis coordinates y of a coefficient c solve
    sum_k y_k w^(uk) = sigma_u(c), a Vandermonde system that the Lagrange
    matrix of the roots of Phi_n inverts (:func:`_residue_maps`).  The
    primes are joined (:func:`_crt`) until their product M exceeds
    2 C_n E; then the symmetric lift into (-M/2, M/2] is exact.  Maps that
    take (f0, df, g0, dg) to the same vectors modulo p give the
    same R, so each distinct image is reduced once and its coefficients
    serve every map that gives it: a pencil over Q(zeta_m) lifted into
    Q(zeta_n) has at most phi(m) distinct images.  For two constant pencils
    (m = 0) only f0 and g0 are mapped, and Res(fp, gp) is R.

    *The bound E.*  Let sigma be a complex embedding and |t| = 1.  Since
    |sigma(x)| <= h(x), the l1 norm of the coordinates of a ring element x
    (:func:`_coordinate_height`), every entry of sigma(f_t) has
    |sigma(f0_k) + t sigma(df_k)| <= h(f0_k) + h(df_k).  Hadamard's
    inequality over the b rows of f and the a rows of g gives
    |sigma(R)(t)| <= E, where
    E^2 = (sum_k (h(f0_k) + h(df_k))^2)^b * (sum_k (h(g0_k) + h(dg_k))^2)^a,
    and Cauchy's estimate on the unit circle bounds each coefficient by the
    maximum there: |sigma(R_j)| <= E.  Over Z that is the bound (C = 1).

    *The constant C_n.*  Over Z[zeta_n], y = sum_u sigma_u(c) L_u with the
    complex Lagrange polynomials L_u = Phi_n(x) / ((x - z_u) Phi_n'(z_u)),
    z_u = exp(2 pi i u / n).  The coefficients of Phi_n(x) / (x - z_u) are
    partial sums of those of Phi_n times powers of z_u, so each is at most
    ||Phi_n||_1.  Differentiating x^n - 1 = Phi_n Psi_n at z_u gives
    |Phi_n'(z_u)| = n / |Psi_n(z_u)| >= n / ||Psi_n||_1.  Hence
    |y_k| <= C_n E with C_n = phi(n) ||Phi_n||_1 ||Psi_n||_1 / n, which
    :func:`_lagrange_bound` rounds up to an integer.

    *Over a quadratic layer* A[sqrt(D)], which has no residue map, sqrt(D)
    is an indeterminate y over the base ring A, Z or Z[zeta_n].  Each
    Sylvester entry x + z sqrt(D) becomes x + z y, linear in y, and every
    product of the determinant R(t, y) takes b entries from rows of f and a
    from rows of g, so R has degree at most
    Y = b [f0 or df has a sqrt(D) part] + a [g0 or dg has one] in y.  At
    the nodes y = j, j = 0..Y, R(t, j) is the pencil resultant over A of the
    pencils with entries x + j z, taken by the route above, padded with zero
    coefficients up to m + 1 (a direction may vanish at a node).  For each
    coefficient in t, its forward differences in y
    (:func:`_forward_differences`) give Y! times its coefficients in y,
    which lie in A, so the division by Y! is exact.  The substitution
    y -> sqrt(D) is a ring homomorphism A[y] -> A[sqrt(D)] and commutes
    with the determinant, so R(t, sqrt(D)) is R(t): folding y^2 = D by
    Horner's rule in D gives each coefficient as the pair
    (sum_k c_(2k) D^k, sum_k c_(2k+1) D^k).  No ring element is inverted,
    so this holds also on a layer whose radicand is a square in the base,
    where A[sqrt(D)] has zero divisors.
    """
    a, b = len(f0) - 1, len(g0) - 1
    m = b * any(x != ring.zero for x in df) + a * any(x != ring.zero for x in dg)
    if isinstance(ring, _QuadraticIntegers):
        base = ring.base
        Y = (b * any(x[1] != base.zero for x in (*f0, *df))
             + a * any(x[1] != base.zero for x in (*g0, *dg)))
        nodes = []
        for j in range(Y + 1):
            values = pencil_resultant(base, *([base.add(x, base.scale(z, j)) for x, z in v]
                                              for v in (f0, df, g0, dg)))
            nodes.append(values + [base.zero] * (m + 1 - len(values)))

        def fold(cs: list):             # sum_k cs[k] D^k, by Horner's rule
            return functools.reduce(lambda acc, c: base.add(base.mul(acc, ring.D), c),
                                    reversed(cs), base.zero)
        scale, out = math.factorial(Y), []
        for values in zip(*nodes):      # one coefficient in t, at y = 0..Y
            c = [base.quo(x, scale) for x in _forward_differences(list(values), base)]
            out.append((fold(c[0::2]), fold(c[1::2])))
        return out
    scalar = ring.base is None              # Z, whose elements are ints
    n = 1 if scalar else ring.n

    def height(v0: list, dv: list) -> int:
        return sum((_coordinate_height(ring, x) + _coordinate_height(ring, y)) ** 2
                   for x, y in zip(v0, dv))
    limit = 4 * _lagrange_bound(n) ** 2 * height(f0, df) ** b * height(g0, dg) ** a
    pencils = (f0, df, g0, dg) if m else (f0, g0)
    coords, modulus, k = [], 1, 0
    while not coords or modulus * modulus <= limit:
        p, maps, lagrange = _residue_maps(n, k)
        k += 1
        images, done = [], {}                   # per embedding: R's coefficients
        for w in maps:
            key = tuple(tuple(_image(v, p, w, scalar)) for v in pencils)
            if key not in done:
                done[key] = _pencil_resultant_mod(key, m, p)
            images.append(done[key])
        residues = [sum(map(operator.mul, col, row)) % p
                    for col in zip(*images) for row in lagrange]
        coords, modulus = _crt(coords, modulus, residues, p), modulus * p
    lifted = _symmetric_lift(coords, modulus)
    if scalar:
        return lifted
    size = len(lagrange)
    return [tuple(lifted[j:j + size]) for j in range(0, len(lifted), size)]


@functools.cache
def _lagrange_bound(n: int) -> int:
    """C_n = phi(n) ||Phi_n||_1 ||(x^n - 1) / Phi_n||_1 / n, rounded up to an
    integer, which bounds the coordinates of an element of Z[zeta_n] by its
    largest embedding (:func:`pencil_resultant`); 1 for Z, n = 1."""
    if n == 1:
        return 1
    phi = [int(c) for c in cyclotomic_coeffs(n)]
    psi = _zpoly_exact_quo([-1] + [0] * (n - 1) + [1], phi)
    return -(-(len(phi) - 1) * sum(map(abs, phi)) * sum(map(abs, psi)) // n)


@functools.cache
def _residue_maps(n: int, k: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """The k-th prime p = 1 (mod n) below 2^30, the phi(n) residue maps
    zeta -> w^u of Z[zeta_n] onto F_p, each as its weights w^(uj) for
    j < phi(n), and the Lagrange matrix modulo p that takes the images of an
    element back to its coordinates: row i, column u is the x^i coefficient
    of q_u / q_u(w^u), where q_u = Phi_n(x) / (x - w^u) and q_u(w^u) =
    Phi_n'(w^u).  Phi_n splits into these distinct linear factors modulo p,
    so the matrix inverts the Vandermonde matrix of the w^u.  The set-up
    takes O(phi(n)^2) operations; n = 1 stands for Z, with the one map
    a -> a mod p."""
    p = _residue_prime(n, k)
    phi = [int(c) for c in cyclotomic_coeffs(n)]
    w = 1 if n == 1 else _root_of_unity_mod(CyclotomicField(n), p)
    maps, columns = [], []
    for u in (u for u in range(n) if math.gcd(u, n) == 1):
        z = pow(w, u, p)
        weights = [pow(z, j, p) for j in range(len(phi) - 1)]
        q = [0] * (len(phi) - 1)            # synthetic division by x - z
        acc = 0
        for i in range(len(phi) - 1, 0, -1):
            acc = q[i - 1] = (phi[i] + z * acc) % p
        inv = pow(sum(map(operator.mul, q, weights)) % p, -1, p)
        maps.append(weights)
        columns.append([x * inv % p for x in q])
    return p, maps, [list(row) for row in zip(*columns)]


def _pencil_resultant_mod(images: tuple, m: int, p: int) -> list[int]:
    """R(t) modulo p, ascending, from the images (fp, dfp, gp, dgp) of two
    pencils modulo p, by Euclid at the nodes t = 0..m and Newton
    interpolation; from (fp, gp) alone when m = 0, the one value
    Res(fp, gp)."""
    if not m:
        return [_resultant_mod(*images, p)]
    fp, dfp, gp, dgp = images
    return _interpolate_mod([_resultant_mod([(x + t * y) % p for x, y in zip(fp, dfp)],
                                            [(x + t * y) % p for x, y in zip(gp, dgp)], p)
                             for t in range(m + 1)], p)


def _resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) modulo p at the formal degrees a = len(f) - 1 and
    b = len(g) - 1, by Euclid over F_p with the rules of the formal degrees:
    Res_(a,b)(f, g) = f_a Res_(a,b-1)(f, g) when g_b = 0; a swap costs
    (-1)^(ab); for a >= b and g_b != 0, with r = f mod g at formal degree
    b - 1, Res_(a,b)(f, g) = (-1)^(ab) g_b^(a-b+1) Res_(b,b-1)(g, r); and
    Res_(a,0)(f, g) = g_0^a.  The lists are not changed."""
    acc = 1
    while len(g) > 1:
        a, b = len(f) - 1, len(g) - 1
        lead = g[-1]
        if not lead:
            acc = acc * f[-1] % p
            if not acc:
                return 0
            g = g[:-1]
            continue
        if a & b & 1:
            acc = -acc
        if a < b:
            f, g = g, f
            continue
        r, inv = list(f), pow(lead, -1, p)
        for off in range(a - b, -1, -1):
            c = r[off + b] * inv % p
            if c:
                for j in range(b):
                    r[off + j] = (r[off + j] - c * g[j]) % p
        acc = acc * pow(lead, a - b + 1, p) % p
        f, g = g, r[:b]
    return acc * pow(g[0], len(f) - 1, p) % p


def _interpolate_mod(values: list[int], p: int) -> list[int]:
    """Coefficients modulo p, ascending, of the polynomial of degree at most
    m with the given values at t = 0..m, by Newton's divided differences."""
    c, m = list(values), len(values) - 1
    for k in range(1, m + 1):
        inv = pow(k, -1, p)
        for i in range(m, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    out = [c[m]]
    for k in range(m - 1, -1, -1):      # out * (t - k) + c[k]
        out = [(lo - k * hi) % p for lo, hi in zip([0] + out, out + [0])]
        out[0] = (out[0] + c[k]) % p
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic over the integral rings
# ---------------------------------------------------------------------------

def _ring_mul(ring, f: list, g: list) -> list:
    zero, add, mul = ring.zero, ring.add, ring.mul
    out = [zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x != zero:
            for j, y in enumerate(g):
                if y != zero:
                    out[i + j] = add(out[i + j], mul(x, y))
    return out


def _forward_differences(values: list, ring) -> list:
    """Coefficients of M! R, where R is the polynomial of degree at most M
    with R(j) = values[j] for j = 0..M, by forward differences:
    M! R(t) = sum_k (M!/k!) Delta^k R(0) t(t-1)...(t-k+1).  The values lie
    in the ring; only sums and integer multiples are taken."""
    M = len(values) - 1
    out = [ring.zero] * (M + 1)
    falling = [1]                       # t(t-1)...(t-k+1), ascending
    diffs = list(values)
    weight = math.factorial(M)          # M!/k!
    for k in range(M + 1):
        for i, c in enumerate(falling):
            if c:
                out[i] = ring.add(out[i], ring.scale(diffs[0], weight * c))
        diffs = [ring.sub(b, a) for a, b in zip(diffs, diffs[1:])]
        falling = [lo - k * hi for lo, hi in zip([0] + falling, falling + [0])]
        weight //= k + 1
    return out


# ---------------------------------------------------------------------------
# real roots over Z: square-free parts and Descartes bisection
# ---------------------------------------------------------------------------

def _integer_poly(f: Poly) -> list[int]:
    """The primitive integer multiple of a nonzero polynomial over Q."""
    _, v = _RationalIntegers.clear(f.coeffs)
    cont = _int_content(v)
    return [x // cont for x in v]


def _squarefree_z(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a nonconstant integer polynomial f; when f is
    square-free, the first image of :func:`_zgcd` proves it."""
    g = _zgcd(f, [k * c for k, c in enumerate(f)][1:])
    return f if len(g) == 1 else _zpoly_exact_quo(f, g)


def _taylor_shift(f: list[int], a: int) -> list[int]:
    """Coefficients of f(x + a), by repeated synthetic division."""
    f = list(f)
    n = len(f)
    for i in range(n - 1):
        for k in range(n - 2, i - 1, -1):
            f[k] += a * f[k + 1]
    return f


def _sign_changes(values: list[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _roots_in_unit_interval(g: list[int]) -> int:
    """Distinct roots in (0, 1) of a square-free integer polynomial, by
    Descartes' rule of signs with bisection (Collins and Akritas, 1976).

    The sign changes of (x + 1)^n g(1 / (x + 1)) bound the number of roots
    in (0, 1) and equal it when they are 0 or 1.  Otherwise g is split at
    1/2 into 2^n g(y / 2) and 2^n g((y + 1) / 2), counting a root at 1/2.
    """
    count, todo = 0, [g]
    while todo:
        g = todo.pop()
        v = _sign_changes(_taylor_shift(g[::-1], 1))
        if v <= 1:
            count += v
            continue
        n = len(g) - 1
        left = [c << (n - k) for k, c in enumerate(g)]
        right = _taylor_shift(left, 1)
        if right[0] == 0:
            count += 1
            right = right[1:]
        todo += [left, right]
    return count


def sturm_roots_in_interval(f: Poly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of f in (lo, hi].

    Restricted to rational coefficients.  The count runs over Z: the
    square-free part of f is counted by :func:`_count_roots`, which gives
    the same count as a Sturm sequence over Q.
    """
    if f.field != QQ:
        raise FieldMismatch("real root counting is implemented over Q only")
    if f.is_zero():
        raise ValueError("zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if f.degree == 0:
        return 0
    return _count_roots(_squarefree_z(_integer_poly(f)), lo, hi)


def _count_roots(g: list[int], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi], lo < hi, of a nonzero
    square-free integer polynomial g: g is mapped onto (0, 1] by
    x = lo + (hi - lo) y and counted by Descartes bisection."""
    # c^n g((a + b y) / c) with a / c = lo and b / c = hi - lo
    c = math.lcm(lo.denominator, hi.denominator)
    a, b, n = int(lo * c), int((hi - lo) * c), len(g) - 1
    g = _taylor_shift([x * c ** (n - k) for k, x in enumerate(g)], a)
    g = [x * b ** k for k, x in enumerate(g)]
    while g[0] == 0:        # a root at lo, which (lo, hi] leaves out
        g = g[1:]
    return int(sum(g) == 0) + _roots_in_unit_interval(g)


def squarefree_norm(G: Poly) -> Poly:
    """Monic square-free part, over Q, of the norm N = prod_sigma sigma(G)
    of a nonzero polynomial G over any supported field, over all its
    embeddings sigma into C (Trager, SYMSAC 1976).  It is taken over Z from
    :func:`_integer_norm`, the product of the distinct images of G only,
    whose e-th power is N for some e >= 1; a power has the same square-free
    part.  The identity is among those images, so the declared embedding of
    G is a factor of both, and a real root of G is a root of N."""
    if G.is_zero():
        raise ValueError("zero polynomial")
    # a zero-divisor leading coefficient of a layer with a square radicand
    # has norm zero, which leaves N's top coefficients zero
    N = _trim(_integer_norm(G))
    if not N:
        raise ValueError("the norm is zero: G is a zero divisor of its field's ring")
    cont = _int_content(N)
    sf = _squarefree_z([c // cont for c in N]) if len(N) > 1 else [1]
    return Poly(QQ, [Fraction(c, sf[-1]) for c in sf])


def _integer_norm(G: Poly) -> list[int]:
    """The ascending coefficients over Z of N'(t), the product of the
    distinct images of the multiple g of a nonzero G over the field's
    integral ring, padded with zeros to k (len(g) - 1) + 1 of them for
    k = [K:Q]; the full norm prod_sigma sigma(g) is N'^e for some e >= 1.
    By Kronecker substitution t = X = 2^S.

    g(X) is one ring element, taken by Horner's rule.  The tower is walked
    down on it: over each layer it is multiplied by its distinct conjugates
    over the layer below (sqrt(D) -> -sqrt(D) over a quadratic layer,
    zeta -> zeta^u over Z[zeta_n]), its orbit, whose product lies in the
    ring below, until the ring is Z.  The orbit of the value is the orbit
    of the polynomial M it stands for (below), so the layer's norm of M is
    the product over M's orbit to the power of the orbit's index, and N is
    N'^e.  Every automorphism fixes the integer X, so the walk ends at the
    integer N'(X), whose signed digits in base 2^S are N''s coefficients.

    S is the :func:`_slot_width` of k factors and the bound H^k, with
    H = sum_i h(g_i) (:func:`_coordinate_height`).  N' is a product of at
    most k conjugates of g, so h(N') <= C H^k < 2^(S-2), with C the
    :func:`_product_constant` of k factors: N''s coefficients are its
    signed digits (:func:`_signed_digits`).  The product M of j <= k
    conjugates of g that a layer's value stands for, and its image
    sigma(M), have height at most C H^j, so sigma(M) - M has coordinates
    below 2^(S-1), and sigma(M)(X) = M(X) only for sigma(M) = M
    (:func:`_unpack`).

    Over a quadratic layer whose radicand is a square in the base,
    base[sqrt(D)] has zero divisors, but the conjugation is still a ring
    map and the bounds still hold; N' is zero when g(X) is a zero
    divisor."""
    ring = _integral_ring(G.field)
    _, g = ring.clear(G.coeffs)
    k = _absolute_degree(G.field)
    S = _slot_width(ring, k, sum(_coordinate_height(ring, c) for c in g) ** k)
    x = _pack(ring, g, S)
    while ring.base is not None:
        orbit = dict.fromkeys([x, *ring.conjugates(x)])
        x, ring = ring.to_base(functools.reduce(ring.mul, orbit)), ring.base
    return _signed_digits(x, S, k * (len(g) - 1) + 1)


# ---------------------------------------------------------------------------
# Kronecker substitution: a polynomial over the ring as its value at 2^S
# ---------------------------------------------------------------------------

def _signed_digits(x: int, S: int, count: int) -> list[int]:
    """The digits c_0, ..., c_(count-1) in [-2^(S-1), 2^(S-1)) with
    x = sum_k c_k 2^(S k).  They are the coefficients of the integer
    polynomial of degree below count with value x at X = 2^S whenever its
    coefficients lie in that range: the lowest digit of x is then c_0, and
    (x - c_0) / X is the value at X of the rest.  A quotient left after the
    last digit means that no such polynomial exists; it raises
    :class:`InexactDivision`."""
    X = 1 << S
    mask, half = X - 1, X >> 1
    out = []
    for _ in range(count):
        c = x & mask
        if c >= half:
            c -= X
        out.append(c)
        x = (x - c) >> S
    if x:
        raise InexactDivision("a value exceeds its coefficient bound")
    return out


def _pack(ring, f: list, S: int):
    """f(2^S) for a coefficient list f over the ring: the sum of the terms
    c_k 2^(S k) over the nonzero coefficients c_k only."""
    x = zero = ring.zero
    for k, c in enumerate(f):
        if c != zero:
            x = ring.add(x, ring.scale(c, 1 << (S * k)))
    return x


def _unpack(ring, x, S: int, count: int) -> list:
    """The coefficient list f of length count over the ring with
    f(2^S) = x, when every power-basis coordinate of every f_k lies in
    [-2^(S-1), 2^(S-1)), as :func:`_slot_width` ensures.  The integer 2^S
    is a scalar, so each coordinate of x is the value at 2^S of the integer
    polynomial of that coordinate, and its signed digits
    (:func:`_signed_digits`) are the coordinates of the f_k.  The same
    argument shows that a polynomial over the ring whose coordinates all
    lie below 2^S in absolute value is zero when its value at 2^S is:
    evaluation at 2^S is injective there."""
    if ring.base is None:
        return _signed_digits(x, S, count)
    if isinstance(ring, _QuadraticIntegers):
        return list(zip(_unpack(ring.base, x[0], S, count),
                        _unpack(ring.base, x[1], S, count)))
    return list(zip(*[_signed_digits(c, S, count) for c in x]))


def _coordinate_height(ring, x) -> int:
    """h(x), the l1 norm of the power-basis coordinates of x: |x| over Z,
    ||x||_1 over Z[zeta_n] and h(a) + h(b) for a + b sqrt(D).  Every
    coordinate of x is at most h(x) in absolute value, and so is every
    complex embedding of x over Z and Z[zeta_n], where |sigma(zeta)| = 1.
    For a polynomial f over the ring, h(f) = sum_k h(f_k)."""
    if ring.base is None:
        return abs(x)
    if isinstance(ring, _QuadraticIntegers):
        return _coordinate_height(ring.base, x[0]) + _coordinate_height(ring.base, x[1])
    return sum(map(abs, x))


@functools.cache
def _product_constant(ring, k: int) -> int:
    """A constant C with h(E) <= C sum_t prod_i h(x_(t,i)) for every sum E
    of products prod_i x_(t,i) of at most k elements of the ring, h the
    coordinate height of :func:`_coordinate_height`; the same holds for
    polynomials over the ring, coefficientwise in the variable.

    Write each element as a formal polynomial in y for zeta (of degree
    below n) and, over a quadratic layer, linear in r for sqrt(D): its l1
    norm is h(x).  The l1 norm of formal polynomials is subadditive and
    submultiplicative, so E written formally has l1 norm at most
    sum_t prod_i h(x_(t,i)).  Evaluating it in the ring first replaces
    r^j, j <= k, by D^floor(j/2) r^(j mod 2), which multiplies the l1 norm
    by at most max(1, h(D))^floor(k/2), then folds y^n = 1, which does not
    raise it, and replaces each y^j, j < n, by the coordinates of zeta^j,
    which multiplies it by at most c = max_j ||zeta^j||_1 (the table
    ``ring.pows``).  So C = 1 over Z, C = c over Z[zeta_n], and
    C = C_b max(1, h(D))^floor(k/2) over a quadratic layer over a base
    with constant C_b: one reduction for the whole expression, not one per
    product.

    The same C serves *conjugated factors*, each counted at h(x_(t,i)), as
    the norm takes them (:func:`_integer_norm`, where every radical other
    than +-r occurs to even powers).  Written formally,
    sigma_u(x) = sum_j x_j y^(uj mod n) has exponents below n and l1 norm
    h(x), as does x under sqrt(D) -> -sqrt(D), and the radical of a
    conjugate squares to a conjugate of D, of formal l1 norm h(D)."""
    if ring.base is None:
        return 1
    if isinstance(ring, _QuadraticIntegers):
        return _product_constant(ring.base, k) * \
            max(1, _coordinate_height(ring.base, ring.D)) ** (k // 2)
    return max(sum(map(abs, p)) for p in ring.pows)


def _slot_width(ring, factors: int, bound: int) -> int:
    """S = bits(C bound) + 2 for a polynomial y over the ring that,
    expanded, is a sum of products of at most ``factors`` ring elements
    whose heights, multiplied along each product and added up, come to at
    most ``bound``; C is the :func:`_product_constant` for that many
    factors.  Then h(y) < 2^(S-2), so :func:`_unpack` reads y off y(2^S),
    and two such polynomials are equal exactly when their values at 2^S
    are, since their difference has every coordinate below 2^(S-1)."""
    return (_product_constant(ring, factors) * bound).bit_length() + 2


# ---------------------------------------------------------------------------
# assorted exact tools
# ---------------------------------------------------------------------------

def cyclotomic_polynomial(n: int) -> Poly:
    """The n-th cyclotomic polynomial as a monic Poly over Q."""
    return Poly(QQ, cyclotomic_coeffs(n))


def interpolate(field: Field, values: Sequence[FieldElement]) -> Poly:
    """The polynomial R of degree at most M with R(j) = values[j] for the
    nodes j = 0, 1, ..., M, by forward differences and one division by M!
    at the end.  The values share one denominator, and the differences run
    over the field's integral ring.
    """
    values = [field(v) for v in values]
    ring = _integral_ring(field)
    den, ys = ring.clear(values)
    den *= math.factorial(len(values) - 1)
    return Poly(field, [ring.to_field(c, den) for c in _forward_differences(ys, ring)])
