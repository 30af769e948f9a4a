import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ratsym import fields, poly
from ratsym.fields import (QQ, CyclotomicField, FieldElement, QuadraticField,
                           _RationalIntegers, common_field, cyclotomic_coeffs, lift)
from ratsym.mobius import icosahedral_field
from ratsym.poly import (BothZero, InexactDivision, Poly, interpolate, kernel_vector,
                         nullspace, pencil_resultant, poly_gcd, resultant,
                         sturm_roots_in_interval)


def x():
    return Poly.x(QQ)


def poly_eval(f: Poly, a) -> FieldElement:
    """f(a) by Horner's rule, in the smaller field that holds both."""
    if not isinstance(a, FieldElement):
        a = f.field(a)
    if a.field != f.field:
        k = common_field(f.field, a.field)
        f, a = f.lift(k), lift(a, k)
    acc = f.field.zero()
    for c in reversed(f.coeffs):
        acc = acc * a + c
    return acc


def test_gcd_examples():
    assert poly_gcd(x() * x() - 1, x() - 1) == x() - 1
    # z*(z^2+2) against z^2+1: remainder chain gives z, then a constant
    f = Poly(QQ, [0, 2, 0, 1])
    g = Poly(QQ, [1, 0, 1])
    assert poly_gcd(f, g).degree == 0
    h = Poly(QQ, [2, 4])
    assert poly_gcd(h, Poly.zero(QQ)) == h.monic()
    with pytest.raises(BothZero):
        poly_gcd(Poly.zero(QQ), Poly.zero(QQ))


def test_gcd_over_cyclotomic():
    F3 = CyclotomicField(3)
    z = F3.zeta()
    common = Poly(F3, [-z, F3.one()])
    p1 = common * Poly(F3, [1, 1])
    p2 = common * Poly(F3, [2, 1])
    assert poly_gcd(p1, p2) == common


def euclid_gcd(f, g):
    """Reference gcd: monic Euclid over the field."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


@pytest.mark.parametrize("n", [3, 5, 12])
def test_gcd_over_cyclotomic_tries_one_residue_image(n, monkeypatch):
    # a coprime image modulo the first prime returns 1 with no division;
    # an image that loses a leading coefficient, or that is not coprime,
    # falls back to Euclid, as does a common factor.  The common factor
    # (z - w) x + 1 of the first pair maps to 1, so its images are coprime:
    # only the lost leading coefficient shows that they prove nothing
    F = CyclotomicField(n)
    p, maps, _ = poly._residue_maps(n, 0)
    z, w, one = F.zeta(), F(maps[0][1]), F.one()
    divisions = []
    real = Poly.divmod

    def spy(self, other):
        divisions.append(other.degree)
        return real(self, other)
    monkeypatch.setattr(Poly, "divmod", spy)
    f, g = Poly(F, [z, one / 3, z * z]), Poly(F, [F(2), z + 1])
    assert poly_gcd(f, g) == Poly(F, [1]) and not divisions
    lost, common = Poly(F, [one, z - w]), Poly(F, [z, one])
    cases = [(lost * Poly(F, [3, 1]), lost * Poly(F, [5, 1])),  # lc lost modulo p
             (Poly(F, [-z, one]), Poly(F, [-w, one])),          # x - z, x - w
             (f * common, g * common)]
    expected = [lost.monic(), Poly(F, [1]), common]
    for (f, g), expect in zip(cases, expected):
        divisions.clear()
        assert euclid_gcd(f, g) == expect
        divisions.clear()
        assert poly_gcd(f, g) == expect and divisions


def _zpoly(*factors):
    # product of integer polynomials, ascending coefficients
    f = Poly(QQ, [1])
    for g in factors:
        f = f * Poly(QQ, g)
    return [int(c.payload) for c in f.coeffs]


# P and Q are the first two primes of the modular gcd: the roots A and
# A + P meet modulo P, and A and A + Q modulo Q
P, Q, A = fields._residue_prime(1, 0), fields._residue_prime(1, 1), 12345
BIG = [-(2 ** 62 + 3), 2 ** 61 + 1, 1]         # needs three primes to lift


@pytest.mark.parametrize("f, g, h", [
    # lc f and lc g divisible by the first prime, which is skipped
    (_zpoly([-1, P], [-2, 1]), _zpoly([-1, P], [3, 1]), [-1, P]),
    # the first image has degree 2: it is dropped for later ones of degree 1
    (_zpoly([-1, 1], [-A, 1]), _zpoly([-1, 1], [-A - P, 1]), [-1, 1]),
    # coprime, although the first image has degree 1
    ([-A, 1], [-A - P, 1], [1]),
    # a gcd whose coefficients exceed 2^60
    (_zpoly(BIG, [1, 1]), _zpoly(BIG, [-2, 1], [7]), BIG),
    # and the second image has degree 3, above the first: it is dropped
    (_zpoly(BIG, [-A, 1]), _zpoly(BIG, [-A - Q, 1]), BIG),
])
def test_modular_gcd_edge_cases(f, g, h):
    monic = Poly(QQ, [Fraction(c, h[-1]) for c in h])
    assert poly_gcd(Poly(QQ, f), Poly(QQ, g)) == monic


@pytest.mark.parametrize("f, part", [
    # the same five cases for gcd(f, f'), with f = part * gcd
    (_zpoly([-1, P], [-1, P], [-2, 1]), _zpoly([-1, P], [-2, 1])),
    (_zpoly([-A, 1], [-A, 1], [-A - P, 1]), _zpoly([-A, 1], [-A - P, 1])),
    (_zpoly([-A, 1], [-A - P, 1]), _zpoly([-A, 1], [-A - P, 1])),
    (_zpoly(BIG, BIG, [1, 1]), _zpoly(BIG, [1, 1])),
    (_zpoly(BIG, BIG, [-A, 1], [-A - Q, 1]), _zpoly(BIG, [-A, 1], [-A - Q, 1])),
])
def test_squarefree_edge_cases(f, part):
    assert poly._squarefree_z(f) == part


def test_resultant_formal_degrees():
    # both formal homogenisations of (x^2, 1) at (2,2) have disjoint roots:
    # the determinant is the permutation-matrix value 1, nonzero because the
    # degree drop is not simultaneous
    assert resultant(x() * x(), Poly(QQ, [1]), 2, 2) == 1
    assert resultant(x() * x(), Poly(QQ, [1]), 2, 0) == 1
    # 2x2 Sylvester determinant computed by hand: [[1,-1],[1,1]] -> 2
    assert resultant(x() - 1, x() + 1, 1, 1) == 2
    # simultaneous degree drop: both actual degrees below the formal ones
    assert resultant(Poly(QQ, [1, 1]), Poly(QQ, [2, 1]), 2, 2) == 0
    assert not resultant(Poly(QQ, [1, 1]), Poly(QQ, [2, 1]), 1, 1).is_zero()
    with pytest.raises(ValueError):
        resultant(x() * x(), x(), 1, 1)


def test_resultant_detects_common_root_and_multiplicativity():
    rng = random.Random(11)

    def rpoly(dmax):
        return Poly(QQ, [Fraction(rng.randint(-5, 5))
                         for _ in range(rng.randint(1, dmax + 1))])

    checked = 0
    for _ in range(80):
        f, g, h = rpoly(6), rpoly(6), rpoly(4)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        rf = resultant(f, g, f.degree, g.degree)
        assert rf.is_zero() == (poly_gcd(f, g).degree > 0)
        rh = resultant(h, g, h.degree, g.degree)
        fh = f * h
        assert resultant(fh, g, fh.degree, g.degree) == rf * rh
        checked += 1
    assert checked > 40


PENCIL_FIELDS = [QQ, CyclotomicField(4), CyclotomicField(3), CyclotomicField(5),
                 CyclotomicField(12), CyclotomicField(20),
                 QuadraticField(CyclotomicField(3), CyclotomicField(3)(2))]


def _integral_elem(K, rng, bits):
    """An element of K with integer coordinates in [-2^bits, 2^bits]."""
    if isinstance(K, QuadraticField):
        return K.from_parts(_integral_elem(K.base, rng, bits),
                            _integral_elem(K.base, rng, bits))
    if isinstance(K, CyclotomicField):
        return K.from_coeffs([rng.randint(-2 ** bits, 2 ** bits) for _ in range(K.degree)])
    return K(rng.randint(-2 ** bits, 2 ** bits))


def _times_x_minus_1(v):
    """The coefficients of (x - 1) v(x), one longer than v."""
    zero = v[0].field.zero()
    return [lo - hi for lo, hi in zip([zero] + v, v + [zero])]


def _pencils(K, case, rng):
    """(f0, df, g0, dg) over K for one case of the pencil resultant."""
    def vec(n, bits=6):
        return [_integral_elem(K, rng, bits) for _ in range(n)]
    zero, one = K.zero(), K.one()
    if case == "case C, a_r = 0":            # the top entry is zero all along
        return vec(2) + [zero], vec(2) + [zero], vec(3), vec(3)
    if case == "leading coefficient vanishes at one node":
        # f's top entry is 2 - t, zero at t = 2; g's is 3 - t, zero at t = 3
        return vec(2) + [2 * one], vec(2) + [-one], vec(2) + [3 * one], vec(2) + [-one]
    if case == "shared factor":               # x - 1 divides f and g for all t
        return tuple(_times_x_minus_1(vec(n)) for n in (2, 2, 3, 3))
    if case == "m = 0":
        return vec(1), vec(1), vec(1), vec(1)
    if case == "f constant":
        return vec(1), vec(1), vec(3), vec(3)
    if case == "300 bits":
        return vec(3, 300), vec(3, 300), vec(3, 300), vec(3, 300)
    return vec(4), vec(4), vec(2), vec(2)     # a = 3, b = 1: Euclid's signs count


PENCIL_CASES = ["random", "case C, a_r = 0", "leading coefficient vanishes at one node",
                "shared factor", "m = 0", "f constant", "300 bits"]


@pytest.mark.parametrize("case", PENCIL_CASES)
@pytest.mark.parametrize("K", PENCIL_FIELDS, ids=repr)
def test_pencil_resultant_matches_resultants_at_the_nodes(K, case, monkeypatch):
    f0, df, g0, dg = _pencils(K, case, random.Random(f"{K!r} {case}"))
    a, b = len(f0) - 1, len(g0) - 1
    # Gaussian elimination over K at the nodes, apart from the kernel
    expect = interpolate(K, [gaussian_det(sylvester_rows([x + t * y for x, y in zip(f0, df)],
                                                         [x + t * y for x, y in zip(g0, dg)],
                                                         K.zero()), K)
                             for t in range(a + b + 1)])
    ring = fields._integral_ring(K)
    primes = []
    images = poly._residue_maps

    def counted(n, k):
        primes.append(k)
        return images(n, k)
    monkeypatch.setattr(poly, "_residue_maps", counted)
    cleared = [ring.clear(v) for v in (f0, df, g0, dg)]
    assert all(den == 1 for den, _ in cleared)      # the inputs are integral
    got = pencil_resultant(ring, *(v for _, v in cleared))
    # one node more than the degree in t, b [df != 0] + a [dg != 0]
    assert len(got) == (b * any(not x.is_zero() for x in df)
                        + a * any(not x.is_zero() for x in dg) + 1)
    assert Poly(K, [ring.to_field(c, 1) for c in got]) == expect
    if case == "shared factor":
        assert expect.is_zero()
    if case == "300 bits" and not isinstance(ring, fields._QuadraticIntegers):
        assert len(primes) > 1


def sylvester_rows(fa, ga, zero):
    """Sylvester matrix of two ascending coefficient lists, each padded to its
    formal degree (its length minus one)."""
    m, n = len(fa) - 1, len(ga) - 1
    rows = []
    for coeffs, count in ((fa[::-1], n), (ga[::-1], m)):
        for i in range(count):
            rows.append([zero] * i + coeffs + [zero] * (n + m - i - len(coeffs)))
    return rows


def leibniz_det(rows, field):
    """Reference determinant by the Leibniz formula: sums and products only,
    so it is defined over a ring with zero divisors."""
    total = field.zero()
    for perm in itertools.permutations(range(len(rows))):
        term = field.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total = total - term if inversions % 2 else total + term
    return total


def gaussian_det(rows, field):
    """Reference determinant: Gaussian elimination over the field."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    res = field.one()
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return field.zero()
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        res = res * pv
        inv = pv.inv()
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor.is_zero():
                continue
            factor = factor * inv
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return res if sign > 0 else -res


def gauss_jordan_nullspace(rows, ncols, field):
    """Reference null space: Gauss-Jordan reduction over the field."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        pivot = next((i for i in range(k, len(m)) if not m[i][col].is_zero()), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        inv = m[k][col].inv()
        m[k] = [c * inv for c in m[k]]
        for i in range(len(m)):
            factor = m[i][col]
            if i != k and not factor.is_zero():
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[free] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][free]
        basis.append(v)
    return basis


def _tetrahedral_layer():
    # the layer of the tetrahedral hand-off; its radicand is (6 - 2 sqrt 3)^2
    F = CyclotomicField(12)
    z = F.zeta()
    return QuadraticField(F, 48 - 48 * z + 24 * z ** 3)


KERNEL_FIELDS = [QQ, CyclotomicField(3), CyclotomicField(5), CyclotomicField(12),
                 QuadraticField(CyclotomicField(4), CyclotomicField(4)(2)),
                 QuadraticField(QQ, QQ(Fraction(-3, 4))),
                 icosahedral_field(), _tetrahedral_layer(), CyclotomicField(4)]


def _random_elements(K, rng):
    gens = [K.one()]
    base = K.base if isinstance(K, QuadraticField) else K
    if isinstance(base, CyclotomicField):
        gens.append(lift(base.zeta(), K))
    if isinstance(K, QuadraticField):
        gens += [g * K.sqrt_delta() for g in gens]

    def relem():
        return sum((Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * g for g in gens),
                   K.zero())
    return relem


@pytest.mark.parametrize("K", KERNEL_FIELDS)
def test_integer_kernel_matches_the_field_route(K):
    # resultant: one node of the pencil resultant over the integral ring
    # (modulo primes, through the base ring over a quadratic layer) against
    # Gaussian elimination over the field; interpolate: forward differences through
    # 0..M recover a random polynomial from its values
    rng = random.Random(31)
    relem = _random_elements(K, rng)

    def rpoly(deg, density):
        return Poly(K, [relem() if rng.random() < density else K.zero()
                        for _ in range(deg + 1)])

    for m, n, density in ((1, 1, 1.0), (2, 3, 0.6), (3, 3, 0.4), (4, 2, 0.8)):
        for _ in range(3):
            f, g = rpoly(m, density), rpoly(n, density)
            rows = sylvester_rows([f[k] for k in range(m + 1)],
                                  [g[k] for k in range(n + 1)], K.zero())
            expect = gaussian_det(rows, K) if m + n else K.one()
            assert resultant(f, g, m, n) == expect
        target = rpoly(m + n, density)
        values = [poly_eval(target, K(j)) for j in range(m + n + 1)]
        assert interpolate(K, values) == target
    # f of formal degree 2 with f_2 = 0: the elimination swaps one pair of rows
    u = relem()
    f, g = Poly(K, [u, K.one()]), Poly(K, [2 * u + 1, K(2)])
    rows = sylvester_rows([f[0], f[1], K.zero()], [g[0], g[1]], K.zero())
    assert not gaussian_det(rows, K).is_zero()
    assert resultant(f, g, 2, 1) == gaussian_det(rows, K)


def _nullspace(rows, ncols, K):
    # the kernel of rows over K, each cleared into the integral ring, which
    # leaves the kernel as it is
    ring = fields._integral_ring(K)
    return nullspace(ring, [ring.clear(row)[1] for row in rows], ncols)


def _kernel_vector(rows, ncols, K):
    # its first vector alone, or None
    ring = fields._integral_ring(K)
    return kernel_vector(ring, [ring.clear(row)[1] for row in rows], ncols)


# the fields of KERNEL_FIELDS whose rings nullspace takes, Z and Z[zeta_n]
NULLSPACE_FIELDS = [K for K in KERNEL_FIELDS if not isinstance(K, QuadraticField)]


@pytest.mark.parametrize("K", NULLSPACE_FIELDS,
                         ids=[f"K{KERNEL_FIELDS.index(K)}" for K in NULLSPACE_FIELDS])
def test_nullspace_matches_gauss_jordan(K, monkeypatch):
    # random matrices of rank k < min(rows, cols), with a zero row and a
    # zero column spliced in, and the matrix with no rows
    rng = random.Random(37)
    relem = _random_elements(K, rng)
    zero = K.zero()
    for nrows, ncols, rank in ((3, 4, 2), (4, 3, 1), (5, 6, 3), (2, 5, 1), (4, 4, 3)):
        left = [[relem() for _ in range(rank)] for _ in range(nrows)]
        right = [[relem() for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum((a * right[t][j] for t, a in enumerate(row)), zero)
                 for j in range(ncols)] for row in left]
        i, j = rng.randrange(nrows + 1), rng.randrange(ncols + 1)
        rows.insert(i, [zero] * ncols)
        rows = [row[:j] + [zero] + row[j:] for row in rows]
        _assert_gauss_jordan(rows, ncols + 1, K)
        assert len(_nullspace(rows, ncols + 1, K)) == ncols + 1 - rank
    _assert_gauss_jordan([], 3, K)

    # entries of about 300 bits over a kernel with small coordinates
    big = 2 ** 300 + 2 ** 151 + 1
    left = [[K(big + 7 * a) + relem() for a in range(2)] for _ in range(4)]
    right = [[relem() for _ in range(5)] for _ in range(2)]
    rows = [[sum((a * right[t][j] for t, a in enumerate(row)), zero)
             for j in range(5)] for row in left]
    assert max(_height(x) for row in rows for x in row) > 290
    _assert_gauss_jordan(rows, 5, K)

    # kernel coordinates of about 100 bits: the reduced basis vector of
    # (x, y, 1) is (-y/x, 1, 0) and (-1/x, 0, 1), so the modular route needs
    # at least 4 primes of 30 bits
    x, y = K(3 ** 63 + 2) + relem(), K(5 ** 43 + 4) + relem()
    primes = _residue_map_calls(monkeypatch)
    basis = _assert_gauss_jordan([[x, y, K.one()]], 3, K)
    assert max(_height(c) for v in basis for c in v) >= 95
    assert max(primes) >= 3
    monkeypatch.undo()


def _height(x) -> int:
    # the largest bit length of a numerator or denominator of x
    parts = x.payload if isinstance(x.payload, tuple) else (x.payload,)
    return max(_height(c) if not isinstance(c, Fraction) else
               max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in parts)


def _assert_gauss_jordan(rows, ncols, K):
    basis = _nullspace(rows, ncols, K)
    assert basis == gauss_jordan_nullspace(rows, ncols, K)
    assert _kernel_vector(rows, ncols, K) == (basis[0] if basis else None)
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), K.zero()).is_zero()
    return basis


def _residue_map_calls(monkeypatch):
    # the prime indices k at which the modular kernel takes residue maps
    calls = []
    real = poly._residue_maps

    def spy(n, k):
        calls.append(k)
        return real(n, k)
    monkeypatch.setattr(poly, "_residue_maps", spy)
    return calls


@pytest.mark.parametrize("n", [4, 5, 12])
def test_nullspace_drops_a_prime_whose_embeddings_disagree(n, monkeypatch):
    # zeta - w^u vanishes under the residue map zeta -> w^u of the first
    # prime only: there the first free column of that map differs from the
    # others', the prime is dropped, and each vector comes from the primes
    # after it.  The first vector is one at column 1: its free column is 0
    # under that map and 1 under the others.  nullspace's second call has
    # the unit row e_1 appended, and its free column is 0 under that map and
    # 3 under the others
    F = CyclotomicField(n)
    p, maps, _ = poly._residue_maps(n, 0)
    u = 2 if n == 5 else 5 if n == 12 else 3
    wu = maps[[k for k in range(n) if math.gcd(k, n) == 1].index(u)][1]
    assert wu == pow(maps[0][1], u, p)
    small = F.zeta() - F(wu)
    one, zero = F.one(), F.zero()
    rows = [[small, one, zero, one], [zero, zero, one, small],
            [small, one, one, one + small]]
    kernels = []
    real = poly._kernel_mod

    def spy(images, ncols, prime):
        out = real(images, ncols, prime)
        kernels.append((prime, out[0]))
        return out
    monkeypatch.setattr(poly, "_kernel_mod", spy)
    basis = _nullspace(rows, 4, F)
    assert basis == gauss_jordan_nullspace(rows, 4, F) and len(basis) == 2
    assert Counter(f for prime, f in kernels if prime == p) == {
        0: 2, 1: F.degree - 1, 3: F.degree - 1}
    assert any(prime != p for prime, _ in kernels)
    kernels.clear()
    assert _kernel_vector(rows, 4, F) == basis[0]
    assert Counter(f for prime, f in kernels if prime == p) == {0: 1, 1: F.degree - 1}
    assert any(prime != p for prime, _ in kernels)


def test_tetrahedral_rows_reduce_two_images_per_prime(monkeypatch):
    # the d = 9 tetrahedral rows over Z[zeta_12] have entries in Q(sqrt 3),
    # which complex conjugation fixes: the 4 residue maps give 2 distinct
    # images, each reduced once per prime, and the basis is Gauss-Jordan's
    from ratsym import symmetry
    systems = []
    real_kernel_vector = poly.kernel_vector

    def capture(ring, rows, ncols):
        systems.append((ring, rows, ncols))
        return real_kernel_vector(ring, rows, ncols)
    monkeypatch.setattr(poly, "kernel_vector", capture)
    symmetry._tetrahedral_witness(9)
    monkeypatch.setattr(poly, "kernel_vector", real_kernel_vector)
    (ring, rows, ncols), = systems
    assert all(ring.at_power(x, 11) == x for row in rows for x in row)
    calls = {}
    real = poly._kernel_mod

    def spy(images, ncols, prime):
        calls[prime] = calls.get(prime, 0) + 1
        return real(images, ncols, prime)
    monkeypatch.setattr(poly, "_kernel_mod", spy)
    v = kernel_vector(ring, rows, ncols)
    assert calls and set(calls.values()) == {2}
    monkeypatch.undo()
    basis = nullspace(ring, rows, ncols)
    assert basis and basis[0] == v
    assert basis == gauss_jordan_nullspace([[ring.to_field(x, 1) for x in row]
                                            for row in rows], ncols, ring.field)


def test_nullspace_restarts_at_a_better_prime(monkeypatch):
    # over Q the first free column of (p, 1) is column 0 modulo the first
    # prime and column 1 modulo the next: a later free column is better, and
    # the reconstruction restarts
    p = fields._residue_prime(1)
    kernels = []
    real = poly._kernel_mod

    def spy(images, ncols, prime):
        out = real(images, ncols, prime)
        kernels.append(out[0])
        return out
    monkeypatch.setattr(poly, "_kernel_mod", spy)
    basis = _assert_gauss_jordan([[QQ(p), QQ(1)]], 2, QQ)
    assert basis == [[QQ(Fraction(-1, p)), QQ(1)]]
    assert kernels[:2] == [0, 1]


def test_integer_kernel_divisions_raise():
    # exact divisions are checks that python -O keeps
    with pytest.raises(InexactDivision):
        fields._zpoly_exact_quo([1, 0, 1], [1, 1])
    ring = fields._integral_ring(CyclotomicField(4))
    with pytest.raises(InexactDivision):
        ring.quo((4, 6), 4)
    with pytest.raises(InexactDivision):
        _RationalIntegers.quo(6, 4)
    # 5,000-digit operands, which str() refuses: the message gives bit lengths
    with pytest.raises(InexactDivision, match="bit"):
        fields._exact_quo(10 ** 5000 + 1, 10 ** 4999)


def test_zero_divisor_pivot_raises():
    # over the tetrahedral layer s - sqrt(delta) with s = 6 - 2 sqrt 3 is a
    # zero divisor; its inversion raises, and so does Gaussian elimination
    # with it as a pivot
    K = _tetrahedral_layer()
    z = lift(K.base.zeta(), K)
    s = 6 - 2 * (z + z ** 11)
    assert s * s == lift(K.delta, K)
    with pytest.raises(ZeroDivisionError):
        (s - K.sqrt_delta()).inv()
    rows = [[s - K.sqrt_delta(), K.one(), K.zero()],
            [K.one(), K.zero(), K.one()],
            [K.zero(), K.one(), K.one()]]
    with pytest.raises(ZeroDivisionError):
        gaussian_det(rows, K)
    # Res_(2,1)((s - sqrt(delta)) x^2 + x + 1, x + 1) inverts nothing: it is
    # the division-free determinant of its Sylvester matrix
    f, g = Poly(K, [K.one(), K.one(), s - K.sqrt_delta()]), Poly(K, [K.one(), K.one()])
    rows = sylvester_rows([f[0], f[1], f[2]], [g[0], g[1]], K.zero())
    assert resultant(f, g, 2, 1) == leibniz_det(rows, K)



# sqrt(2) over Q(i), a radicand with a denominator, the icosahedral layer,
# and the square radicand of the tetrahedral hand-off, whose ring has zero
# divisors
QUADRATIC_LAYERS = [QuadraticField(CyclotomicField(4), CyclotomicField(4)(2)),
                    QuadraticField(QQ, QQ(Fraction(-3, 4))),
                    icosahedral_field(), _tetrahedral_layer()]
# (a, b, f has sqrt(D), g has sqrt(D), directions); a direction df of
# entries -c + c sqrt(D) vanishes at the node y = 1
Y_CASES = [(3, 2, True, True, "random"), (2, 3, True, False, "random"),
           (3, 2, False, True, "random"), (3, 2, False, False, "random"),
           (2, 2, True, True, "zero"), (2, 2, True, False, "df = 0 at y = 1")]


def _y_pencils(ring, a, b, f_y, g_y, directions, rng):
    """(f0, df, g0, dg) over a quadratic ring, with sqrt(D) parts on the
    sides that have one."""
    base = ring.base

    def coord():
        if base.base is None:
            return rng.randint(-9, 9)
        return tuple(rng.randint(-9, 9) for _ in range(base.m))

    def vec(length, with_y):
        return [(coord(), coord() if with_y else base.zero) for _ in range(length)]
    f0, df, g0, dg = vec(a + 1, f_y), vec(a + 1, f_y), vec(b + 1, g_y), vec(b + 1, g_y)
    if directions == "zero":
        df, dg = [ring.zero] * (a + 1), [ring.zero] * (b + 1)
    if directions == "df = 0 at y = 1":
        df = [(base.scale(c, -1), c) for c in (coord() for _ in range(a + 1))]
    return f0, df, g0, dg


@pytest.mark.parametrize("a, b, f_y, g_y, directions", Y_CASES)
@pytest.mark.parametrize("K", QUADRATIC_LAYERS, ids=repr)
def test_quadratic_pencil_resultant_runs_through_the_base_ring(K, a, b, f_y, g_y, directions,
                                                               monkeypatch):
    # R(t) over the quadratic ring, at every node t, is the resultant of the
    # evaluated pencils by the Leibniz determinant over K; the base ring is
    # called once at each y = 0..Y, Y = b [f has sqrt(D)] + a [g has it]
    ring = fields._integral_ring(K)
    rng = random.Random(f"{K!r} {a} {b} {f_y} {g_y} {directions}")
    f0, df, g0, dg = _y_pencils(ring, a, b, f_y, g_y, directions, rng)
    calls = []
    real = poly.pencil_resultant

    def spy(r, *pencils):
        calls.append(r)
        return real(r, *pencils)
    monkeypatch.setattr(poly, "pencil_resultant", spy)
    got = poly.pencil_resultant(ring, f0, df, g0, dg)
    Y = b * f_y + a * g_y
    assert calls[1:] == [ring.base] * (Y + 1)
    m = b * any(x != ring.zero for x in df) + a * any(x != ring.zero for x in dg)
    assert len(got) == m + 1
    R = Poly(K, [ring.to_field(c, 1) for c in got])
    for t in range(m + 1):
        f = [ring.to_field(ring.add(x, ring.scale(z, t)), 1) for x, z in zip(f0, df)]
        g = [ring.to_field(ring.add(x, ring.scale(z, t)), 1) for x, z in zip(g0, dg)]
        assert poly_eval(R, K(t)) == leibniz_det(sylvester_rows(f, g, K.zero()), K)


def test_nullspace():
    F = CyclotomicField(12)
    z = F.zeta()
    rows = [[F(1), F(2), F(0), F(3)],
            [F(2), F(4), z, F(6) + z]]
    basis = _nullspace(rows, 4, F)
    # rank 2, free columns 1 and 3, each basis vector one at its column
    assert len(basis) == 2
    assert basis[0][1] == 1 and basis[0][3] == 0
    assert basis[1][1] == 0 and basis[1][3] == 1
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), F(0)).is_zero()
    integers = fields._RationalIntegers
    assert nullspace(integers, [[1, 0], [0, 1]], 2) == []
    assert nullspace(integers, [], 2) == [[QQ(1), QQ(0)], [QQ(0), QQ(1)]]


def _kernel_routes(monkeypatch):
    # the row counts that _modular_kernel is called with, in order
    calls = []
    real = poly._modular_kernel

    def spy(rows, ncols, ring):
        calls.append(len(rows))
        return real(rows, ncols, ring)
    monkeypatch.setattr(poly, "_modular_kernel", spy)
    return calls


def test_nullspace_falls_back_when_rank_drops_mod_p(monkeypatch):
    # an entry that is a multiple of the prime over Q, and zeta - w over
    # Q(zeta_12), vanishes modulo p: the picked rows then have a kernel too
    # large, the exact check on the other rows rejects it, and the rows are
    # picked again with the next prime, which finds one more.  The kernel
    # has free columns 2 and 3, so nullspace calls kernel_vector three
    # times, and each call falls back once: on the rows (1 row picked, then
    # 2), with e_2 appended (2, then 3), and with e_2 and e_3 appended (3,
    # then all 4, so the kernel is {0})
    for K, n in ((QQ, 1), (CyclotomicField(12), 12)):
        p, maps, _ = poly._residue_maps(n, 0)
        small = QQ(p) if n == 1 else K.zeta() - K(maps[0][1])
        ring = fields._integral_ring(K)
        assert poly._image(ring.clear([small])[1], p, maps[0], n == 1) == [0]
        one, zero = K.one(), K.zero()
        rows = [[one, one, zero, one],
                [zero, small, zero, small],
                [one + one, one + one, zero, one + one]]
        calls = _kernel_routes(monkeypatch)
        basis = _nullspace(rows, 4, K)
        assert calls == [1, 2, 2, 3, 3]
        assert basis == gauss_jordan_nullspace(rows, 4, K)
        assert len(basis) == 2
        del calls[:]
        assert _kernel_vector(rows, 4, K) == basis[0]
        assert calls == [1, 2]
        monkeypatch.undo()


def test_nullspace_full_rank_mod_p_returns_nothing(monkeypatch):
    # ncols rows independent modulo p: the kernel is {0} with no elimination
    F = CyclotomicField(12)
    z = F.zeta()
    rows = [[F(1), z, F(0)], [F(2), F(2) * z, F(0)], [z, F(0), F(1)],
            [F(0), F(3), z ** 3]]
    calls = _kernel_routes(monkeypatch)
    assert _nullspace(rows, 3, F) == [] == gauss_jordan_nullspace(rows, 3, F)
    assert _kernel_vector(rows, 3, F) is None
    assert calls == []


def test_nullspace_eliminates_only_the_picked_rows(monkeypatch):
    # rank 2 in 4 rows: two rows are reduced modulo primes, and the exact
    # check on the other two passes; for the second vector the unit row
    # appended is picked too, and with the second unit row the rank modulo
    # p is full
    F = CyclotomicField(12)
    z = F.zeta()
    r1, r2 = [F(1), z, F(0), F(2)], [F(0), F(1), z, z ** 2]
    rows = [r1, r2, [a + z * b for a, b in zip(r1, r2)], [a * 3 for a in r2]]
    calls = _kernel_routes(monkeypatch)
    eliminated = []
    real = poly._kernel_mod

    def spy(images, ncols, p):
        eliminated.append(len(images))
        return real(images, ncols, p)
    monkeypatch.setattr(poly, "_kernel_mod", spy)
    assert _nullspace(rows, 4, F) == gauss_jordan_nullspace(rows, 4, F)
    assert calls == [2, 3]
    assert set(eliminated) == {2, 3} and eliminated == sorted(eliminated)


def test_annihilation_check_packs_sums_at_full_width():
    # with a = (c1 + c2 zeta) and three copies each of a zeta^2 * zeta^2 and
    # a * (1 - zeta^2), the row times w is 3 (c1 + c2 x) Phi_12(x) before the
    # reduction: zero in Z[zeta_12], with coefficients 3 c1 > 2^62 and
    # 3 c2 = 2^62 - 1 that a slot of bits(a) + bits(w) + 1 = 63 bits,
    # without the sum's ncols * phi(n), would carry into the wrong digits
    ring = fields._integral_ring(CyclotomicField(12))
    c1, c2 = 2 ** 61 - 1, (2 ** 62 - 1) // 3
    row = [(0, 0, c1, c2)] * 3 + [(c1, c2, 0, 0)] * 3
    w = [(0, 0, 1, 0)] * 3 + [(1, 0, -1, 0)] * 3
    assert poly._annihilates([row], w, ring)
    w[-1] = (1, 0, -1, 1)
    assert not poly._annihilates([row], w, ring)
    integers = fields._RationalIntegers
    assert poly._annihilates([[c1, -2 * c1]], [2 * c1, c1], integers)
    assert not poly._annihilates([[c1, -2 * c1]], [2 * c1, c1 + 1], integers)


def test_residue_map_checks_its_prime():
    F = CyclotomicField(12)
    p = fields._residue_prime(12)
    assert p < 2 ** 30 and p % 12 == 1 and fields._is_prime(p)
    with pytest.raises(fields.BadResidueMap):
        fields._root_of_unity_mod(F, fields._residue_prime(1))          # = 5 mod 12
    with pytest.raises(fields.BadResidueMap):
        fields._root_of_unity_mod(F, p + 12)                           # not prime
    # every modular kernel draws from one sequence per n, counting down
    # from 2^30; for n = 1 it is the primes below 2^30, from the largest
    for n in (1, 3, 4, 5, 12, 20, 127, 256):
        ps = [fields._residue_prime(n, k) for k in range(4)]
        assert all(fields._is_prime(q) and (q - 1) % n == 0 for q in ps)
        assert 2 ** 30 > ps[0] > ps[1] > ps[2] > ps[3]
    assert [fields._residue_prime(1, k) for k in range(4)] == \
        [1073741789, 1073741783, 1073741741, 1073741723]
    assert [n for n in range(2, 60) if fields._is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    # strong pseudoprime to the bases 2, 3, 5 and 7
    assert not fields._is_prime(3215031751)


def test_squarefree_norm_of_a_zero_divisor_leading_coefficient():
    # 48 - 48 z + 24 z^3 = (6 - 2 sqrt 3)^2 with sqrt 3 = 2 z - z^3 in
    # Q(zeta_12), so zd = (6 - 2 sqrt 3) - sqrt(delta) has norm zero: the
    # norm of G = 1 + zd t is 1 + 2 (6 - 2 sqrt 3) t over Q(zeta_12), whose
    # coefficients generate Q(sqrt 3): its two distinct images multiply to
    # 1 + 24 t + 96 t^2 over Z, padded to 8 (2 - 1) + 1 coefficients at
    # [K:Q] = 8, and the full norm is its square
    K = CyclotomicField(12)
    L = QuadraticField(K, K.from_coeffs([48, -48, 0, 24]))
    zd = L.from_parts(K.from_coeffs([6, -4, 0, 2]), K(-1))
    norm = poly._integer_norm(L, fields._integral_ring(L).clear([L(1), zd])[1])
    assert norm == [1, 24, 96, 0, 0, 0, 0, 0, 0]
    square = poly._ring_mul(_RationalIntegers, norm[:3], norm[:3])
    assert square + [0] * 4 == [1, 48, 768, 4608, 9216, 0, 0, 0, 0]
    # (1 + (12 - 4 sqrt 3) t)(1 + (12 + 4 sqrt 3) t) = 1 + 24 t + 96 t^2
    assert poly.squarefree_norm(Poly(L, [L(1), zd])) == \
        Poly(QQ, [Fraction(1, 96), Fraction(1, 4), 1])
    with pytest.raises(ValueError, match="norm is zero"):
        poly.squarefree_norm(Poly(L, [zd]))
    with pytest.raises(ValueError, match="norm is zero"):
        poly.squarefree_norm(Poly(L, [zd, zd * zd]))


def test_signed_digits():
    digits = [5, -8, 7, 0, -1]
    x = sum(c << (4 * k) for k, c in enumerate(digits))
    assert poly._signed_digits(x, 4, 5) == digits
    assert poly._signed_digits(x, 4, 6) == digits + [0]
    # -x has the digit 8 out of range, which carries
    assert poly._signed_digits(-x, 4, 5) == [-5, -8, -6, 0, 1]
    # a quotient left after the last digit is an error that python -O keeps
    with pytest.raises(InexactDivision):
        poly._signed_digits(x, 4, 4)
    with pytest.raises(InexactDivision):
        poly._signed_digits(1 << 12, 4, 3)


def test_sturm_examples():
    t = x()
    assert sturm_roots_in_interval(t * t - Fraction(1, 4), 0, 1) == 1
    assert sturm_roots_in_interval(t * t + 1, 0, 1) == 0
    assert sturm_roots_in_interval(t * t * t - t, -2, 2) == 3
    # half-open convention (lo, hi]
    assert sturm_roots_in_interval(t, 0, 1) == 0
    assert sturm_roots_in_interval(t - 1, 0, 1) == 1
    # square-free preprocessing
    assert sturm_roots_in_interval((t - 1) * (t - 1) * (t + 2), 0, 1) == 1


def test_counting_on_the_unit_interval_shifts_nothing(monkeypatch):
    # on [0, 1] the map x = lo + (hi - lo) y is the identity: no Taylor
    # shift by 0 (and no scaling by 1), only the shifts by 1 of the
    # Descartes bisection
    shifts = []
    shift = poly._taylor_shift
    monkeypatch.setattr(poly, "_taylor_shift",
                        lambda f, a: shifts.append(a) or shift(f, a))
    # (4x - 1)(3x - 2)(x - 1)(x + 1) and x^2 + 1 over (0, 1]
    g = [-2, 11, -10, -11, 12]
    assert poly._count_roots(g, Fraction(0), Fraction(1)) == 3
    assert poly._count_roots([1, 0, 1], Fraction(0), Fraction(1)) == 0
    assert shifts and set(shifts) == {1}
    shifts.clear()
    assert poly._count_roots(g, Fraction(-2), Fraction(1, 2)) == 2
    assert 0 not in shifts and -4 in shifts     # c = 2, a = -4, b = 5


def test_sturm_against_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        roots = sorted({Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(rng.randint(1, 6))})
        f = Poly(QQ, [1])
        for r in roots:
            f = f * Poly(QQ, [-r, 1])
        lo = Fraction(rng.randint(-10, 0), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 15), rng.randint(1, 3))
        expect = sum(1 for r in roots if lo < r <= hi)
        assert sturm_roots_in_interval(f, lo, hi) == expect


def test_eval_examples():
    F4 = CyclotomicField(4)
    assert poly_eval(Poly(QQ, [1, 0, 1]), F4.zeta()).is_zero()
    F12 = CyclotomicField(12)
    assert poly_eval(Poly(QQ, cyclotomic_coeffs(12)), F12.zeta()).is_zero()
    assert poly_eval(Poly(QQ, [1, 0, 0, 2]), QQ(Fraction(1, 2))) == Fraction(5, 4)


def test_eval_multiplicative():
    rng = random.Random(5)
    for _ in range(40):
        f = Poly(QQ, [Fraction(rng.randint(-5, 5)) for _ in range(4)])
        g = Poly(QQ, [Fraction(rng.randint(-5, 5)) for _ in range(3)])
        a = QQ(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        assert poly_eval(f * g, a) == poly_eval(f, a) * poly_eval(g, a)


def test_cyclotomic_polynomial_poly():
    assert Poly(QQ, cyclotomic_coeffs(1)) == Poly(QQ, [-1, 1])
    assert Poly(QQ, cyclotomic_coeffs(4)) == Poly(QQ, [1, 0, 1])
    assert Poly(QQ, cyclotomic_coeffs(12)) == Poly(QQ, [1, 0, -1, 0, 1])


def test_interpolation():
    target = Poly(QQ, [3, -2, 0, 1])
    assert interpolate(QQ, [poly_eval(target, QQ(i)) for i in range(5)]) == target
    # a value list longer than deg + 1 gives the same polynomial
    assert interpolate(QQ, [poly_eval(target, QQ(i)) for i in range(7)]) == target


def test_structure_maps():
    f = Poly(QQ, [1, 2, 3])
    assert f.inflate(3).support() == (0, 3, 6)
    assert f.shift(2)[2] == 1 and f.shift(2).degree == 4
    with pytest.raises(ValueError):
        f.shift(-1)
