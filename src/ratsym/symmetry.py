"""Normal forms for rational maps with prescribed rotation and involution
symmetries.

A degree-d map with an order-n rotation symmetry z -> w_n z is, after the
rotation is put in standard position, of the shape phi(z) = z * psi(z^n)
with psi = P/Q of degree r, in one of the cases A, B and C, whose offsets
d - n*r are 1, 0 and -1 (:data:`CASE_OFFSET`).  For the coefficients a_k,
b_k of P and Q every case fact follows from the offset: a_r != 0 exactly
when it is >= 0, b_0 != 0 exactly when it is 1, and case C also needs
b_r != 0; a_k sits at z^(nk+s) in the numerator and b_k at z^(nk+s-1) in
the denominator, with s = 1 in case A and s = 0 otherwise.

This module builds and validates such families, decides admissibility of
each finite symmetry type for a given degree, produces explicit witness maps
realising a rotation of odd prime order together with an extra involution,
and searches for automorphisms inside the rotation normaliser
{lam*z, mu/z}.

Both the search and the recovery of a family from a map read the
coefficients of phi = N/D alone: a coprime pair of formal degree d
determines its map up to a scalar, so T commutes with phi exactly when
T o phi o T^{-1} has the pair kappa*(N, D) for some kappa != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .fields import (QQ, Field, FieldElement, FieldMismatch, QuadraticField,
                     _integral_ring, _is_prime, _rational_perfect_root,
                     _rational_value, common_field, lift, root_of_unity,
                     root_of_unity_field)
from .mobius import (GroupSpec, MobiusMap, inversion, mobius_order,
                     rotation, scaling, standard_generators)
from .poly import Poly, _kernel_vectors, resultant
from .ratmap import (RationalMap, _power_products, _scaled, conjugate,
                     is_automorphism, maps_equal)

__all__ = [
    "CyclicFamily",
    "DihedralFamily",
    "WitnessReport",
    "CASE_OFFSET",
    "DIHEDRAL_CASE",
    "NotAdmissible",
    "CoefficientConditionViolated",
    "UnexpectedDegree",
    "WitnessUnavailable",
    "WitnessVerificationFailed",
    "AutSearchIncomplete",
    "case_conditions",
    "cyclic_admissible",
    "dihedral_admissible",
    "platonic_admissible",
    "build_cyclic",
    "build_dihedral",
    "lemma_witness",
    "classify_lemma_case",
    "aut_in_normalizer",
    "cyclic_family_from_map",
    "random_cyclic_family",
    "random_dihedral_family",
    "simple_cyclic_family",
    "simple_dihedral_family",
]


class NotAdmissible(ValueError):
    """The requested symmetry type does not occur in this degree."""


class CoefficientConditionViolated(ValueError):
    """Family coefficients break the case conditions or coprimality."""


class UnexpectedDegree(RuntimeError):
    """Built map degree disagrees with the family case (defensive check)."""


class WitnessUnavailable(RuntimeError):
    """No witness with the requested symmetries is constructible here.

    Carries ``analysis``: 'provably_empty' when no degree-d map with the two
    requested symmetry orders exists at all (shown by exhausting the finite
    symmetry types admissible in that degree), or 'exists_via_exceptional'
    when only an exceptional-group witness would do and the tetrahedral
    normal-form search found no map of exact degree d (not observed for
    any d = 3*r, r odd, up to 99).
    """

    def __init__(self, message: str, analysis: str):
        super().__init__(message)
        self.analysis = analysis


class WitnessVerificationFailed(RuntimeError):
    """A constructed witness failed its exact automorphism check."""


class AutSearchIncomplete(RuntimeError):
    """The normaliser search needs numbers outside the supported field
    tower: the roots of unity of the scalings, or an inversion coefficient
    that needs a further radical extension."""


# ---------------------------------------------------------------------------
# admissibility predicates
# ---------------------------------------------------------------------------

# d - n*r in each case of the normal form; the module docstring derives the rest
CASE_OFFSET = {"A": 1, "B": 0, "C": -1}

# the dihedral cases I and II are the rows A and C of the same table
DIHEDRAL_CASE = {"I": "A", "II": "C"}


def case_conditions(case: str, r: int) -> dict[tuple[str, int], bool]:
    """The coefficient conditions of a case as {(vector, index): nonzero}:
    whether a_r, b_0 (and in case C b_r) must be nonzero or zero."""
    offset = CASE_OFFSET[case]
    conds = {("a", r): offset >= 0, ("b", 0): offset == 1}
    if offset < 0:
        conds["b", r] = True
    return conds


def cyclic_admissible(d: int, n: int) -> list[tuple[str, int]]:
    """All (case, r) pairs realising an order-n rotation in degree d, in the
    order A, B, C: those with d - n*r equal to the case offset.

    Empty when d is not congruent to -1, 0 or 1 modulo n.  For n = 2 and odd
    d both case A (r = (d-1)/2) and case C (r = (d+1)/2) apply.
    """
    if d < 2 or n < 2:
        return []
    return [(case, (d - offset) // n) for case, offset in CASE_OFFSET.items()
            if (d - offset) % n == 0]


def dihedral_admissible(d: int, n: int) -> list[tuple[str, int]]:
    """All (case, r) pairs realising a full dihedral symmetry of order 2n:
    the cyclic rows A and C, renamed I and II."""
    cyclic = dict(cyclic_admissible(d, n))
    return [(dcase, cyclic[case]) for dcase, case in DIHEDRAL_CASE.items()
            if case in cyclic]


def platonic_admissible(d: int, spec: GroupSpec) -> bool:
    if d < 2:
        raise ValueError("degree must be at least 2")
    if spec.kind == "A4":
        return d % 2 == 1
    if spec.kind == "A5":
        return d % 30 in (1, 11, 19, 29)
    if spec.kind == "S4":
        return math.gcd(d, 6) == 1
    raise ValueError("platonic admissibility is for A4, S4, A5")


# ---------------------------------------------------------------------------
# cyclic families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicFamily:
    """Coefficient data (a, b) of psi = P/Q for phi(z) = z * psi(z^n)."""

    n: int
    r: int
    case: str                      # "A" | "B" | "C"
    a: tuple[FieldElement, ...]    # a_0 .. a_r
    b: tuple[FieldElement, ...]    # b_0 .. b_r

    def __post_init__(self):
        if self.n < 2 or self.r < 1:
            raise CoefficientConditionViolated("need n >= 2 and r >= 1")
        if self.case not in CASE_OFFSET:
            raise CoefficientConditionViolated(f"unknown case {self.case!r}")
        if len(self.a) != self.r + 1 or len(self.b) != self.r + 1:
            raise CoefficientConditionViolated("coefficient vectors must have length r+1")
        fields = {c.field for c in self.a + self.b}
        if len(fields) != 1:
            raise CoefficientConditionViolated("coefficients must share one field")
        self.validate()

    @property
    def field(self) -> Field:
        return self.a[0].field

    @property
    def degree(self) -> int:
        return self.n * self.r + CASE_OFFSET[self.case]

    def psi_num(self) -> Poly:
        return Poly(self.field, self.a)

    def psi_den(self) -> Poly:
        return Poly(self.field, self.b)

    def validate(self) -> None:
        """The case conditions, and P and Q coprime: coprime exactly when
        Res(P, Q) at the actual degrees is nonzero, which :func:`resultant`
        decides over the field's integral ring: modulo primes over Z and
        Z[zeta_n], and through the base ring over a quadratic layer."""
        conds = case_conditions(self.case, self.r)
        vecs = {"a": self.a, "b": self.b}
        if any(vecs[v][k].is_zero() == nonzero for (v, k), nonzero in conds.items()):
            need = " and ".join(f"{v}_{k} {'!=' if nonzero else '='} 0"
                                for (v, k), nonzero in conds.items())
            raise CoefficientConditionViolated(f"case {self.case} needs {need}")
        P, Q = self.psi_num(), self.psi_den()
        if P.is_zero() or Q.is_zero():
            raise CoefficientConditionViolated("psi must be a nonzero quotient")
        if resultant(P, Q, P.degree, Q.degree).is_zero():
            raise CoefficientConditionViolated(
                "numerator and denominator of psi must be coprime")

    def lift(self, target: Field) -> "CyclicFamily":
        return CyclicFamily(self.n, self.r, self.case,
                            tuple(lift(c, target) for c in self.a),
                            tuple(lift(c, target) for c in self.b))


def build_cyclic(fam: CyclicFamily) -> RationalMap:
    """phi(z) = z * psi(z^n), reduced, with the case-certified degree.

    A validated family has P and Q coprime, so z * P(z^n) and Q(z^n) share
    at most the single factor z, exactly when b_0 = 0 (cases B and C, where
    a_0 != 0).  Then the reduced pair is P(z^n) over Q(z^n) / z, and no gcd
    is taken.  Families whose coefficients violate the case conditions or
    whose psi is reducible are rejected at validation; the degree check
    here is a defensive backstop only.
    """
    num = fam.psi_num().inflate(fam.n)
    den = fam.psi_den().inflate(fam.n)
    if fam.b[0].is_zero():
        den = Poly(fam.field, den.coeffs[1:])
    else:
        num = num.shift(1)
    degree = max(num.degree, den.degree)
    if degree != fam.degree:
        raise UnexpectedDegree(
            f"built degree {degree}, case {fam.case} demands {fam.degree}")
    return _scaled(num, den, degree)


# ---------------------------------------------------------------------------
# dihedral families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DihedralFamily:
    """Self-reciprocal family: b_k = sign * a_{r-k}, sign in {+1, -1}.

    Case I is the cyclic case A shape (d = n*r + 1, needs a_r != 0); case II
    is the cyclic case C shape (d = n*r - 1, needs a_r = 0 and a_0 != 0).
    The built map then satisfies phi(1/z) = 1/phi(z) in addition to the
    rotation symmetry.
    """

    n: int
    r: int
    case: str                      # "I" | "II"
    sign: int                      # +1 | -1
    a: tuple[FieldElement, ...]

    def __post_init__(self):
        if self.case not in DIHEDRAL_CASE:
            raise CoefficientConditionViolated(f"unknown dihedral case {self.case!r}")
        if self.sign not in (1, -1):
            raise CoefficientConditionViolated("sign must be +1 or -1")
        if len(self.a) != self.r + 1:
            raise CoefficientConditionViolated("coefficient vector must have length r+1")
        self.to_cyclic()  # validates

    @property
    def field(self) -> Field:
        return self.a[0].field

    @property
    def degree(self) -> int:
        return self.n * self.r + CASE_OFFSET[DIHEDRAL_CASE[self.case]]

    def to_cyclic(self) -> CyclicFamily:
        s = self.field(self.sign)
        b = tuple(self.a[self.r - k] * s for k in range(self.r + 1))
        try:
            return CyclicFamily(self.n, self.r, DIHEDRAL_CASE[self.case],
                                tuple(self.a), b)
        except CoefficientConditionViolated as exc:
            raise CoefficientConditionViolated(f"dihedral family invalid: {exc}") from exc


def build_dihedral(fam: DihedralFamily) -> RationalMap:
    return build_cyclic(fam.to_cyclic())


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """A concrete map together with exactly verified automorphisms."""

    map: RationalMap
    autos: tuple[tuple[MobiusMap, int], ...]
    group: GroupSpec
    family: CyclicFamily

    def verify(self) -> bool:
        for T, order in self.autos:
            if mobius_order(T) != order:
                return False
            if not is_automorphism(self.map, T):
                return False
        return True


def simple_cyclic_family(d: int, n: int, case: str, field: Field = QQ) -> CyclicFamily:
    """Deterministic sparse representative of each admissible family."""
    pairs = dict(cyclic_admissible(d, n))
    if case not in pairs:
        raise NotAdmissible(f"no cyclic case {case} for degree {d}, order {n}")
    r = pairs[case]
    zero, one, two = field.zero(), field.one(), field(2)
    if case == "A":
        a = [two] + [zero] * (r - 1) + [one]
        b = [one] + [zero] * r
    elif case == "B":
        a = [one] + [zero] * (r - 1) + [one]
        b = [zero, one] + [zero] * (r - 1)
    else:
        a = [one] + [zero] * r
        b = [zero] * r + [one]
    return CyclicFamily(n, r, case, tuple(a), tuple(b))


def simple_dihedral_family(d: int, n: int, case: str, sign: int = 1,
                           field: Field = QQ) -> DihedralFamily:
    pairs = dict(dihedral_admissible(d, n))
    if case not in pairs:
        raise NotAdmissible(f"no dihedral case {case} for degree {d}, order {n}")
    r = pairs[case]
    zero, one, two = field.zero(), field.one(), field(2)
    if case == "I":
        a = [two] + [zero] * (r - 1) + [one]
    else:
        a = [one] + [zero] * r
    return DihedralFamily(n, r, case, sign, tuple(a))


def classify_lemma_case(p: int, d: int) -> str:
    """Feasibility of a degree-d witness with symmetries of orders p and 2.

    Returns 'constructible' when the self-reciprocal or even-coefficient
    construction applies; otherwise (d = p*r with r odd) decides whether ANY
    degree-d map can carry both symmetry orders by exhausting the finite
    symmetry types that contain elements of orders p and 2 (cyclic of order
    a multiple of 2p, dihedral of order swallowing p, and the exceptional
    groups).  The cyclic types need d = 0, +-1 (mod 2pk) and the dihedral
    types d = +-1 (mod pk); neither holds for an odd multiple d of p.  So the
    answer is 'exists_via_exceptional' exactly for p = 3 (the tetrahedral
    group is admissible in every odd degree) and 'provably_empty' for
    p >= 5 (the icosahedral group needs d mod 30 in {1, 11, 19, 29}, the
    degrees of its basic equivariants modulo 30, which excludes multiples
    of 5).
    """
    if not _is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime")
    cases = cyclic_admissible(d, p)
    if not cases:
        raise NotAdmissible(f"order {p} does not occur in degree {d}")
    case, r = cases[0]
    if case in DIHEDRAL_CASE.values() or r % 2 == 0:
        return "constructible"
    # case B with odd r: the even-support construction degenerates.  Check
    # every other finite symmetry type containing orders p and 2.
    for m in range(2 * p, d + 2, 2 * p):          # cyclic C_m with 2p | m
        if cyclic_admissible(d, m):
            return "exists_via_exceptional"
    for m in range(p, d + 2, p):                  # dihedral D_m with p | m
        if dihedral_admissible(d, m):
            return "exists_via_exceptional"
    for spec in (GroupSpec("A4"), GroupSpec("S4"), GroupSpec("A5")):
        if p in _element_orders(spec) and platonic_admissible(d, spec):
            return "exists_via_exceptional"
    return "provably_empty"


def _element_orders(spec: GroupSpec) -> set[int]:
    return {"A4": {1, 2, 3}, "S4": {1, 2, 3, 4}, "A5": {1, 2, 3, 5}}[spec.kind]


def _tetrahedral_witness(d: int) -> WitnessReport:
    """Degree-d map, d = 3*r with r odd, with the tetrahedral symmetry group.

    With T the order-3 rotation and B the involution of
    :func:`standard_generators` for A4, the case-B normal form for T reduces
    to phi = N/D with N = sum_k a_k z^(3k) and D = sum_{k>=1} b_k z^(3k-1).
    B has a matrix M with M^2 = c*I, so it is an automorphism exactly when
    the homogeneous lift Phi = (N, D) satisfies Phi(M v) = lam * M Phi(v)
    with lam^2 = c^(d-1) (apply the identity twice), that is
    lam = +-c^((d-1)/2).  For each sign this is a linear system in the
    a_k, b_k over Q(zeta_12); the first vector of its reduced echelon
    kernel basis that gives a valid family of exact degree d is taken,
    scaled to a_r = 1.  The basis is taken lazily
    (:func:`poly._kernel_vectors`), one :func:`poly.kernel_vector` call per
    vector, and for d <= 99 the first vector is the one taken.

    The system is built in Z[zeta_12]: the entries of M are cleared once,
    to s, t, u, w with a common denominator e, and the columns are the
    products U^j V^(d-j) of U = t + s z and V = w + u z
    (:func:`ratmap._power_products`), with the lam terms
    sign * (s^2 + t u)^((d-1)/2) * (s, t, u, w); every entry is e^d times
    the entry over the field, which leaves the kernel as it is, and the
    kernel is taken of the rows as they are.  The sign that fails has
    kernel {0}, which :func:`poly.kernel_vector` settles by its rank modulo
    a prime.
    """
    T, B = standard_generators(GroupSpec("A4"))
    field = B.field
    ring = _integral_ring(field)
    r = d // 3
    _, (s, t, u, w) = ring.clear(B.entries())
    # unknowns a_0..a_r, b_1..b_r as (is a numerator coefficient, exponent)
    unknowns = ([(True, 3 * k) for k in range(r + 1)]
                + [(False, 3 * k - 1) for k in range(1, r + 1)])
    # z^j at formal degree d, after substituting z -> (s z + t) / (u z + w)
    subs = _power_products(ring, [t, s], [w, u], d, [j for _, j in unknowns])
    c_half = ring.one                 # c^((d-1)/2), times e^(d-1)
    for _ in range((d - 1) // 2):
        c_half = ring.mul(c_half, ring.add(ring.mul(s, s), ring.mul(t, u)))
    zero = field.zero()
    blank = [ring.zero] * (d + 1)
    for sign in (1, -1):
        lam = ring.scale(c_half, sign)
        # each unknown's column: the coefficients of Phi(M v) - lam * M Phi(v)
        cols = []
        for (in_num, j), sub in zip(unknowns, subs):
            col = sub + blank if in_num else blank + sub
            top, bottom = (sub[j], ring.zero) if in_num else (ring.zero, sub[j])
            hi, lo = (s, u) if in_num else (t, w)
            col[j] = ring.sub(top, ring.mul(lam, hi))
            col[d + 1 + j] = ring.sub(bottom, ring.mul(lam, lo))
            cols.append(col)
        rows = [[col[i] for col in cols] for i in range(2 * d + 2)]
        for v in _kernel_vectors(ring, rows, len(unknowns)):
            if v[r].is_zero():
                continue
            norm = v[r].inv()
            a = tuple(x * norm for x in v[:r + 1])
            b = (zero,) + tuple(x * norm for x in v[r + 1:])
            try:
                fam = CyclicFamily(3, r, "B", a, b)
                phi = build_cyclic(fam)
            except (CoefficientConditionViolated, UnexpectedDegree):
                continue
            return WitnessReport(map=phi, autos=((T, 3), (B, 2)),
                                 group=GroupSpec("A4"), family=fam)
    raise WitnessUnavailable(
        f"witness for orders (3, 2) in degree {d}: no tetrahedral normal form "
        f"of exact degree {d} found", "exists_via_exceptional")


def lemma_witness(p: int, d: int) -> WitnessReport:
    """Witness map of degree d with verified automorphisms of orders p and 2.

    For d = p*r + 1 or p*r - 1 the self-reciprocal choice b_k = a_{r-k}
    makes 1/z an automorphism and the group is dihedral of order 2p.  For
    d = p*r with r even, supporting the coefficients on even indices makes
    -z an automorphism and the group is cyclic of order 2p.  For d = p*r
    with r odd the even-support quotient degenerates: for p = 3 the witness
    is a tetrahedral normal form (group A4, see :func:`_tetrahedral_witness`);
    for p >= 5 no degree-d map carries both symmetry orders and
    :class:`WitnessUnavailable` is raised with analysis 'provably_empty'.

    Every witness is verified exactly before it is returned; a failure
    raises :class:`WitnessVerificationFailed`.
    """
    if not _is_prime(p) or p < 3:
        raise NotAdmissible("p must be an odd prime")
    cases = cyclic_admissible(d, p)
    if not cases:
        raise NotAdmissible(f"order {p} does not occur in degree {d}")
    r = cases[0][1]
    Tp = rotation(p)

    dcases = dihedral_admissible(d, p)
    if dcases:
        dfam = simple_dihedral_family(d, p, dcases[0][0], sign=1, field=QQ)
        fam = dfam.to_cyclic()
        phi = build_cyclic(fam)
        inv = inversion(QQ)
        report = WitnessReport(
            map=phi,
            autos=((Tp, p), (inv, 2)),
            group=GroupSpec("dihedral", p),
            family=fam)
    elif r % 2 == 1:
        analysis = classify_lemma_case(p, d)
        if analysis != "exists_via_exceptional":
            raise WitnessUnavailable(
                f"witness for orders ({p}, 2) in degree {d}: the inner degree "
                f"r = {r} is odd, so an even-support quotient would force a "
                f"common factor and a degree drop; no degree-{d} map admits "
                f"symmetries of orders {p} and 2 at all", analysis)
        report = _tetrahedral_witness(d)
    else:
        one, zero = QQ.one(), QQ.zero()
        a = [one] + [zero] * (r - 1) + [one]
        b = [zero] * 2 + [one] + [zero] * (r - 2)
        fam = CyclicFamily(p, r, "B", tuple(a), tuple(b))
        phi = build_cyclic(fam)
        neg = scaling(QQ(-1))
        report = WitnessReport(
            map=phi,
            autos=((Tp, p), (neg, 2)),
            group=GroupSpec("cyclic", 2 * p),
            family=fam)
    if sorted(k for _, k in report.autos) != [2, p] or not report.verify():
        raise WitnessVerificationFailed(
            f"witness for orders ({p}, 2) in degree {d} failed verification")
    return report


# ---------------------------------------------------------------------------
# seeded family sampling (small integer heights, rejection on invalidity)
# ---------------------------------------------------------------------------

def _coeff_samplers(rng, field: Field):
    """Small-height samplers; Gaussian integers when the field contains i."""
    try:
        i_unit = lift(root_of_unity(4), field)
    except FieldMismatch:
        i_unit = None

    def any_coeff() -> FieldElement:
        x = field(rng.randint(-9, 9))
        if i_unit is not None:
            x = x + i_unit * rng.randint(-9, 9)
        return x

    def nonzero() -> FieldElement:
        while True:
            x = any_coeff()
            if not x.is_zero():
                return x

    return any_coeff, nonzero


# draws the random family samplers make before they give up
MAX_DRAWS = 400


def random_cyclic_family(rng, n: int, r: int, case: str,
                         field: Field = QQ) -> CyclicFamily:
    """Seeded rejection sampler for valid families with small integer
    coefficients (Gaussian integers over fields containing i);
    deterministic for a fixed rng state."""
    any_coeff, nonzero = _coeff_samplers(rng, field)
    zero = field.zero()
    for _ in range(MAX_DRAWS):
        a = [any_coeff() for _ in range(r + 1)]
        b = [any_coeff() for _ in range(r + 1)]
        if case == "A":
            a[r] = nonzero()
            b[0] = nonzero()
        elif case == "B":
            a[r] = nonzero()
            b[0] = zero
            if all(c.is_zero() for c in b):
                b[1] = nonzero()
        elif case == "C":
            a[r] = zero
            b[0] = zero
            b[r] = nonzero()
            if all(c.is_zero() for c in a):
                a[0] = nonzero()
        else:
            raise ValueError(f"unknown case {case!r}")
        try:
            return CyclicFamily(n, r, case, tuple(a), tuple(b))
        except CoefficientConditionViolated:
            continue
    raise RuntimeError(f"no valid family found in {MAX_DRAWS} draws")


def random_dihedral_family(rng, n: int, r: int, case: str, sign: int,
                           field: Field = QQ) -> DihedralFamily:
    any_coeff, nonzero = _coeff_samplers(rng, field)
    for _ in range(MAX_DRAWS):
        a = [any_coeff() for _ in range(r + 1)]
        if case == "I":
            a[r] = nonzero()
        else:
            a[r] = field.zero()
            a[0] = nonzero()
        try:
            return DihedralFamily(n, r, case, sign, tuple(a))
        except CoefficientConditionViolated:
            continue
    raise RuntimeError(f"no valid dihedral family found in {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# recovering a family from a map
# ---------------------------------------------------------------------------

def cyclic_family_from_map(phi: RationalMap, n: int) -> tuple[CyclicFamily, MobiusMap]:
    """Recognise phi as z*psi(z^n) up to the standard renormalisation.

    Returns (family, U) where U is the recorded conjugator with
    build_cyclic(family) == U o phi o U^{-1}; U is the identity except for
    maps that swallow both 0 and infinity into 0, which are first turned
    around by the inversion.  Where 0 and infinity go, and so the case, is
    read from which of N_0, D_0, N_d and D_d vanish.
    """
    field = phi.field
    U = MobiusMap(field, 1, 0, 0, 1)
    # phi(0) = (N_0 : D_0) and phi(inf) = (N_d : D_d)
    N, D, d = phi.num, phi.den, phi.degree
    if N[0].is_zero() and N[d].is_zero():
        # transitional shape: invert once to land in the standard case
        U = inversion(field)
        phi = conjugate(phi, U)
        N, D = phi.num, phi.den
    if not (N[0].is_zero() or D[0].is_zero()) or not (N[d].is_zero() or D[d].is_zero()):
        raise CoefficientConditionViolated("map does not stabilise {0, inf}")
    # s = 1 exactly when phi fixes 0; the offset is s, less one when phi
    # sends inf to 0
    s = 1 if N[0].is_zero() else 0
    offset = s if D[d].is_zero() else s - 1
    case = next(c for c, o in CASE_OFFSET.items() if o == offset)
    r, rest = divmod(d - offset, n)
    if rest:
        raise CoefficientConditionViolated(
            f"degree {d} is not that of a case-{case} form for order {n}")
    # a_k at z^(nk+s) in N, b_k at z^(nk+s-1) in D (D[-1] is zero)
    a = tuple(N[n * k + s] for k in range(r + 1))
    b = tuple(D[n * k + s - 1] for k in range(r + 1))
    fam = CyclicFamily(n, r, case, a, b)
    rebuilt = build_cyclic(fam)
    if not maps_equal(rebuilt, phi):
        raise CoefficientConditionViolated("family reconstruction mismatch")
    return fam, U


# ---------------------------------------------------------------------------
# automorphisms inside the rotation normaliser
# ---------------------------------------------------------------------------

def _unit_coset(mu0: FieldElement, M: int):
    """mu0 times all M-th roots of unity, lifted to one field."""
    K = common_field(mu0.field, root_of_unity_field(M))
    wM = lift(root_of_unity(M), K) if M > 1 else K.one()
    out, cur = [], lift(mu0, K)
    for _ in range(M):
        out.append(cur)
        cur = cur * wM
    return out


def _root_of_unity_order(gamma: FieldElement) -> Optional[int]:
    """The order of gamma as a root of unity, or None if it is not one.

    Over F = Q or Q(zeta_n) every root of unity has order dividing
    w = lcm(2, n) (2 over Q).  A layer K = F(sqrt(delta)) holds mu_M with
    w | M and [Q(zeta_M):F] dividing [K:F] = 2, so M is w, 2w or 3w (a
    square-radicand layer, F x F, only orders dividing w).  So the order is
    the least divisor t of W = w (6w on a layer) with gamma^t = 1, each
    power taken by repeated squaring, and there is none if gamma^W != 1."""
    field, one = gamma.field, gamma.field.one()
    layer = isinstance(field, QuadraticField)
    base = field.base if layer else field
    w = (2 if base == QQ else math.lcm(2, base.n)) * (6 if layer else 1)
    if gamma ** w != one:
        return None
    return next(t for t in range(1, w + 1) if w % t == 0 and gamma ** t == one)


def _solve_power_equation(M: int, gamma: FieldElement):
    """All complex solutions of mu^M = gamma, exactly, within the supported
    field tower (cyclotomic lifts and a single square-root layer).
    Returns a list of field elements or None when out of reach."""
    field = gamma.field
    if M == 1:
        return [gamma]
    # gamma a root of unity, of order s: a cyclotomic coset
    s = _root_of_unity_order(gamma)
    if s is not None:
        Ms = M * s
        try:
            K = common_field(field, root_of_unity_field(Ms))
        except FieldMismatch:       # a layer whose base lacks mu_Ms
            return None
        wMs = lift(root_of_unity(Ms), K)
        glift = lift(gamma, K)
        cur = K.one()
        for _ in range(Ms):
            if cur ** M == glift:
                return _unit_coset(cur, M)
            cur = cur * wMs
        return None
    q = _rational_value(gamma)
    if q is not None:
        root = _rational_perfect_root(q, M)
        if root is not None:
            try:
                return _unit_coset(field(root), M)
            except FieldMismatch:   # a layer whose base lacks mu_M
                return None
        if M % 2 == 0:
            # split mu^M = gamma into mu^(M/2) = +-eta when gamma = eta^2
            eta = _rational_perfect_root(q, 2)
            if eta is not None:
                lower_p = _solve_power_equation(M // 2, field(eta))
                lower_m = _solve_power_equation(M // 2, field(-eta))
                if lower_p is not None and lower_m is not None:
                    return lower_p + lower_m
    if M == 2 and not isinstance(field, QuadraticField):
        K = QuadraticField(field, gamma)
        s = K.sqrt_delta()
        return [s, -s]
    return None


def _binomial_system(eqs: list[tuple[int, FieldElement]]
                     ) -> Optional[tuple[int, FieldElement]]:
    """The one equation mu^g = gamma, g >= 0, with the same solutions as
    the equations mu^e = c for (e, c) in eqs, or None if they have none.

    Euclid's algorithm runs on the exponents: from mu^g = gamma and
    mu^e = c it takes mu^(g - q e) = gamma c^(-q), so g ends as the gcd of
    the exponents and mu^g = gamma holds wherever the equations do.  The
    equations then have a solution exactly when each is a power of that
    one, c = gamma^(e/g), which is checked; for g = 0 every c must be 1."""
    g, gamma = 0, eqs[0][1].field.one()
    for e, c in eqs:
        while e:
            q = g // e
            g, gamma, e, c = e, c, g - q * e, gamma * c ** -q
    if g < 0:
        g, gamma = -g, gamma.inv()
    if any(gamma ** (e // g if g else 0) != c for e, c in eqs):
        return None
    return g, gamma


def aut_in_normalizer(phi: RationalMap) -> list[MobiusMap]:
    """All nontrivial automorphisms of phi of the forms lam*z and mu/z.

    A coprime pair (N, D) of formal degree d determines its map up to a
    scalar, so T commutes with phi exactly when T o phi o T^{-1} has the
    pair kappa*(N, D) for some kappa != 0.  With k0 the least index of a
    nonzero N_k0, the identity reads off the coefficients as binomial
    equations, which :func:`_binomial_system` folds into one:

    * lam*z: lam^(k - k0) = 1 where N_k != 0 and lam^(k - k0 + 1) = 1
      where D_k != 0, so the valid lam are exactly the M-th roots of unity
      for M the gcd of these exponents;
    * mu/z: N_k = kappa mu^(d-k+1) D_(d-k) and D_k = kappa mu^(d-k) N_(d-k)
      for every k.  There is no solution unless the supports mirror,
      N_k != 0 exactly when D_(d-k) != 0; then, with
      beta = N_k0 / D_(d-k0), mu^(k0-k) = N_k / (beta D_(d-k)) where
      N_k != 0 and mu^(k0-k-1) = D_k / (beta N_(d-k)) where D_k != 0.

    The mu exponents are the lam exponents negated, so the fold gives
    mu^M = gamma, whose solutions are a coset mu0 * (M-th roots of unity).
    They are returned whenever mu0 lives in a cyclotomic extension, is a
    rational perfect power, or needs only one square root; otherwise, and
    when no supported field holds the M-th roots of unity with phi's field
    (a quadratic layer whose base lacks them), :class:`AutSearchIncomplete`
    is raised.
    """
    field, d = phi.field, phi.degree
    N, D = phi.num, phi.den
    suppN, suppD = N.support(), D.support()
    k0, one = suppN[0], field.one()
    M, _ = _binomial_system([(k - k0, one) for k in suppN]
                            + [(k - k0 + 1, one) for k in suppD])
    if M == 0:
        raise ValueError("degree-one scaling stabiliser is infinite")
    try:
        autos = [scaling(w) for w in _unit_coset(field.one(), M)[1:]]
    except FieldMismatch as exc:
        raise AutSearchIncomplete(
            f"the scalings are the {M}-th roots of unity, which no supported "
            f"field holds together with {field!r}") from exc

    if {d - k for k in suppN} != set(suppD):
        return autos
    beta = N[k0] / D[d - k0]
    system = _binomial_system([(k0 - k, N[k] / (beta * D[d - k])) for k in suppN]
                              + [(k0 - k - 1, D[k] / (beta * N[d - k])) for k in suppD])
    if system is None:
        return autos
    _, gamma = system
    coset = _solve_power_equation(M, gamma)
    if coset is None:
        raise AutSearchIncomplete(
            f"inversion coefficient satisfies mu^{M} = {gamma!r}, which "
            f"needs a radical tower outside the supported fields")
    return autos + [inversion(mu.field, mu) for mu in coset]
