"""Moduli-level computations for symmetric rational maps.

* closed-form complex dimensions of the symmetric loci,
* certified straight-line paths inside a normal-form family, with exact
  Sturm certificates over every supported field, and interval subdivision
  only when the ``interval`` strategy asks for it; the obstruction
  polynomial of a segment and its Sturm proof come from the integer kernel
  of :mod:`ratsym.poly` (the pencil resultant modulo primes over Z and
  Z[zeta_n], and through the base ring over a quadratic layer, the norm
  over the distinct images, Descartes bisection over Z), exactly as over
  the field,
* chained connectivity certificates through explicit witness maps,
* multiplier coordinates of degree-2 maps, as ratios of the coefficients of
  a resultant in the multiplier, and the cubic relation cut out by the
  symmetric classes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .fields import (QQ, CyclotomicField, Field, FieldElement, FieldMismatch,
                     _integral_ring, common_field, interval_embed, lift)
from .mobius import (MobiusMap, identity, inversion, mobius_order, scaling,
                     translation)
from .poly import (Poly, _count_roots, _integer_poly, _ring_mul, interpolate,
                   pencil_resultant, resultant, squarefree_norm)
from .ratmap import (ProjPoint, RationalMap, conjugate, eval_proj,
                     maps_equal)
from .symmetry import (CASE_OFFSET, DIHEDRAL_CASE, CyclicFamily,
                       CoefficientConditionViolated, NotAdmissible, build_cyclic,
                       case_conditions, cyclic_admissible, cyclic_family_from_map,
                       dihedral_admissible, lemma_witness, random_cyclic_family,
                       _solve_power_equation, simple_dihedral_family)

__all__ = [
    "DimensionReport",
    "dim_cyclic",
    "dim_dihedral",
    "SturmProof",
    "IntervalProof",
    "PathSegment",
    "PathCertificate",
    "build_path",
    "validate_path_certificate",
    "PathLeg",
    "ConjugationLeg",
    "ConnectivityCertificate",
    "connectivity_certificate",
    "validate_connectivity_certificate",
    "involution_to_standard",
    "MilnorPoint",
    "milnor_coordinates",
    "fujimura_cubic",
    "FamilyMismatch",
    "CertificationFailed",
    "CertificateInvalid",
    "NotDegreeTwo",
    "NormalizationFailed",
]


class FamilyMismatch(ValueError):
    """Path endpoints live in different (n, r, case) families."""


class CertificationFailed(RuntimeError):
    """No certified nondegenerate path was found (after retries)."""


class CertificateInvalid(RuntimeError):
    """A stored certificate failed independent revalidation."""


class NotDegreeTwo(ValueError):
    pass


class NormalizationFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionReport:
    d: int
    n: int
    kind: str          # "cyclic" | "dihedral"
    case: str
    dimension: int


def _select_case(cases: list[tuple[str, int]], case: Optional[str], d: int,
                 n: int, missing: str) -> tuple[str, int]:
    """The (case, r) pair of an admissibility list named by ``case``, or its
    only pair when ``case`` is None."""
    pairs = dict(cases)
    if not pairs:
        raise NotAdmissible(missing)
    if case is None:
        if len(pairs) > 1:
            raise ValueError(f"ambiguous cases {sorted(pairs)}; select one")
        case = next(iter(pairs))
    if case not in pairs:
        raise NotAdmissible(f"case {case} does not occur for (d, n) = ({d}, {n})")
    return case, pairs[case]


def dim_cyclic(d: int, n: int, case: Optional[str] = None) -> DimensionReport:
    """Complex dimension of the degree-d locus with an order-n rotation:
    2r - 1 + (d - n*r) in the inner degree r, that is 2r, 2r - 1 or 2r - 2
    in case A, B or C -- the coefficients left free by the case, less the
    scale and the scaling orbit."""
    case, r = _select_case(cyclic_admissible(d, n), case, d, n,
                           f"order {n} does not occur in degree {d}")
    return DimensionReport(d, n, "cyclic", case, 2 * r - 1 + CASE_OFFSET[case])


def dim_dihedral(d: int, n: int, case: Optional[str] = None) -> DimensionReport:
    """Dimension of the dihedral locus: half that of its cyclic row (r in
    case I, r - 1 in case II), since a self-reciprocal family has half the
    coefficients and loses only the scale."""
    case, r = _select_case(dihedral_admissible(d, n), case, d, n,
                           f"dihedral symmetry of order 2*{n} does not occur "
                           f"in degree {d}")
    row = dim_cyclic(d, n, DIHEDRAL_CASE[case]).dimension
    return DimensionReport(d, n, "dihedral", case, row // 2)


# ---------------------------------------------------------------------------
# path certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SturmProof:
    """Exact nonvanishing proof over [0, 1] over any supported field: the
    square-free norm over Q of the obstruction polynomial, whose real roots
    include the obstruction's.  It stores nothing else: the validator
    recomputes the norm, requires it to equal the stored one and to have no
    root in (0, 1], and requires the obstruction to be nonzero at t = 0.
    A zero of the obstruction at t = 1 is a root of the norm there.

    The norm and the root count are computed over Z: the norm as the
    product of the distinct images of the obstruction's value at t = 2^S,
    a single element of the field's integral ring, whose digits in base
    2^S are the coefficients of a polynomial with the full norm as a power
    (:func:`squarefree_norm`), and the count by Descartes bisection on
    that square-free norm as it is (:func:`poly._count_roots`).  A power
    has the same square-free part, so they are the same polynomial and
    count as a Sturm chain over Q gives, and stored proofs keep their
    meaning."""
    norm_poly: Poly                # over Q, square-free, monic

    @property
    def kind(self) -> str:
        return "sturm"


@dataclass(frozen=True)
class IntervalProof:
    """Certified subdivision: the precision and the t-subintervals
    ``(t_lo, t_hi)`` that tile [0, 1], in order.  The enclosure of the
    obstruction polynomial on each tile, which the validator computes again
    at that precision, excludes zero."""
    precision: int
    boxes: tuple[tuple[Fraction, Fraction], ...]

    @property
    def kind(self) -> str:
        return "interval"


@dataclass(frozen=True)
class PathSegment:
    start_a: tuple
    start_b: tuple
    end_a: tuple
    end_b: tuple
    proof: Union[SturmProof, IntervalProof]


@dataclass(frozen=True)
class PathCertificate:
    """Certified piecewise-linear path in one (n, r, case) coefficient family.

    Every segment's obstruction polynomial -- the pencil resultant times the
    case conditions -- is certified nonvanishing on the whole closed
    parameter interval, so every intermediate map is a valid member of the
    family with the declared degree and rotation symmetry.  Each segment's
    proof names its own kind, and the validator checks it by that kind, so
    the strategy that built the path is not stored.
    """
    n: int
    r: int
    case: str
    field: Field
    segments: tuple[PathSegment, ...]


def _segment_obstruction(fam0: CyclicFamily, fam1: CyclicFamily) -> Poly:
    """Polynomial in t whose nonvanishing on [0,1] certifies the segment:
    pencil resultant at the case formal degrees, times the case conditions.

    Each side's start vector and end vector are cleared of denominators
    once, into the field's integral ring; there the resultant of the two
    pencils is taken by :func:`pencil_resultant` -- modulo primes over Z and
    Z[zeta_n], and over the base ring with sqrt(D) as an indeterminate over
    a quadratic layer -- and multiplied by the condition pencils, which are
    entries of the same vectors.  One division by the denominators ends
    it."""
    K = fam0.field
    ring = _integral_ring(K)
    r = fam0.r
    conds = case_conditions(fam0.case, r)
    # where a_r is identically zero the honest numerator slot is r-1; at
    # (r, r) the determinant would vanish for structural reasons alone
    fa, fb = (r if conds["a", r] else r - 1), r
    pencils = {"a": _cleared_pencil(ring, fam0.a[:fa + 1], fam1.a[:fa + 1]),
               "b": _cleared_pencil(ring, fam0.b, fam1.b)}
    (den_f, f0, df), (den_g, g0, dg) = pencils["a"], pencils["b"]
    G = pencil_resultant(ring, f0, df, g0, dg)
    den = den_f ** fb * den_g ** fa
    # times each coefficient the case needs nonzero
    for (v, k), nonzero in conds.items():
        if nonzero:
            d, v0, dv = pencils[v]
            G = _ring_mul(ring, G, [v0[k], dv[k]])
            den *= d
    return Poly(K, [ring.to_field(c, den) for c in G])


def _cleared_pencil(ring, start, end) -> tuple[int, list, list]:
    """(D, D * start, D * (end - start)) for a common denominator D of the
    two vectors, over the integral ring."""
    den, v = ring.clear(tuple(start) + tuple(end))
    v0 = v[:len(start)]
    return den, v0, list(map(ring.sub, v[len(start):], v0))


def _sturm_segment_proof(G: Poly) -> Optional[SturmProof]:
    # a root at t = 1 is a root of the norm, which _count_roots counts
    if G[0].is_zero():
        return None
    sf = squarefree_norm(G)
    if _count_roots(_integer_poly(sf), Fraction(0), Fraction(1)) != 0:
        return None
    return SturmProof(norm_poly=sf)


# largest interval precision in bits that a proof may ask for
MAX_PRECISION = 4096


# the deepest subdivision of [0, 1] an interval proof tries before it gives up
MAX_TILE_DEPTH = 40


def _interval_boxes(G: Poly, precision: int):
    """Enclosures of the coefficients of G and G', shifted to the working
    scale 2^-(precision + 16)."""
    # a stored precision is untrusted: bound it before any embedding
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"interval precision {precision} outside "
                         f"[1, {MAX_PRECISION}]")
    return tuple([tuple(v << 16 for v in interval_embed(c, precision))
                  for c in P.coeffs] for P in (G, G.derivative()))


def _horner(boxes, part: int, ta: int, tb: int, q: int) -> tuple[int, int]:
    """Enclosure of the real (part 0) or imaginary (part 2) part of
    sum_k boxes[k] t^k over t in [ta/q, tb/q], 0 <= ta <= tb, at the
    boxes' scale; every product is divided by q with floor or ceiling."""
    lo = hi = 0
    for box in reversed(boxes):
        lo = (lo * ta if lo >= 0 else lo * tb) // q + box[part]
        hi = -(-(hi * tb if hi >= 0 else hi * ta) // q) + box[part + 1]
    return lo, hi


def _interval_eval(coeff_boxes, deriv_boxes, t_lo: Fraction,
                   t_hi: Fraction) -> tuple[int, int, int, int]:
    """Mean-value-form enclosure of G over [t_lo, t_hi], 0 <= t_lo <= t_hi,
    at the working scale: G(center) + G'([t_lo, t_hi]) * [-h, h] for the
    half-width h.  t is real, so the real and imaginary parts are separate
    integer Horner passes; integer division rounds outward, so containment
    holds."""
    if t_lo < 0:
        raise ValueError(f"interval evaluation needs t >= 0, not {t_lo}")
    q = math.lcm(t_lo.denominator, t_hi.denominator)
    a = t_lo.numerator * (q // t_lo.denominator)
    b = t_hi.numerator * (q // t_hi.denominator)
    box = ()
    for part in (0, 2):
        lo, hi = _horner(coeff_boxes, part, a + b, a + b, 2 * q)
        if a != b:
            s_lo, s_hi = _horner(deriv_boxes, part, a, b, q)
            err = -(-max(-s_lo, s_hi) * (b - a) // (2 * q))
            lo, hi = lo - err, hi + err
        box += (lo, hi)
    return box


def _contains_zero(box) -> bool:
    return box[0] <= 0 <= box[1] and box[2] <= 0 <= box[3]


def _interval_segment_proof(G: Poly, precision: int) -> Optional[IntervalProof]:
    coeff_boxes, deriv_boxes = _interval_boxes(G, precision)
    boxes = []

    def cover(lo: Fraction, hi: Fraction, depth: int) -> bool:
        if not _contains_zero(_interval_eval(coeff_boxes, deriv_boxes, lo, hi)):
            boxes.append((lo, hi))
            return True
        if depth >= MAX_TILE_DEPTH:
            return False
        mid = (lo + hi) / 2
        return cover(lo, mid, depth + 1) and cover(mid, hi, depth + 1)

    if not cover(Fraction(0), Fraction(1), 0):
        return None
    return IntervalProof(precision=precision, boxes=tuple(boxes))


def _certify_segment(fam0: CyclicFamily, fam1: CyclicFamily, strategy: str,
                     precision: int) -> Optional[PathSegment]:
    G = _segment_obstruction(fam0, fam1)
    if G.is_zero():
        return None
    proof: Optional[Union[SturmProof, IntervalProof]] = None
    if strategy == "sturm":
        proof = _sturm_segment_proof(G)
    elif strategy == "interval":
        proof = _interval_segment_proof(G, precision)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if proof is None:
        return None
    return PathSegment(start_a=fam0.a, start_b=fam0.b,
                       end_a=fam1.a, end_b=fam1.b, proof=proof)


# random intermediate families build_path tries before it gives up
MAX_DETOURS = 8


def build_path(fam0: CyclicFamily, fam1: CyclicFamily, strategy: str = "sturm",
               rng: Optional[random.Random] = None,
               precision: int = 128) -> PathCertificate:
    """Certified path from fam0 to fam1 inside their common family.

    Straight segment first; if its obstruction polynomial vanishes somewhere
    on [0, 1], retry through seeded random intermediate families (two
    segments), up to ``MAX_DETOURS`` times.  Certification is exact and
    never assumed: failure raises :class:`CertificationFailed`.
    """
    if (fam0.n, fam0.r, fam0.case) != (fam1.n, fam1.r, fam1.case):
        raise FamilyMismatch(
            f"({fam0.n}, {fam0.r}, {fam0.case}) vs ({fam1.n}, {fam1.r}, {fam1.case})")
    if fam0.field != fam1.field:
        K = common_field(fam0.field, fam1.field)
        fam0, fam1 = fam0.lift(K), fam1.lift(K)
    if rng is None:
        rng = random.Random(0)
    if fam0.a == fam1.a and fam0.b == fam1.b:
        return PathCertificate(fam0.n, fam0.r, fam0.case, fam0.field,
                               segments=())
    seg = _certify_segment(fam0, fam1, strategy, precision)
    if seg is not None:
        return PathCertificate(fam0.n, fam0.r, fam0.case, fam0.field,
                               segments=(seg,))
    # a straight segment between real families can be forced through the
    # degenerate locus (sign changes of real case conditions); detour points
    # get Gaussian-integer coefficients, where degeneracy has real
    # codimension two and seeded retries succeed quickly
    try:
        Kd = common_field(fam0.field, CyclotomicField(4))
    except FieldMismatch:
        Kd = fam0.field
    fam0d, fam1d = fam0.lift(Kd), fam1.lift(Kd)
    for _ in range(MAX_DETOURS):
        mid = random_cyclic_family(rng, fam0.n, fam0.r, fam0.case, field=Kd)
        seg1 = _certify_segment(fam0d, mid, strategy, precision)
        if seg1 is None:
            continue
        seg2 = _certify_segment(mid, fam1d, strategy, precision)
        if seg2 is None:
            continue
        return PathCertificate(fam0.n, fam0.r, fam0.case, Kd,
                               segments=(seg1, seg2))
    raise CertificationFailed(
        f"no certified path between the given members of "
        f"(n={fam0.n}, r={fam0.r}, case {fam0.case}) after {MAX_DETOURS} detours")


def validate_path_certificate(cert: PathCertificate
                              ) -> Optional[tuple[CyclicFamily, CyclicFamily]]:
    """Independent revalidation: rebuild every family and recompute every
    obstruction polynomial from the stored endpoint vectors.  A Sturm proof
    must equal its recomputation: the obstruction is nonzero at t = 0, and
    its square-free norm, which has no root in (0, 1] and so rules out a
    zero at t = 1, is the stored one.  An interval proof's tiles must start
    at 0, be nonempty, chain and end at 1, and the enclosure of the
    obstruction on each tile, computed again at the stored precision, must
    exclude zero.  Raises :class:`CertificateInvalid`.

    Each segment must start where the one before it ends, compared on the
    stored vectors, so each endpoint family is validated once.  Returns the
    validated families at the two ends of the path, or None when it has no
    segments.
    """
    first = f1 = None
    for idx, seg in enumerate(cert.segments):
        if idx and (seg.start_a, seg.start_b) != (f1.a, f1.b):
            raise CertificateInvalid(f"segment {idx}: endpoints do not chain")
        try:
            f0 = f1 if idx else CyclicFamily(cert.n, cert.r, cert.case,
                                             seg.start_a, seg.start_b)
            f1 = CyclicFamily(cert.n, cert.r, cert.case, seg.end_a, seg.end_b)
        except CoefficientConditionViolated as exc:
            raise CertificateInvalid(f"segment {idx}: invalid endpoint family: {exc}")
        if idx == 0:
            first = f0
        G = _segment_obstruction(f0, f1)
        proof = seg.proof
        if isinstance(proof, SturmProof):
            recomputed = _sturm_segment_proof(G)
            if recomputed is None:
                raise CertificateInvalid(f"segment {idx}: obstruction not certifiable")
            if recomputed != proof:
                raise CertificateInvalid(f"segment {idx}: stored norm polynomial "
                                         f"differs from recomputation")
        elif isinstance(proof, IntervalProof):
            coeff_boxes, deriv_boxes = _interval_boxes(G, proof.precision)
            expected_lo = Fraction(0)
            for (lo, hi) in proof.boxes:
                if lo != expected_lo:
                    raise CertificateInvalid(f"segment {idx}: subintervals do not tile")
                if not lo < hi:
                    raise CertificateInvalid(f"segment {idx}: empty subinterval")
                val = _interval_eval(coeff_boxes, deriv_boxes, lo, hi)
                if _contains_zero(val):
                    raise CertificateInvalid(f"segment {idx}: enclosure on "
                                             f"[{lo}, {hi}] contains zero")
                expected_lo = hi
            if expected_lo != 1:
                raise CertificateInvalid(f"segment {idx}: subdivision stops early")
        else:
            raise CertificateInvalid(f"segment {idx}: unknown proof type")
    return None if f1 is None else (first, f1)


# ---------------------------------------------------------------------------
# connectivity chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathLeg:
    """A certified path inside one rotation family; its order is
    ``cert.n``."""
    cert: PathCertificate


@dataclass(frozen=True)
class ConjugationLeg:
    conjugator: MobiusMap
    source: RationalMap
    target: RationalMap


@dataclass(frozen=True)
class ConnectivityCertificate:
    degree: int
    legs: tuple


def involution_to_standard(S: MobiusMap) -> MobiusMap:
    """A conjugator U with U o S o U^{-1} = -z, for any order-2 map S.

    U sends the two fixed points of S to 0 and infinity; the fixed points
    may require one square root, taken by
    :func:`symmetry._solve_power_equation`: in the field, in a cyclotomic
    field for a root of unity, or else in a quadratic extension.
    """
    if mobius_order(S) != 2:
        raise ValueError("input is not an involution")
    field = S.field
    if S.b.is_zero() and S.c.is_zero():
        return identity(field)
    if S.c.is_zero():
        zstar = S.b / (S.d - S.a)
        return translation(-zstar)
    disc = (S.d - S.a) * (S.d - S.a) + 4 * (S.b * S.c)
    roots = _solve_power_equation(2, disc)
    if roots is None:
        raise ValueError("nested quadratic extensions are not supported")
    s = roots[0]
    K = s.field
    a, d, c = (lift(x, K) for x in (S.a, S.d, S.c))
    two_c = c * 2
    xi1 = ((a - d) + s) / two_c
    xi2 = ((a - d) - s) / two_c
    U = MobiusMap(K, K.one(), -xi1, K.one(), -xi2)
    check = U.compose(S.lift(K)).compose(U.inverse())
    if check != scaling(K(-1)):
        raise NormalizationFailed("involution normalisation failed")
    return U


def _standard_involution_leg(source: RationalMap, S: MobiusMap):
    """The leg conjugating ``source`` so that its involution S becomes -z,
    and the order-2 family its target belongs to."""
    U = involution_to_standard(S)
    c2fam, J = cyclic_family_from_map(conjugate(source, U), 2)
    V = J.compose(U) if not J.is_identity() else U
    target = build_cyclic(c2fam)
    return ConjugationLeg(conjugator=V, source=source, target=target), c2fam


def _inverted(leg: ConjugationLeg) -> ConjugationLeg:
    return ConjugationLeg(conjugator=leg.conjugator.inverse(),
                          source=leg.target, target=leg.source)


def _order2_hand_off(fam: CyclicFamily):
    """The witness family of fam's order and degree, the leg putting the
    witness's involution at -z, and the order-2 family that leg lands in."""
    w = lemma_witness(fam.n, fam.degree)
    S = next(T for T, order in w.autos if order == 2)
    return (w.family, *_standard_involution_leg(w.map, S))


def _same_order_legs(fam0: CyclicFamily, fam1: CyclicFamily, strategy: str,
                     rng, precision: int) -> list:
    """Legs between two families of one rotation order and degree.

    An order has one family in each degree, except order 2 in odd degree,
    which has two: case A and case C.  They meet at the member D of the D2
    family ``simple_dihedral_family(d, 2, "I", sign=-1)``, which is case A
    for -z and also commutes with 1/z; putting 1/z in -z position lands in
    case C.  Each leg is built in the direction it is used.
    """
    if (fam0.case, fam0.r) == (fam1.case, fam1.r):
        return [PathLeg(build_path(fam0, fam1, strategy, rng, precision))]
    D = simple_dihedral_family(fam0.degree, 2, "I", sign=-1).to_cyclic()
    to_c, cfam = _standard_involution_leg(build_cyclic(D), inversion(QQ))
    if fam0.case == "A":
        return [PathLeg(build_path(fam0, D, strategy, rng, precision)), to_c,
                PathLeg(build_path(cfam, fam1, strategy, rng, precision))]
    return [PathLeg(build_path(fam0, cfam, strategy, rng, precision)),
            _inverted(to_c),
            PathLeg(build_path(D, fam1, strategy, rng, precision))]


def connectivity_certificate(fam0: CyclicFamily, fam1: CyclicFamily,
                             strategy: str = "sturm",
                             rng: Optional[random.Random] = None,
                             precision: int = 128) -> ConnectivityCertificate:
    """Chain of certified legs connecting two symmetric classes of one degree.

    Each endpoint is a rotation normal-form family for a prime order (2 or an
    odd prime).  Odd-prime sides are routed through an explicit witness map
    carrying an extra involution, which is then conjugated into -z standard
    position (conjugator recorded); the middle legs run inside the order-2
    locus, through its D2 member when they join case A to case C.  Each leg
    is built in the direction the chain runs, and rng is drawn by the near
    path, then the far path, then the middle legs.
    """
    if rng is None:
        rng = random.Random(0)
    if fam0.degree != fam1.degree:
        raise ValueError("endpoints have different degrees")
    d = fam0.degree
    if fam0.n == fam1.n:
        legs = _same_order_legs(fam0, fam1, strategy, rng, precision)
        if len(legs) == 1 and not legs[0].cert.segments:
            # equal endpoints: a path with no segments carries no map, so
            # the chain is the map itself under the identity
            phi = build_cyclic(fam0)
            legs = [ConjugationLeg(identity(phi.field), phi, phi)]
        return ConnectivityCertificate(d, tuple(legs))

    near, far, c2fam0, c2fam1 = [], [], fam0, fam1
    if fam0.n != 2:
        w0, conj0, c2fam0 = _order2_hand_off(fam0)
        near = [PathLeg(build_path(fam0, w0, strategy, rng, precision)), conj0]
    if fam1.n != 2:
        w1, conj1, c2fam1 = _order2_hand_off(fam1)
        far = [_inverted(conj1), PathLeg(build_path(w1, fam1, strategy, rng, precision))]
    middle = _same_order_legs(c2fam0, c2fam1, strategy, rng, precision)
    return ConnectivityCertificate(d, tuple(near + middle + far))


# unused; kept because bench/tracer.py patches it by name (ROADMAP item 5)
def _reverse_path_certificate(cert: PathCertificate, precision: int) -> PathCertificate:
    """The same path run backwards, each segment recertified with the kind
    of its own proof (an interval proof at the caller's precision).  A
    mirrored interval tiling need not revalidate, since interval Horner
    bounds are not symmetric under t -> 1 - t, so nothing is reflected."""
    rebuilt = []
    for s in reversed(cert.segments):
        f0 = CyclicFamily(cert.n, cert.r, cert.case, s.end_a, s.end_b)
        f1 = CyclicFamily(cert.n, cert.r, cert.case, s.start_a, s.start_b)
        seg = _certify_segment(f0, f1, s.proof.kind, precision)
        if seg is None:
            raise CertificationFailed("reversed segment failed certification")
        rebuilt.append(seg)
    return PathCertificate(cert.n, cert.r, cert.case, cert.field, tuple(rebuilt))


def validate_connectivity_certificate(cert: ConnectivityCertificate) -> None:
    """Revalidate every leg and the hand-offs between consecutive legs.  At
    least one leg must carry a map: a conjugation leg, or a path leg with a
    segment.  A path leg with no segments, which :func:`build_path` gives
    for equal endpoints, carries none and is accepted only beside one that
    does."""
    prev_map: Optional[RationalMap] = None
    for idx, leg in enumerate(cert.legs):
        if isinstance(leg, PathLeg):
            ends = validate_path_certificate(leg.cert)
            if ends is not None:
                start, end = map(build_cyclic, ends)
                if start.degree != cert.degree:
                    raise CertificateInvalid(f"leg {idx}: degree mismatch")
                if prev_map is not None and not maps_equal(prev_map, start):
                    raise CertificateInvalid(f"leg {idx}: hand-off mismatch")
                prev_map = end
        elif isinstance(leg, ConjugationLeg):
            if not leg.source.degree == leg.target.degree == cert.degree:
                raise CertificateInvalid(f"leg {idx}: degree mismatch")
            expected = conjugate(leg.source, leg.conjugator)
            if not maps_equal(expected, leg.target):
                raise CertificateInvalid(f"leg {idx}: conjugation record false")
            if prev_map is not None and not maps_equal(prev_map, leg.source):
                raise CertificateInvalid(f"leg {idx}: hand-off mismatch")
            prev_map = leg.target
        else:
            raise CertificateInvalid(f"leg {idx}: unknown leg type")
    if prev_map is None:
        raise CertificateInvalid("no leg carries a map")


# ---------------------------------------------------------------------------
# degree-2 multiplier coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MilnorPoint:
    """First two elementary symmetric functions of the three fixed-point
    multipliers of a degree-2 map (conjugation invariants)."""
    sigma1: FieldElement
    sigma2: FieldElement
    sigma3: FieldElement


def milnor_coordinates(phi: RationalMap) -> MilnorPoint:
    """Exact multiplier coordinates of a degree-2 map.

    The map is conjugated so that infinity is not fixed (translations can
    never unfix infinity, so the deterministic search applies 1/(z+c) for
    c = 0, 1, 2, ... until -c is not a fixed point; at most two finite fixed
    points exist, so this terminates by c = 2).  Then F(z) = z*Q(z) - P(z)
    is a genuine cubic whose roots z_1, z_2, z_3 are the fixed points.  With
    U = P'Q - PQ' and V = Q^2, unreduced, so that U/V = phi', the
    multiplier polynomial
    chi(lam) = Res_z(F, lam V - U) = lc(F)^4 prod_i (lam V(z_i) - U(z_i)),
    at formal degree 4, is a cubic in lam with roots the multipliers; it
    is interpolated from four resultants, and the symmetric functions are
    ratios of its coefficients -- no root extraction needed.  Its leading
    coefficient lc(F)^4 prod_i Q(z_i)^2 is nonzero, since Q(z_i) = 0 would
    give P(z_i) = z_i Q(z_i) - F(z_i) = 0, a common zero of P and Q; so its
    roots are U(z_i) / V(z_i) = phi'(z_i), with no gcd taken.
    """
    if phi.degree != 2:
        raise NotDegreeTwo(f"degree {phi.degree}")
    field = phi.field
    inf = ProjPoint.infinity(field)
    if eval_proj(phi, inf).is_infinity():
        for c in range(0, 8):
            pt = ProjPoint.finite(field(-c))
            if eval_proj(phi, pt) != pt:
                W = MobiusMap(field, 0, 1, 1, field(c))   # z -> 1/(z+c)
                phi = conjugate(phi, W)
                break
        else:
            raise NormalizationFailed("no admissible conjugator 1/(z+c) found")
    P, Q = phi.num, phi.den
    F = Poly.x(field) * Q - P
    if F.degree != 3:
        raise NormalizationFailed("fixed-point polynomial is not cubic")
    U, V = P.derivative() * Q - P * Q.derivative(), Q * Q
    chi = interpolate(field, [resultant(F, V * lam - U, 3, 4) for lam in range(4)])
    inv = chi[3].inv()
    return MilnorPoint(sigma1=-(chi[2] * inv), sigma2=chi[1] * inv,
                       sigma3=-(chi[0] * inv))


def fujimura_cubic(pt: Union[MilnorPoint, tuple]) -> FieldElement:
    """Value of 2x^3 + x^2 y - x^2 - 4y^2 - 8xy + 12x + 12y - 36 at the
    multiplier coordinates (x, y) = (sigma1, sigma2); zero exactly on the
    degree-2 classes with a nontrivial symmetry."""
    if isinstance(pt, MilnorPoint):
        x, y = pt.sigma1, pt.sigma2
    else:
        x, y = pt
        if not isinstance(x, FieldElement):
            x = QQ(x)
        if not isinstance(y, FieldElement):
            y = QQ(y)
    if x.field != y.field:
        K = common_field(x.field, y.field)
        x, y = lift(x, K), lift(y, K)
    two, four, eight, twelve, thirty_six = (x.field(v) for v in (2, 4, 8, 12, 36))
    return (two * x ** 3 + x * x * y - x * x - four * y * y
            - eight * x * y + twelve * x + twelve * y - thirty_six)
