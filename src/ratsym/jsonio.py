"""Canonical JSON encoding of fields, elements, polynomials, maps, matrices
and families.

Rationals serialize as "p/q" strings, cyclotomic elements as conductor plus
coefficient vector, quadratic-extension elements as base/delta/a/b records.
All dumps are canonical (sorted keys, fixed separators) so identical inputs
give byte-identical documents.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .fields import (QQ, CyclotomicField, Field, FieldElement, QuadraticField,
                     RationalField, _absolute_degree)
from .mobius import GroupSpec, MobiusMap
from .moduli import (MAX_TILE_DEPTH, ConjugationLeg, ConnectivityCertificate,
                     IntervalProof, PathCertificate, PathLeg, PathSegment,
                     SturmProof)
from .poly import Poly
from .ratmap import RationalMap, make_map
from .symmetry import CASE_OFFSET, CyclicFamily, WitnessReport

__all__ = [
    "canon_dumps",
    "field_to_json", "field_from_json",
    "elem_to_json", "elem_from_json",
    "poly_to_json", "poly_from_json",
    "map_to_json", "map_from_json",
    "mobius_to_json", "mobius_from_json",
    "family_to_json", "family_from_json",
    "witness_to_json", "witness_from_json",
    "group_to_json", "group_from_json",
    "path_cert_to_json", "path_cert_from_json",
    "connectivity_to_json", "connectivity_from_json",
]

# the largest cyclotomic conductor a document may name: the tables of
# Z[zeta_n] hold n * phi(n) integers, so an unchecked conductor from an
# untrusted file could ask for unbounded memory
MAX_CONDUCTOR = 256

# the largest map degree a document may name: a family of rotation order n
# and degree d inflates psi into about d coefficients before any check
MAX_DEGREE = 1000


def canon_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator)


# what _frac_str writes; Fraction(s) would also take exponents such as
# "1e1000000", whose value is unbounded in the length of the text
_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _frac_parse(s: str) -> Fraction:
    """The rational a document writes as "p" or "p/q"; anything else, or a
    value that is not a string, raises ValueError.  The interpreter's limit
    on the digits of an integer string bounds p and q."""
    match = _FRACTION.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ValueError(f"not a rational number: {s!r:.40}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


# --- fields -----------------------------------------------------------------

def field_to_json(field: Field):
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    if isinstance(field, CyclotomicField):
        return {"kind": "cyclotomic", "conductor": field.n}
    if isinstance(field, QuadraticField):
        return {"kind": "quadratic",
                "base": field_to_json(field.base),
                "delta": elem_to_json(field.delta)}
    raise TypeError(f"unknown field {field!r}")


def field_from_json(obj) -> Field:
    kind = obj["kind"]
    if kind == "rational":
        return QQ
    if kind == "cyclotomic":
        n = obj["conductor"]
        # JSON true would pass as the integer 1
        if type(n) is not int or not 3 <= n <= MAX_CONDUCTOR:
            raise ValueError(f"conductor {n!r} is not an integer in "
                             f"[3, {MAX_CONDUCTOR}]")
        return CyclotomicField(n)
    if kind == "quadratic":
        base = field_from_json(obj["base"])
        delta = elem_from_json(obj["delta"], base)
        return QuadraticField(base, delta)
    raise ValueError(f"unknown field kind {kind!r}")


# --- elements ----------------------------------------------------------------

def elem_to_json(e: FieldElement):
    f = e.field
    if isinstance(f, RationalField):
        return _frac_str(e.payload)
    if isinstance(f, CyclotomicField):
        return {"conductor": f.n, "coeffs": [_frac_str(c) for c in e.payload]}
    if isinstance(f, QuadraticField):
        a, b = e.payload
        return {"base": field_to_json(f.base), "delta": elem_to_json(f.delta),
                "a": elem_to_json(a), "b": elem_to_json(b)}
    raise TypeError(f"unknown field {f!r}")


def elem_from_json(obj, field: Field) -> FieldElement:
    if isinstance(field, RationalField):
        return FieldElement(QQ, _frac_parse(obj))
    if isinstance(field, CyclotomicField):
        if obj["conductor"] != field.n:
            raise ValueError("conductor mismatch")
        return field.from_coeffs([_frac_parse(c) for c in obj["coeffs"]])
    if isinstance(field, QuadraticField):
        a = elem_from_json(obj["a"], field.base)
        b = elem_from_json(obj["b"], field.base)
        return field.from_parts(a, b)
    raise TypeError(f"unknown field {field!r}")


# --- polynomials, maps, matrices ----------------------------------------------

def poly_to_json(p: Poly):
    return [elem_to_json(c) for c in p.coeffs]


def poly_from_json(obj, field: Field) -> Poly:
    return Poly(field, [elem_from_json(c, field) for c in obj])


def map_to_json(phi: RationalMap):
    return {"num": poly_to_json(phi.num), "den": poly_to_json(phi.den),
            "degree": phi.degree, "field": field_to_json(phi.field)}


def _degree_from_json(obj) -> int:
    """obj["degree"], an int in [1, MAX_DEGREE]; JSON true would pass as the
    integer 1."""
    degree = obj["degree"]
    if type(degree) is not int or not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree {degree!r} is not an integer in [1, {MAX_DEGREE}]")
    return degree


def map_from_json(obj) -> RationalMap:
    # bound the stored sides before any polynomial arithmetic: make_map takes
    # a gcd, quadratic in the length
    degree = _degree_from_json(obj)
    if len(obj["num"]) > degree + 1 or len(obj["den"]) > degree + 1:
        raise ValueError(f"a side of a degree-{degree} map has more than "
                         f"{degree + 1} coefficients")
    field = field_from_json(obj["field"])
    phi = make_map(poly_from_json(obj["num"], field),
                   poly_from_json(obj["den"], field))
    if phi.degree != degree:
        raise ValueError("declared degree disagrees with certified degree")
    return phi


def mobius_to_json(T: MobiusMap):
    return {"entries": [elem_to_json(e) for e in T.entries()],
            "field": field_to_json(T.field)}


def mobius_from_json(obj) -> MobiusMap:
    field = field_from_json(obj["field"])
    a, b, c, d = (elem_from_json(e, field) for e in obj["entries"])
    return MobiusMap(field, a, b, c, d)


# --- families and witnesses -----------------------------------------------------

def family_to_json(fam: CyclicFamily):
    return {"n": fam.n, "r": fam.r, "case": fam.case,
            "a": [elem_to_json(c) for c in fam.a],
            "b": [elem_to_json(c) for c in fam.b],
            "field": field_to_json(fam.field)}


def _family_shape(obj) -> tuple[int, int, str]:
    """(n, r, case) of a family record, bounded before any family is built."""
    n, r, case = obj["n"], obj["r"], obj["case"]
    # JSON true would pass as the integer 1
    if type(n) is not int or type(r) is not int or n < 2 or r < 1:
        raise ValueError(f"family order n = {n!r} and r = {r!r} must be "
                         f"integers with n >= 2 and r >= 1")
    offset = CASE_OFFSET.get(case)
    if offset is None:
        raise ValueError(f"unknown family case {case!r}")
    if n * r + offset > MAX_DEGREE:
        raise ValueError(f"family degree {n * r + offset} exceeds {MAX_DEGREE}")
    return n, r, case


def family_from_json(obj) -> CyclicFamily:
    n, r, case = _family_shape(obj)
    field = field_from_json(obj["field"])
    a = tuple(elem_from_json(c, field) for c in obj["a"])
    b = tuple(elem_from_json(c, field) for c in obj["b"])
    return CyclicFamily(n, r, case, a, b)


def group_to_json(g: GroupSpec):
    out = {"kind": g.kind}
    if g.n is not None:
        out["n"] = g.n
    return out


def group_from_json(obj) -> GroupSpec:
    return GroupSpec(obj["kind"], obj.get("n"))


def witness_to_json(w: WitnessReport):
    return {
        "certificate_type": "witness",
        "map": map_to_json(w.map),
        "autos": [{"matrix": mobius_to_json(T), "order": k} for T, k in w.autos],
        "group": group_to_json(w.group),
        "family": family_to_json(w.family),
    }


def witness_from_json(obj) -> WitnessReport:
    autos = tuple((mobius_from_json(rec["matrix"]), rec["order"])
                  for rec in obj["autos"])
    return WitnessReport(map=map_from_json(obj["map"]), autos=autos,
                         group=group_from_json(obj["group"]),
                         family=family_from_json(obj["family"]))


# --- path and connectivity certificates -----------------------------------------

def _proof_to_json(proof):
    if isinstance(proof, SturmProof):
        return {"type": "sturm",
                "norm_poly": [_frac_str(c.payload) for c in proof.norm_poly.coeffs]}
    if isinstance(proof, IntervalProof):
        return {"type": "interval", "precision": proof.precision,
                "boxes": [{"t_lo": _frac_str(lo), "t_hi": _frac_str(hi)}
                          for (lo, hi) in proof.boxes]}
    raise TypeError(f"unknown proof {proof!r}")


def _tile_end(s: str) -> Fraction:
    """A tile endpoint, as subdividing [0, 1] gives it: j/2^e in [0, 1]
    with e <= MAX_TILE_DEPTH; anything else raises ValueError before any
    enclosure is computed."""
    t = _frac_parse(s)
    d = t.denominator
    if not 0 <= t <= 1 or d & (d - 1) or d > 1 << MAX_TILE_DEPTH:
        raise ValueError(f"tile endpoint {s!r:.40} is not j/2^e in [0, 1] "
                         f"with e <= {MAX_TILE_DEPTH}")
    return t


def _proof_from_json(obj, max_norm_coeffs: int):
    if obj["type"] == "sturm":
        # older files also store the root count in (0, 1] and the
        # obstruction's values at 0 and 1, which the validator recomputes:
        # ignored
        coeffs = obj["norm_poly"]
        if len(coeffs) > max_norm_coeffs:
            raise ValueError(f"stored norm polynomial has {len(coeffs)} "
                             f"coefficients, more than {max_norm_coeffs}")
        return SturmProof(Poly(QQ, [_frac_parse(c) for c in coeffs]))
    if obj["type"] == "interval":
        # older files also store each tile's enclosure as "box": ignored
        boxes = tuple((_tile_end(rec["t_lo"]), _tile_end(rec["t_hi"]))
                      for rec in obj["boxes"])
        precision = obj["precision"]
        if type(precision) is not int:
            raise ValueError(f"interval precision {precision!r} is not an integer")
        return IntervalProof(precision=precision, boxes=boxes)
    raise ValueError(f"unknown proof type {obj['type']!r}")


def path_cert_to_json(cert: PathCertificate):
    return {
        "certificate_type": "path",
        "n": cert.n, "r": cert.r, "case": cert.case,
        "field": field_to_json(cert.field),
        "segments": [{
            "start_a": [elem_to_json(c) for c in seg.start_a],
            "start_b": [elem_to_json(c) for c in seg.start_b],
            "end_a": [elem_to_json(c) for c in seg.end_a],
            "end_b": [elem_to_json(c) for c in seg.end_b],
            "proof": _proof_to_json(seg.proof),
        } for seg in cert.segments],
    }


def path_cert_from_json(obj) -> PathCertificate:
    n, r, case = _family_shape(obj)
    field = field_from_json(obj["field"])
    # an obstruction has degree at most 2r + 2 (a resultant of degree at
    # most 2r times two case conditions), so its norm over Q has degree at
    # most deg_Q(K) (2r + 2); checked before any coefficient is parsed
    max_norm_coeffs = _absolute_degree(field) * (2 * r + 2) + 1
    segments = []
    for rec in obj["segments"]:
        segments.append(PathSegment(
            start_a=tuple(elem_from_json(c, field) for c in rec["start_a"]),
            start_b=tuple(elem_from_json(c, field) for c in rec["start_b"]),
            end_a=tuple(elem_from_json(c, field) for c in rec["end_a"]),
            end_b=tuple(elem_from_json(c, field) for c in rec["end_b"]),
            proof=_proof_from_json(rec["proof"], max_norm_coeffs)))
    # older files also name a "strategy", which nothing reads: ignored
    return PathCertificate(n, r, case, field, tuple(segments))


def connectivity_to_json(cert: ConnectivityCertificate):
    legs = []
    for leg in cert.legs:
        if isinstance(leg, PathLeg):
            legs.append({"type": "path", "cert": path_cert_to_json(leg.cert)})
        elif isinstance(leg, ConjugationLeg):
            legs.append({"type": "conjugation",
                         "conjugator": mobius_to_json(leg.conjugator),
                         "source": map_to_json(leg.source),
                         "target": map_to_json(leg.target)})
        else:
            raise TypeError(f"unknown leg {leg!r}")
    return {"certificate_type": "connectivity", "degree": cert.degree,
            "legs": legs}


def connectivity_from_json(obj) -> ConnectivityCertificate:
    degree = _degree_from_json(obj)
    legs = []
    for rec in obj["legs"]:
        if rec["type"] == "path":
            # older files also store the leg's "prime", which is cert.n
            legs.append(PathLeg(path_cert_from_json(rec["cert"])))
        elif rec["type"] == "conjugation":
            legs.append(ConjugationLeg(
                conjugator=mobius_from_json(rec["conjugator"]),
                source=map_from_json(rec["source"]),
                target=map_from_json(rec["target"])))
        else:
            raise ValueError(f"unknown leg type {rec['type']!r}")
    return ConnectivityCertificate(degree, tuple(legs))
