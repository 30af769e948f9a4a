"""Correctness checks on certificate JSON, made apart from ratsym.

Each check reads the canonical JSON text that a workload item emitted, and
re-derives what the certificate claims with sympy, mpmath or plain integer
arithmetic.  Nothing here imports ratsym.  A check raises
:class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath
import sympy

DIGITS = 60
TOLERANCE = mpmath.mpf(10) ** -40
# generic points off the unit circle and the real axis, away from poles
SAMPLES = ((0.31, 0.72), (-1.13, 0.41), (0.62, -1.27), (2.09, 0.93),
           (-0.47, -0.58))

_T, _U = sympy.symbols("t u")


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# field elements as exact values and as complex numbers
# ---------------------------------------------------------------------------

def exact_value(obj, conductor: int = 1):
    """An element as a comparable exact value: a Fraction when it is
    rational, else (conductor, power-basis coefficients).  ``obj`` is either
    the JSON form or a payload (Fraction, or coefficient tuple of
    Q(zeta_conductor))."""
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, dict):
        conductor, coeffs = obj["conductor"], [Fraction(c) for c in obj["coeffs"]]
    elif isinstance(obj, Fraction):
        return obj
    else:
        coeffs = [Fraction(c) for c in obj]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) == 1:
        return coeffs[0]
    return (conductor, tuple(coeffs))


def _rational_complex(c):
    fr = Fraction(c)
    return mpmath.mpf(fr.numerator) / fr.denominator


def value_complex(value):
    """The complex value of an :func:`exact_value` under the embedding
    zeta_n -> exp(2 pi i / n)."""
    if isinstance(value, Fraction):
        return _rational_complex(value)
    n, coeffs = value
    z = mpmath.expjpi(mpmath.mpf(2) / n)
    return sum((_rational_complex(c) * z ** k for k, c in enumerate(coeffs) if c),
               mpmath.mpc(0))


def to_complex(obj):
    """The complex value of a JSON element: cyclotomic elements as in
    :func:`value_complex`, quadratic ones with the principal square root of
    the radicand.  Any embedding preserves the identities checked here."""
    if isinstance(obj, dict) and "delta" in obj:
        return to_complex(obj["a"]) + to_complex(obj["b"]) * mpmath.sqrt(
            mpmath.mpc(to_complex(obj["delta"])))
    return value_complex(exact_value(obj))


def _polyval(coeffs, z):
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _close(x, y) -> bool:
    return abs(x - y) <= TOLERANCE * (1 + abs(x) + abs(y))


def _samples():
    return [mpmath.mpc(re, im) for re, im in SAMPLES]


class _Map:
    """A rational map num/den with complex coefficients."""

    def __init__(self, num, den):
        self.num, self.den = num, den

    @classmethod
    def from_json(cls, obj):
        return cls([to_complex(c) for c in obj["num"]],
                   [to_complex(c) for c in obj["den"]])

    @classmethod
    def from_family(cls, n: int, a, b):
        """phi(z) = z * P(z^n) / Q(z^n) from psi's coefficient lists."""
        num, den = [0] * (n * (len(a) - 1) + 2), [0] * (n * (len(b) - 1) + 1)
        for k, c in enumerate(a):
            num[n * k + 1] = c
        for k, c in enumerate(b):
            den[n * k] = c
        return cls(num, den)

    def __call__(self, z):
        return _polyval(self.num, z) / _polyval(self.den, z)


def _mobius(obj):
    a, b, c, d = (to_complex(e) for e in obj["entries"])
    return lambda z: (a * z + b) / (c * z + d)


def _same_map(f: _Map, g: _Map) -> bool:
    return all(_close(f(z), g(z)) for z in _samples())


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def _family_values(vec):
    return [exact_value(c) for c in vec]


def _requested(fam: dict):
    conductor = fam.get("conductor", 1)
    return ([exact_value(c, conductor) for c in fam["a"]],
            [exact_value(c, conductor) for c in fam["b"]])


def check_sturm_norm(norm_poly) -> None:
    """The stored norm polynomial is square-free with no root in [0, 1]."""
    f = sympy.Poly([sympy.Rational(str(Fraction(c))) for c in reversed(norm_poly)],
                   _T, domain="QQ")
    _require(not f.is_zero, "stored norm polynomial is zero")
    _require(sympy.gcd(f, f.diff(_T)).degree() == 0,
             "stored norm polynomial is not square-free")
    _require(f.count_roots(0, 1) == 0, "stored norm polynomial has a root in [0, 1]")


def _sympy_elem(obj):
    if isinstance(obj, str):
        return sympy.Rational(obj)
    n, coeffs = obj["conductor"], obj["coeffs"]
    if n != 4:
        raise ValueError(f"no sympy form for conductor {n}")
    return sympy.Rational(coeffs[0]) + sympy.Rational(coeffs[1]) * sympy.I


def check_obstruction(seg: dict, case: str, r: int) -> None:
    """sympy's own pencil resultant times the case conditions has no real
    root of its norm in [0, 1] (segments over Q and Q(i))."""
    def pencil(key):
        c0 = [_sympy_elem(c) for c in seg["start_" + key]]
        c1 = [_sympy_elem(c) for c in seg["end_" + key]]
        return [(1 - _T) * x + _T * y for x, y in zip(c0, c1)]
    a, b = pencil("a"), pencil("b")
    P = sum(c * _U ** k for k, c in enumerate(a))
    Q = sum(c * _U ** k for k, c in enumerate(b))
    cond = {"A": a[r] * b[0], "B": a[r], "C": b[r]}[case]
    G = sympy.expand(sympy.resultant(P, Q, _U) * cond)
    N = sympy.expand(G * G.subs(sympy.I, -sympy.I))
    _require(N != 0, "obstruction polynomial vanishes identically")
    f = sympy.Poly(N, _T, domain="QQ")
    _require(f.sqf_part().count_roots(0, 1) == 0,
             "obstruction polynomial has a real root in [0, 1]")


def check_path(text: str, meta: dict) -> None:
    doc = json.loads(text)
    segs = doc["segments"]
    _require(len(segs) > 0, "path between distinct families has no segment")
    for side, seg in (("start", segs[0]), ("end", segs[-1])):
        got = (_family_values(seg[side + "_a"]), _family_values(seg[side + "_b"]))
        _require(got == _requested(meta[side]),
                 f"path does not {side} at the requested family")
    for s0, s1 in zip(segs, segs[1:]):
        _require(_family_values(s0["end_a"]) == _family_values(s1["start_a"])
                 and _family_values(s0["end_b"]) == _family_values(s1["start_b"]),
                 "segments do not chain")
    field = doc["field"]
    exact_field = field["kind"] == "rational" or field == {"kind": "cyclotomic",
                                                           "conductor": 4}
    for seg in segs:
        if seg["proof"]["type"] == "sturm":
            check_sturm_norm(seg["proof"]["norm_poly"])
        if exact_field:
            check_obstruction(seg, doc["case"], doc["r"])


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def _path_end_maps(cert: dict):
    def side_map(seg, side):
        return _Map.from_family(cert["n"], [to_complex(c) for c in seg[side + "_a"]],
                                [to_complex(c) for c in seg[side + "_b"]])
    return (side_map(cert["segments"][0], "start"),
            side_map(cert["segments"][-1], "end"))


def _family_map(fam: dict) -> _Map:
    a, b = _requested(fam)
    return _Map.from_family(fam["n"], [value_complex(c) for c in a],
                            [value_complex(c) for c in b])


def check_chain(text: str, meta: dict) -> None:
    doc = json.loads(text)
    _require(doc["degree"] == meta["degree"], "chain has the wrong degree")
    legs = doc["legs"]
    _require(all(leg["type"] != "gap" for leg in legs), "chain has a gap")
    with mpmath.workdps(DIGITS):
        current = _family_map(meta["start"])
        for idx, leg in enumerate(legs):
            if leg["type"] == "path":
                segs = leg["cert"]["segments"]
                if not segs:
                    continue
                for s0, s1 in zip(segs, segs[1:]):
                    _require(s0["end_a"] == s1["start_a"]
                             and s0["end_b"] == s1["start_b"],
                             f"leg {idx}: segments do not chain")
                start, end = _path_end_maps(leg["cert"])
                _require(_same_map(current, start), f"leg {idx}: hand-off mismatch")
                current = end
            elif leg["type"] == "conjugation":
                source = _Map.from_json(leg["source"])
                target = _Map.from_json(leg["target"])
                U = _mobius(leg["conjugator"])
                _require(_same_map(current, source), f"leg {idx}: hand-off mismatch")
                # target = U o source o U^-1, evaluated as target o U = U o source
                _require(all(_close(target(U(z)), U(source(z))) for z in _samples()),
                         f"leg {idx}: target is not U o source o U^-1")
                current = target
            else:
                raise CheckFailed(f"leg {idx}: unknown leg type {leg['type']!r}")
        _require(_same_map(current, _family_map(meta["end"])),
                 "chain does not end at the second family's map")


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _prime_with_unit_root(n: int, start: int = 1 << 62):
    """A prime l = 1 (mod n) and an element of exact order n in F_l."""
    ell = start - start % n + 1
    while not sympy.isprime(ell):
        ell += n
    for h in range(2, ell):
        w = pow(h, (ell - 1) // n, ell)
        if all(pow(w, n // q, ell) != 1 for q in sympy.primefactors(n)):
            return ell, w
    raise ValueError("no unit root")  # unreachable: F_l^* is cyclic


def _reduce_mod(obj, ell: int, w: int) -> int:
    if isinstance(obj, str):
        fr = Fraction(obj)
        return fr.numerator * pow(fr.denominator, -1, ell) % ell
    return sum(_reduce_mod(c, ell, w) * pow(w, k, ell)
               for k, c in enumerate(obj["coeffs"])) % ell


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _gcd_degree_mod(f, g, ell: int) -> int:
    f, g = _trim(list(f)), _trim(list(g))
    while g:
        inv = pow(g[-1], -1, ell)
        while len(f) >= len(g):
            q = f[-1] * inv % ell
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % ell
            _trim(f)
        f, g = g, f
    return len(f) - 1


def check_exact_degree(map_obj: dict, d: int) -> None:
    """num/den have degree d and no common factor: reduced modulo a prime
    l = 1 (mod conductor), the degree-d part keeps its degree and the gcd
    over F_l is constant, which rules out a common factor over the field."""
    field = map_obj["field"]
    if field["kind"] == "rational":
        conductor = 1
    elif field["kind"] == "cyclotomic":
        conductor = field["conductor"]
    else:
        raise CheckFailed(f"no modular reduction for field {field}")
    _require(max(len(map_obj["num"]), len(map_obj["den"])) == d + 1,
             f"map does not have formal degree {d}")
    ell, w = _prime_with_unit_root(conductor)
    num = [_reduce_mod(c, ell, w) for c in map_obj["num"]]
    den = [_reduce_mod(c, ell, w) for c in map_obj["den"]]
    top = num if len(num) == d + 1 else den
    _require(top[-1] != 0, f"map has degree below {d}")
    _require(_gcd_degree_mod(num, den, ell) == 0,
             "numerator and denominator share a factor")


def _mat_mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def _is_scalar(M) -> bool:
    size = max(abs(x) for row in M for x in row)
    return (abs(M[0][1]) <= TOLERANCE * size and abs(M[1][0]) <= TOLERANCE * size
            and abs(M[0][0] - M[1][1]) <= TOLERANCE * size)


def mobius_order(obj) -> int:
    """The order of a Moebius matrix up to scale, at most 120."""
    a, b, c, d = (to_complex(e) for e in obj["entries"])
    M = ((a, b), (c, d))
    P = M
    for k in range(1, 121):
        if _is_scalar(P):
            return k
        P = _mat_mul(P, M)
    raise CheckFailed("automorphism has no finite order up to 120")


def check_witness(text: str, meta: dict) -> None:
    doc = json.loads(text)
    p, d = meta["p"], meta["d"]
    check_exact_degree(doc["map"], d)
    _require(sorted(rec["order"] for rec in doc["autos"]) == [2, p],
             f"recorded orders are not {{2, {p}}}")
    with mpmath.workdps(DIGITS):
        phi = _Map.from_json(doc["map"])
        for rec in doc["autos"]:
            _require(mobius_order(rec["matrix"]) == rec["order"],
                     f"automorphism does not have its recorded order {rec['order']}")
            T = _mobius(rec["matrix"])
            _require(all(_close(phi(T(z)), T(phi(z))) for z in _samples()),
                     "phi o T differs from T o phi")


def admissible_groups(p: int, d: int) -> list[str]:
    """Finite Moebius group types containing orders p and 2 that occur in
    degree d, by their congruence conditions: C_m needs d = 0, +-1 (mod m),
    D_m needs d = +-1 (mod m), A4 odd d, S4 d = +-1 (mod 6), A5 d mod 30 in
    {1, 11, 19, 21}.  C_m and D_m with m > d + 1 never occur."""
    found = [f"C{m}" for m in range(2 * p, d + 2, 2 * p) if d % m in (0, 1, m - 1)]
    found += [f"D{m}" for m in range(p, d + 2, p) if d % m in (1, m - 1)]
    if p == 3 and d % 2 == 1:
        found.append("A4")
    if p == 3 and d % 6 in (1, 5):
        found.append("S4")
    if p in (3, 5) and d % 30 in (1, 11, 19, 21):
        found.append("A5")
    return found


def check_empty(meta: dict) -> None:
    groups = admissible_groups(meta["p"], meta["d"])
    _require(not groups, f"(p={meta['p']}, d={meta['d']}) is marked provably "
             f"empty, but {', '.join(groups)} occur in that degree")


def check(workload: str, text, meta: dict) -> None:
    """Check one item's output: a certificate text, or ``None`` for a
    witness pair reported provably empty."""
    if workload == "paths":
        check_path(text, meta)
    elif workload == "chains":
        check_chain(text, meta)
    elif text is None:
        check_empty(meta)
    else:
        check_witness(text, meta)
