"""The sparse Kronecker kernel of the map layer against dense references.

``ratmap._homogeneous_at`` runs Horner only over the exponents where some
coefficient list is nonzero, and ``poly._pack`` adds only the nonzero terms
c_k 2^(S k).  The references here are the dense loops: Horner over every
exponent with the powers of v built one product at a time, and Horner in
2^S over every coefficient.  The rings are Z, Z[zeta_5], Z[zeta_12] and the
icosahedral quadratic layer over Z[zeta_5]; the inputs are zero lists, single
terms at either end, the pattern of a normal form z psi(z^n), dense lists and
random lists.  A last test counts the ring products of a rotation check, so
that a fall-back to one product per degree fails.
"""

from __future__ import annotations

import random

import pytest

from ratsym import ratmap
from ratsym.fields import QQ, CyclotomicField, _integral_ring, _ring_lift
from ratsym.mobius import icosahedral_field
from ratsym.poly import _pack
from ratsym.ratmap import _homogeneous_at, is_automorphism
from ratsym.symmetry import lemma_witness

RINGS = {
    "Z": _integral_ring(QQ),
    "Zz5": _integral_ring(CyclotomicField(5)),
    "Zz12": _integral_ring(CyclotomicField(12)),
    "icosa": _integral_ring(icosahedral_field()),
}


def _random_elem(ring, rng: random.Random):
    """A ring element with coordinates in [-9, 9], possibly zero."""
    if ring.base is None:
        return rng.randint(-9, 9)
    if hasattr(ring, "m"):
        return tuple(rng.randint(-9, 9) for _ in range(ring.m))
    return (_random_elem(ring.base, rng), _random_elem(ring.base, rng))


def _nonzero_elem(ring, rng: random.Random):
    while True:
        x = _random_elem(ring, rng)
        if x != ring.zero:
            return x


def _dense_at(ring, f: list, u, v):
    """sum_k f_k u^k v^(d-k): Horner in u over every exponent."""
    d = len(f) - 1
    vpows = [ring.one]
    for _ in range(d):
        vpows.append(ring.mul(vpows[-1], v))
    acc = f[d]
    for k in range(d - 1, -1, -1):
        acc = ring.add(ring.mul(acc, u), ring.mul(f[k], vpows[d - k]))
    return acc


def _dense_pack(ring, f: list, S: int):
    """f(2^S) by Horner in 2^S over every coefficient."""
    x = ring.zero
    for c in reversed(f):
        x = ring.add(ring.scale(x, 1 << S), c)
    return x


def _lists(ring, rng: random.Random, d: int) -> dict[str, list[list]]:
    """Coefficient lists of formal degree d, two per case."""
    zero = ring.zero

    def term(k):
        f = [zero] * (d + 1)
        f[k] = _nonzero_elem(ring, rng)
        return f

    def supported(keep):
        return [_nonzero_elem(ring, rng) if keep(k) else zero for k in range(d + 1)]

    n = 3 if d < 6 else 5
    return {
        "zero": [[zero] * (d + 1), [zero] * (d + 1)],
        "low term": [term(0), [zero] * (d + 1)],
        "high term": [[zero] * (d + 1), term(d)],
        "both ends": [term(0), term(d)],
        "normal form": [supported(lambda k: k % n == 1), supported(lambda k: k % n == 0)],
        "inner": [supported(lambda k: 0 < k < d and k % n == 2),
                  supported(lambda k: 0 < k < d and k % n == 3)],
        "dense": [supported(lambda k: True), supported(lambda k: True)],
        "random": [[_random_elem(ring, rng) if rng.random() < 0.3 else zero
                    for _ in range(d + 1)] for _ in range(2)],
    }


@pytest.mark.parametrize("name", list(RINGS))
def test_homogeneous_at_matches_dense_horner(name):
    ring = RINGS[name]
    rng = random.Random(f"homogeneous/{name}")
    for d in (0, 1, 2, 5, 13, 40):
        for case, fs in _lists(ring, rng, d).items():
            points = [(_nonzero_elem(ring, rng), _nonzero_elem(ring, rng)),
                      (ring.zero, _nonzero_elem(ring, rng)),
                      (_nonzero_elem(ring, rng), ring.zero)]
            for u, v in points:
                want = [_dense_at(ring, f, u, v) for f in fs]
                assert _homogeneous_at(ring, fs, u, v) == want, (d, case)
                assert _homogeneous_at(ring, fs[:1], u, v) == want[:1], (d, case)
                assert _homogeneous_at(ring, [*fs, fs[0]], u, v) == [*want, want[0]]


@pytest.mark.parametrize("name", list(RINGS))
def test_pack_matches_dense_horner(name):
    ring = RINGS[name]
    rng = random.Random(f"pack/{name}")
    for d in (0, 1, 2, 5, 13, 40):
        for case, fs in _lists(ring, rng, d).items():
            for f in fs:
                for S in (1, 7, 64):
                    assert _pack(ring, f, S) == _dense_pack(ring, f, S), (d, case, S)


def test_ring_lift_of_zero_is_the_target_zero():
    z5, ico = RINGS["Zz5"], RINGS["icosa"]
    pairs = [(RINGS["Z"], RINGS["Z"]), (RINGS["Z"], z5), (RINGS["Z"], RINGS["Zz12"]),
             (_integral_ring(CyclotomicField(3)), RINGS["Zz12"]),
             (_integral_ring(CyclotomicField(4)), RINGS["Zz12"]),
             (RINGS["Z"], ico), (z5, ico), (ico, ico)]
    for src, ring in pairs:
        assert _ring_lift(src.zero, src, ring) is ring.zero
    # a nonzero element still goes through the embedding
    assert _ring_lift(2, RINGS["Z"], z5) == z5.scale(z5.one, 2)
    assert _ring_lift((0, 1), _integral_ring(CyclotomicField(3)),
                      RINGS["Zz12"]) == RINGS["Zz12"].pows[4]


class _CountingRing:
    """A ring that counts its products and defers everything else."""

    def __init__(self, ring):
        self._ring = ring
        self.muls = 0

    def __getattr__(self, name):
        return getattr(self._ring, name)

    def mul(self, a, b):
        self.muls += 1
        return self._ring.mul(a, b)


def test_rotation_check_costs_its_nonzero_terms(monkeypatch):
    # the witness (z + z^40) / (1 + z^39) has 4 nonzero coefficients of 82;
    # its rotation z -> zeta_13 z is checked over Z[zeta_13], where a dense
    # pass takes at least 3 d = 120 products (d for the powers of v, d per list)
    w = lemma_witness(13, 40)
    (T, order), = [(T, o) for T, o in w.autos if o == 13]
    phi, d = w.map, w.map.degree
    terms = len(phi.num.support()) + len(phi.den.support())
    assert (d, order) == (40, 13) and terms < (2 * d + 2) // 4
    counting = _CountingRing(_integral_ring(T.field))
    real = ratmap._integral_ring
    monkeypatch.setattr(ratmap, "_integral_ring",
                        lambda field: counting if field == T.field else real(field))
    assert is_automorphism(phi, T)
    assert 0 < counting.muls <= 5 * terms + 4 * d.bit_length() + 8 < 3 * d
