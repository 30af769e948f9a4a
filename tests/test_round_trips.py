"""Every certificate kind survives to_json, canon_dumps, json.loads and
from_json, and serialises again to the same bytes."""

import json
import random

import pytest

from ratsym.fields import QQ, QuadraticField
from ratsym.jsonio import (canon_dumps, connectivity_from_json,
                           connectivity_to_json, map_from_json, map_to_json,
                           path_cert_from_json, path_cert_to_json,
                           witness_from_json, witness_to_json)
from ratsym.moduli import (build_path, connectivity_certificate,
                           validate_connectivity_certificate,
                           validate_path_certificate)
from ratsym.poly import Poly
from ratsym.ratmap import make_map
from ratsym.symmetry import (cyclic_admissible, lemma_witness,
                             random_cyclic_family)


def _round_trip(obj, to_json, from_json):
    """The text of obj, and the object read back from it, after checking
    that the object read back serialises to the same text."""
    text = canon_dumps(to_json(obj))
    back = from_json(json.loads(text))
    assert canon_dumps(to_json(back)) == text
    return back


@pytest.mark.parametrize("strategy", ["sturm", "interval"])
def test_path_round_trip(strategy):
    rng = random.Random(f"round trip/{strategy}")
    f0, f1 = (random_cyclic_family(rng, 2, 2, "A") for _ in range(2))   # d = 5
    cert = build_path(f0, f1, strategy, rng=rng, precision=64)
    assert cert.segments and {seg.proof.kind for seg in cert.segments} == {strategy}
    validate_path_certificate(_round_trip(cert, path_cert_to_json, path_cert_from_json))


def test_connectivity_round_trip():
    rng = random.Random(4031)
    case, r = cyclic_admissible(4, 3)[0]
    f3 = random_cyclic_family(rng, 3, r, case)
    f2 = random_cyclic_family(rng, 2, 2, "B")
    cert = connectivity_certificate(f2, f3, "sturm", random.Random(7))
    back = _round_trip(cert, connectivity_to_json, connectivity_from_json)
    validate_connectivity_certificate(back)


@pytest.mark.parametrize("p, d", [(3, 4), (3, 6), (3, 3), (5, 6)])
def test_witness_round_trip(p, d):
    back = _round_trip(lemma_witness(p, d), witness_to_json, witness_from_json)
    assert back.verify()


def test_map_over_a_quadratic_layer_round_trip():
    K = QuadraticField(QQ, QQ(2))
    s = K.sqrt_delta()
    phi = make_map(Poly(K, [s, 0, 3, s * 2]), Poly(K, [1, s + 1, 0, 0]))
    assert _round_trip(phi, map_to_json, map_from_json) == phi
