"""The certification routes keep their soundness checks under ``python -O``.

``-O`` strips every ``assert``, so a check written as one would let a
tampered certificate through.  These tests build and validate a witness,
a connectivity chain, Sturm paths over Q(zeta_5) and over the quadratic
layer Q(sqrt(-3)), and interval paths over Q and over Q(i), whose
enclosures of the powers of i are the integer ones, in a subprocess of the
optimising interpreter.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ratsym.fields import QQ, CyclotomicField, QuadraticField
from ratsym.jsonio import canon_dumps, family_to_json
from ratsym.symmetry import CyclicFamily, random_cyclic_family

SRC = Path(__file__).resolve().parent.parent / "src"


def _ratsym_O(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-O", "-m", "ratsym.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_witness_validates_under_O(tmp_path):
    out = tmp_path / "w.json"
    built = _ratsym_O("witness", "3", "39", "--out-file", str(out))
    assert built.returncode == 0, built.stderr
    checked = _ratsym_O("validate", str(out))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"valid": True}

    # change one coordinate of the involution's upper right entry: the trace
    # stays zero, so the matrix still has order 2 but no longer commutes
    # with the map, and only the automorphism check can reject it
    doc = json.loads(out.read_text())
    auto = next(a for a in doc["autos"] if a["order"] == 2)
    coeffs = auto["matrix"]["entries"][1]["coeffs"]
    coeffs[0] = str(int(coeffs[0]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rejected = _ratsym_O("validate", str(bad))
    assert rejected.returncode != 0
    assert "automorphism verification failed" in rejected.stdout
    assert "Traceback" not in rejected.stderr

    # the involution recorded with order 4: the order check rejects it
    doc = json.loads(out.read_text())
    auto = next(a for a in doc["autos"] if a["order"] == 2)
    auto["order"] = 4
    bad.write_text(json.dumps(doc))
    rejected = _ratsym_O("validate", str(bad))
    assert rejected.returncode == 4
    assert "automorphism verification failed" in rejected.stdout
    assert "Traceback" not in rejected.stderr


def test_case_a_to_case_c_chain_validates_under_O(tmp_path):
    fams = [random_cyclic_family(random.Random(31), 2, 3, "A"),
            random_cyclic_family(random.Random(32), 2, 4, "C")]
    paths = [tmp_path / "fa.json", tmp_path / "fc.json"]
    for fam, path in zip(fams, paths):
        path.write_text(canon_dumps(family_to_json(fam)))
    out = tmp_path / "chain.json"
    built = _ratsym_O("connect", *map(str, paths), "--out-file", str(out))
    assert built.returncode == 0, built.stderr
    legs = json.loads(out.read_text())["legs"]
    assert [leg["type"] for leg in legs] == ["path", "conjugation", "path"]
    checked = _ratsym_O("validate", str(out))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"valid": True}


def test_sturm_path_over_q_zeta5_validates_under_O(tmp_path):
    K = CyclotomicField(5)
    rng = random.Random(51)
    fams = []
    for _ in range(2):
        x, y = (random_cyclic_family(rng, 2, 1, "A", field=K) for _ in range(2))
        fams.append(CyclicFamily(2, 1, "A",
                                 tuple(p + K.zeta() * q for p, q in zip(x.a, y.a)),
                                 tuple(p + K.zeta(2) * q for p, q in zip(x.b, y.b))))
    paths = [tmp_path / "f0.json", tmp_path / "f1.json"]
    for fam, path in zip(fams, paths):
        path.write_text(canon_dumps(family_to_json(fam)))
    out = tmp_path / "path.json"
    built = _ratsym_O("path", *map(str, paths), "--out-file", str(out))
    assert built.returncode == 0, built.stderr
    doc = json.loads(out.read_text())
    assert doc["segments"]
    assert {seg["proof"]["type"] for seg in doc["segments"]} == {"sturm"}
    checked = _ratsym_O("validate", str(out))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"valid": True}

    # one changed coefficient of the stored norm: exit 4, no traceback
    norm = doc["segments"][0]["proof"]["norm_poly"]
    norm[0] = str(Fraction(norm[0]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rejected = _ratsym_O("validate", str(bad))
    assert rejected.returncode == 4
    assert "stored norm polynomial differs" in rejected.stdout
    assert "Traceback" not in rejected.stderr


def test_sturm_path_over_a_quadratic_layer_validates_under_O(tmp_path):
    # the resultants, interpolation and norms run over pairs of integers
    K = QuadraticField(QQ, QQ(-3))
    rng = random.Random(57)
    fams = []
    for _ in range(2):
        x, y = (random_cyclic_family(rng, 2, 2, "B", field=K) for _ in range(2))
        fams.append(CyclicFamily(2, 2, "B",
                                 tuple(p + K.sqrt_delta() * q for p, q in zip(x.a, y.a)),
                                 tuple(p - K.sqrt_delta() * q for p, q in zip(x.b, y.b))))
    paths = [tmp_path / "f0.json", tmp_path / "f1.json"]
    for fam, path in zip(fams, paths):
        path.write_text(canon_dumps(family_to_json(fam)))
    out = tmp_path / "path.json"
    built = _ratsym_O("path", *map(str, paths), "--out-file", str(out))
    assert built.returncode == 0, built.stderr
    doc = json.loads(out.read_text())
    assert doc["field"]["kind"] == "quadratic"
    assert {seg["proof"]["type"] for seg in doc["segments"]} == {"sturm"}
    checked = _ratsym_O("validate", str(out))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"valid": True}


def test_interval_path_validates_under_O(tmp_path):
    # the straight segment's enclosure on [0, 1] contains zero, so the proof
    # is tiled; merging the tiles back into one must be rejected
    fams = [CyclicFamily(2, 1, "A", (QQ(-1), QQ(-5)), (QQ(-2), QQ(-2))),
            CyclicFamily(2, 1, "A", (QQ(-4), QQ(-3)), (QQ(-9), QQ(8)))]
    paths = [tmp_path / "f0.json", tmp_path / "f1.json"]
    for fam, path in zip(fams, paths):
        path.write_text(canon_dumps(family_to_json(fam)))
    out = tmp_path / "path.json"
    built = _ratsym_O("path", *map(str, paths), "--strategy", "interval",
                      "--precision", "32", "--out-file", str(out))
    assert built.returncode == 0, built.stderr
    doc = json.loads(out.read_text())
    proof = doc["segments"][0]["proof"]
    assert proof["type"] == "interval" and len(proof["boxes"]) > 1
    checked = _ratsym_O("validate", str(out))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"valid": True}

    proof["boxes"] = [{"t_lo": "0", "t_hi": "1"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rejected = _ratsym_O("validate", str(bad))
    assert rejected.returncode == 4
    assert "contains zero" in rejected.stdout
    assert "Traceback" not in rejected.stderr


def test_interval_path_over_gaussian_rationals_validates_under_O(tmp_path):
    # the tiling of a straight segment over Q(i) at precision 32, the
    # "gaussian" case of the pinned tilings in test_moduli
    K = CyclotomicField(4)
    ends = [[[(-5, 9), (3, -3)], [(-6, 6), (5, 6)]],
            [[(-9, 3), (-6, 1)], [(-9, -9), (-2, 9)]]]
    paths = [tmp_path / "f0.json", tmp_path / "f1.json"]
    for (a, b), path in zip(ends, paths):
        fam = CyclicFamily(2, 1, "A", tuple(map(K.from_coeffs, a)),
                           tuple(map(K.from_coeffs, b)))
        path.write_text(canon_dumps(family_to_json(fam)))
    out = tmp_path / "path.json"
    built = _ratsym_O("path", *map(str, paths), "--strategy", "interval",
                      "--precision", "32", "--out-file", str(out))
    assert built.returncode == 0, built.stderr
    doc = json.loads(out.read_text())
    assert doc["field"]["kind"] == "cyclotomic"
    proof = doc["segments"][0]["proof"]
    assert [tile["t_hi"] for tile in proof["boxes"]] == ["1/4", "1/2", "5/8", "3/4", "1"]
    checked = _ratsym_O("validate", str(out))
    assert checked.returncode == 0, checked.stderr
    assert json.loads(checked.stdout) == {"valid": True}

    bad = tmp_path / "bad.json"
    for boxes, reason in [([{"t_lo": "0", "t_hi": "1"}], "contains zero"),
                          ([{"t_lo": "0", "t_hi": "1/3"}, {"t_lo": "1/3", "t_hi": "1"}],
                           "tile endpoint")]:
        proof["boxes"] = boxes
        bad.write_text(json.dumps(doc))
        rejected = _ratsym_O("validate", str(bad))
        assert rejected.returncode == 4
        assert reason in rejected.stdout
        assert "Traceback" not in rejected.stderr
