import json
import random
import subprocess
import sys

import pytest

from ratsym.cli import (EXIT_CERTIFICATION, EXIT_NOT_ADMISSIBLE, EXIT_PARSE,
                        EXIT_VALIDATION, main)
from ratsym.fields import QQ, CyclotomicField, InexactDivision
from ratsym.jsonio import (MAX_CONDUCTOR, MAX_DEGREE, canon_dumps,
                           family_to_json, map_to_json, mobius_to_json,
                           path_cert_to_json)
from ratsym.mobius import MobiusMap
from ratsym.moduli import PathCertificate
from ratsym.poly import Poly
from ratsym.ratmap import DegenerateMap, make_map
from ratsym.symmetry import build_cyclic, random_cyclic_family, simple_cyclic_family


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_admissible_rows(capsys):
    code, out = run_cli(["admissible", "--dmax", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = {row["d"]: row for row in doc["rows"]}
    d2 = rows[2]
    assert [e["n"] for e in d2["cyclic"]] == [2, 3]
    assert d2["dihedral"] == [{"n": 3, "cases": [{"case": "II", "r": 1}]}]
    assert not (d2["A4"] or d2["S4"] or d2["A5"])
    d4 = rows[4]
    cyc = {e["n"]: [c["case"] for c in e["cases"]] for e in d4["cyclic"]}
    assert cyc == {2: ["B"], 3: ["A"], 4: ["B"], 5: ["C"]}
    dih = {e["n"]: [c["case"] for c in e["cases"]] for e in d4["dihedral"]}
    assert dih == {3: ["I"], 5: ["II"]}
    assert not d4["A4"]


def test_admissible_includes_icosahedral_degrees(capsys):
    code, out = run_cli(["admissible", "--dmax", "11"], capsys)
    doc = json.loads(out)
    rows = {row["d"]: row for row in doc["rows"]}
    assert rows[11]["A5"] and rows[11]["A4"] and rows[11]["S4"]
    assert not rows[10]["A5"]


def test_csv_and_pretty_outputs(capsys):
    code, out = run_cli(["admissible", "--dmax", "3", "--output", "csv"], capsys)
    assert code == 0 and out.splitlines()[0] == "d,cyclic,dihedral,A4,S4,A5"
    code, out = run_cli(["dims", "--dmax", "3", "--output", "pretty"], capsys)
    assert code == 0 and "dim=" in out


def test_witness_command(tmp_path, capsys):
    code, out = run_cli(["witness", "3", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == {"kind": "dihedral", "n": 3}
    assert sorted(rec["order"] for rec in doc["autos"]) == [2, 3]
    # the map is 1/z^2
    assert doc["map"]["num"] == ["1"] and doc["map"]["den"] == ["0", "0", "1"]

    # d = 3*r with r odd: a tetrahedral witness that validates offline
    target = tmp_path / "w.json"
    code, _ = run_cli(["witness", "3", "9", "--out-file", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text())["group"] == {"kind": "A4"}
    code, out = run_cli(["validate", str(target)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}

    code, _ = run_cli(["witness", "5", "7"], capsys)
    assert code == EXIT_NOT_ADMISSIBLE
    code, _ = run_cli(["witness", "5", "5"], capsys)
    assert code == EXIT_CERTIFICATION


@pytest.mark.parametrize("p, d, group", [
    (3, 4, {"kind": "dihedral", "n": 3}), (3, 6, {"kind": "cyclic", "n": 6}),
    (3, 9, {"kind": "A4"}), (13, 26, {"kind": "cyclic", "n": 26}),
])
def test_validate_checks_the_witness_group(tmp_path, capsys, p, d, group):
    target = tmp_path / "w.json"
    code, _ = run_cli(["witness", str(p), str(d), "--out-file", str(target)], capsys)
    doc = json.loads(target.read_text())
    assert code == 0 and doc["group"] == group
    code, out = run_cli(["validate", str(target)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}
    # relabelled, the stored automorphisms generate another group; and
    # they must come as the order-p one, then the involution
    bad = [{**doc, "group": false} for false in (
        {"kind": "A5"}, {"kind": "cyclic", "n": 6}, {"kind": "dihedral", "n": 6},
        {"kind": "dihedral", "n": 3}) if false != group]
    for bad_doc in bad + [{**doc, "autos": doc["autos"][::-1]}]:
        target.write_text(canon_dumps(bad_doc))
        code, out = run_cli(["validate", str(target)], capsys)
        assert code == EXIT_VALIDATION and json.loads(out)["valid"] is False


def test_milnor_command(tmp_path, capsys):
    target = tmp_path / "map.json"
    phi = make_map(Poly(QQ, [1]), Poly(QQ, [0, 0, 1]))
    target.write_text(canon_dumps(map_to_json(phi)))
    code, out = run_cli(["milnor", str(target)], capsys)
    assert code == 0
    assert json.loads(out) == {"sigma1": "-6", "sigma2": "12", "cubic": "0"}


def test_path_connect_validate_roundtrip(tmp_path, capsys):
    f0 = random_cyclic_family(random.Random(1), 2, 1, "A")
    f1 = random_cyclic_family(random.Random(2), 2, 1, "A")
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    cert_file = tmp_path / "cert.json"
    code, _ = run_cli(["path", str(p0), str(p1), "--out-file", str(cert_file)], capsys)
    assert code == 0
    code, out = run_cli(["validate", str(cert_file)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}

    c3 = random_cyclic_family(random.Random(3), 3, 1, "A")
    c2 = random_cyclic_family(random.Random(4), 2, 2, "B")
    q0, q1 = tmp_path / "c3.json", tmp_path / "c2.json"
    q0.write_text(canon_dumps(family_to_json(c3)))
    q1.write_text(canon_dumps(family_to_json(c2)))
    conn_file = tmp_path / "conn.json"
    code, _ = run_cli(["connect", str(q0), str(q1), "--out-file", str(conn_file)], capsys)
    assert code == 0
    code, out = run_cli(["validate", str(conn_file)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}


def test_connect_case_a_to_case_c_and_reject_a_gap_leg(tmp_path, capsys):
    fa = random_cyclic_family(random.Random(21), 2, 2, "A")
    fc = random_cyclic_family(random.Random(22), 2, 3, "C")
    p0, p1 = tmp_path / "fa.json", tmp_path / "fc.json"
    p0.write_text(canon_dumps(family_to_json(fa)))
    p1.write_text(canon_dumps(family_to_json(fc)))
    conn_file = tmp_path / "conn.json"
    code, _ = run_cli(["connect", str(p0), str(p1), "--out-file", str(conn_file)],
                      capsys)
    assert code == 0
    code, out = run_cli(["validate", str(conn_file)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}

    # an unbridged step is no longer a leg a certificate may contain
    doc = json.loads(conn_file.read_text())
    assert [leg["type"] for leg in doc["legs"]] == ["path", "conjugation", "path"]
    doc["legs"][1] = {"type": "gap", "reason": "no constructed bridge",
                      "from_family": family_to_json(fa),
                      "to_family": family_to_json(fc)}
    gap_file = tmp_path / "gap.json"
    gap_file.write_text(canon_dumps(doc))
    code, out = run_cli(["validate", str(gap_file)], capsys)
    assert code == EXIT_VALIDATION and json.loads(out)["valid"] is False


def _identity_leg_chain(degree):
    # one true conjugation leg of a degree-3 map, under the identity
    phi = map_to_json(build_cyclic(simple_cyclic_family(3, 2, "A")))
    leg = {"type": "conjugation", "conjugator": mobius_to_json(MobiusMap(QQ, 1, 0, 0, 1)),
           "source": phi, "target": phi}
    return {"certificate_type": "connectivity", "degree": degree, "legs": [leg]}


@pytest.mark.parametrize("degree", [7, "seven"])
def test_validate_checks_the_connectivity_degree(degree, tmp_path, capsys):
    # the degree-3 chain in a certificate that names another degree or none
    path = tmp_path / "conn.json"
    path.write_text(canon_dumps(_identity_leg_chain(degree)))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == EXIT_VALIDATION and json.loads(out)["valid"] is False


@pytest.mark.parametrize("degree", ["seven", True, 0, MAX_DEGREE + 1])
def test_validate_bounds_the_connectivity_degree_before_any_leg(degree, tmp_path, capsys):
    # with no legs no leg check sees the degree: the parser must bound it
    path = tmp_path / "conn.json"
    path.write_text(canon_dumps({"certificate_type": "connectivity", "degree": degree,
                                 "legs": []}))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == EXIT_VALIDATION and json.loads(out)["valid"] is False


@pytest.mark.parametrize("paths", [0, 1, 2])
def test_validate_rejects_a_chain_whose_legs_carry_no_map(paths, tmp_path, capsys):
    # no legs, or only path legs with no segments, prove nothing
    fam = random_cyclic_family(random.Random(13), 2, 3, "B")
    empty = {"type": "path", "cert": path_cert_to_json(
        PathCertificate(fam.n, fam.r, fam.case, fam.field, ()))}
    path = tmp_path / "conn.json"
    path.write_text(canon_dumps({"certificate_type": "connectivity",
                                 "degree": fam.degree, "legs": [empty] * paths}))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"valid": False, "reason": "no leg carries a map"}
    # the same empty path beside a leg that carries a map is accepted
    doc = _identity_leg_chain(3)
    doc["legs"] = [empty] * paths + doc["legs"] + [empty] * paths
    path.write_text(canon_dumps(doc))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}


def test_connect_through_a_tetrahedral_witness(tmp_path, capsys):
    # the order-3 side of degree 9 reaches order 2 through the A4 witness
    # over Q(zeta_12)
    f3 = random_cyclic_family(random.Random(23), 3, 3, "B")
    f2 = random_cyclic_family(random.Random(24), 2, 4, "A")
    p0, p1 = tmp_path / "f3.json", tmp_path / "f2.json"
    p0.write_text(canon_dumps(family_to_json(f3)))
    p1.write_text(canon_dumps(family_to_json(f2)))
    conn_file = tmp_path / "conn.json"
    code, _ = run_cli(["connect", str(p0), str(p1), "--out-file", str(conn_file)],
                      capsys)
    assert code == 0
    code, out = run_cli(["validate", str(conn_file)], capsys)
    assert code == 0 and json.loads(out) == {"valid": True}


def test_normalization_failure_exits_with_certification_code(tmp_path, capsys,
                                                             monkeypatch):
    import ratsym.cli
    from ratsym.moduli import NormalizationFailed

    def fail(*args, **kwargs):
        raise NormalizationFailed("involution normalisation failed")

    monkeypatch.setattr(ratsym.cli, "connectivity_certificate", fail)
    f0 = random_cyclic_family(random.Random(3), 3, 1, "A")
    f1 = random_cyclic_family(random.Random(4), 2, 2, "B")
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    assert main(["connect", str(p0), str(p1)]) == EXIT_CERTIFICATION
    assert "involution normalisation failed" in capsys.readouterr().err


def test_validate_rejects_tampering(tmp_path, capsys):
    f0 = random_cyclic_family(random.Random(5), 2, 2, "B")
    f1 = random_cyclic_family(random.Random(6), 2, 2, "B")
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    cert_file = tmp_path / "cert.json"
    code, _ = run_cli(["path", str(p0), str(p1), "--out-file", str(cert_file)], capsys)
    assert code == 0
    doc = json.loads(cert_file.read_text())
    seg = doc["segments"][0]
    seg["end_a"][0] = "7" if seg["end_a"][0] != "7" else "5"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(canon_dumps(doc))
    code, _ = run_cli(["validate", str(bad_file)], capsys)
    assert code == EXIT_VALIDATION


def test_deterministic_output(tmp_path, capsys):
    f0 = random_cyclic_family(random.Random(7), 3, 2, "A")
    f1 = random_cyclic_family(random.Random(8), 3, 2, "A")
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    outs = []
    for _ in range(2):
        code, out = run_cli(["path", str(p0), str(p1), "--seed", "11"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, out_a = run_cli(["admissible", "--dmax", "12"], capsys)
    code, out_b = run_cli(["admissible", "--dmax", "12"], capsys)
    assert out_a == out_b


def test_console_script_subprocess(tmp_path):
    # the installed entry point behaves like main(); smoke one command
    result = subprocess.run([sys.executable, "-m", "ratsym.cli", "admissible",
                             "--dmax", "2"], capture_output=True, text=True)
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["rows"][0]["d"] == 2


def test_python_dash_m_ratsym_validates(tmp_path):
    # "python -m ratsym" runs the same main(): exit 0 on a valid chain and
    # 4 on one with no legs
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(canon_dumps(_identity_leg_chain(3)))
    bad.write_text(canon_dumps({"certificate_type": "connectivity", "degree": 7,
                                "legs": []}))
    for path, code, valid in ((good, 0, True), (bad, EXIT_VALIDATION, False)):
        result = subprocess.run([sys.executable, "-m", "ratsym", "validate", str(path)],
                                capture_output=True, text=True)
        assert result.returncode == code
        assert json.loads(result.stdout)["valid"] is valid


def test_witness_of_order_127_validates(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _ = run_cli(["witness", "127", "128", "--out-file", str(out)], capsys)
    assert code == 0
    code, text = run_cli(["validate", str(out)], capsys)
    assert code == 0 and json.loads(text) == {"valid": True}


@pytest.mark.parametrize("exc, expected", [
    (DegenerateMap("composition degree drop"), EXIT_PARSE),
    (InexactDivision("cyclotomic division"), EXIT_CERTIFICATION),
])
def test_arithmetic_failures_map_to_exit_codes(monkeypatch, capsys, exc, expected):
    from ratsym import cli

    def fail(p, d):
        raise exc
    monkeypatch.setattr(cli, "lemma_witness", fail)
    assert main(["witness", "3", "4"]) == expected
    assert str(exc) in capsys.readouterr().err


def _zero_divisor_map_json():
    # s - sqrt(delta) is a zero divisor when delta = s^2 with
    # s = 6 - 2 (zeta_12 + zeta_12^-1) = 6 - 2 sqrt 3, so the pair
    # (1 + z^2, 1 + (s - sqrt(delta)) z) cannot be reduced by a gcd
    from ratsym.fields import CyclotomicField, QuadraticField, lift
    from ratsym.ratmap import RationalMap
    F = CyclotomicField(12)
    s = 6 - 2 * (F.zeta() + F.zeta(11))
    K = QuadraticField(F, s * s)
    num = Poly(K, [1, 0, 1])
    den = Poly(K, [K.one(), lift(s, K) - K.sqrt_delta()])
    return map_to_json(RationalMap(K, num, den, 2))


def test_zero_divisor_exits_1_outside_validate(tmp_path, capsys):
    target = tmp_path / "map.json"
    target.write_text(canon_dumps(_zero_divisor_map_json()))
    assert main(["milnor", str(target)]) == EXIT_PARSE
    assert "norm vanishes" in capsys.readouterr().err


def test_zero_divisor_exits_4_inside_validate(tmp_path, capsys):
    good = tmp_path / "w.json"
    code, _ = run_cli(["witness", "3", "4", "--out-file", str(good)], capsys)
    assert code == 0
    doc = json.loads(good.read_text())
    doc["map"] = _zero_divisor_map_json()
    bad = tmp_path / "bad.json"
    bad.write_text(canon_dumps(doc))
    code, out = run_cli(["validate", str(bad)], capsys)
    assert code == EXIT_VALIDATION
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("value", ["1e5000", "0.5", "1_000", " 3/4", 1.5, 3])
def test_validate_exits_4_on_a_coefficient_that_is_not_p_over_q(tmp_path, capsys, value):
    # Fraction() would read all but the JSON numbers, and "1e1000000" would
    # cost a 3.3-Mbit integer: only "p" and "p/q" are read
    good = tmp_path / "w.json"
    code, _ = run_cli(["witness", "3", "4", "--out-file", str(good)], capsys)
    assert code == 0
    bad = tmp_path / "bad.json"
    for place in ("family", "autos"):
        doc = json.loads(good.read_text())
        if place == "family":
            doc["family"]["a"][0] = value
        else:
            doc["autos"][0]["matrix"]["entries"][0]["coeffs"][1] = value
        bad.write_text(canon_dumps(doc))
        code, out = run_cli(["validate", str(bad)], capsys)
        assert code == EXIT_VALIDATION
        assert "not a rational number" in json.loads(out)["reason"]
        assert "Traceback" not in capsys.readouterr().err


def test_validate_exits_4_on_an_unbounded_interval_precision(tmp_path, capsys,
                                                             monkeypatch):
    # out of range, and not an integer: JSON true would pass as 1
    from ratsym import moduli
    f0 = random_cyclic_family(random.Random(5), 2, 1, "A")
    f1 = random_cyclic_family(random.Random(6), 2, 1, "A")
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    cert_file = tmp_path / "cert.json"
    code, _ = run_cli(["path", str(p0), str(p1), "--strategy", "interval",
                       "--precision", "32", "--out-file", str(cert_file)], capsys)
    assert code == 0
    doc = json.loads(cert_file.read_text())

    def refuse(*args):
        raise AssertionError("interval_embed ran")
    monkeypatch.setattr(moduli, "interval_embed", refuse)
    for precision in (10 ** 9, True, 32.5, "32"):
        doc["segments"][0]["proof"]["precision"] = precision
        bad = tmp_path / "bad.json"
        bad.write_text(canon_dumps(doc))
        code, out = run_cli(["validate", str(bad)], capsys)
        assert code == EXIT_VALIDATION
        assert "precision" in json.loads(out)["reason"]


def test_stored_maps_are_bounded_before_any_polynomial(tmp_path, capsys,
                                                       monkeypatch):
    # make_map takes a gcd quadratic in the length of a side, so the declared
    # degree and the length of each side are checked before it runs
    from ratsym import jsonio
    good = tmp_path / "w.json"
    code, _ = run_cli(["witness", "3", "4", "--out-file", str(good)], capsys)
    assert code == 0
    witness = json.loads(good.read_text())
    stored = witness["map"]

    def refuse(*args):
        raise AssertionError("make_map ran")
    monkeypatch.setattr(jsonio, "make_map", refuse)
    for change in ({"degree": 10 ** 9}, {"degree": MAX_DEGREE + 1},
                   {"degree": 0}, {"degree": True}, {"degree": "4"},
                   {"num": stored["num"] + ["0"]},
                   {"den": ["1"] * 10 ** 5}):
        bad_map = tmp_path / "map.json"
        bad_map.write_text(canon_dumps(dict(stored, **change)))
        assert main(["milnor", str(bad_map)]) == EXIT_PARSE
        bad = tmp_path / "bad.json"
        bad.write_text(canon_dumps(dict(witness, map=dict(stored, **change))))
        code, out = run_cli(["validate", str(bad)], capsys)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("quadratic", [False, True])
@pytest.mark.parametrize("conductor", [MAX_CONDUCTOR + 1, 10 ** 9, True, "12", 2])
def test_validate_rejects_a_conductor_before_building_a_field(tmp_path, capsys,
                                                              monkeypatch,
                                                              conductor, quadratic):
    from ratsym import jsonio
    good = tmp_path / "w.json"
    code, _ = run_cli(["witness", "3", "4", "--out-file", str(good)], capsys)
    assert code == 0
    field = {"kind": "cyclotomic", "conductor": conductor}
    if quadratic:
        field = {"kind": "quadratic", "base": field, "delta": "2"}

    def swap(obj):
        # every field record of the witness, whichever the reader meets first
        if isinstance(obj, dict):
            return {k: field if k == "field" else swap(v) for k, v in obj.items()}
        return [swap(v) for v in obj] if isinstance(obj, list) else obj
    bad = tmp_path / "bad.json"
    bad.write_text(canon_dumps(swap(json.loads(good.read_text()))))

    def refuse(n):
        raise AssertionError(f"CyclotomicField({n!r}) was built")
    monkeypatch.setattr(jsonio, "CyclotomicField", refuse)
    code, out = run_cli(["validate", str(bad)], capsys)
    assert code == EXIT_VALIDATION
    assert "conductor" in json.loads(out)["reason"]


@pytest.mark.parametrize("argv", [
    ["witness", "3", "4", "--output", "csv", "--strategy", "interval"],
    ["admissible", "--dmax", "3", "--seed", "1"],
    ["validate", "cert.json", "--precision", "64"],
])
def test_subcommands_take_only_the_options_they_read(argv, capsys):
    assert main(argv) == EXIT_PARSE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("p, d", [(MAX_CONDUCTOR + 1, MAX_CONDUCTOR + 2),
                                  (3, MAX_DEGREE + 2)])
def test_witness_refuses_what_validate_would_reject(p, d, capsys, monkeypatch):
    from ratsym import cli

    def refuse(*args):
        raise AssertionError("lemma_witness ran")
    monkeypatch.setattr(cli, "lemma_witness", refuse)
    assert main(["witness", str(p), str(d)]) == EXIT_PARSE
    assert f"d <= {MAX_DEGREE}" in capsys.readouterr().err


def _refuse_families(monkeypatch):
    from ratsym import jsonio

    def refuse(*args):
        raise AssertionError("a family was built")
    monkeypatch.setattr(jsonio, "CyclicFamily", refuse)
    monkeypatch.setattr(Poly, "inflate", refuse)


@pytest.mark.parametrize("n", [10 ** 9, MAX_DEGREE, True, 1, "3"])
def test_validate_bounds_the_family_order_before_building_it(tmp_path, capsys,
                                                             monkeypatch, n):
    witness = tmp_path / "w.json"
    code, _ = run_cli(["witness", "3", "4", "--out-file", str(witness)], capsys)
    assert code == 0
    f0 = random_cyclic_family(random.Random(5), 2, 1, "A")
    f1 = random_cyclic_family(random.Random(6), 2, 1, "A")
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    path = tmp_path / "path.json"
    code, _ = run_cli(["path", str(p0), str(p1), "--out-file", str(path)], capsys)
    assert code == 0

    _refuse_families(monkeypatch)
    docs = [json.loads(witness.read_text()), json.loads(path.read_text())]
    docs[0]["family"]["n"] = n
    docs[1]["n"] = n
    for doc in docs:
        bad = tmp_path / "bad.json"
        bad.write_text(canon_dumps(doc))
        code, out = run_cli(["validate", str(bad)], capsys)
        assert code == EXIT_VALIDATION
        assert "family" in json.loads(out)["reason"]
    # the same family read by `path` is a usage error
    fam = json.loads(p0.read_text())
    fam["n"] = n
    p0.write_text(canon_dumps(fam))
    assert main(["path", str(p0), str(p1)]) == EXIT_PARSE
    assert "family" in capsys.readouterr().err


@pytest.mark.parametrize("field", [CyclotomicField(4), CyclotomicField(12)], ids=repr)
def test_validate_bounds_the_norm_polynomial_before_parsing_it(tmp_path, capsys,
                                                               monkeypatch, field):
    # deg G <= 2r + 2, so a Sturm proof's norm has at most
    # deg_Q(K) (2r + 2) + 1 coefficients: 9 over Q(i) and 17 over Q(zeta_12)
    # for r = 1
    from ratsym import jsonio
    f0 = random_cyclic_family(random.Random(5), 2, 1, "A", field=field)
    f1 = random_cyclic_family(random.Random(6), 2, 1, "A", field=field)
    p0, p1 = tmp_path / "f0.json", tmp_path / "f1.json"
    p0.write_text(canon_dumps(family_to_json(f0)))
    p1.write_text(canon_dumps(family_to_json(f1)))
    path = tmp_path / "path.json"
    code, _ = run_cli(["path", str(p0), str(p1), "--out-file", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    proof = next(s["proof"] for s in doc["segments"] if s["proof"]["type"] == "sturm")
    assert doc["field"] == {"kind": "cyclotomic", "conductor": field.n}
    cap = {4: 9, 12: 17}[field.n]
    assert len(proof["norm_poly"]) <= cap
    parse = jsonio._frac_parse
    sentinel = "12345/678"

    def refuse(s):
        if s == sentinel:
            raise AssertionError("a norm coefficient was parsed")
        return parse(s)
    monkeypatch.setattr(jsonio, "_frac_parse", refuse)
    proof["norm_poly"] = [sentinel] * (cap + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(canon_dumps(doc))
    code, out = run_cli(["validate", str(bad)], capsys)
    assert code == EXIT_VALIDATION
    assert "norm polynomial" in json.loads(out)["reason"]
