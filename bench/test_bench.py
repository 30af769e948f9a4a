"""Tests of the benchmark's own correctness checks, tracer and speed meter.

    PYTHONPATH=src python -m pytest -q bench

Each independent check must accept what ratsym emits and reject a wrong
output: a tampered coefficient, a wrong automorphism order, a non-empty
pair marked provably empty.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from ratsym import moduli, poly  # noqa: E402
from ratsym.fields import QQ, CyclotomicField  # noqa: E402
from ratsym.symmetry import classify_lemma_case, cyclic_admissible, random_cyclic_family  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from worker import tamper  # noqa: E402


def _path(field, strategy="sturm"):
    import random
    rng = random.Random(5)
    f0 = random_cyclic_family(rng, 2, 1, "A", field=field)
    f1 = random_cyclic_family(rng, 2, 1, "A", field=field)
    item = workloads._path_item("test", f0, f1, strategy, 1)
    return item.build(), item.meta


@pytest.fixture(scope="module")
def chain():
    item = workloads.chains_items()[0]
    return item.build(), item.meta


@pytest.fixture(scope="module")
def witness():
    item = next(i for i in workloads.witnesses_items() if i.meta == {"p": 3, "d": 4})
    return item.build(), item.meta


@pytest.mark.parametrize("field", [QQ, CyclotomicField(4)], ids=["Q", "Q(i)"])
def test_path_check_accepts_and_rejects_tampered_coefficient(field):
    text, meta = _path(field)
    checks.check("paths", text, meta)
    with pytest.raises(CheckFailed, match="requested family"):
        checks.check("paths", tamper("paths", text), meta)


def test_sturm_norm_check_rejects_root_or_square():
    checks.check_sturm_norm(["3", "0", "1"])                      # t^2 + 3
    with pytest.raises(CheckFailed, match=r"root in \[0, 1\]"):
        checks.check_sturm_norm(["-1/2", "1"])                    # t - 1/2
    with pytest.raises(CheckFailed, match="square-free"):
        checks.check_sturm_norm(["4", "-4", "1"])                 # (t - 2)^2


def test_obstruction_check_rejects_degenerate_segment():
    # the straight segment of acceptance criterion 8 that crosses the
    # degenerate locus
    seg = {"start_a": ["1", "1"], "start_b": ["1", "2"],
           "end_a": ["-3", "1"], "end_b": ["-4", "1"]}
    with pytest.raises(CheckFailed, match="real root"):
        checks.check_obstruction(seg, "A", 1)


def test_chain_check_rejects_tampering_and_gaps(chain):
    text, meta = chain
    checks.check("chains", text, meta)
    with pytest.raises(CheckFailed, match="U o source"):
        checks.check("chains", tamper("chains", text), meta)
    doc = json.loads(text)
    doc["legs"][1] = {"type": "gap"}
    with pytest.raises(CheckFailed, match="gap"):
        checks.check("chains", json.dumps(doc), meta)
    doc = json.loads(text)
    doc["legs"][-1]["cert"]["segments"][-1]["end_b"][-1] = "7"
    with pytest.raises(CheckFailed, match="second family"):
        checks.check("chains", json.dumps(doc), meta)


def test_witness_check_rejects_tampered_map_and_wrong_order(witness):
    text, meta = witness
    checks.check("witnesses", text, meta)
    with pytest.raises(CheckFailed):
        checks.check("witnesses", tamper("witnesses", text), meta)
    doc = json.loads(text)
    # both orders still recorded, but each on the wrong matrix
    first, second = doc["autos"]
    first["order"], second["order"] = second["order"], first["order"]
    with pytest.raises(CheckFailed, match="recorded order"):
        checks.check("witnesses", json.dumps(doc), meta)


def test_exact_degree_check_rejects_common_factor():
    # (1 + z) / (z^2 - 1) claims degree 2 but is 1 / (z - 1)
    reducible = {"num": ["1", "1"], "den": ["-1", "0", "1"], "degree": 2,
                 "field": {"kind": "rational"}}
    with pytest.raises(CheckFailed, match="share a factor"):
        checks.check_exact_degree(reducible, 2)
    checks.check_exact_degree(dict(reducible, num=["2", "1"]), 2)


def test_empty_check_rejects_a_nonempty_pair():
    checks.check("witnesses", None, {"p": 5, "d": 5})
    with pytest.raises(CheckFailed, match="A4"):
        checks.check("witnesses", None, {"p": 3, "d": 9})


def test_group_congruences_agree_with_program_classification():
    for p in workloads.WITNESS_PRIMES:
        for d in range(2, workloads.WITNESS_DMAX + 1):
            if cyclic_admissible(d, p):
                empty = not checks.admissible_groups(p, d)
                assert empty == (classify_lemma_case(p, d) == "provably_empty"), (p, d)


def test_tracer_counts_layers_and_restores_functions():
    import random
    original = moduli.resultant
    f0 = random_cyclic_family(random.Random(1), 2, 1, "A")
    f1 = random_cyclic_family(random.Random(2), 2, 1, "A")
    item = workloads._path_item("traced", f0, f1, "sturm", 3)
    tracer = Tracer()
    tracer.install()
    try:
        assert moduli.resultant is not original
        text = tracer.call("bench.build", 0, item.build)
        tracer.call("bench.validate", 0, item.validate, text)
    finally:
        tracer.uninstall()
    assert moduli.resultant is original is poly.resultant
    metrics = {name: m["value"] for name, m in tracer.metrics().items()}
    assert metrics["moduli.build_path_s"] > 0
    assert metrics["moduli.validate_path_s"] > 0
    assert metrics["poly.resultant_calls"] > 0
    assert metrics["fields.mul_calls"] > 0
    assert metrics["moduli.sturm_attempts"] >= 2
    assert 0 < metrics["moduli.certify_yield"] <= 1
    assert all(span[0] for span in tracer.spans)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == LAYER_METRICS


def test_slowness_uses_the_slices_around_an_item():
    unit = reference.NOMINAL_SLICE_S
    meter = reference.Meter()
    # (start, CPU seconds, count) of three batches of slices
    far = 0.5 + 2 * reference.WINDOW_S
    meter.marks = [(0.0, 2 * unit, 1), (0.5, 4 * unit, 2), (far, 9 * unit, 3)]
    assert meter.slowness((0.2, 0.2)) == pytest.approx(2.0)
    assert meter.slowness((far, far)) == pytest.approx(3.0)
    assert meter.slowness((0.2, far)) == pytest.approx(15 / 6)
    assert meter.slowness() == pytest.approx(15 / 6)
    meter.follow(0.0)           # at least one slice, however short the work
    assert meter.marks[-1][2] == 1
