"""The benchmark's tracer reads ``IntervalProof.boxes`` to count the tiles
of each interval proof (``moduli.interval_boxes``); this holds that name and
its meaning in place from the library's side."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from ratsym import moduli  # noqa: E402
from ratsym.fields import QQ  # noqa: E402
from ratsym.symmetry import CyclicFamily  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tracer_counts_the_tiles_of_an_interval_path():
    # the straight segment certifies on three tiles, with no detour whose
    # proofs would be counted and then discarded
    f0 = CyclicFamily(2, 1, "A", (QQ(-1), QQ(-5)), (QQ(-2), QQ(-2)))
    f1 = CyclicFamily(2, 1, "A", (QQ(-4), QQ(-3)), (QQ(-9), QQ(8)))
    item = workloads._path_item("traced", f0, f1, "interval", 3)
    original = moduli._interval_segment_proof
    tracer = Tracer()
    tracer.install()
    try:
        text = tracer.call("bench.build", 0, item.build)
        tracer.call("bench.validate", 0, item.validate, text)
    finally:
        tracer.uninstall()
    assert moduli._interval_segment_proof is original
    tiles = sum(len(seg["proof"]["boxes"]) for seg in json.loads(text)["segments"])
    metrics = {name: m["value"] for name, m in tracer.metrics().items()}
    assert tiles == 3
    assert metrics["moduli.interval_boxes"] == tiles
