"""One workload in a fresh, single-threaded process.

    python3 bench/worker.py --workload NAME --seconds S [--trace] [--setup-only]

With ``--setup-only`` it imports ratsym, builds the workload's inputs, prints
``ready`` with the CPU seconds spent so far, and exits.  Otherwise it runs
whole rounds of the workload's items, at least one, as long as the next
round is expected to end within S seconds (and with ``--trace`` one more,
traced round), then checks every certificate apart from ratsym and prints
one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ratsym  # noqa: E402

from reference import START_SLICES, Meter  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import make_items  # noqa: E402

TRACE_DIR = ROOT / ".bench_out"


@dataclass
class Round:
    """Times and outputs of one pass over every item."""
    times: dict = field(default_factory=dict)   # item index -> (build s, validate s)
    texts: dict = field(default_factory=dict)   # item index -> text or None
    failures: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)    # item index -> (start, end), CPU clock
    meter: Meter = field(default_factory=Meter)  # reference slices between the items

    def scaled_times(self) -> dict:
        """``times`` at the reference speed of the machine."""
        out = {}
        for idx, (b, v) in self.times.items():
            k = self.meter.slowness(self.spans[idx])
            out[idx] = (b / k, v / k)
        return out

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in sorted(self.texts):
            if self.texts[idx] is not None:
                h.update(self.texts[idx].encode())
        return h.hexdigest()

    def build_s(self) -> float:
        return sum(b for b, _ in self.scaled_times().values())


def summarise(rounds: list) -> dict:
    """End-to-end metrics from each item's median over the rounds.

    Every time is the worker's CPU time, which leaves out time in which
    other processes hold the processor, divided by the slowness of the
    machine around the item (see ``reference.py``).  The median of an
    item's rounds does not depend on how many rounds fitted into the run, as
    the fastest of them would.
    """
    scaled = [r.scaled_times() for r in rounds]
    per_item = [[t[idx] for t in scaled if idx in t]
                for idx in sorted({idx for t in scaled for idx in t})]
    build = [statistics.median(b for b, _ in t) for t in per_item]
    validate = [statistics.median(v for _, v in t) for t in per_item]
    item_ms = sorted(statistics.median(b + v for b, v in t) * 1000 for t in per_item)
    return {
        "build_s": sum(build),
        "validate_s": sum(validate),
        "item_p50_ms": statistics.median(item_ms),
        # the item time with exactly ten items beyond it
        "item_tail_ms": item_ms[max(len(item_ms) - 11, 0)],
        "cert_bytes": sum(len(t.encode()) for t in rounds[0].texts.values()
                          if t is not None),
    }


def run_round(items, tracer=None) -> Round:
    clock = time.process_time
    call = tracer.call if tracer else lambda _name, _item, fn, *args: fn(*args)
    out = Round()
    for idx, item in enumerate(items):
        # each item starts with an empty heap of young objects, so that the
        # collector does the same work for it in every round and every run
        gc.collect()
        try:
            t0 = clock()
            text = call("bench.build", idx, item.build)
            t1 = clock()
            if text is not None:
                call("bench.validate", idx, item.validate, text)
            t2 = clock()
        except Exception as exc:  # a failed operation is counted, not fatal
            out.failures.append(f"{item.label}: {type(exc).__name__}: {exc}")
            out.meter.follow(clock() - t0)
            continue
        out.meter.follow(t2 - t0)
        out.times[idx] = (t1 - t0, t2 - t1)
        out.spans[idx] = (t0, t2)
        out.texts[idx] = text
    return out


def _bump(elem):
    """The JSON element plus one."""
    if isinstance(elem, str):
        return str(Fraction(elem) + 1)
    if "coeffs" in elem:
        return dict(elem, coeffs=[_bump(elem["coeffs"][0])] + elem["coeffs"][1:])
    return dict(elem, a=_bump(elem["a"]))


def tamper(workload: str, text: str) -> str:
    """The certificate with one coefficient changed: the requested end
    family of a path, the target map of a chain's conjugation leg, the map
    of a witness."""
    doc = json.loads(text)
    if workload == "paths":
        vec = doc["segments"][-1]["end_a"]
    elif workload == "chains":
        vec = next(leg for leg in doc["legs"] if leg["type"] == "conjugation")["target"]["num"]
    else:
        vec = doc["map"]["num"]
    vec[0] = _bump(vec[0])
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def check_outputs(workload: str, items, rounds: list) -> list:
    """Problems found by the independent checks, the determinism check and
    the tamper check."""
    import checks  # sympy is imported only after the timed part

    problems = []
    first = rounds[0]
    if len({r.digest() for r in rounds}) != 1:
        problems.append("certificate bytes differ between rounds")
    for idx, text in first.texts.items():
        try:
            checks.check(workload, text, items[idx].meta)
        except Exception as exc:  # every check failure is reported, none stops the run
            problems.append(f"{items[idx].label}: {type(exc).__name__}: {exc}")
    idx = next((i for i, t in first.texts.items() if t is not None), None)
    if idx is None:
        return problems + ["no certificate to tamper with"]
    bad = tamper(workload, first.texts[idx])
    try:
        items[idx].validate(bad)
        problems.append(f"{items[idx].label}: tampered certificate accepted")
    except Exception:  # any rejection counts
        pass
    try:
        checks.check(workload, bad, items[idx].meta)
        problems.append(f"{items[idx].label}: checks accept a tampered certificate")
    except checks.CheckFailed:
        pass
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(ratsym.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ratsym imported from {ratsym.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    items = make_items(args.workload)
    if args.setup_only:
        # CPU time of this process since it started, interpreter start-up
        # included, and the slowness of the machine right after it
        setup_s = time.process_time()
        meter = Meter()
        meter.run(START_SLICES)
        print("ready", setup_s, meter.slowness(), flush=True)
        return 0

    # whole rounds, as long as the next one is expected to end in time
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(items))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = dict(summarise(rounds), peak_rss_mb=peak_rss_mb)

    layers = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(items, tracer)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        for m in layers.values():      # to the reference speed, as build_s
            if m["unit"] == "s":
                m["value"] /= traced.meter.slowness()
        layers["trace.overhead_s"] = {
            "value": traced.build_s() - metrics["build_s"], "unit": "s"}
        rounds.append(traced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}.jsonl")

    problems = check_outputs(args.workload, items, rounds)
    failures = [f for r in rounds for f in r.failures]
    print(json.dumps({
        "items": len(items),
        "rounds": len(rounds),
        "attempted": len(items) * len(rounds),
        "failed": len(failures),
        "failures": failures[:20],
        "problems": problems[:20],
        "correct": not problems,
        "digest": rounds[0].digest(),
        "slowness": [r.meter.slowness() for r in rounds],
        "metrics": metrics,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
