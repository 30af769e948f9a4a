"""Spans and counters around ratsym's layers, patched in from outside.

The tracer wraps the functions listed in :data:`SPANS` and :data:`COUNTS`
wherever they are bound: in the module that defines them and in every module
that imported them by name (``moduli`` and ``symmetry`` import the ``poly``
and ``ratmap`` functions that way, and the benchmark's own ``workloads``
imports the ``jsonio`` ones).  Nothing under ``src/`` changes.

A span records (name, parent span, item, start, end) in memory; counters
count calls, and a few hooks look at return values (failed proofs, boxes
kept, segments certified).  ``FieldElement`` multiplications and divisions
are counted with no spans, because there are millions of them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name; a dotted attribute is a method
SPANS = {
    ("ratsym.fields", "interval_embed"): "fields.interval_embed",
    ("ratsym.poly", "resultant"): "poly.resultant",
    ("ratsym.poly", "interpolate"): "poly.interpolate",
    ("ratsym.poly", "Poly.divmod"): "poly.divmod",
    ("ratsym.poly", "poly_gcd"): "poly.gcd",
    ("ratsym.poly", "sturm_roots_in_interval"): "poly.sturm",
    ("ratsym.poly", "nullspace"): "poly.nullspace",
    ("ratsym.moduli", "_segment_obstruction"): "moduli.obstruction",
    ("ratsym.moduli", "_sturm_segment_proof"): "moduli.sturm_proof",
    ("ratsym.moduli", "_interval_segment_proof"): "moduli.interval_proof",
    ("ratsym.moduli", "build_path"): "moduli.build_path",
    ("ratsym.moduli", "validate_path_certificate"): "moduli.validate_path",
    ("ratsym.moduli", "connectivity_certificate"): "moduli.connectivity",
    ("ratsym.moduli", "_reverse_path_certificate"): "moduli.reverse",
    ("ratsym.moduli", "involution_to_standard"): "moduli.involution",
    ("ratsym.moduli", "validate_connectivity_certificate"):
        "moduli.validate_connectivity",
    ("ratsym.symmetry", "lemma_witness"): "symmetry.lemma_witness",
    ("ratsym.symmetry", "build_cyclic"): "symmetry.build_cyclic",
    ("ratsym.symmetry", "cyclic_family_from_map"): "symmetry.family_from_map",
    ("ratsym.ratmap", "is_automorphism"): "ratmap.is_automorphism",
    ("ratsym.ratmap", "conjugate"): "ratmap.conjugate",
    ("ratsym.ratmap", "compose"): "ratmap.compose",
    ("ratsym.mobius", "mobius_order"): "mobius.order",
    ("ratsym.mobius", "group_closure"): "mobius.closure",
    ("ratsym.jsonio", "canon_dumps"): "jsonio.dump",
    ("ratsym.jsonio", "path_cert_to_json"): "jsonio.dump",
    ("ratsym.jsonio", "connectivity_to_json"): "jsonio.dump",
    ("ratsym.jsonio", "witness_to_json"): "jsonio.dump",
    ("ratsym.jsonio", "path_cert_from_json"): "jsonio.parse",
    ("ratsym.jsonio", "connectivity_from_json"): "jsonio.parse",
    ("ratsym.jsonio", "witness_from_json"): "jsonio.parse",
}

# (module, attribute) -> counter name, for calls too frequent for spans
COUNTS = {
    ("ratsym.fields", "FieldElement.__mul__"): "fields.mul_calls",
    ("ratsym.fields", "FieldElement.__rmul__"): "fields.mul_calls",
    ("ratsym.fields", "FieldElement.__truediv__"): "fields.inv_calls",
    ("ratsym.moduli", "_interval_eval"): "moduli.interval_evals",
    ("ratsym.moduli", "_certify_segment"): "moduli.certify_attempts",
    # build_path draws one random intermediate family per detour
    ("ratsym.moduli", "random_cyclic_family"): "moduli.detours",
}


# (name, unit, better) of every per-layer metric a traced run reports
LAYER_METRICS = [(name, "s" if name.endswith("_s") else
                  "ratio" if name.endswith("yield") else "count",
                  "higher" if name.endswith("yield") else "lower")
                 for name in (
    "cli.start_s",
    "fields.mul_calls", "fields.inv_calls", "fields.interval_embed_s",
    "poly.resultant_s", "poly.resultant_calls", "poly.interpolate_s",
    "poly.divmod_s", "poly.divmod_calls", "poly.gcd_s", "poly.sturm_s",
    "poly.nullspace_s", "poly.self_s",
    "moduli.obstruction_s", "moduli.sturm_proof_s", "moduli.sturm_attempts",
    "moduli.sturm_failed", "moduli.interval_proof_s",
    "moduli.interval_attempts", "moduli.interval_failed",
    "moduli.interval_evals", "moduli.interval_boxes", "moduli.certify_yield",
    "moduli.detours", "moduli.build_path_s", "moduli.validate_path_s",
    "moduli.connectivity_s", "moduli.reverse_s", "moduli.involution_s",
    "moduli.validate_connectivity_s", "moduli.self_s",
    "symmetry.lemma_witness_s", "symmetry.build_cyclic_s",
    "symmetry.family_from_map_s", "symmetry.self_s",
    "ratmap.is_automorphism_s", "ratmap.is_automorphism_calls",
    "ratmap.conjugate_s", "ratmap.compose_s", "ratmap.self_s",
    "mobius.order_s", "mobius.closure_s", "mobius.self_s",
    "jsonio.dump_s", "jsonio.parse_s", "jsonio.self_s",
    "trace.overhead_s")]


def _outcome(counts: Counter, name: str, result) -> None:
    """Counters that depend on what a traced call returned."""
    if name == "moduli.sturm_proof":
        counts["moduli.sturm_attempts"] += 1
        counts["moduli.sturm_failed"] += result is None
    elif name == "moduli.interval_proof":
        counts["moduli.interval_attempts"] += 1
        counts["moduli.interval_failed"] += result is None
        if result is not None:
            counts["moduli.interval_boxes"] += len(result.boxes)
    elif name == "moduli.certify_attempts":
        counts["moduli.certified"] += result is not None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index, item, start, end]
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.item, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            _outcome(counts, name, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            _outcome(counts, name, result)
            return result
        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for (module, attr), name in table.items():
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, make(original, name))
                    continue
                original = getattr(owner, attr)
                wrapper = make(original, name)
                # every module that imported the function by name
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(attr) is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def call(self, name: str, item: int, fn, *args):
        """Run ``fn`` as the root span of one item's build or validation."""
        self.item = item
        return self._span_wrapper(fn, name)(*args)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of :data:`LAYER_METRICS` except the ones
        measured outside the traced round (``cli.start_s`` and
        ``trace.overhead_s``).

        ``<span>_s`` is the total time of a span name, counting nested spans
        of the same name once; ``<layer>.self_s`` is the time of the layer's
        spans not covered by their child spans.
        """
        total: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        counts = Counter(self.counts)
        spans = self.spans
        for name, parent, _item, start, end in spans:
            duration = end - start
            counts[name + "_calls"] += 1
            self_time[name.split(".")[0] + ".self"] += duration
            if parent >= 0:
                self_time[spans[parent][0].split(".")[0] + ".self"] -= duration
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                total[name] += duration
        out = {}
        for name, unit, _better in LAYER_METRICS:
            if name in ("cli.start_s", "trace.overhead_s"):
                continue
            if name == "moduli.certify_yield":
                attempts = counts["moduli.certify_attempts"]
                value = counts["moduli.certified"] / attempts if attempts else 0.0
            elif name.endswith(".self_s"):
                value = self_time.get(name[:-2], 0.0)
            elif name.endswith("_s"):
                value = total.get(name[:-2], 0.0)
            else:
                value = counts[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Write the spans, one JSON list per line, and the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "item", "start", "end"],
                                 "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
