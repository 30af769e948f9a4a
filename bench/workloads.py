"""Inputs and items of the three benchmark workloads.

One item is one certificate: built and serialised to canonical JSON, then
parsed back and revalidated, as ``ratsym path|connect|witness`` followed by
``ratsym validate`` would do.  Inputs are fixed by the generator seeds below,
so every run of a workload certifies the same inputs and emits the same
certificate bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ratsym.fields import QQ, CyclotomicField
from ratsym.jsonio import (canon_dumps, connectivity_from_json,
                           connectivity_to_json, path_cert_from_json,
                           path_cert_to_json, witness_from_json,
                           witness_to_json)
from ratsym.moduli import (CertificateInvalid, build_path,
                           connectivity_certificate,
                           validate_connectivity_certificate,
                           validate_path_certificate)
from ratsym.ratmap import maps_equal
from ratsym.symmetry import (WitnessUnavailable, build_cyclic,
                             cyclic_admissible, lemma_witness,
                             random_cyclic_family)

# Seed of the family pairs of the paths workload.  Pairs drawn per run seed
# spread build_s by about 19% (coefficient of variation over 8 seeds), which
# no bound of at most 25% can hold, so the inputs are fixed.
PATHS_SEED = 88

# Chains: (degree, odd prime, number of family seeds).  Each entry takes the
# first admissible case of the order-p locus and the order-2 family that the
# witness of that degree lands in, so every chain is gap-free.  Most chains
# have degree 6, so that the median and the tail item both fall inside one
# dense cluster of similar chains rather than in a gap between clusters,
# where a small change of speed would move the percentile from one chain to
# another.  Degree 11 is left out, because one such chain takes 8 s, more
# than half the time of the other 40 chains together; (9, 3) is left out,
# because its witness is tetrahedral and connectivity_certificate fails on
# it.
CHAIN_PLAN = ((4, 3, 5), (4, 5, 5), (5, 3, 2), (6, 3, 11), (6, 7, 11), (7, 3, 2),
              (8, 3, 1), (8, 7, 1), (9, 5, 1), (10, 5, 1))

# Order-2 (case, r) reached from the order-p witness of each chain degree.
CHAIN_ORDER2 = {4: ("B", 2), 5: ("A", 2), 6: ("B", 3), 7: ("A", 3),
                8: ("B", 4), 9: ("A", 4), 10: ("B", 5)}

WITNESS_PRIMES = (3, 5, 7, 11, 13)
WITNESS_DMAX = 40


@dataclass(frozen=True)
class Item:
    """One certificate of a workload.

    ``build`` returns the canonical JSON text, or ``None`` for a witness pair
    that is correctly reported provably empty.  ``validate`` parses a text
    and raises when the program rejects it.  ``meta`` holds what the
    independent checks need to know about the request.
    """
    label: str
    build: Callable[[], Optional[str]]
    validate: Callable[[str], None]
    meta: dict


def _family_meta(fam) -> dict:
    return {"n": fam.n, "r": fam.r, "case": fam.case,
            "conductor": getattr(fam.field, "n", 1),
            "a": [c.payload for c in fam.a], "b": [c.payload for c in fam.b]}


def _validate_path(text: str) -> None:
    validate_path_certificate(path_cert_from_json(json.loads(text)))


def _validate_chain(text: str) -> None:
    validate_connectivity_certificate(connectivity_from_json(json.loads(text)))


def _validate_witness(text: str) -> None:
    # the checks of ``ratsym validate`` for a witness certificate
    report = witness_from_json(json.loads(text))
    if not report.verify():
        raise CertificateInvalid("automorphism verification failed")
    if not maps_equal(build_cyclic(report.family), report.map):
        raise CertificateInvalid("family does not rebuild the map")


def _path_item(label, f0, f1, strategy, detour_seed) -> Item:
    def build():
        cert = build_path(f0, f1, strategy, random.Random(detour_seed))
        return canon_dumps(path_cert_to_json(cert))
    return Item(label, build, _validate_path,
                {"start": _family_meta(f0), "end": _family_meta(f1)})


def paths_items() -> list[Item]:
    """Every admissible (d, n, case) with d = 3..6: one pair over Q and one
    over Q(i), each certified with "sturm" and with "interval", and one pair
    each over Q(zeta_3) and Q(zeta_5) with the default "sturm"."""
    rng = random.Random(PATHS_SEED)
    kinds = ((QQ, ("sturm", "interval")),
             (CyclotomicField(4), ("sturm", "interval")),
             (CyclotomicField(3), ("sturm",)),
             (CyclotomicField(5), ("sturm",)))
    items = []
    for d in (3, 4, 5, 6):
        for n in range(2, d + 2):
            for case, r in cyclic_admissible(d, n):
                for K, strategies in kinds:
                    f0 = random_cyclic_family(rng, n, r, case, field=K)
                    f1 = random_cyclic_family(rng, n, r, case, field=K)
                    detour_seed = rng.randrange(1 << 32)
                    for strategy in strategies:
                        label = f"d={d} n={n} {case} {K!r} {strategy}"
                        items.append(_path_item(label, f0, f1, strategy,
                                                detour_seed))
    return items


def chains_items() -> list[Item]:
    items = []
    for d, p, copies in CHAIN_PLAN:
        case, r = cyclic_admissible(d, p)[0]
        case2, r2 = CHAIN_ORDER2[d]
        for k in range(copies):
            rng = random.Random(1000 * d + 10 * p + k)
            f0 = random_cyclic_family(rng, p, r, case)
            f1 = random_cyclic_family(rng, 2, r2, case2)
            detour_seed = rng.randrange(1 << 32)
            # every other chain starts at the order-2 end, which makes
            # connectivity_certificate reverse the order-p legs
            if len(items) % 2:
                f0, f1 = f1, f0

            def build(f0=f0, f1=f1, detour_seed=detour_seed):
                cert = connectivity_certificate(f0, f1, "sturm",
                                                random.Random(detour_seed))
                return canon_dumps(connectivity_to_json(cert))
            items.append(Item(f"d={d} {f0.n}->{f1.n} #{k}", build, _validate_chain,
                              {"degree": d, "start": _family_meta(f0),
                               "end": _family_meta(f1)}))
    return items


def witnesses_items() -> list[Item]:
    """All (p, d) pairs of acceptance criterion 6."""
    items = []
    for p in WITNESS_PRIMES:
        for d in range(2, WITNESS_DMAX + 1):
            if not cyclic_admissible(d, p):
                continue

            def build(p=p, d=d):
                try:
                    report = lemma_witness(p, d)
                except WitnessUnavailable as exc:
                    if exc.analysis != "provably_empty":
                        raise
                    return None
                return canon_dumps(witness_to_json(report))
            items.append(Item(f"p={p} d={d}", build, _validate_witness,
                              {"p": p, "d": d}))
    return items


def make_items(workload: str) -> list[Item]:
    return {"paths": paths_items, "chains": chains_items,
            "witnesses": witnesses_items}[workload]()
