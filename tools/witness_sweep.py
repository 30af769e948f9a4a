"""Build, parse and verify every lemma witness of small degree.

For every odd prime p <= PMAX and every degree 2 <= d <= DMAX in which
order p occurs, ``lemma_witness(p, d)`` is built and serialised to
canonical JSON; a pair raising ``WitnessUnavailable`` with analysis
``provably_empty`` is counted and skipped.  Each certificate is then parsed
back and checked as ``ratsym validate`` checks a witness: its automorphisms
exactly, its family against its map, and the group its automorphisms
generate against the group it names.  The script prints the CPU time of
each phase, the counts, and the SHA-256 of all certificates, one per line in
the order built, so that a change to the library can be checked to leave
every byte as it was.

    PYTHONPATH=src python3 tools/witness_sweep.py [--dmax 100] [--pmax 101]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

from ratsym.cli import _generated_group
from ratsym.jsonio import canon_dumps, witness_from_json, witness_to_json
from ratsym.ratmap import maps_equal
from ratsym.symmetry import (WitnessUnavailable, build_cyclic, cyclic_admissible,
                             lemma_witness)


def _odd_primes(bound: int) -> list[int]:
    return [p for p in range(3, bound + 1, 2) if all(p % q for q in range(3, p, 2))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dmax", type=int, default=100)
    ap.add_argument("--pmax", type=int, default=101)
    args = ap.parse_args(argv)

    texts, empty = [], 0
    start = time.process_time()
    for p in _odd_primes(args.pmax):
        for d in range(2, args.dmax + 1):
            if not cyclic_admissible(d, p):
                continue
            try:
                report = lemma_witness(p, d)
            except WitnessUnavailable as exc:
                if exc.analysis != "provably_empty":
                    raise
                empty += 1
                continue
            texts.append(canon_dumps(witness_to_json(report)))
    build = time.process_time() - start

    start = time.process_time()
    for text in texts:
        report = witness_from_json(json.loads(text))
        if (not report.verify()
                or not maps_equal(build_cyclic(report.family), report.map)
                or _generated_group(report.autos) != report.group):
            raise SystemExit("a witness failed verification")
    verify = time.process_time() - start

    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    print(f"witnesses {len(texts)}, provably empty {empty}")
    print(f"build CPU {build:.2f} s, parse+verify CPU {verify:.2f} s")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
