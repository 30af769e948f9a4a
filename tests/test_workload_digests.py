"""The certificates of the three benchmark workloads, byte for byte.

Every item of ``bench/workloads.py`` is built once, without validation, and
its canonical JSON text is hashed in item order, as the benchmark's worker
hashes a round.  The digests and byte counts are those of the certificates
the benchmark has always produced, so a kernel change that alters one byte
of any path, chain or witness fails here without running the benchmark.
"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

DIGESTS = {
    "paths": ("a4426087362d3075e2f3f141f9dc04aebb3c002d47d3653cd3bae675d6fb41a4", 128234),
    "chains": ("0333eac6d68cb3d7567355284f28ab70766fdc3c48300fc997f080cd1ef9b39e", 146691),
    "witnesses": ("2dd24ec91cce4b092674d651f8f42b2074bf1f1e5e90d5a57e9a76f4c986570e", 83212),
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_certificates_keep_their_bytes(workload):
    h, size = hashlib.sha256(), 0
    for item in workloads.make_items(workload):
        text = item.build()
        if text is not None:
            data = text.encode()
            h.update(data)
            size += len(data)
    assert (h.hexdigest(), size) == DIGESTS[workload]
