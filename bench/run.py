"""Benchmark of ratsym, end to end and layer by layer.

    python3 bench/run.py --workload paths|chains|witnesses --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded Python process (``worker.py``).  Every time is CPU time.
Set-up time is the median of several fresh starts of that process, each
the CPU time it spends from its start until its inputs are ready.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer ones from an extra traced round with ``--trace 1``.  The inputs
are fixed by the workload definitions; the seed is accepted and echoed, and
changes nothing (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paths", "chains", "witnesses")
SETUP_STARTS = 5        # timed fresh starts before and again after the workload
CLI_STARTS = 5
DEADLINE_S = 170        # the whole run must end within 180 s

E2E_UNITS = {"setup_s": "s", "build_s": "s", "validate_s": "s",
             "item_p50_ms": "ms", "item_tail_ms": "ms", "cert_bytes": "bytes",
             "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _timed_start(cmd: list, env: dict) -> float:
    """CPU seconds that a fresh ``cmd`` spends from its start until it is
    ready, at the reference speed.  It reports them on its first line as
    ``ready <CPU seconds> <slowness of the machine>``."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        word, *values = proc.stdout.readline().split()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or word != "ready" or len(values) != 2:
            raise RuntimeError(f"{' '.join(cmd)} failed")
    seconds, slowness = map(float, values)
    return seconds / slowness


def setup_starts(workload: str, env: dict, count: int) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--setup-only"]
    return [_timed_start(cmd, env) for _ in range(count)]


def cli_start_seconds(env: dict) -> float:
    cmd = [sys.executable, "-c",
           "import sys, time, ratsym.cli; t = time.process_time(); "
           f"sys.path.insert(0, {str(HERE)!r}); from reference import START_SLICES, Meter; "
           "m = Meter(); m.run(START_SLICES); print('ready', t, m.slowness())"]
    return statistics.median(_timed_start(cmd, env) for _ in range(CLI_STARTS))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ratsym" / "__init__.py").is_file():
        print(f"no ratsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = _env()
    if args.trace:
        cli_start = cli_start_seconds(env)
    else:
        setup_starts(args.workload, env, 1)      # warm-up: fills bytecode caches
        # timed starts on both sides of the workload, tens of seconds apart,
        # so that one slow spell of a shared machine does not set the median
        starts = setup_starts(args.workload, env, SETUP_STARTS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("worker did not finish in time", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        starts += setup_starts(args.workload, env, SETUP_STARTS)

    if args.trace:
        metrics = dict(res["layers"])
        metrics["cli.start_s"] = {"value": cli_start, "unit": "s"}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(starts))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(f"workload {args.workload}  seed {args.seed} (inputs are fixed)  "
          f"items {res['items']}  rounds {res['rounds']}")
    print(f"certificate digest sha256:{res['digest']}")
    print("slowness of the machine by round: "
          + " ".join(f"{k:.3f}" for k in res["slowness"]))
    for line in res["failures"]:
        print(f"failed: {line}")
    for line in res["problems"]:
        print(f"check failed: {line}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
