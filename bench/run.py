"""kmatchlab benchmark: one workload, measured for about ``--seconds``.

    python3 bench/run.py --workload {search,large_count} \\
        --seed N --seconds S --trace {0,1}

The program is imported from the checkout's ``src``.  Every sample is a
fresh interpreter (bench/child.py) with ``KMATCH_THREADS=1``.  A run starts
one untimed interpreter that only sets up (it fills the file cache and the
bytecode cache), then runs whole bodies, one per interpreter, until
``--seconds`` have passed (at least one).  Untraced, each body is followed
by one interpreter that only sets up, so ``setup_s`` is sampled twice per
body over the same stretch of time as ``run_s``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics (medians over the run's bodies) with ``--trace 1``.  ``run_s`` is
the mean body time, the run's body time over its body count, and
``ops_per_s`` the run's operations over its body time; ``setup_s`` and
``peak_rss_mb`` are medians.

Exits with status 2, printing no result, when the checkout has no
``src/kmatchlab`` or a sample interpreter fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 150  # one sample; a run must end within 180 s


class SampleError(Exception):
    pass


def _sample(workload: str, seed: int, mode: str, trace: int) -> dict:
    env = dict(os.environ, KMATCH_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode, as installs do
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{mode} sample timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{mode} sample exited with status {proc.returncode}")
    try:
        reply = json.loads(lines[-1])
    except ValueError as exc:
        raise SampleError(f"{mode} sample printed no result: {lines[-1][:200]!r}") from exc
    reply["setup_s"] = reply["ready"] - start
    return reply


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kmatchlab", "__init__.py")):
        print(f"error: no src/kmatchlab under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)

    try:
        _sample(args.workload, args.seed, "setup", 0)  # warm-up, not counted
        setups, bodies = [], []
        start = time.perf_counter()
        while not bodies or time.perf_counter() - start < args.seconds:
            bodies.append(_sample(args.workload, args.seed, "run", args.trace))
            setups.append(bodies[-1]["setup_s"])
            if not args.trace:
                setups.append(_sample(args.workload, args.seed, "setup", 0)["setup_s"])
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the mean, not the median: on a shared host the speed can sit in a fast
    # or a slow band for tens of seconds; a median jumps from band to band,
    # a mean moves with the share of the run spent in each
    body_s = sum(b["run_s"] for b in bodies)
    print(f"{args.workload}: {len(bodies)} bodies, run_s "
          + ", ".join(f"{b['run_s']:.3f}" for b in bodies), file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(b["layers"][name] for b in bodies), "unit": unit}
            for name, unit, _source, _stat in PER_LAYER
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": body_s / len(bodies), "unit": "s"},
            "ops_per_s": {"value": sum(b["ops"] for b in bodies) / body_s, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(b["rss_mb"] for b in bodies), "unit": "MB"},
        }
    result = {
        "correct": all(b["correct"] for b in bodies),
        "attempted": sum(b["ops"] for b in bodies),
        "failed": sum(b["failed"] for b in bodies),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
