"""One measured interpreter: set up a workload, run its body once, check it.

run.py starts this script in a fresh interpreter for every sample, so each
body pays its own cold caches (the f table) and owns its peak RSS.  It
prints one JSON line: ``ready`` (``time.perf_counter()`` when set-up
ended; the clock is system-wide, so run.py subtracts its own start time),
and in ``--mode run`` also the body's wall time, the peak RSS, the counts
of attempted and failed operations and, with ``--trace 1``, the per-layer
metrics.  The traced run also writes its spans to
``bench/_out/trace-<workload>.{json,spans}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "_out")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import kmatchlab
    import kmatchlab.cli  # noqa: F401  (search runs through it)

    if not os.path.abspath(kmatchlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"kmatchlab imported from {kmatchlab.__file__}, not from {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    report = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}.json")
    inputs = wl.setup(args.seed, report)
    reply: dict = {"ready": time.perf_counter()}
    if args.mode == "run":
        error = None
        t0 = time.perf_counter()
        try:
            output = wl.body(inputs)
        except Exception:
            error = traceback.format_exc()
        run_s = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            reply["layers"] = tracer.metrics()
            tracer.write(
                os.path.join(OUT_DIR, f"trace-{args.workload}"),
                {"workload": args.workload, "seed": args.seed, "run_s": run_s, "metrics": reply["layers"]},
            )
        if error is None:
            try:
                verdict = wl.check(inputs, output)
                failed, problems = len(verdict.failed), verdict.problems
            except Exception:  # output too malformed to check, e.g. not JSON
                failed, problems = wl.ops, [traceback.format_exc()]
        else:
            # every operation of the body failed; no report-level check ran
            print(error, file=sys.stderr)
            failed, problems = wl.ops, []
            if os.path.exists(report):
                os.remove(report)
        for line in problems:
            print(f"check: {line}", file=sys.stderr)
        reply.update(run_s=run_s, rss_mb=rss_mb, ops=wl.ops, failed=failed, correct=not problems)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
