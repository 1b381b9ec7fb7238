"""The two workloads: how each builds its inputs, runs, and is checked.

* ``search``: ``kmatch search --nmax 5 --kmax 3`` through ``cli.main``; every
  labeled graph with n <= 5, k <= 3, all four conventions.  The seed does
  not enter: the search is exhaustive.
* ``large_count``: ``fast_count`` on three G(n, 0.05) graphs, n = 100, 316
  and 1000, whose coin-flip seeds are drawn from the seed, for every
  k <= 9 and every convention; the f table is built cold once per body.

An operation is one record decided (search) or one formula evaluation
(large_count).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import checks

SEARCH_NMAX, SEARCH_KMAX = 5, 3
LARGE_NS = (100, 316, 1000)
LARGE_P = 0.05


@dataclass(frozen=True)
class Workload:
    ops: int  # operations one body attempts
    setup: Callable[[int, str], object]  # (seed, report path) -> inputs
    body: Callable[[object], object]  # inputs -> output
    check: Callable[[object, object], checks.Verdict]  # (inputs, output) -> verdict


def _run_cli(argv: list[str]) -> None:
    # looked up at call time, so that a traced run calls the wrapper
    from kmatchlab import cli

    status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"kmatch {argv[0]} exited with status {status}")


def _read_report(argv: list[str]) -> str:
    path = argv[argv.index("--out") + 1]
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    finally:
        os.remove(path)


def _search_setup(seed: int, out: str) -> list[str]:
    return ["search", "--nmax", str(SEARCH_NMAX), "--kmax", str(SEARCH_KMAX), "--out", out]


def _large_setup(seed: int, out: str):
    from kmatchlab import fastcount, graph

    rng = random.Random(seed)
    specs = [(n, LARGE_P, rng.randrange(2**32)) for n in LARGE_NS]
    graphs = [graph.generate("random", n, p=p, seed=s) for n, p, s in specs]
    options = {c: fastcount.FastCountOptions(*c) for c in checks.CONVENTIONS}
    cases = [(graphs[gi], k, options[(gm, ix)])
             for gi, k, gm, ix in checks.large_count_cases(len(graphs))]
    return specs, cases


def _large_body(inputs):
    from kmatchlab import fastcount

    _specs, cases = inputs
    return [fastcount.fast_count(g, k, opts) for g, k, opts in cases]


WORKLOADS = {
    "search": Workload(
        ops=len(checks.CONVENTIONS) * SEARCH_KMAX * sum(2 ** comb(n, 2) for n in range(1, SEARCH_NMAX + 1)),
        setup=_search_setup,
        body=_run_cli,
        check=lambda argv, _: checks.check_search(_read_report(argv), SEARCH_NMAX, SEARCH_KMAX),
    ),
    "large_count": Workload(
        ops=len(checks.large_count_cases(len(LARGE_NS))),
        setup=_large_setup,
        body=_large_body,
        check=lambda inputs, results: checks.check_large_count(results, inputs[0]),
    ),
}
