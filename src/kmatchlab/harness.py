"""Claim-by-claim verification, exhaustive discrepancy search, and reports.

Each ClaimId names one link of the derivation chain or one supporting
identity, with a fixed lhs-vs-rhs orientation (lhs = the formula under
test, rhs = the reference it is supposed to equal):

  LEMMA2             injective pair sum  vs  double-sum-minus-diagonal (any ints)
  LEMMA3             injective pair sum  vs  double-sum-minus-linear (0/1 entries)
  LEMMA4             g'-power expansion  vs  arrangement_sum / falling factorial
  LEMMA6             f-partition expansion  vs  injection_sum
  LEMMA1_VS_ORACLE   lemma1_sum  vs  count_k_matchings
  THM1_VS_LEMMA1     theorem1_eval  vs  lemma1_sum
  THM2_VS_THM1       theorem2_eval  vs  theorem1_eval
  LEMMA7_VS_THM2     lemma7_eval  vs  theorem2_eval (same gmode)
  THM3_VS_LEMMA7     fast_count  vs  lemma7_eval
  THM4_FACTORIZATION direct nested double sum  vs  partition_product
  END_TO_END         fast_count  vs  count_k_matchings

Verdicts are exact: match means lhs == rhs as rationals, nothing is
rounded or tolerated.  Reports are canonical: records sorted by
(claim, instance key), zero-padded numeric fields, rationals serialized
as "p/q" strings, and byte-identical JSON regardless of worker count.
"""

from __future__ import annotations

import os
import random
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Sequence

from ._version import __version__
from .coeffs import compute_f, compute_gprime
from .errors import CapacityError
from .exact import falling_factorial, rat_str
from .fastcount import FastCountOptions, fast_count, lemma7_eval, partition_product
from .graph import (
    Graph,
    degree_vector,
    encode_graph6,
    enumerate_all_graphs,
    graph_from_mask,
)
from .oracle import (
    arrangement_sum,
    count_k_matchings,
    injection_sum,
    lemma1_sum,
    theorem1_eval,
    theorem2_eval,
)
from .partitions import SetPartition, enumerate_partitions


class ClaimId(Enum):
    LEMMA2 = "LEMMA2"
    LEMMA3 = "LEMMA3"
    LEMMA4 = "LEMMA4"
    LEMMA6 = "LEMMA6"
    LEMMA1_VS_ORACLE = "LEMMA1_VS_ORACLE"
    THM1_VS_LEMMA1 = "THM1_VS_LEMMA1"
    THM2_VS_THM1 = "THM2_VS_THM1"
    LEMMA7_VS_THM2 = "LEMMA7_VS_THM2"
    THM3_VS_LEMMA7 = "THM3_VS_LEMMA7"
    THM4_FACTORIZATION = "THM4_FACTORIZATION"
    END_TO_END = "END_TO_END"


@dataclass(frozen=True)
class VerificationRecord:
    claim: ClaimId
    instance: str
    lhs: Fraction
    rhs: Fraction
    verdict: str


@dataclass
class VerificationReport:
    version: str
    options_matrix: tuple[FastCountOptions, ...]
    records: list[VerificationRecord]
    summary: dict
    options_summary: dict
    first_counterexample: dict


@dataclass(frozen=True)
class Budget:
    """Instance-space bounds; None fields fall back to per-claim defaults."""

    n_max: int | None = None
    k_max: int | None = None
    seed: int = 0
    trials: int = 20


# full convention matrix, alphabetical, the default everywhere
OPTIONS_MATRIX = (
    FastCountOptions("corrected", "corrected"),
    FastCountOptions("corrected", "paper"),
    FastCountOptions("paper", "corrected"),
    FastCountOptions("paper", "paper"),
)

# per-claim (n_max, k_max) defaults and hard guards; k_max doubles as the
# polynomial-k bound for LEMMA4 and as the ground-set bound m for
# LEMMA6/THM4_FACTORIZATION.  LEMMA2/3 fix k=2, so their k budget is moot.
_DEFAULTS = {
    ClaimId.LEMMA2: (6, 2),
    ClaimId.LEMMA3: (6, 2),
    ClaimId.LEMMA4: (8, 6),
    ClaimId.LEMMA6: (6, 4),
    ClaimId.LEMMA1_VS_ORACLE: (4, 2),
    ClaimId.THM1_VS_LEMMA1: (4, 2),
    ClaimId.THM2_VS_THM1: (4, 2),
    ClaimId.LEMMA7_VS_THM2: (4, 2),
    ClaimId.THM3_VS_LEMMA7: (4, 2),
    ClaimId.THM4_FACTORIZATION: (4, 4),
    ClaimId.END_TO_END: (4, 2),
}
_GUARDS = {
    ClaimId.LEMMA2: (10, 99),
    ClaimId.LEMMA3: (10, 99),
    ClaimId.LEMMA4: (10, 8),
    ClaimId.LEMMA6: (8, 6),
    ClaimId.LEMMA1_VS_ORACLE: (7, 8),
    ClaimId.THM1_VS_LEMMA1: (7, 8),
    ClaimId.THM2_VS_THM1: (6, 8),
    ClaimId.LEMMA7_VS_THM2: (5, 8),
    ClaimId.THM3_VS_LEMMA7: (5, 8),
    ClaimId.THM4_FACTORIZATION: (7, 5),
    ClaimId.END_TO_END: (7, 8),
}

_SORT_KEY = lambda r: (r.claim.value, r.instance)  # noqa: E731


def _rec(claim: ClaimId, instance: str, lhs, rhs) -> VerificationRecord:
    l, r = Fraction(lhs), Fraction(rhs)
    return VerificationRecord(claim, instance, l, r, "match" if l == r else "mismatch")


def _vec(x: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def _mat(X: Sequence[Sequence[int]]) -> str:
    return "(" + ",".join(_vec(r) for r in X) + ")"


def _unique_gmodes(matrix: Sequence[FastCountOptions]) -> list[str]:
    seen: list[str] = []
    for o in matrix:
        if o.gmode not in seen:
            seen.append(o.gmode)
    return seen


# -- per-claim instance walkers ----------------------------------------------

def _lemma2_rhs(x: Sequence[int]) -> int:
    n = len(x)
    double = 0
    for a in range(n):
        for b in range(n):
            double += x[a] * x[b]
    return double - sum(x[a] * x[a] for a in range(n))


def _lemma3_rhs(x: Sequence[int]) -> int:
    n = len(x)
    double = 0
    for a in range(n):
        for b in range(n):
            double += x[a] * x[b]
    return double - sum(x[a] for a in range(n))


def _records_lemma2(n_max, k_max, seed, trials, matrix):
    recs = []
    for n in range(1, n_max + 1):
        for x in product((0, 1), repeat=n):
            recs.append(
                _rec(ClaimId.LEMMA2, f"n={n:02d}/x={_vec(x)}", arrangement_sum(x, 2), _lemma2_rhs(x))
            )
        for t in range(trials):
            rng = random.Random(f"L2:{seed}:{n}:{t}")
            x = tuple(rng.randint(-3, 3) for _ in range(n))
            inst = f"n={n:02d}/seed={seed:03d}/trial={t:02d}/x={_vec(x)}"
            recs.append(_rec(ClaimId.LEMMA2, inst, arrangement_sum(x, 2), _lemma2_rhs(x)))
    return recs


def _records_lemma3(n_max, k_max, seed, trials, matrix):
    recs = []
    for n in range(1, n_max + 1):
        for x in product((0, 1), repeat=n):
            recs.append(
                _rec(ClaimId.LEMMA3, f"n={n:02d}/x={_vec(x)}", arrangement_sum(x, 2), _lemma3_rhs(x))
            )
    return recs


def _records_lemma4(n_max, k_max, seed, trials, matrix):
    recs = []
    gmodes = _unique_gmodes(matrix)
    for gm in gmodes:
        for k in range(2, k_max + 1):
            gp = compute_gprime(k, gm)
            for s in range(0, 9):
                lhs = sum(gp[l] * s**l for l in range(1, k + 1))
                inst = f"k={k:02d}/s={s:02d}/gmode={gm}"
                recs.append(_rec(ClaimId.LEMMA4, inst, lhs, falling_factorial(s, k)))
    kv_max = min(4, k_max)
    for n in range(1, n_max + 1):
        for x in product((0, 1), repeat=n):
            s1 = sum(x)
            for k in range(2, kv_max + 1):
                lhs = arrangement_sum(x, k)
                for gm in gmodes:
                    gp = compute_gprime(k, gm)
                    rhs = sum(gp[l] * s1**l for l in range(1, k + 1))
                    inst = f"n={n:02d}/x={_vec(x)}/k={k:02d}/gmode={gm}"
                    recs.append(_rec(ClaimId.LEMMA4, inst, lhs, rhs))
    return recs


def _lemma6_rhs(X, m, ftab) -> int:
    n = len(X[0])
    total = 0
    for pi in enumerate_partitions(m):
        # the j-tuple sum splits into one independent factor per block
        val = ftab[pi]
        for b in pi.blocks:
            val *= sum(prod(X[i - 1][j] for i in b) for j in range(n))
        total += val
    return total


def _records_lemma6(n_max, k_max, seed, trials, matrix):
    recs = []
    m_max = k_max
    ftab = compute_f(m_max)
    for m in range(2, m_max + 1):
        for n in range(m, n_max + 1):
            for t in range(trials):
                rng = random.Random(f"L6:{seed}:{m}:{n}:{t}")
                X = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
                inst = f"m={m:02d}/n={n:02d}/seed={seed:03d}/trial={t:02d}/X={_mat(X)}"
                recs.append(_rec(ClaimId.LEMMA6, inst, injection_sum(X, m), _lemma6_rhs(X, m, ftab)))
    return recs


def _thm4_direct(n: int, cols, pi: SetPartition) -> int:
    """Fully nested transcription: sum over p-tuples and all j-tuples."""
    m = pi.m
    block_of = [0] * m
    for h, b in enumerate(pi.blocks):
        for i in b:
            block_of[i - 1] = h
    total = 0
    for pt in product(range(n), repeat=len(pi.blocks)):
        lists = [cols[pt[h]] for h in block_of]
        total += sum(map(prod, product(*lists)))
    return total


def _records_thm4(n_max, k_max, seed, trials, matrix):
    recs = []
    m_max = k_max
    for n in range(1, n_max + 1):
        for g in enumerate_all_graphs(n):
            g6 = encode_graph6(g)
            d = degree_vector(g)
            cols = [tuple(g.adj[j][c] for j in range(n)) for c in range(n)]
            for m in range(1, m_max + 1):
                for pi in enumerate_partitions(m):
                    inst = f"n={n:02d}/g={g6}/m={m:02d}/pi={pi}"
                    recs.append(
                        _rec(ClaimId.THM4_FACTORIZATION, inst, _thm4_direct(n, cols, pi), partition_product(d, pi))
                    )
    return recs


def _records_chain(claim, n_max, k_max, seed, trials, matrix):
    recs = []
    gmodes = _unique_gmodes(matrix)
    for n in range(1, n_max + 1):
        for g in enumerate_all_graphs(n):
            g6 = encode_graph6(g)
            for k in range(1, k_max + 1):
                base = f"n={n:02d}/g={g6}/k={k:02d}"
                if claim is ClaimId.LEMMA1_VS_ORACLE:
                    recs.append(_rec(claim, base, lemma1_sum(g, k), count_k_matchings(g, k)))
                elif claim is ClaimId.THM1_VS_LEMMA1:
                    rhs = lemma1_sum(g, k)
                    for gm in gmodes:
                        recs.append(_rec(claim, f"{base}/gmode={gm}", theorem1_eval(g, k, gm), rhs))
                elif claim is ClaimId.THM2_VS_THM1:
                    for gm in gmodes:
                        recs.append(
                            _rec(claim, f"{base}/gmode={gm}", theorem2_eval(g, k, gm), theorem1_eval(g, k, gm))
                        )
                elif claim is ClaimId.LEMMA7_VS_THM2:
                    t2 = {gm: theorem2_eval(g, k, gm) for gm in gmodes}
                    for opts in matrix:
                        inst = f"{base}/gmode={opts.gmode}/index={opts.index_convention}"
                        recs.append(_rec(claim, inst, lemma7_eval(g, k, opts), t2[opts.gmode]))
                elif claim is ClaimId.THM3_VS_LEMMA7:
                    for opts in matrix:
                        inst = f"{base}/gmode={opts.gmode}/index={opts.index_convention}"
                        recs.append(_rec(claim, inst, fast_count(g, k, opts).value, lemma7_eval(g, k, opts)))
                elif claim is ClaimId.END_TO_END:
                    truth = count_k_matchings(g, k)
                    for opts in matrix:
                        inst = f"{base}/gmode={opts.gmode}/index={opts.index_convention}"
                        recs.append(_rec(claim, inst, fast_count(g, k, opts).value, truth))
                else:
                    raise AssertionError(claim)
    return recs


_EVALUATORS = {
    ClaimId.LEMMA2: _records_lemma2,
    ClaimId.LEMMA3: _records_lemma3,
    ClaimId.LEMMA4: _records_lemma4,
    ClaimId.LEMMA6: _records_lemma6,
    ClaimId.THM4_FACTORIZATION: _records_thm4,
}


def verify_claim(
    claim: ClaimId,
    budget: Budget | None = None,
    options: Iterable[FastCountOptions] | None = None,
) -> list[VerificationRecord]:
    """Evaluate both sides of one claim on every instance in the budget."""
    budget = budget or Budget()
    n_default, k_default = _DEFAULTS[claim]
    n_max = budget.n_max if budget.n_max is not None else n_default
    k_max = budget.k_max if budget.k_max is not None else k_default
    if n_max < 1 or k_max < 1:
        raise ValueError(f"budget bounds must be positive, got n_max={n_max}, k_max={k_max}")
    n_guard, k_guard = _GUARDS[claim]
    if n_max > n_guard or k_max > k_guard:
        raise CapacityError(
            f"budget n_max={n_max}, k_max={k_max} exceeds {claim.value} "
            f"guard (n_max <= {n_guard}, k_max <= {k_guard})"
        )
    matrix = tuple(options) if options is not None else OPTIONS_MATRIX
    walker = _EVALUATORS.get(claim)
    if walker is not None:
        recs = walker(n_max, k_max, budget.seed, budget.trials, matrix)
    else:
        recs = _records_chain(claim, n_max, k_max, budget.seed, budget.trials, matrix)
    return sorted(recs, key=_SORT_KEY)


# -- discrepancy search ------------------------------------------------------

_SEARCH_CHUNK = 4096


def _worker_count() -> int:
    raw = os.environ.get("KMATCH_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"KMATCH_THREADS must be an integer, got {raw!r}") from None
    return max(1, cap)


def _search_chunk(task) -> list[VerificationRecord]:
    n, lo, hi, k_max, matrix = task
    recs = []
    # fast_count sees a graph only through its degree multiset, so graphs
    # that share one share the claimed value
    claimed: dict[tuple, Fraction] = {}
    for mask in range(lo, hi):
        g = graph_from_mask(n, mask)
        g6 = encode_graph6(g)
        degrees = tuple(sorted(degree_vector(g)))
        for k in range(1, k_max + 1):
            truth = count_k_matchings(g, k)
            for opts in matrix:
                inst = f"n={n:02d}/g={g6}/k={k:02d}/gmode={opts.gmode}/index={opts.index_convention}"
                key = (degrees, k, opts)
                if key not in claimed:
                    claimed[key] = fast_count(g, k, opts).value
                recs.append(_rec(ClaimId.END_TO_END, inst, claimed[key], truth))
    return recs


def discrepancy_search(
    n_max: int,
    k_max: int,
    options_matrix: Iterable[FastCountOptions] | None = None,
) -> VerificationReport:
    """fast_count vs oracle on every labeled graph up to n_max, every k, every combo.

    Emits one END_TO_END record per (graph, k, options) triple; the report is
    canonical and byte-identical for any KMATCH_THREADS setting.
    """
    if n_max < 1 or k_max < 1:
        raise ValueError(f"bounds must be positive, got n_max={n_max}, k_max={k_max}")
    if n_max > 6 or k_max > 3:
        raise CapacityError(f"search refused: n_max={n_max}, k_max={k_max} (limits 6, 3)")
    matrix = tuple(options_matrix) if options_matrix is not None else OPTIONS_MATRIX
    tasks = []
    for n in range(1, n_max + 1):
        total = 1 << (n * (n - 1) // 2)
        for lo in range(0, total, _SEARCH_CHUNK):
            tasks.append((n, lo, min(lo + _SEARCH_CHUNK, total), k_max, matrix))
    workers = _worker_count()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_search_chunk, tasks))
    else:
        chunks = [_search_chunk(t) for t in tasks]
    records = [r for ch in chunks for r in ch]
    return build_report(records, matrix)


# -- report assembly and serialization ---------------------------------------

_GMODE_RE = re.compile(r"gmode=(\w+)")
_INDEX_RE = re.compile(r"index=(\w+)")


def _options_key(instance: str) -> str | None:
    gm = _GMODE_RE.search(instance)
    ix = _INDEX_RE.search(instance)
    if gm and ix:
        return f"gmode={gm.group(1)}/index={ix.group(1)}"
    if gm:
        return f"gmode={gm.group(1)}"
    return None


def build_report(
    records: Iterable[VerificationRecord],
    options_matrix: Iterable[FastCountOptions] = (),
) -> VerificationReport:
    """Sort records canonically and tally summaries and first counterexamples."""
    recs = sorted(records, key=_SORT_KEY)
    summary: dict[str, dict[str, int]] = {}
    options_summary: dict[str, dict] = {}
    first_cx: dict[str, str] = {}
    for r in recs:
        tally = summary.setdefault(r.claim.value, {"match": 0, "mismatch": 0})
        tally[r.verdict] += 1
        if r.verdict == "mismatch" and r.claim.value not in first_cx:
            first_cx[r.claim.value] = r.instance
        okey = _options_key(r.instance)
        if okey is not None:
            ot = options_summary.setdefault(
                okey, {"match": 0, "mismatch": 0, "first_counterexample": None}
            )
            ot[r.verdict] += 1
            if r.verdict == "mismatch" and ot["first_counterexample"] is None:
                ot["first_counterexample"] = r.instance
    return VerificationReport(
        version=__version__,
        options_matrix=tuple(options_matrix),
        records=recs,
        summary=summary,
        options_summary=options_summary,
        first_counterexample=first_cx,
    )


def report_to_json(report: VerificationReport) -> str:
    import json

    obj = {
        "version": report.version,
        "options_matrix": [
            {"gmode": o.gmode, "index_convention": o.index_convention}
            for o in report.options_matrix
        ],
        "records": [
            {
                "claim": r.claim.value,
                "instance": r.instance,
                "lhs": rat_str(r.lhs),
                "rhs": rat_str(r.rhs),
                "verdict": r.verdict,
            }
            for r in report.records
        ],
        "summary": report.summary,
        "options_summary": report.options_summary,
        "first_counterexample": report.first_counterexample,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def report_from_json(text: str) -> VerificationReport:
    import json

    from .exact import rat_from_str

    obj = json.loads(text)
    records = [
        VerificationRecord(
            ClaimId(r["claim"]),
            r["instance"],
            rat_from_str(r["lhs"]),
            rat_from_str(r["rhs"]),
            r["verdict"],
        )
        for r in obj["records"]
    ]
    matrix = tuple(
        FastCountOptions(o["gmode"], o["index_convention"]) for o in obj["options_matrix"]
    )
    return VerificationReport(
        version=obj["version"],
        options_matrix=matrix,
        records=records,
        summary=obj["summary"],
        options_summary=obj["options_summary"],
        first_counterexample=obj["first_counterexample"],
    )


def report_to_csv(report: VerificationReport) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["claim", "instance", "lhs", "rhs", "verdict"])
    for r in report.records:
        w.writerow([r.claim.value, r.instance, rat_str(r.lhs), rat_str(r.rhs), r.verdict])
    return buf.getvalue()


def report_to_text(report: VerificationReport) -> str:
    lines = [f"verification report (tool version {report.version})"]
    if report.options_matrix:
        combos = ", ".join(
            f"gmode={o.gmode}/index={o.index_convention}" for o in report.options_matrix
        )
        lines.append(f"options matrix: {combos}")
    lines.append("summary:")
    for claim in sorted(report.summary):
        tally = report.summary[claim]
        line = f"  {claim}: {tally['match']} match, {tally['mismatch']} mismatch"
        if claim in report.first_counterexample:
            line += f" (first counterexample: {report.first_counterexample[claim]})"
        lines.append(line)
    for okey in sorted(report.options_summary):
        ot = report.options_summary[okey]
        line = f"  [{okey}]: {ot['match']} match, {ot['mismatch']} mismatch"
        if ot["first_counterexample"]:
            line += f" (first counterexample: {ot['first_counterexample']})"
        lines.append(line)
    lines.append("records:")
    for r in report.records:
        lines.append(
            f"  {r.claim.value} {r.instance} lhs={rat_str(r.lhs)} rhs={rat_str(r.rhs)} {r.verdict}"
        )
    return "\n".join(lines) + "\n"


_FORMATTERS = {"json": report_to_json, "csv": report_to_csv, "text": report_to_text}


def write_report(report: VerificationReport, format: str, path: str) -> None:
    """Serialize the report to path; JSON is the canonical machine format."""
    if format not in _FORMATTERS:
        raise ValueError(f"unknown report format {format!r}, expected json, csv, or text")
    payload = _FORMATTERS[format](report)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc
