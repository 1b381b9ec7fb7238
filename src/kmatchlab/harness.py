"""Claim-by-claim verification, exhaustive discrepancy search, and reports.

Each ClaimId names one link of the derivation chain or one supporting
identity, with a fixed lhs-vs-rhs orientation (lhs = the formula under
test, rhs = the reference it is supposed to equal):

  LEMMA2             injective pair sum  vs  double-sum-minus-diagonal (any ints)
  LEMMA3             injective pair sum  vs  double-sum-minus-linear (0/1 entries)
  LEMMA4             g'-power expansion  vs  arrangement_sum / falling factorial
  LEMMA6             f-partition expansion  vs  injection_sum
  LEMMA1_VS_ORACLE   lemma1_sum  vs  matching_counts
  THM1_VS_LEMMA1     theorem1_eval  vs  lemma1_sum
  THM2_VS_THM1       theorem2_eval  vs  theorem1_eval
  LEMMA7_VS_THM2     lemma7_eval  vs  theorem2_eval (same gmode)
  THM3_VS_LEMMA7     fast_count  vs  lemma7_eval
  THM4_FACTORIZATION direct nested double sum  vs  partition_product
  END_TO_END         fast_count  vs  matching_counts

Each claim has one ClaimSpec in _SPECS: its default budget, its guard and
the walker that produces its records.  The six graph claims share one
walker and are each a pair of named sides, one per chain referee (_oracle,
_lemma1, _thm1, _thm2, _lemma7, _fast).  The walker calls each side once
per graph, all k <= k_max, and pairs the values of each k by position.
discrepancy_search is verify_claim(END_TO_END) behind the same guard, so
verification and search produce records through one code path.

Records are structured: claim, instance head, variant ("", gmode=X or
gmode=X/index=Y, also the options_summary key) and lhs/rhs as the referees
return them, int or Fraction.  The instance key is head/variant.

Verdicts are exact: match means lhs == rhs as rationals, nothing is
rounded or tolerated.  Reports are canonical: records in (claim, instance
key) order, zero-padded numeric fields, each value written by its str
("p/q", or "p" when integral), byte-identical JSON from run to run.  Every
walker emits that order; build_report, whose input is public, refuses
records out of it while it tallies them and sorts nothing.  Writers put a
report on a text stream one chunk of records at a time.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from math import prod
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

from ._version import __version__
from .coeffs import GMODES, compute_f, compute_gprime
from .errors import CapacityError
from .exact import falling_factorial
from .fastcount import INDEX_CONVENTIONS, MAX_LEMMA7_N, FastCountOptions, fast_count, lemma7_eval, partition_product
from .graph import MAX_ENUM_N, encode_graph6, enumerate_all_graphs
from .oracle import (MAX_ARRANGE_N, MAX_INJECT_N, MAX_MATCH_K, MAX_THEOREM2_N, arrangement_sum, injection_sum,
                     lemma1_sum, matching_counts, theorem1_eval, theorem2_eval)
from .partitions import Partition, partition_str


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


class VerificationRecord(NamedTuple):
    """One compared instance, keyed head/variant, or head alone if variant is ""."""

    claim: ClaimId
    head: str
    lhs: int | Fraction
    rhs: int | Fraction
    verdict: str
    variant: str = ""

    @property
    def instance(self) -> str:
        return f"{self.head}/{self.variant}" if self.variant else self.head


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


TRIALS = 20  # seeded random instances per n (LEMMA2) and per (m, n) (LEMMA6)


# the full convention matrix, in report order: every claim that reads the
# index convention, and the search, walk all four
OPTIONS_MATRIX = tuple(FastCountOptions(gm, ix) for gm in GMODES for ix in INDEX_CONVENTIONS)


def _rec(claim: ClaimId, head: str, lhs, rhs, variant: str = "") -> VerificationRecord:
    return VerificationRecord(claim, head, lhs, rhs, "match" if lhs == rhs else "mismatch", variant)


def _vec(x: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def _mat(X: Sequence[Sequence[int]]) -> str:
    return "(" + ",".join(_vec(r) for r in X) + ")"


# -- per-claim instance walkers ----------------------------------------------
#
# A walker takes (claim, budget), with the budget's n_max and k_max already
# resolved, and returns the claim's records under every convention variant
# the claim reads, in canonical order: no caller picks a subset of the
# convention matrix, and none sorts.
# Referees are looked up as module globals at call time, never held in a
# spec, so that rebinding one here (a tracer's wrapper, a test's
# monkeypatch) takes effect.

def _double_sum(x: Sequence[int]) -> int:
    """Sum of x[a]*x[b] over all ordered pairs (a, b), diagonal included."""
    return sum(x[a] * x[b] for a in range(len(x)) for b in range(len(x)))


def _pair_walker(diagonal: Callable[[Sequence[int]], int], random_trials: bool):
    """LEMMA2/3: arrangement_sum(x, 2) vs the double sum minus diagonal(x), on
    every 0/1 vector x, plus seeded integer vectors if random_trials."""

    def walk(claim, budget):
        recs = []
        for n in range(1, budget.n_max + 1):
            xs = []  # the seed= heads sort before the x= heads
            for t in range(TRIALS if random_trials else 0):
                rng = random.Random(f"L2:{budget.seed}:{n}:{t}")
                x = tuple(rng.randint(-3, 3) for _ in range(n))
                xs.append((f"n={n:02d}/seed={budget.seed:03d}/trial={t:02d}/x={_vec(x)}", x))
            xs += [(f"n={n:02d}/x={_vec(x)}", x) for x in product((0, 1), repeat=n)]
            for inst, x in xs:
                recs.append(_rec(claim, inst, arrangement_sum(x, 2), _double_sum(x) - diagonal(x)))
        return recs

    return walk


def _records_lemma4(claim, budget):
    recs = []
    k_max = budget.k_max
    for k in range(2, k_max + 1):
        gps = [(gm, compute_gprime(k, gm)) for gm in GMODES]
        for s in range(0, 9):
            for gm, gp in gps:
                lhs = sum(gp[l] * s**l for l in range(1, k + 1))
                recs.append(_rec(claim, f"k={k:02d}/s={s:02d}", lhs, falling_factorial(s, k), f"gmode={gm}"))
    kv_max = min(4, k_max)
    for n in range(1, budget.n_max + 1):
        for x in product((0, 1), repeat=n):
            s1 = sum(x)
            for k in range(2, kv_max + 1):
                lhs = arrangement_sum(x, k)
                head = f"n={n:02d}/x={_vec(x)}/k={k:02d}"
                for gm in GMODES:
                    gp = compute_gprime(k, gm)
                    rhs = sum(gp[l] * s1**l for l in range(1, k + 1))
                    recs.append(_rec(claim, head, lhs, rhs, f"gmode={gm}"))
    return recs


def _lemma6_rhs(X, ftab) -> int:
    n = len(X[0])
    total = 0
    for pi, val in ftab.items():
        # the j-tuple sum splits into one independent factor per block
        for b in pi:
            val *= sum(prod(X[i - 1][j] for i in b) for j in range(n))
        total += val
    return total


def _records_lemma6(claim, budget):
    recs = []
    seed = budget.seed
    for m in range(2, budget.k_max + 1):
        ftab = compute_f(m)
        for n in range(m, budget.n_max + 1):
            for t in range(TRIALS):
                rng = random.Random(f"L6:{seed}:{m}:{n}:{t}")
                X = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
                inst = f"m={m:02d}/n={n:02d}/seed={seed:03d}/trial={t:02d}/X={_mat(X)}"
                recs.append(_rec(claim, inst, injection_sum(X, m), _lemma6_rhs(X, ftab)))
    return recs


def _thm4_direct(n: int, adj, pi: Partition, m: int) -> int:
    """Fully nested transcription: sum over p-tuples and all j-tuples."""
    block_of = [0] * m
    for h, b in enumerate(pi):
        for i in b:
            block_of[i - 1] = h
    total = 0
    for pt in product(range(n), repeat=len(pi)):
        # element i reads column p_h of adj, which is row p_h: adj is symmetric
        lists = [adj[pt[h]] for h in block_of]
        total += sum(map(prod, product(*lists)))
    return total


def _records_thm4(claim, budget):
    # per m, its partitions in head order: the f table's keys list each
    # partition once, but RGS order is not string order from m = 4 on
    # ({1|2,3|4} comes before {1,4|2|3})
    levels = {m: sorted(compute_f(m), key=partition_str) for m in range(1, budget.k_max + 1)}
    recs = []
    for n in range(1, budget.n_max + 1):
        for g in enumerate_all_graphs(n):
            g6 = encode_graph6(g)
            d = g.degrees
            for m, pis in levels.items():
                for pi in pis:
                    inst = f"n={n:02d}/g={g6}/m={m:02d}/pi={partition_str(pi)}"
                    recs.append(_rec(claim, inst, _thm4_direct(n, g.adj, pi, m), partition_product(d, pi)))
    return recs


# The chain referees, one side each: side(g, k_max) looks its referee up when
# called and returns, for each k = 1..k_max, that k's values in report order:
# one value, one per gmode of GMODES or one per entry of OPTIONS_MATRIX
def _oracle(g, k_max): return [[c] for c in matching_counts(g, k_max)[1:]]
def _lemma1(g, k_max): return [[lemma1_sum(g, k)] for k in range(1, k_max + 1)]
def _thm1(g, k_max): return [[theorem1_eval(g, k, gm) for gm in GMODES] for k in range(1, k_max + 1)]
def _thm2(g, k_max): return [[theorem2_eval(g, k, gm) for gm in GMODES] for k in range(1, k_max + 1)]
def _lemma7(g, k_max): return [[lemma7_eval(g, k, o) for o in OPTIONS_MATRIX] for k in range(1, k_max + 1)]
def _fast(g, k_max): return [[fast_count(g, k, o).value for o in OPTIONS_MATRIX] for k in range(1, k_max + 1)]


# a graph claim's variants in report order, by its records per (graph, k)
_VARIANTS = {len(vs): vs for vs in ([""], [f"gmode={gm}" for gm in GMODES],
                                     [f"gmode={o.gmode}/index={o.index_convention}" for o in OPTIONS_MATRIX])}


@cache
def _pairing(a: int, b: int) -> tuple[tuple[str, int, int], ...]:
    """(variant, lhs index, rhs index) per record of a (graph, k) whose sides
    give a and b values: record i of rows = max(a, b) reads value i * a // rows
    of lhs and i * b // rows of rhs."""
    rows = max(a, b)
    return tuple((v, i * a // rows, i * b // rows) for i, v in enumerate(_VARIANTS[rows]))


def _graph_walker(lhs, rhs, by_degrees: bool = False):
    """Compare side lhs with side rhs on every labeled graph with n <= n_max
    and every k <= k_max.

    A (graph, k) gets one record per value of the longer side, paired as
    _pairing says: a gmode side's value goes with every options entry of its
    gmode, as OPTIONS_MATRIX is gmode-major.  Each side is called once per
    graph, all k <= k_max, but lhs, if by_degrees, sees the graph only
    through its degree multiset and is called once per sorted degree
    sequence over the whole walk.  Graphs come in ascending graph6 order and
    variants in report order, so records come out in canonical order,
    unsorted.  Each record is made by tuple.__new__ in place, with no Python
    frame per record.
    """

    def walk(claim, budget):
        k_max = budget.k_max
        memo: dict = {}
        recs: list[VerificationRecord] = []
        append, new = recs.append, tuple.__new__
        for n in range(1, budget.n_max + 1):
            for g in enumerate_all_graphs(n):
                if by_degrees:
                    key = tuple(sorted(g.degrees))
                    lvs = memo.get(key)
                    if lvs is None:
                        lvs = memo[key] = lhs(g, k_max)
                else:
                    lvs = lhs(g, k_max)
                prefix = f"n={n:02d}/g={encode_graph6(g)}/k="
                for k, lv, rv in zip(range(1, k_max + 1), lvs, rhs(g, k_max)):
                    head = f"{prefix}{k:02d}"
                    for variant, i, j in _pairing(len(lv), len(rv)):
                        l, r = lv[i], rv[j]
                        verdict = "match" if l == r else "mismatch"
                        append(new(VerificationRecord, (claim, head, l, r, verdict, variant)))
        return recs

    return walk


@dataclass(frozen=True)
class ClaimSpec:
    """One claim: its default budget, its guard and its record walker.

    Both pairs are (n_max, k_max).  k_max doubles as the polynomial-k bound
    for LEMMA4 and as the ground-set bound m for LEMMA6/THM4_FACTORIZATION;
    LEMMA2/3 fix k=2, so their k budget is moot.  A claim that walks every
    labeled graph has graph.MAX_ENUM_N, the one bound of that walk, as its n
    guard, whatever its referees admit per graph; other guards are the
    referees' own MAX_* bounds.  END_TO_END's guard is also the search's.
    """

    defaults: tuple[int, int]
    guard: tuple[int, int]
    walk: Callable[[ClaimId, Budget], list[VerificationRecord]]


_SPECS: dict[ClaimId, ClaimSpec] = {
    ClaimId.LEMMA2: ClaimSpec((6, 2), (MAX_ARRANGE_N, 99), _pair_walker(
        lambda x: sum(v * v for v in x), True)),
    ClaimId.LEMMA3: ClaimSpec((6, 2), (MAX_ARRANGE_N, 99), _pair_walker(sum, False)),
    ClaimId.LEMMA4: ClaimSpec((8, 6), (MAX_ARRANGE_N, 8), _records_lemma4),
    ClaimId.LEMMA6: ClaimSpec((6, 4), (MAX_INJECT_N, 6), _records_lemma6),
    ClaimId.LEMMA1_VS_ORACLE: ClaimSpec((4, 2), (MAX_ENUM_N, MAX_MATCH_K), _graph_walker(_lemma1, _oracle)),
    ClaimId.THM1_VS_LEMMA1: ClaimSpec((4, 2), (MAX_ENUM_N, 8), _graph_walker(_thm1, _lemma1)),
    ClaimId.THM2_VS_THM1: ClaimSpec((4, 2), (MAX_THEOREM2_N, 8), _graph_walker(_thm2, _thm1)),
    ClaimId.LEMMA7_VS_THM2: ClaimSpec((4, 2), (MAX_LEMMA7_N, 8), _graph_walker(_lemma7, _thm2)),
    ClaimId.THM3_VS_LEMMA7: ClaimSpec((4, 2), (MAX_LEMMA7_N, 8), _graph_walker(_fast, _lemma7, by_degrees=True)),
    ClaimId.THM4_FACTORIZATION: ClaimSpec((4, 4), (MAX_ENUM_N, 5), _records_thm4),
    ClaimId.END_TO_END: ClaimSpec((4, 2), (MAX_ENUM_N, MAX_MATCH_K), _graph_walker(_fast, _oracle, by_degrees=True)),
}


def resolve_budget(claim: ClaimId, budget: Budget | None = None) -> Budget:
    """The budget with the claim's defaults filled in, refused if past the claim's guard."""
    budget = budget or Budget()
    spec = _SPECS[claim]
    n_max = budget.n_max if budget.n_max is not None else spec.defaults[0]
    k_max = budget.k_max if budget.k_max is not None else spec.defaults[1]
    if n_max < 1 or k_max < 1:
        raise ValueError(f"budget bounds must be positive, got n_max={n_max}, k_max={k_max}")
    n_guard, k_guard = spec.guard
    if n_max > n_guard or k_max > k_guard:
        raise CapacityError(
            f"budget n_max={n_max}, k_max={k_max} exceeds {claim.value} "
            f"guard (n_max <= {n_guard}, k_max <= {k_guard})"
        )
    return replace(budget, n_max=n_max, k_max=k_max)


def verify_claim(claim: ClaimId, budget: Budget | None = None) -> list[VerificationRecord]:
    """Evaluate both sides of one claim on every instance in the budget, under
    every convention variant it reads, in the canonical order the walker emits."""
    return _SPECS[claim].walk(claim, resolve_budget(claim, budget))


# -- discrepancy search ------------------------------------------------------

def discrepancy_search(n_max: int, k_max: int) -> VerificationReport:
    """fast_count vs oracle on every labeled graph up to n_max, every k, every combo.

    The records of verify_claim(END_TO_END) at Budget(n_max, k_max), under
    that claim's guard, in one canonical report: one record per (graph, k,
    options) triple, every one held in memory; the report's text never is
    whole.
    """
    return build_report(verify_claim(ClaimId.END_TO_END, Budget(n_max, k_max)), OPTIONS_MATRIX)


# -- report assembly and serialization ---------------------------------------

def build_report(
    records: list[VerificationRecord],
    options_matrix: Iterable[FastCountOptions] = (),
) -> VerificationReport:
    """Tally a list of records per claim and per variant; the report keeps the list.

    The first record out of canonical order raises ValueError: claim values
    rise strictly run by run, and (head, variant), ordered as the instance
    is since no head is a proper prefix of another, never falls in a run."""
    if not isinstance(records, list):
        raise TypeError(f"build_report takes a list of records, got {type(records).__name__}")
    summary, options_summary, first_cx, claim, name = {}, {}, {}, None, ""
    for c, head, _, _, verdict, variant in records:
        if c is not claim:
            if c.value <= name:
                break
            claim, name = c, c.value
            tally = summary[name] = {"match": 0, "mismatch": 0}
        elif head <= last_head and (head < last_head or variant < last_variant):
            break
        last_head, last_variant = head, variant
        tally[verdict] += 1
        if verdict == "mismatch" and name not in first_cx:
            first_cx[name] = f"{head}/{variant}" if variant else head
        if variant:
            ot = options_summary.get(variant) or options_summary.setdefault(
                variant, {"match": 0, "mismatch": 0, "first_counterexample": None})
            ot[verdict] += 1
            if verdict == "mismatch" and ot["first_counterexample"] is None:
                ot["first_counterexample"] = f"{head}/{variant}"
    else:
        return VerificationReport(__version__, tuple(options_matrix), records, summary, options_summary, first_cx)
    # the loop broke at the first record out of order
    inst = f"{head}/{variant}" if variant else head
    raise ValueError(f"records out of canonical order at {c.value} {inst}")


def report_from_json(text: str) -> VerificationReport:
    obj = json.loads(text)
    records = []
    for r in obj["records"]:
        head, sep, rest = r["instance"].partition("/gmode=")
        records.append(VerificationRecord(ClaimId(r["claim"]), head, Fraction(r["lhs"]), Fraction(r["rhs"]),
                                          r["verdict"], "gmode=" + rest if sep else ""))
    matrix = tuple(FastCountOptions(o["gmode"], o["index_convention"]) for o in obj["options_matrix"])
    return VerificationReport(obj["version"], matrix, records, obj["summary"], obj["options_summary"],
                              obj["first_counterexample"])


# A writer puts a report on a text stream, its records _CHUNK at a time, so
# that no sink holds more than one chunk of the report's text.
_CHUNK = 2048


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_json(report: VerificationReport, out: TextIO) -> None:
    # the bytes of _dumps(the report as one dict) + "\n": keys in sorted order
    matrix = [{"gmode": o.gmode, "index_convention": o.index_convention} for o in report.options_matrix]
    out.write(f'{{"first_counterexample":{_dumps(report.first_counterexample)},"options_matrix":'
              f'{_dumps(matrix)},"options_summary":{_dumps(report.options_summary)},"records":[')
    claim, recs = None, report.records
    for i in range(0, len(recs), _CHUNK):
        rows = []
        for c, head, lhs, rhs, verdict, variant in recs[i:i + _CHUNK]:
            if c is not claim:  # one .value per run of a claim, not per record
                claim, name = c, _quote(c.value)
            inst = f"{head}/{variant}" if variant else head
            rows.append(f'{{"claim":{name},"instance":{_quote(inst)},"lhs":"{lhs}",'
                        f'"rhs":"{rhs}","verdict":{_quote(verdict)}}}')
        out.write("," * (i > 0) + ",".join(rows))
    out.write(f'],"summary":{_dumps(report.summary)},"version":{_dumps(report.version)}}}\n')


def _write_csv(report: VerificationReport, out: TextIO) -> None:
    import csv

    out.write("claim,instance,lhs,rhs,verdict\n")
    recs = report.records
    for i in range(0, len(recs), _CHUNK):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            (r.claim.value, r.instance, r.lhs, r.rhs, r.verdict) for r in recs[i:i + _CHUNK])
        out.write(buf.getvalue())


def _write_text(report: VerificationReport, out: TextIO) -> None:
    lines = [f"verification report (tool version {report.version})"]
    if report.options_matrix:
        lines.append("options matrix: " + ", ".join(
            f"gmode={o.gmode}/index={o.index_convention}" for o in report.options_matrix))
    lines.append("summary:")
    firsts = report.first_counterexample
    for claim, t in sorted(report.summary.items()):
        cx = f" (first counterexample: {firsts[claim]})" if claim in firsts else ""
        lines.append(f"  {claim}: {t['match']} match, {t['mismatch']} mismatch{cx}")
    for okey, t in sorted(report.options_summary.items()):
        cx = f" (first counterexample: {t['first_counterexample']})" if t["first_counterexample"] else ""
        lines.append(f"  [{okey}]: {t['match']} match, {t['mismatch']} mismatch{cx}")
    lines.append("records:")
    out.write("\n".join(lines) + "\n")
    for i in range(0, len(report.records), _CHUNK):
        out.write("".join(f"  {r.claim.value} {r.instance} lhs={r.lhs} rhs={r.rhs} "
                          f"{r.verdict}\n" for r in report.records[i:i + _CHUNK]))


_WRITERS = {"json": _write_json, "csv": _write_csv, "text": _write_text}
REPORT_FORMATS = tuple(_WRITERS)


def write_report(report: VerificationReport, format: str, out: TextIO) -> None:
    """Write the report to the text stream out; JSON is the canonical machine format."""
    if format not in _WRITERS:
        raise ValueError(f"unknown report format {format!r}, expected json, csv, or text")
    _WRITERS[format](report, out)


def report_to_json(report: VerificationReport) -> str:
    buf = io.StringIO()
    _write_json(report, buf)
    return buf.getvalue()
