"""Claim-by-claim verification, exhaustive discrepancy search, and reports.

Each ClaimId names one link of the derivation chain or one supporting
identity, with a fixed lhs-vs-rhs orientation (lhs = the formula under
test, rhs = the reference it is supposed to equal):

  LEMMA2             injective pair sum  vs  double-sum-minus-diagonal (any ints)
  LEMMA3             injective pair sum  vs  double-sum-minus-linear (0/1 entries)
  LEMMA4             g'-power expansion  vs  falling factorial / injection_sum((x,) * k)
  LEMMA6             f-partition expansion  vs  injection_sum
  LEMMA1_VS_ORACLE   lemma1_sum  vs  matching_counts
  THM1_VS_LEMMA1     theorem1_eval  vs  lemma1_sum
  THM2_VS_THM1       theorem2_eval  vs  theorem1_eval
  LEMMA7_VS_THM2     lemma7_eval  vs  theorem2_eval (same gmode)
  THM3_VS_LEMMA7     fast_count  vs  lemma7_eval
  THM4_FACTORIZATION partition_product  vs  partition_sum
  END_TO_END         fast_count  vs  matching_counts

Each claim has one ClaimSpec in _SPECS: its default budget, its guard and
its walker, which yields (head, comparisons) per instance head, the
comparisons decided by _compare from the head's lhs and rhs values.  The
seven graph claims share one walker and are each a pair of named sides,
each called once per isomorphism class of graphs for every head tail of
k_max, spelled once per walk: one per chain referee (_oracle, _lemma1,
_thm1, _thm2, _lemma7, _fast) with tails k=KK, and THM4's _products and
_sums with tails m=MM/pi={...}.  The walker decides each (class, tail)
once, and every labeled graph of a class gets its class's comparisons.
The sides' values go in one memo per run, which every claim of the run
shares, so a side that two claims read runs once per class and k_max.

A comparison is (variant, lhs, rhs, verdict, str(lhs), str(rhs)): the
variant ("", gmode=X or gmode=X/index=Y, also the options_summary key),
the values as the referees return them, int or Fraction, and their
spellings.  A head, (claim, instance head, comparisons), is the unit the
report writer tallies and spells.  Records are structured: claim, head,
lhs, rhs, verdict and variant, one per comparison, made only by
verify_claim.  The instance key is head/variant.

Verdicts are exact: match means lhs == rhs as rationals, nothing is
rounded or tolerated.  Reports are canonical: records in (claim, instance
key) order, zero-padded numeric fields, each value written by its str
("p/q", or "p" when integral), byte-identical JSON from run to run.  Every
walker emits that order; build_report, whose input is public, refuses
records out of it while it tallies them and sorts nothing.

One writer, write_claims, writes the report of `kmatch verify` and of
`kmatch search`, which is END_TO_END under its guard.  It makes no
records: it takes the walk's heads a chunk at a time, counts each chunk
into the tallies of a report with no records in one call of _tally,
spells it in the chosen format, spills it to a temporary file, and only
once the walk is done opens the output and writes the head, the spill and
the tail.  Only write_claims and verify_claim read a claim's walk.
discrepancy_search, build_report and report_to_json are the in-memory
forms, which hold every record; the last two group them into heads
(_heads_of) for the same tally and spellers.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import groupby, islice, product
from json.encoder import encode_basestring_ascii as _quote
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from ._version import __version__
from .coeffs import GMODES, compute_f, compute_gprime
from .errors import CapacityError
from .exact import falling_factorial
from .fastcount import (INDEX_CONVENTIONS, MAX_LEMMA7_N, FastCountOptions, fast_count, lemma7_eval, partition_product,
                        partition_sum)
from .graph import MAX_ENUM_N, graph6_from_mask, graph_classes, graph_from_mask
from .oracle import (MAX_INJECT_N, MAX_MATCH_K, MAX_THEOREM2_N, injection_sum, lemma1_sum, matching_counts,
                     theorem1_eval, theorem2_eval)
from .partitions import Partition


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


# a head: (claim, instance head, comparisons), each comparison (variant,
# lhs, rhs, verdict, str(lhs), str(rhs)), as _compare makes them
_Head = tuple[ClaimId, str, tuple[tuple, ...]]


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


def _vec(x: Sequence[int]) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def _mat(X: Sequence[Sequence[int]]) -> str:
    return "(" + ",".join(_vec(r) for r in X) + ")"


# -- per-claim instance walkers ----------------------------------------------
#
# A walker takes a budget, with its n_max and k_max already resolved, and
# the run's side memo, which only the graph walker reads, and yields
# (head, _compare(lhs values, rhs values)) per instance head, in canonical
# head order, each side's values in the report order of the variants it
# reads: one value, one per gmode of GMODES or one per entry of
# OPTIONS_MATRIX.  _compare alone pairs values, spells variants and
# decides verdicts, so no walker knows its claim, a variant's spelling or
# a verdict, and none sorts.
# Referees are looked up as module globals at call time, never held in a
# spec, so that rebinding one here (a tracer's wrapper, a test's
# monkeypatch) takes effect.

def _double_sum(x: Sequence[int]) -> int:
    """Sum of x[a]*x[b] over all ordered pairs (a, b), diagonal included."""
    return sum(x[a] * x[b] for a in range(len(x)) for b in range(len(x)))


def _pair_walker(diagonal: Callable[[Sequence[int]], int], random_trials: bool):
    """LEMMA2/3: injection_sum((x, x)) vs the double sum minus diagonal(x), on
    every 0/1 vector x, plus seeded integer vectors if random_trials."""

    def walk(budget, _memo):
        for n in range(1, budget.n_max + 1):
            xs = []  # the seed= heads sort before the x= heads
            for t in range(TRIALS if random_trials else 0):
                rng = random.Random(f"L2:{budget.seed}:{n}:{t}")
                x = tuple(rng.randint(-3, 3) for _ in range(n))
                xs.append((f"n={n:02d}/seed={budget.seed:03d}/trial={t:02d}/x={_vec(x)}", x))
            xs += [(f"n={n:02d}/x={_vec(x)}", x) for x in product((0, 1), repeat=n)]
            for inst, x in xs:
                yield inst, _compare([injection_sum((x, x))], [_double_sum(x) - diagonal(x)])

    return walk


def _gprime_sums(k: int, s: int) -> list[int]:
    """Sum of g'_k(l)*s^l over l = 1..k, one per gmode of GMODES."""
    return [sum(gp[l] * s**l for l in range(1, k + 1)) for gp in (compute_gprime(k, gm) for gm in GMODES)]


# LEMMA4's vector half stops at k = 4: at its guard, n = 10 and k = 8, each
# of the 1,024 vectors with n = 10 would sum P(10, 8) = 1,814,400 injective
# maps, where k = 4 sums P(10, 4) = 5,040
_LEMMA4_VECTOR_K = 4


def _lemma4_walker(budget, _memo):
    # the scalar half, every k <= k_max: the g'-power expansion at each gmode
    # vs the falling factorial
    for k in range(2, budget.k_max + 1):
        for s in range(0, 9):
            yield f"k={k:02d}/s={s:02d}", _compare(_gprime_sums(k, s), [falling_factorial(s, k)])
    # the vector half, k <= _LEMMA4_VECTOR_K: injection_sum on k copies of a
    # 0/1 vector x vs the expansion at s = sum(x)
    kv_max = min(_LEMMA4_VECTOR_K, budget.k_max)
    for n in range(1, budget.n_max + 1):
        for x in product((0, 1), repeat=n):
            for k in range(2, kv_max + 1):
                yield f"n={n:02d}/x={_vec(x)}/k={k:02d}", _compare([injection_sum((x,) * k)], _gprime_sums(k, sum(x)))


def _lemma6_expansion(X, ftab) -> int:
    n = len(X[0])
    total = 0
    for pi, val in ftab:
        # the j-tuple sum splits into one independent factor per block
        for b in pi:
            val *= sum(prod(X[i - 1][j] for i in b) for j in range(n))
        total += val
    return total


def _lemma6_walker(budget, _memo):
    seed = budget.seed
    for m in range(2, budget.k_max + 1):
        ftab = [(pi, fv) for _, pi, fv in compute_f(m)]
        for n in range(m, budget.n_max + 1):
            for t in range(TRIALS):
                rng = random.Random(f"L6:{seed}:{m}:{n}:{t}")
                X = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
                inst = f"m={m:02d}/n={n:02d}/seed={seed:03d}/trial={t:02d}/X={_mat(X)}"
                yield inst, _compare([_lemma6_expansion(X, ftab)], [injection_sum(X)])


# The chain referees, one side each: side(g, k_max) looks its referee up when
# called and returns, for each k = 1..k_max, that k's values in report order
def _oracle(g, k_max): return [[c] for c in matching_counts(g, k_max)[1:]]
def _lemma1(g, k_max): return [[lemma1_sum(g, k)] for k in range(1, k_max + 1)]
def _thm1(g, k_max): return [[theorem1_eval(g, k, gm) for gm in GMODES] for k in range(1, k_max + 1)]
def _thm2(g, k_max): return [[theorem2_eval(g, k, gm) for gm in GMODES] for k in range(1, k_max + 1)]
def _lemma7(g, k_max): return [[lemma7_eval(g, k, o) for o in OPTIONS_MATRIX] for k in range(1, k_max + 1)]
def _fast(g, k_max): return [[fast_count(g, k, o).value for o in OPTIONS_MATRIX] for k in range(1, k_max + 1)]


@cache
def _thm4_partitions(m_max: int) -> tuple[tuple[str, Partition], ...]:
    """(head tail, pi) per partition pi of {1..m}, m <= m_max, m ascending,
    then in the f walk's text order ({1,4|2|3} before {1|2,3|4})."""
    return tuple((f"m={m:02d}/pi={text}", pi) for m in range(1, m_max + 1) for text, pi, _ in compute_f(m))


# THM4's sides, one value per partition of {1..m}, m <= m_max: the factored
# form under test, which reads only degrees, and the literal sum
def _products(g, m_max): return [[partition_product(g.degrees, pi)] for _, pi in _thm4_partitions(m_max)]
def _sums(g, m_max): return [[partition_sum(g, pi)] for _, pi in _thm4_partitions(m_max)]


# a walker's head tails per graph, for its k_max: one per k, or one per
# THM4 partition
def _k_tails(k_max): return [f"k={k:02d}" for k in range(1, k_max + 1)]
def _pi_tails(m_max): return [tail for tail, _ in _thm4_partitions(m_max)]


# the variants of a head in report order, by its comparisons per head
_VARIANTS = {len(vs): vs for vs in ([""], [f"gmode={gm}" for gm in GMODES],
                                     [f"gmode={o.gmode}/index={o.index_convention}" for o in OPTIONS_MATRIX])}


@cache
def _pairing(a: int, b: int) -> tuple[tuple[str, int, int], ...]:
    """(variant, lhs index, rhs index) per comparison of a head whose sides
    give a and b values: comparison i of rows = max(a, b) reads value
    i * a // rows of lhs and i * b // rows of rhs."""
    rows = max(a, b)
    return tuple((v, i * a // rows, i * b // rows) for i, v in enumerate(_VARIANTS[rows]))


def _compare(lv: Sequence, rv: Sequence) -> tuple[tuple, ...]:
    """The comparisons of a head whose sides give values lv and rv: one
    (variant, lhs, rhs, verdict, str(lhs), str(rhs)) per value of the longer
    side, paired as _pairing says.  A gmode's value goes with every options
    entry of its gmode, as OPTIONS_MATRIX is gmode-major, and a lone value
    with every variant.  Each value's str, taken once per value, is how every
    report format spells it."""
    ls, rs = [str(v) for v in lv], [str(v) for v in rv]
    return tuple((variant, lv[i], rv[j], "match" if lv[i] == rv[j] else "mismatch", ls[i], rs[j])
                 for variant, i, j in _pairing(len(lv), len(rv)))


def _side_values(memo: dict, side, g_key, g, k_max: int):
    """side(g, k_max), called once per (side, g_key, k_max) in the run's memo."""
    key = (side, g_key, k_max)
    vs = memo.get(key)
    if vs is None:
        vs = memo[key] = side(g, k_max)
    return vs


def _graph_walker(lhs, rhs, tails=_k_tails):
    """Compare side lhs with side rhs on every labeled graph with n <= n_max,
    yielding a head per tail of tails(k_max) and its comparisons.

    Every side sums over all vertex tuples or permutations, so its values
    depend only on the graph's isomorphism class: each side answers every
    tail for a class of graph.graph_classes from one call on the class's
    smallest-mask graph, and is called once per (class, k_max) in the run's
    memo, keyed on (side, (n, representative mask), k_max), so that claims
    which share a side share its values.  Each (class, tail) is decided by
    one _compare call, and every labeled graph of the class gets that one
    comparisons tuple, in ascending mask order, which is graph6 order, its
    graph6 spelled from its mask, then tails in their canonical order, so
    heads come in canonical order.
    """

    def walk(budget, memo):
        k_max = budget.k_max
        tail_list = tails(k_max)
        for n in range(1, budget.n_max + 1):
            class_of, reps = graph_classes(n)
            rows = []  # per class, (tail, comparisons) per tail
            for rep in reps:
                g = graph_from_mask(n, rep)
                lvs = _side_values(memo, lhs, (n, rep), g, k_max)
                rvs = _side_values(memo, rhs, (n, rep), g, k_max)
                rows.append([(tail, _compare(lv, rv)) for tail, lv, rv in zip(tail_list, lvs, rvs)])
            for mask, c in enumerate(class_of):
                prefix = f"n={n:02d}/g={graph6_from_mask(n, mask)}/"
                for tail, comps in rows[c]:
                    yield prefix + tail, comps

    return walk


@dataclass(frozen=True)
class ClaimSpec:
    """One claim: its default budget, its guard and its walker.

    Both pairs are (n_max, k_max).  k_max doubles as the polynomial-k bound
    for LEMMA4 and as the ground-set bound m for LEMMA6/THM4_FACTORIZATION;
    LEMMA2/3 fix k=2, so their k budget is moot.  LEMMA4 walks its scalar
    (k, s) half at every k <= k_max but its 0/1-vector half only at
    k <= min(4, k_max), _LEMMA4_VECTOR_K.  The seven claims that walk every
    labeled graph, each a _graph_walker that calls its sides once per
    isomorphism class, have graph.MAX_ENUM_N, the one bound of that walk, as
    their n guard, or their referees' own bound if it is lower (the lemma 7
    claims); other guards are the referees' own MAX_* bounds.  END_TO_END's
    guard is also the search's.
    """

    defaults: tuple[int, int]
    guard: tuple[int, int]
    walk: Callable[[Budget, dict], Iterator[tuple[str, tuple[tuple, ...]]]]


_SPECS: dict[ClaimId, ClaimSpec] = {
    ClaimId.LEMMA2: ClaimSpec((6, 2), (MAX_INJECT_N, 99), _pair_walker(
        lambda x: sum(v * v for v in x), True)),
    ClaimId.LEMMA3: ClaimSpec((6, 2), (MAX_INJECT_N, 99), _pair_walker(sum, False)),
    ClaimId.LEMMA4: ClaimSpec((8, 6), (MAX_INJECT_N, 8), _lemma4_walker),
    ClaimId.LEMMA6: ClaimSpec((6, 4), (MAX_INJECT_N, 6), _lemma6_walker),
    ClaimId.LEMMA1_VS_ORACLE: ClaimSpec((4, 2), (MAX_ENUM_N, MAX_MATCH_K), _graph_walker(_lemma1, _oracle)),
    ClaimId.THM1_VS_LEMMA1: ClaimSpec((4, 2), (MAX_ENUM_N, 8), _graph_walker(_thm1, _lemma1)),
    ClaimId.THM2_VS_THM1: ClaimSpec((4, 2), (MAX_THEOREM2_N, 8), _graph_walker(_thm2, _thm1)),
    ClaimId.LEMMA7_VS_THM2: ClaimSpec((4, 2), (MAX_LEMMA7_N, 8), _graph_walker(_lemma7, _thm2)),
    ClaimId.THM3_VS_LEMMA7: ClaimSpec((4, 2), (MAX_LEMMA7_N, 8), _graph_walker(_fast, _lemma7)),
    ClaimId.THM4_FACTORIZATION: ClaimSpec((4, 4), (MAX_ENUM_N, 5), _graph_walker(_products, _sums, _pi_tails)),
    ClaimId.END_TO_END: ClaimSpec((4, 2), (MAX_ENUM_N, MAX_MATCH_K), _graph_walker(_fast, _oracle)),
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
    every convention variant it reads, in the canonical order the walker
    emits, with a side memo for this call: one record per comparison of each
    head, made by tuple.__new__ in place, with no Python frame per record."""
    new = tuple.__new__
    return [new(VerificationRecord, (claim, head, l, r, verdict, variant))
            for head, comps in _SPECS[claim].walk(resolve_budget(claim, budget), {})
            for variant, l, r, verdict, _, _ in comps]


def discrepancy_search(n_max: int, k_max: int) -> VerificationReport:
    """fast_count vs oracle on every labeled graph up to n_max, every k, every combo.

    The records of verify_claim(END_TO_END) at Budget(n_max, k_max), under
    that claim's guard, in one canonical report: one record per (graph, k,
    options) triple.  This is the in-memory form, which holds every record;
    `kmatch search` writes the same bytes through write_claims instead.
    """
    return build_report(verify_claim(ClaimId.END_TO_END, Budget(n_max, k_max)), OPTIONS_MATRIX)


# -- report assembly and serialization ---------------------------------------

def _heads_of(records: Iterable[VerificationRecord]) -> Iterator[_Head]:
    """Held records as heads, for build_report and report_to_json: (claim,
    head, comparisons) per run of records that share claim and head, each
    comparison spelled as _compare spells one, with its record's verdict."""
    for (claim, head), run in groupby(records, key=lambda r: (r[0], r[1])):
        yield claim, head, tuple((r.variant, r.lhs, r.rhs, r.verdict, str(r.lhs), str(r.rhs)) for r in run)


def _out_of_order(claim: ClaimId, head: str, variant: str) -> ValueError:
    inst = f"{head}/{variant}" if variant else head
    return ValueError(f"records out of canonical order at {claim.value} {inst}")


def _tally(heads: Iterable[_Head], report: VerificationReport, last: _Head | None = None) -> None:
    """Count the comparisons of heads into report's summary, options_summary
    and first_counterexample; last is the head just before them, if any.

    The first record out of canonical order raises ValueError: claim values
    rise strictly run by run, heads rise strictly within a claim's run, and
    variants never fall within a head.  So (head, variant), ordered as the
    instance is since no head is a proper prefix of another, never falls in
    a run; equal records in a row are one head whose variants repeat."""
    summary, options_summary, first_cx = report.summary, report.options_summary, report.first_counterexample
    claim, last_head = last[:2] if last else (None, "")
    name = claim.value if claim else ""
    tally = summary.get(name)
    for c, head, comps in heads:
        if c is not claim:
            if c.value <= name:
                raise _out_of_order(c, head, comps[0][0])
            claim, name = c, c.value
            tally = summary[name] = {"match": 0, "mismatch": 0}
        elif head <= last_head:
            raise _out_of_order(c, head, comps[0][0])
        last_head, last_variant = head, ""
        for variant, _, _, verdict, _, _ in comps:
            if variant < last_variant:
                raise _out_of_order(c, head, variant)
            last_variant = variant
            tally[verdict] += 1
            if verdict == "mismatch" and name not in first_cx:
                first_cx[name] = f"{head}/{variant}" if variant else head
            if variant:
                ot = options_summary.get(variant) or options_summary.setdefault(
                    variant, {"match": 0, "mismatch": 0, "first_counterexample": None})
                ot[verdict] += 1
                if verdict == "mismatch" and ot["first_counterexample"] is None:
                    ot["first_counterexample"] = f"{head}/{variant}"


def build_report(
    records: list[VerificationRecord],
    options_matrix: Iterable[FastCountOptions] = (),
) -> VerificationReport:
    """Tally a list of records per claim and per variant; the report keeps the list.

    The records are grouped into heads (_heads_of) and counted by _tally, the
    writer's tally; records out of canonical order raise ValueError, as
    _tally says."""
    if not isinstance(records, list):
        raise TypeError(f"build_report takes a list of records, got {type(records).__name__}")
    report = VerificationReport(__version__, tuple(options_matrix), records, {}, {}, {})
    _tally(_heads_of(records), report)
    return report


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


# -- the report writer ---------------------------------------------------------
#
# A report is a head, its records' rows and a tail.  The head and the tail
# read only the report's tallies, so the writer tallies and spells each chunk
# of _CHUNK heads as the walk yields them and spills the rows to a temporary
# file, holding one chunk of heads at a time: `kmatch search --nmax 5
# --kmax 3` (3,297 heads of 4 records) peaked at 16.2-16.3 MB of RSS with
# 32, 16.3-16.4 MB with 128, 17.0 MB with 512 and 18.6 MB with 2048
# (Python 3.11), and its write_claims took 17.8, 15.7 and 16.7 ms (min of
# 30) with 32, 128 and 512
_CHUNK = 128


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# JSON is the bytes of _dumps(the report as one dict) + "\n", keys in sorted
# order, with the records between the head and the tail
def _json_head(report: VerificationReport) -> str:
    matrix = [{"gmode": o.gmode, "index_convention": o.index_convention} for o in report.options_matrix]
    return (f'{{"first_counterexample":{_dumps(report.first_counterexample)},"options_matrix":'
            f'{_dumps(matrix)},"options_summary":{_dumps(report.options_summary)},"records":[')


def _json_rows(heads: Iterable[_Head]) -> str:
    """The heads' records as JSON objects, comma-separated: each head's
    instance quoted once, up to its variant, and each value spelled as its
    comparison spells it."""
    rows, claim, ends, verdicts = [], None, {}, {}
    for c, head, comps in heads:
        if c is not claim:  # one .value per run of a claim, not per head
            claim, name = c, _quote(c.value)
        inst = _quote(head)[:-1]  # open: each variant's end closes it
        for variant, _, _, verdict, lhs, rhs in comps:
            end = ends.get(variant)
            if end is None:
                end = ends[variant] = _quote("/" + variant)[1:] if variant else '"'
            quoted = verdicts.get(verdict)
            if quoted is None:
                quoted = verdicts[verdict] = _quote(verdict)
            rows.append(f'{{"claim":{name},"instance":{inst}{end},"lhs":"{lhs}","rhs":"{rhs}","verdict":{quoted}}}')
    return ",".join(rows)


def _json_tail(report: VerificationReport) -> str:
    return f'],"summary":{_dumps(report.summary)},"version":{_dumps(report.version)}}}\n'


def _csv_rows(heads: Iterable[_Head]) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (c.value, f"{head}/{variant}" if variant else head, lhs, rhs, verdict)
        for c, head, comps in heads for variant, _, _, verdict, lhs, rhs in comps)
    return buf.getvalue()


def _text_head(report: VerificationReport) -> str:
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
    return "\n".join(lines) + "\n"


def _text_rows(heads: Iterable[_Head]) -> str:
    return "".join(f"  {c.value} {head}{'/' if variant else ''}{variant} lhs={lhs} rhs={rhs} {verdict}\n"
                   for c, head, comps in heads for variant, _, _, verdict, lhs, rhs in comps)


# per format: (the report's head, rows of a chunk of heads, the text between
# two chunks' rows, tail)
_FORMATS = {
    "json": (_json_head, _json_rows, ",", _json_tail),
    "csv": (lambda report: "claim,instance,lhs,rhs,verdict\n", _csv_rows, "", lambda report: ""),
    "text": (_text_head, _text_rows, "", lambda report: ""),
}
REPORT_FORMATS = tuple(_FORMATS)


def report_to_json(report: VerificationReport) -> str:
    """The JSON bytes of a held report, from the writer's own spellers: its
    records grouped into heads (_heads_of), its head and tail from its
    tallies."""
    return _json_head(report) + _json_rows(_heads_of(report.records)) + _json_tail(report)


def write_claims(claims: Iterable[ClaimId], budget: Budget, format: str,
                 open_out: Callable[[], AbstractContextManager[TextIO]]) -> None:
    """Write the report of claims at budget, in format (json, csv or text),
    to the text stream that open_out() opens: the bytes of build_report of
    the claims' records, in report order, under OPTIONS_MATRIX.

    The format and every claim's guard are checked before any work.  The
    claims share one side memo for the run, so a side that two claims read
    runs once per class and k_max.  No record is made: the writer takes
    (claim, head, comparisons) for each head of each claim's walk, in report
    order, and keeps only their spelled rows, in the spill (_write_heads).
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown report format {format!r}, expected json, csv, or text")
    claims = sorted(claims, key=lambda c: c.value)
    budgets = [resolve_budget(claim, budget) for claim in claims]
    memo: dict = {}
    _write_heads(((c, head, comps) for c, b in zip(claims, budgets) for head, comps in _SPECS[c].walk(b, memo)),
                 format, open_out)


def _write_heads(heads: Iterable[_Head], format: str,
                 open_out: Callable[[], AbstractContextManager[TextIO]]) -> None:
    """Write the report of heads, in canonical order, holding one chunk of
    _CHUNK of them at a time.

    Each chunk is counted by one _tally call into a report with no records,
    then spilled as rows to an unnamed temporary file.  The report's head
    needs every tally, so open_out is called only after the walk, for every
    format: a walk that fails, or records out of order, open nothing.  Then
    the report's head, the spill and the tail are written.
    """
    import tempfile

    top, rows, sep, tail = _FORMATS[format]
    report = VerificationReport(__version__, OPTIONS_MATRIX, [], {}, {}, {})
    heads = iter(heads)
    with tempfile.TemporaryFile("w+", encoding="ascii") as spill:
        between, last = "", None
        while chunk := list(islice(heads, _CHUNK)):
            _tally(chunk, report, last)
            spill.write(between + rows(chunk))
            between, last = sep, chunk[-1]
        spill.seek(0)
        with open_out() as out:
            out.write(top(report))
            while text := spill.read(1 << 16):
                out.write(text)
            out.write(tail(report))
