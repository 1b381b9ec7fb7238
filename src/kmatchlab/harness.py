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
its walker, which yields (head, block) per unit of the walk.  A block is a
tuple of (tail, comparisons) pairs, the comparisons decided by _compare
from the lhs and rhs values of instance head + tail.  The seven graph
claims share one walker and are each a pair of named sides, each called
once per isomorphism class of graphs for every tail of k_max, spelled once
per walk: one per chain referee (_oracle, _lemma1, _thm1, _thm2, _lemma7,
_fast) with tails k=KK, and THM4's _products and _sums with tails
m=MM/pi={...}.  The walker decides each (class, tail) once into one class
block, and yields each labeled graph of a class, head n=NN/g=G6/, with
its class's block object.  The other walkers yield each instance head
with a block of one tail, "".  The sides' values go in one memo per run,
which every claim of the run shares, so a side that two claims read runs
once per class and k_max.

A comparison is (variant, lhs, rhs, verdict): the variant ("", gmode=X
or gmode=X/index=Y, also the options_summary key) and the values as the
referees return them, int or Fraction.  A unit, (claim, head, block), is
what the report writer tallies and spells: it derives the block's tally
and its claim-free row pieces once, at the block's first use, and keeps
them on the block, so that each further labeled graph of the class costs
an order check, one addition of the block's tally and one str.join.
Records are structured: claim, instance head (head + tail), lhs, rhs,
verdict and variant, one per comparison, made only by verify_claim.  The
instance key is instance head/variant.

Verdicts are exact: match means lhs == rhs as rationals, nothing is
rounded or tolerated.  Reports are canonical: records in (claim, instance
key) order, zero-padded numeric fields, each value written by its str
("p/q", or "p" when integral), byte-identical JSON from run to run.  Every
walker emits that order; build_report, whose input is public, refuses
records out of it while it tallies them and sorts nothing.

One writer, write_claims, writes the report of `kmatch verify` and of
`kmatch search`, which is `verify --claim END_TO_END`.  It makes no
records: _tally adds each unit of the walk into the tallies of a report
with no records as it passes the unit on, and the writer takes those
units a chunk at a time, spells each chunk (JSON and text by one _rows,
CSV by csv.writer), spills it to a temporary file, and only once the walk
is done opens the output and writes the head, the spill and the tail.
Only write_claims and verify_claim read a claim's walk.
discrepancy_search, build_report and report_to_json are the in-memory
forms, which hold every record; the last two group them into units
(_heads_of), each a block of up to _CHUNK instance heads under head "",
for the same tally and spellers.
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
from operator import itemgetter
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


class _Block(tuple):
    """A block: the (tail, comparisons) pairs of one unit, tails in canonical
    order, each comparison (variant, lhs, rhs, verdict) as _compare makes
    them.  The graph walker yields one block object for every labeled graph
    of an isomorphism class.

    The report writer keeps what it derives from the block on it, none of
    it bound to a report or a claim: its tally (_block_tally), and its row
    pieces (_row_pieces) under the name of their format, json or text."""

    tally = json = text = None


def _one_tail(comps: tuple[tuple, ...]) -> _Block:
    """The block of a head with no tails: comps under tail ""."""
    return _Block((("", comps),))


# a unit: (claim, head, block), whose records have instance heads head + tail
_Unit = tuple[ClaimId, str, _Block]


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
# (head, block) per unit in canonical head order; every walker but the
# graph walker yields (head, _one_tail(_compare(lhs values, rhs values)))
# per instance head.  Each side's values come in the report order of the
# variants it reads: one value, one per gmode of GMODES or one per entry of
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
                yield inst, _one_tail(_compare([injection_sum((x, x))], [_double_sum(x) - diagonal(x)]))

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
            yield f"k={k:02d}/s={s:02d}", _one_tail(_compare(_gprime_sums(k, s), [falling_factorial(s, k)]))
    # the vector half, k <= _LEMMA4_VECTOR_K: injection_sum on k copies of a
    # 0/1 vector x vs the expansion at s = sum(x)
    kv_max = min(_LEMMA4_VECTOR_K, budget.k_max)
    for n in range(1, budget.n_max + 1):
        for x in product((0, 1), repeat=n):
            for k in range(2, kv_max + 1):
                comps = _compare([injection_sum((x,) * k)], _gprime_sums(k, sum(x)))
                yield f"n={n:02d}/x={_vec(x)}/k={k:02d}", _one_tail(comps)


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
                yield inst, _one_tail(_compare([_lemma6_expansion(X, ftab)], [injection_sum(X)]))


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
    (variant, lhs, rhs, verdict) per value of the longer side, paired as
    _pairing says.  A gmode's value goes with every options entry of its
    gmode, as OPTIONS_MATRIX is gmode-major, and a lone value with every
    variant."""
    return tuple((variant, lv[i], rv[j], "match" if lv[i] == rv[j] else "mismatch")
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
    yielding (head n=NN/g=G6/, its class's block) per graph, the block one
    (tail, comparisons) pair per tail of tails(k_max).

    Every side sums over all vertex tuples or permutations, so its values
    depend only on the graph's isomorphism class: each side answers every
    tail for a class of graph.graph_classes from one call on the class's
    smallest-mask graph, and is called once per (class, k_max) in the run's
    memo, keyed on (side, (n, representative mask), k_max), so that claims
    which share a side share its values.  Each (class, tail) is decided by
    one _compare call, into one block per class per walk, and every labeled
    graph of the class gets that one block object, in ascending mask order,
    which is graph6 order, its graph6 spelled from its mask; tails are in
    their canonical order, so records come in canonical order.
    """

    def walk(budget, memo):
        k_max = budget.k_max
        tail_list = tails(k_max)
        for n in range(1, budget.n_max + 1):
            class_of, reps = graph_classes(n)
            blocks = []
            for rep in reps:
                g = graph_from_mask(n, rep)
                lvs = _side_values(memo, lhs, (n, rep), g, k_max)
                rvs = _side_values(memo, rhs, (n, rep), g, k_max)
                blocks.append(_Block((tail, _compare(lv, rv)) for tail, lv, rv in zip(tail_list, lvs, rvs)))
            for mask, c in enumerate(class_of):
                yield f"n={n:02d}/g={graph6_from_mask(n, mask)}/", blocks[c]

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
    walk: Callable[[Budget, dict], Iterator[tuple[str, _Block]]]


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
    tail of each unit's block, under instance head head + tail, made by
    tuple.__new__ in place, with no Python frame per record."""
    new = tuple.__new__
    return [new(VerificationRecord, (claim, head + tail, l, r, verdict, variant))
            for head, block in _SPECS[claim].walk(resolve_budget(claim, budget), {})
            for tail, comps in block for variant, l, r, verdict in comps]


def discrepancy_search(n_max: int, k_max: int) -> VerificationReport:
    """fast_count vs oracle on every labeled graph up to n_max, every k, every combo.

    The records of verify_claim(END_TO_END) at Budget(n_max, k_max), under
    that claim's guard, in one canonical report: one record per (graph, k,
    options) triple.  This is the in-memory form, which holds every record;
    `kmatch search` writes the same bytes through write_claims instead.
    """
    return build_report(verify_claim(ClaimId.END_TO_END, Budget(n_max, k_max)), OPTIONS_MATRIX)


# -- report assembly and serialization ---------------------------------------

def _heads_of(records: Iterable[VerificationRecord]) -> Iterator[_Unit]:
    """Held records as units, for build_report and report_to_json: per run of
    records of one claim, (claim, "", block) per _CHUNK instance heads, the
    block one (instance head, comparisons) pair per run of records that
    share a head, each comparison as _compare makes one, with its record's
    verdict.  Its blocks are read once, so each holds many heads: with one
    unit per head, build_report of the 406,404 records of the search at
    (6, 3) took 1.2-1.3 s instead of 0.38-0.39 s (Python 3.11, 2-CPU Linux)."""
    for claim, run in groupby(records, key=itemgetter(0)):
        heads = ((head, tuple((r.variant, r.lhs, r.rhs, r.verdict) for r in recs))
                 for head, recs in groupby(run, key=itemgetter(1)))
        while block := _Block(islice(heads, _CHUNK)):
            yield claim, "", block


def _out_of_order(claim: ClaimId, head: str, variant: str) -> ValueError:
    inst = f"{head}/{variant}" if variant else head
    return ValueError(f"records out of canonical order at {claim.value} {inst}")


def _block_tally(claim: ClaimId, head: str, block: _Block) -> tuple:
    """The tally of block, met first at head in claim's run: (match,
    mismatch, first, by_variant), its totals, the instance suffix (tail,
    then /variant if any) of its first mismatch or None, and (variant,
    match, mismatch, first) per variant other than "", in block order, first
    the suffix of that variant's first mismatch or None.  Tails rise
    strictly and variants never fall within a tail: the first record out of
    that order, under this head, raises ValueError."""
    counts, firsts, first, last_tail = {}, {}, None, None
    for tail, comps in block:
        if last_tail is not None and tail <= last_tail:
            raise _out_of_order(claim, head + tail, comps[0][0])
        last_tail, last_variant = tail, ""
        for variant, _, _, verdict in comps:
            if variant < last_variant:
                raise _out_of_order(claim, head + tail, variant)
            last_variant = variant
            vt = counts.get(variant) or counts.setdefault(variant, {"match": 0, "mismatch": 0})
            vt[verdict] += 1
            if verdict == "mismatch" and variant not in firsts:
                firsts[variant] = f"{tail}/{variant}" if variant else tail
                if first is None:
                    first = firsts[variant]
    return (sum(vt["match"] for vt in counts.values()), sum(vt["mismatch"] for vt in counts.values()), first,
            tuple((v, vt["match"], vt["mismatch"], firsts.get(v)) for v, vt in counts.items() if v))


def _tally(units: Iterable[_Unit], report: VerificationReport) -> Iterator[_Unit]:
    """Yield each of units after adding its records into report's summary,
    options_summary and first_counterexample.

    Each block is tallied by _block_tally at its first use and the tally is
    kept on it; each unit adds its block's tally, so a first counterexample
    is set by the first unit whose block has one.

    The first record out of canonical order raises ValueError: claim values
    rise strictly run by run, within a claim's run each unit's first
    instance head is above the previous unit's last, and within a block
    tails rise strictly and variants never fall within a tail.  So
    (instance head, variant), ordered as the instance is since no instance
    head is a proper prefix of another, never falls in a run; equal records
    in a row are one head whose variants repeat."""
    summary, options_summary, first_cx = report.summary, report.options_summary, report.first_counterexample
    claim, name, last_inst = None, "", ""
    for unit in units:
        c, head, block = unit
        inst = head + block[0][0]
        if c is not claim:
            if c.value <= name:
                raise _out_of_order(c, inst, block[0][1][0][0])
            claim, name = c, c.value
            tally = summary[name] = {"match": 0, "mismatch": 0}
        elif inst <= last_inst:
            raise _out_of_order(c, inst, block[0][1][0][0])
        last_inst = head + block[-1][0]
        bt = block.tally
        if bt is None:
            bt = block.tally = _block_tally(c, head, block)
        match, mismatch, first, by_variant = bt
        tally["match"] += match
        tally["mismatch"] += mismatch
        if first is not None and name not in first_cx:
            first_cx[name] = head + first
        for variant, vmatch, vmismatch, vfirst in by_variant:
            ot = options_summary.get(variant) or options_summary.setdefault(
                variant, {"match": 0, "mismatch": 0, "first_counterexample": None})
            ot["match"] += vmatch
            ot["mismatch"] += vmismatch
            if vfirst is not None and ot["first_counterexample"] is None:
                ot["first_counterexample"] = head + vfirst
        yield unit


def build_report(
    records: list[VerificationRecord],
    options_matrix: Iterable[FastCountOptions] = (),
) -> VerificationReport:
    """Tally a list of records per claim and per variant; the report keeps the list.

    The records are grouped into units (_heads_of) and counted by _tally, the
    writer's tally; records out of canonical order raise ValueError, as
    _tally says."""
    if not isinstance(records, list):
        raise TypeError(f"build_report takes a list of records, got {type(records).__name__}")
    report = VerificationReport(__version__, tuple(options_matrix), records, {}, {}, {})
    for _ in _tally(_heads_of(records), report):
        pass
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
# of _CHUNK units as the walk yields them and spills the rows to a temporary
# file, holding one chunk of units at a time.  A graph claim's unit is one
# labeled graph, of k_max records per variant: 12 in `kmatch search --nmax 5
# --kmax 3`, 32 at its guard, (6, 8).  With Python 3.11 on a 2-CPU Linux
# machine, a search to a file peaked at 16.1-16.3 MB of RSS at (5, 3) with
# 8 to 64 and 16.4-16.5 MB with 128, and its write_claims took 8.8-14.5 ms
# (min of 30 to 100) with any of 8 to 128, within the host's noise.  At
# (6, 8), where chunks of 32 spell 125 KiB of rows, write_claims to a file
# peaked at 18.1-18.2 MiB with 8 to 32, 18.5 with 64 and 19.3-19.4 with 128,
# and took 0.48-0.64 s with 8 to 32, 0.62-0.69 s with 64 and 0.85-0.86 s
# with 128 (two runs each)
_CHUNK = 32


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# JSON is the bytes of _dumps(the report as one dict) + "\n", keys in sorted
# order, with the records between the head and the tail
def _json_head(report: VerificationReport) -> str:
    matrix = [{"gmode": o.gmode, "index_convention": o.index_convention} for o in report.options_matrix]
    return (f'{{"first_counterexample":{_dumps(report.first_counterexample)},"options_matrix":'
            f'{_dumps(matrix)},"options_summary":{_dumps(report.options_summary)},"records":[')


def _json_tail(report: VerificationReport) -> str:
    return f'],"summary":{_dumps(report.summary)},"version":{_dumps(report.version)}}}\n'


def _csv_rows(units: Iterable[_Unit]) -> str:
    """The units' records as CSV rows, spelled record by record: whether the
    instance field is quoted depends on all of it, head and suffix."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        (c.value, f"{head}{tail}/{variant}" if variant else head + tail, lhs, rhs, verdict)
        for c, head, block in units for tail, comps in block for variant, lhs, rhs, verdict in comps)
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


# per row format: (a claim's row opening, a head as spelled in a row, a
# record's row after its instance head, from its instance suffix, lhs, rhs
# and verdict, each value written by its str, the text between two rows)
_ROW_FORMATS = {
    "json": (lambda c: f'{{"claim":{_quote(c.value)},"instance":"', lambda head: _quote(head)[1:-1],
             lambda suffix, lhs, rhs, verdict:
             f'{_quote(suffix)[1:]},"lhs":"{lhs}","rhs":"{rhs}","verdict":{_quote(verdict)}}}', ","),
    "text": (lambda c: f"  {c.value} ", str,
             lambda suffix, lhs, rhs, verdict: f"{suffix} lhs={lhs} rhs={rhs} {verdict}\n", ""),
}


def _row_pieces(block: _Block, format: str) -> list[str]:
    """The rows of a block's records in format, separated by the format's
    separator, in pieces that a row's opening (claim and head) joins."""
    record, sep = _ROW_FORMATS[format][2:]
    ends = [record(f"{tail}/{variant}" if variant else tail, lhs, rhs, verdict)
            for tail, comps in block for variant, lhs, rhs, verdict in comps]
    return ["", *(end + sep for end in ends[:-1]), ends[-1]]


def _rows(units: Iterable[_Unit], format: str) -> str:
    """The units' records as rows in format, JSON or text: per unit, its
    claim's opening, spelled once per run of the claim, and its head,
    joined into its block's pieces, which _row_pieces spells at the block's
    first use and keeps on the block under the format's name."""
    opening_of, spell, _, sep = _ROW_FORMATS[format]
    rows, claim = [], None
    for c, head, block in units:
        if c is not claim:
            claim, opening = c, opening_of(c)
        pieces = getattr(block, format) or _row_pieces(block, format)
        setattr(block, format, pieces)
        rows.append((opening + spell(head)).join(pieces))
    return sep.join(rows)


# per format: (the report's head, rows of a chunk of units, the text between
# two chunks' rows, tail)
_FORMATS = {
    "json": (_json_head, lambda units: _rows(units, "json"), ",", _json_tail),
    "csv": (lambda report: "claim,instance,lhs,rhs,verdict\n", _csv_rows, "", lambda report: ""),
    "text": (_text_head, lambda units: _rows(units, "text"), "", lambda report: ""),
}
REPORT_FORMATS = tuple(_FORMATS)


def report_to_json(report: VerificationReport) -> str:
    """The JSON bytes of a held report, from the writer's own spellers: its
    records grouped into units (_heads_of), its head and tail from its
    tallies."""
    return _json_head(report) + _rows(_heads_of(report.records), "json") + _json_tail(report)


def write_claims(claims: Iterable[ClaimId], budget: Budget, format: str,
                 open_out: Callable[[], AbstractContextManager[TextIO]]) -> None:
    """Write the report of claims at budget, in format (json, csv or text),
    to the text stream that open_out() opens: the bytes of build_report of
    the claims' records, in report order, under OPTIONS_MATRIX.

    The format and every claim's guard are checked before any work.  The
    claims share one side memo for the run, so a side that two claims read
    runs once per class and k_max.  No record is made: the writer takes
    (claim, head, block) for each unit of each claim's walk, in report
    order, one per labeled graph for a graph claim, and keeps only their
    spelled rows, in the spill (_write_heads).
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown report format {format!r}, expected json, csv, or text")
    claims = sorted(claims, key=lambda c: c.value)
    budgets = [resolve_budget(claim, budget) for claim in claims]
    memo: dict = {}
    _write_heads(((c, head, block) for c, b in zip(claims, budgets) for head, block in _SPECS[c].walk(b, memo)),
                 format, open_out)


def _write_heads(units: Iterable[_Unit], format: str,
                 open_out: Callable[[], AbstractContextManager[TextIO]]) -> None:
    """Write the report of units, in canonical order, holding one chunk of
    _CHUNK of them at a time.

    Each unit is counted by _tally into a report with no records as it
    passes, and each chunk of counted units is spilled as rows to an unnamed
    temporary file.  A block is tallied and, for JSON and text, spelled at
    its first use and kept on the block, so a later graph of its class
    costs one addition of its tally and one join.  The report's head needs
    every tally, so open_out is called only after the walk, for every
    format: a walk that fails, or records out of order, open nothing.  Then
    the report's head, the spill and the tail are written.
    """
    import shutil
    import tempfile

    top, rows, sep, tail = _FORMATS[format]
    report = VerificationReport(__version__, OPTIONS_MATRIX, [], {}, {}, {})
    units = _tally(units, report)
    with tempfile.TemporaryFile("w+", encoding="ascii") as spill:
        between = ""
        while chunk := list(islice(units, _CHUNK)):
            spill.write(between + rows(chunk))
            between = sep
        spill.seek(0)
        with open_out() as out:
            out.write(top(report))
            shutil.copyfileobj(spill, out)
            out.write(tail(report))
