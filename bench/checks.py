"""Checks of kmatchlab's outputs against computations made apart from it.

Nothing in this module imports kmatchlab.  Graphs are decoded with the
decoder below, the formula is re-evaluated through the identity
bracket(m) = m! * e_m(degrees) (Lemma 6 with equal rows), and g' is taken
from its defining recursion: row k is the coefficient list of
row(k-1) * (s - (k-1)), seeded at k = 2 by the paper's (1, 1) or the
corrected (-1, 1).

Each ``check_*`` function returns a ``Verdict``: the indices of the
operations whose output failed a check, and the report-level problems
that no single operation can be blamed for.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

CONVENTIONS = (
    ("corrected", "corrected"),
    ("corrected", "paper"),
    ("paper", "corrected"),
    ("paper", "paper"),
)
LARGE_K_MAX = 9


@dataclass
class Verdict:
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)


# -- independent computations ------------------------------------------------

def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, 0-based edges) of a single-byte-order graph6 string."""
    n = ord(text[0]) - 63 if text else -1
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 order byte in {text!r}")
    bits = []
    for ch in text[1:]:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise ValueError(f"bad graph6 data byte in {text!r}")
        bits.extend((v >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    # upper triangle, column by column: (0,1), (0,2), (1,2), (0,3), ...
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise ValueError(f"graph6 string {text!r} too short for n={n}")
    return n, [p for p, b in zip(pairs, bits) if b]


def degrees(n: int, edges) -> list[int]:
    d = [0] * n
    for i, j in edges:
        d[i] += 1
        d[j] += 1
    return d


def random_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) as documented by ``kmatchlab.graph.generate``: one coin
    ``random.Random(seed).random() < p`` per vertex pair, row-major."""
    rng = random.Random(seed)
    return [pair for pair in combinations(range(n), 2) if rng.random() < p]


def elementary_symmetric(d, m_max: int) -> list[int]:
    """e_0..e_{m_max} of the values in ``d``."""
    e = [1] + [0] * m_max
    for x in d:
        for m in range(m_max, 0, -1):
            e[m] += e[m - 1] * x
    return e


def gprime_row(k: int, gmode: str) -> list[int]:
    """[0, g'_k(1), ..., g'_k(k)] from the defining recursion."""
    if k == 1:
        return [0, 1]
    row = [0, 1, 1] if gmode == "paper" else [0, -1, 1]
    for j in range(3, k + 1):
        row = [(row[l - 1] if l >= 1 else 0) - (j - 1) * (row[l] if l < len(row) else 0)
               for l in range(j + 1)]
    return row


def formula(d, k: int, gmode: str, index: str) -> Fraction:
    """The claimed count re-evaluated from degrees alone; 0 when k > n."""
    n = len(d)
    if k > n:
        return Fraction(0)
    e = elementary_symmetric(d, k)
    bracket = [factorial(m) * e[m] for m in range(k + 1)]
    g = gprime_row(k, gmode)
    if index == "paper":
        total = bracket[k] * sum(factorial(n - l) * g[l] for l in range(1, k + 1))
    else:
        total = sum(factorial(n - l) * g[l] * bracket[l] for l in range(1, k + 1))
    return Fraction(total, factorial(k) * factorial(n - k) * 2**k)


def matchings_in_complete(n: int, k: int) -> int:
    """k-matchings of K_n: n! / (k! (n-2k)! 2^k)."""
    if 2 * k > n:
        return 0
    return factorial(n) // (factorial(k) * factorial(n - 2 * k) * 2**k)


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- report checks -----------------------------------------------------------

_FIELD = re.compile(r"([^/=]+)=([^/]*)")


def parse_instance(instance: str) -> dict[str, str]:
    return dict(_FIELD.findall(instance))


def _options_key(fields: dict[str, str]) -> str | None:
    if "gmode" in fields and "index" in fields:
        return f"gmode={fields['gmode']}/index={fields['index']}"
    if "gmode" in fields:
        return f"gmode={fields['gmode']}"
    return None


def check_report_common(text: str, obj: dict, verdict: Verdict) -> list[dict[str, str]]:
    """Canonical bytes, canonical order, verdicts and every tally.

    Returns the parsed instance fields of every record, in record order.
    """
    if json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" != text:
        verdict.problems.append("re-serialized JSON differs from the report's bytes")
    records = obj["records"]
    keys = [(r["claim"], r["instance"]) for r in records]
    if keys != sorted(keys):
        verdict.problems.append("records are not in (claim, instance) order")
    summary: dict = {}
    options_summary: dict = {}
    first_cx: dict = {}
    parsed: dict[str, tuple[int, int]] = {}  # value text -> (numerator, denominator)
    fields = []
    for i, r in enumerate(records):
        f = parse_instance(r["instance"])
        fields.append(f)
        try:
            for value in (r["lhs"], r["rhs"]):
                if value not in parsed:
                    q = Fraction(value)
                    parsed[value] = (q.numerator, q.denominator)
        except ValueError:
            verdict.failed.add(i)
            continue
        same = parsed[r["lhs"]] == parsed[r["rhs"]]
        if r["verdict"] != ("match" if same else "mismatch"):
            verdict.failed.add(i)
        v = r["verdict"]
        tally = summary.setdefault(r["claim"], {"match": 0, "mismatch": 0})
        tally[v] = tally.get(v, 0) + 1
        if v == "mismatch":
            first_cx.setdefault(r["claim"], r["instance"])
        okey = _options_key(f)
        if okey is not None:
            ot = options_summary.setdefault(
                okey, {"match": 0, "mismatch": 0, "first_counterexample": None}
            )
            ot[v] = ot.get(v, 0) + 1
            if v == "mismatch" and ot["first_counterexample"] is None:
                ot["first_counterexample"] = r["instance"]
    for name, recount in (
        ("summary", summary),
        ("options_summary", options_summary),
        ("first_counterexample", first_cx),
    ):
        if obj.get(name) != recount:
            verdict.problems.append(f"{name} differs from a recount of the records")
    return fields


def check_search(text: str, n_max: int, k_max: int) -> Verdict:
    """END_TO_END records of ``kmatch search --nmax n_max --kmax k_max``."""
    obj = json.loads(text)
    verdict = Verdict()
    fields = check_report_common(text, obj, verdict)
    records = obj["records"]
    want = len(CONVENTIONS) * k_max * sum(2 ** comb(n, 2) for n in range(1, n_max + 1))
    if len(records) != want:
        verdict.problems.append(f"{len(records)} records, expected {want}")

    decoded: dict[str, tuple[int, tuple[int, ...]]] = {}
    expected: dict[tuple, str] = {}
    rhs_sum: dict[tuple, int] = {}
    lhs_sum: dict[tuple, Fraction] = {}  # k = 1 only
    groups: dict[tuple, list[int]] = {}
    graphs: dict[int, set[str]] = {}
    for i, (r, f) in enumerate(zip(records, fields)):
        try:
            n, g6, k = int(f["n"]), f["g"], int(f["k"])
            gmode, index = f["gmode"], f["index"]
            if r["claim"] != "END_TO_END" or (gmode, index) not in CONVENTIONS:
                raise ValueError(r["claim"])
            if g6 not in decoded:
                gn, edges = decode_graph6(g6)
                decoded[g6] = (gn, tuple(sorted(degrees(gn, edges))))
            gn, d = decoded[g6]
            if gn != n:
                raise ValueError(g6)
            key = (d, k, gmode, index)
            if key not in expected:
                expected[key] = rat(formula(d, k, gmode, index))
            if r["lhs"] != expected[key]:
                verdict.failed.add(i)
            group = (n, k, gmode, index)
            rhs_sum[group] = rhs_sum.get(group, 0) + int(r["rhs"])
            if k == 1:
                if r["verdict"] != "match":
                    verdict.failed.add(i)
                lhs = r["lhs"]
                lhs_sum[group] = lhs_sum.get(group, 0) + (Fraction(lhs) if "/" in lhs else int(lhs))
            groups.setdefault(group, []).append(i)
            graphs.setdefault(n, set()).add(g6)
        except (KeyError, ValueError):
            verdict.failed.add(i)

    for (n, k, gmode, index), members in groups.items():
        slots = comb(n, 2)
        col_ok = rhs_sum[(n, k, gmode, index)] == matchings_in_complete(n, k) * Fraction(2) ** (slots - k)
        if k == 1:
            col_ok = col_ok and lhs_sum[(n, k, gmode, index)] == slots * Fraction(2) ** (slots - 1)
        if not col_ok:
            verdict.failed.update(members)
    for n in range(1, n_max + 1):
        if len(graphs.get(n, ())) != 2 ** comb(n, 2):
            verdict.problems.append(f"n={n}: {len(graphs.get(n, ()))} distinct graphs")
    return verdict


def check_large_count(results, graphs) -> Verdict:
    """``results`` holds fast_count's CountResult for each case of
    ``large_count_cases``, in order; ``graphs`` lists (n, p, seed) per graph."""
    verdict = Verdict()
    cases = large_count_cases(len(graphs))
    if len(results) != len(cases):
        verdict.problems.append(f"{len(results)} results for {len(cases)} cases")
    facts = []
    for n, p, seed in graphs:
        edges = random_edges(n, p, seed)
        facts.append((n, degrees(n, edges), len(edges)))
    for i, ((gi, k, gmode, index), res) in enumerate(zip(cases, results)):
        n, d, m = facts[gi]
        ok = (
            res.value == formula(d, k, gmode, index)
            and res.is_integral == (res.value.denominator == 1)
            and (res.n, res.k) == (n, k)
            and (res.options.gmode, res.options.index_convention) == (gmode, index)
            and (k != 1 or res.value == m)
        )
        if not ok:
            verdict.failed.add(i)
    return verdict


def large_count_cases(n_graphs: int) -> list[tuple[int, int, str, str]]:
    return [
        (gi, k, gmode, index)
        for gi in range(n_graphs)
        for k in range(1, LARGE_K_MAX + 1)
        for gmode, index in CONVENTIONS
    ]
