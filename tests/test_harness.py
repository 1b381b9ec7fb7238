"""Claim walkers, the exhaustive search, and report plumbing.

Beyond unit behavior, two meta-properties are enforced: report bytes are
pinned by golden digests, and summaries must be honest recounts of the
records they summarize.
"""

import csv
import hashlib
import io
import json
import re
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from kmatchlab import cli, harness
from kmatchlab.coeffs import GMODES
from kmatchlab.errors import CapacityError
from kmatchlab.fastcount import FastCountOptions, fast_count
from kmatchlab.graph import from_edge_list, graph6_from_mask, graph_classes, graph_from_mask, parse_graph6
from kmatchlab.harness import (
    OPTIONS_MATRIX,
    Budget,
    ClaimId,
    VerificationRecord,
    build_report,
    discrepancy_search,
    report_from_json,
    report_to_json,
    verify_claim,
)
from kmatchlab.oracle import count_k_matchings, matching_counts

from helpers import encode_graph6, enumerate_all_graphs


def _written(report, format):
    # the report writer, fed the report's records as heads
    buf = io.StringIO()
    harness._write_heads(harness._heads_of(report.records), format, lambda: nullcontext(buf))
    return buf.getvalue()


def report_to_csv(report):
    return _written(report, "csv")


def report_to_text(report):
    return _written(report, "text")


def _counts(records):
    match = sum(1 for r in records if r.verdict == "match")
    return match, len(records) - match


def test_lemma2_exhaustive_plus_random_all_match():
    recs = verify_claim(ClaimId.LEMMA2)
    assert len(recs) == 246
    assert _counts(recs) == (246, 0)


def test_lemma3_exhaustive_all_match():
    recs = verify_claim(ClaimId.LEMMA3)
    assert len(recs) == 126
    assert _counts(recs) == (126, 0)


def test_lemma4_split_verdicts_by_gmode():
    recs = verify_claim(ClaimId.LEMMA4)
    assert len(recs) == 3150
    corrected = [r for r in recs if "gmode=corrected" in r.instance]
    assert all(r.verdict == "match" for r in corrected)
    broken = [r for r in recs if r.instance == "k=02/s=02/gmode=paper"]
    assert len(broken) == 1
    assert (broken[0].lhs, broken[0].rhs, broken[0].verdict) == (6, 2, "mismatch")


def test_lemma4_vector_half_stops_at_k4():
    # the scalar (k, s) half runs to k_max, the 0/1-vector half to k = 4
    recs = verify_claim(ClaimId.LEMMA4, Budget(n_max=3, k_max=8))
    vector_ks = {int(r.head[-2:]) for r in recs if "/x=" in r.head}
    scalar_ks = {int(r.head[2:4]) for r in recs if "/s=" in r.head}
    assert vector_ks == {2, 3, 4}
    assert scalar_ks == set(range(2, 9))


def test_lemma6_all_match_and_trial_counts():
    recs = verify_claim(ClaimId.LEMMA6)
    assert len(recs) == 240
    assert _counts(recs) == (240, 0)
    per_mn = {}
    for r in recs:
        key = r.instance.split("/seed=")[0]
        per_mn[key] = per_mn.get(key, 0) + 1
    assert all(v == 20 for v in per_mn.values())


def test_lemma6_seed_changes_instances():
    a = verify_claim(ClaimId.LEMMA6, Budget(n_max=3, k_max=2, seed=0))
    b = verify_claim(ClaimId.LEMMA6, Budget(n_max=3, k_max=2, seed=1))
    assert {r.instance for r in a} != {r.instance for r in b}
    assert _counts(a) == _counts(b) == (40, 0)


def test_thm4_factorization_all_match():
    recs = verify_claim(ClaimId.THM4_FACTORIZATION, Budget(n_max=3, k_max=3))
    assert recs and _counts(recs)[1] == 0


def test_lemma1_vs_oracle_records_known_counterexample():
    recs = verify_claim(ClaimId.LEMMA1_VS_ORACLE, Budget(n_max=3, k_max=2))
    assert len(recs) == 22
    hit = [r for r in recs if r.instance == "n=03/g=Bg/k=02"]
    assert len(hit) == 1
    assert (hit[0].lhs, hit[0].rhs, hit[0].verdict) == (Fraction(1), Fraction(0), "mismatch")


def test_thm1_vs_lemma1_corrected_clean_paper_not():
    recs = verify_claim(ClaimId.THM1_VS_LEMMA1, Budget(n_max=4, k_max=3))
    corrected = [r for r in recs if "gmode=corrected" in r.instance]
    paper = [r for r in recs if "gmode=paper" in r.instance]
    assert corrected and all(r.verdict == "match" for r in corrected)
    assert any(r.verdict == "mismatch" for r in paper)


def test_chain_is_sorted_and_respects_options_subset():
    # every claim that reads the index convention walks the whole matrix
    recs = verify_claim(ClaimId.THM3_VS_LEMMA7, Budget(n_max=3, k_max=2))
    assert recs == sorted(recs, key=lambda r: (r.claim.value, r.instance))
    variants = {f"gmode={o.gmode}/index={o.index_convention}" for o in OPTIONS_MATRIX}
    assert {r.variant for r in recs} == variants and len(variants) == 4
    assert _counts(recs)[1] == 0


# ClaimId order; each claim's (n_max, k_max) guard
GUARDS = [(10, 99), (10, 99), (10, 8), (10, 6), (6, 8), (6, 8), (6, 8), (5, 8), (5, 8), (6, 5), (6, 8)]


@pytest.mark.parametrize("claim, guard", zip(ClaimId, GUARDS), ids=[c.value for c in ClaimId])
def test_every_claim_guard_fires_before_work(monkeypatch, claim, guard):
    def no_work(*args, **kwargs):
        raise AssertionError("a walker ran past the guard")

    # the graph walker's first call, before any side runs
    monkeypatch.setattr(harness, "graph_classes", no_work)
    monkeypatch.setattr(harness, "product", no_work)
    monkeypatch.setattr(harness, "compute_gprime", no_work)
    monkeypatch.setattr(harness, "compute_f", no_work)
    n_guard, k_guard = guard
    with pytest.raises(CapacityError):
        verify_claim(claim, Budget(n_max=n_guard + 1, k_max=1))
    with pytest.raises(CapacityError):
        verify_claim(claim, Budget(n_max=1, k_max=k_guard + 1))


def test_verify_claim_guards_fire_before_work():
    with pytest.raises(CapacityError):
        verify_claim(ClaimId.LEMMA7_VS_THM2, Budget(n_max=6, k_max=2))
    with pytest.raises(CapacityError):
        verify_claim(ClaimId.LEMMA2, Budget(n_max=11))
    with pytest.raises(ValueError):
        verify_claim(ClaimId.LEMMA2, Budget(n_max=0))


def test_build_report_tallies_are_recounts():
    recs = verify_claim(ClaimId.END_TO_END, Budget(n_max=3, k_max=2))
    rep = build_report(recs, OPTIONS_MATRIX)
    for claim, tally in rep.summary.items():
        sub = [r for r in rep.records if r.claim.value == claim]
        assert tally["match"] == sum(1 for r in sub if r.verdict == "match")
        assert tally["mismatch"] == sum(1 for r in sub if r.verdict == "mismatch")
        mism = [r.instance for r in sub if r.verdict == "mismatch"]
        if mism:
            assert rep.first_counterexample[claim] == mism[0]
        else:
            assert claim not in rep.first_counterexample
    total = sum(t["match"] + t["mismatch"] for t in rep.options_summary.values())
    assert total == len(recs)


def test_search_completeness_and_determinism():
    rep = discrepancy_search(3, 2)
    want = sum(2 ** (n * (n - 1) // 2) for n in (1, 2, 3)) * 2 * len(OPTIONS_MATRIX)
    assert len(rep.records) == 88 == want
    again = discrepancy_search(3, 2)
    assert report_to_json(rep) == report_to_json(again)


SEARCH_DIGESTS = [
    (4, 2, "57ccbcd0f8451de91bdcd64e461f53856ac6476a909a96f67d86b628fcb84177"),
    (5, 3, "c3ca25f7cd19b1fe643586ba458a7229638f2eb1804ff83c273f3da5bd9b48da"),
]


@pytest.mark.parametrize("n_max, k_max, digest", SEARCH_DIGESTS)
def test_search_report_golden_digest(n_max, k_max, digest):
    # refactors of the formula or the search must leave the report bytes as
    # they are
    text = report_to_json(discrepancy_search(n_max, k_max))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("sink", ["file", "stdout"])
@pytest.mark.parametrize("n_max, k_max, digest", SEARCH_DIGESTS)
def test_cli_search_golden_digest(tmp_path, capsys, n_max, k_max, digest, sink):
    # `kmatch search` streams its report through write_claims, never through
    # discrepancy_search: the same bytes, to a file and to stdout
    argv = ["search", "--nmax", str(n_max), "--kmax", str(k_max)]
    path = tmp_path / "search.json"
    assert cli.main(argv + ["--out", str(path)] * (sink == "file")) == 0
    data = path.read_bytes() if sink == "file" else capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(data).hexdigest() == digest


class _HashSink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("ascii"))


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _search(n_max, k_max, open_out):
    harness.write_claims([ClaimId.END_TO_END], Budget(n_max, k_max), "json", open_out)


def test_streamed_search_holds_one_chunk_of_records(tmp_path):
    # the 13,188 records of (5, 3) take about 1.7 MB held in a list; the
    # stream makes none, holds one chunk of heads and peaked at 0.35 MB
    # (Python 3.11)
    sink = _HashSink()
    _search(5, 3, lambda: nullcontext(sink))  # fills the caches
    assert sink.sha.hexdigest() == SEARCH_DIGESTS[1][2]
    bound = 1_000_000
    assert _traced_peak(lambda: _search(5, 3, lambda: nullcontext(_HashSink()))) < bound
    assert _traced_peak(lambda: report_to_json(discrepancy_search(5, 3))) > bound
    # `kmatch verify` writes through the same stream, in every format: it
    # peaked at 0.36-0.52 MB, and at 1.7-1.8 MB when it held its records
    for format in ("json", "csv", "text"):
        argv = ["verify", "--claim", "END_TO_END", "--nmax", "5", "--kmax", "3", "--format", format,
                "--out", str(tmp_path / f"rep.{format}")]
        assert _traced_peak(lambda: cli.main(argv)) < bound, format


def test_tallies_resume_across_chunks(monkeypatch):
    # chunks of 1, 3 and 7 heads, the last chunk of 7 a short one; the
    # writer's tallies and bytes, in every format, are those of the whole list
    recs = verify_claim(ClaimId.END_TO_END, Budget(4, 2))
    assert len({r.head for r in recs}) % 7
    rep = build_report(recs, OPTIONS_MATRIX)
    want = {format: _written(rep, format) for format in ("json", "csv", "text")}
    assert hashlib.sha256(want["json"].encode("ascii")).hexdigest() == SEARCH_DIGESTS[0][2]
    for size in (1, 3, 7):
        monkeypatch.setattr(harness, "_CHUNK", size)
        got = {format: _written(rep, format) for format in want}
        assert got == want, size
        # the JSON head carries every tally the writer kept
        back = report_from_json(got["json"])
        assert (back.summary, back.options_summary, back.first_counterexample) == (
            rep.summary, rep.options_summary, rep.first_counterexample), size
        sink = _HashSink()
        _search(4, 2, lambda: nullcontext(sink))
        assert sink.sha.hexdigest() == SEARCH_DIGESTS[0][2], size


@pytest.fixture(scope="module")
def default_records():
    return {claim: verify_claim(claim) for claim in ClaimId}


@pytest.fixture(scope="module")
def verify_all_report(default_records):
    # claims in report order, as `kmatch verify --claim all` walks them
    records = [r for claim in sorted(ClaimId, key=lambda c: c.value) for r in default_records[claim]]
    return build_report(records, OPTIONS_MATRIX)


ORDER_CASES = [(claim, None) for claim in ClaimId] + [
    (ClaimId.LEMMA2, Budget(n_max=10, seed=3)),
    (ClaimId.THM4_FACTORIZATION, Budget(n_max=2, k_max=5)),
]


@pytest.mark.parametrize("claim, budget", ORDER_CASES,
                         ids=[f"{c.value}-default" for c in ClaimId] + ["LEMMA2-n10-seed3", "THM4_FACTORIZATION-m5"])
def test_verify_claim_returns_records_in_canonical_order(default_records, claim, budget):
    # verify_claim sorts nothing: each walker must emit (claim, instance)
    # order itself, strictly ascending, so no instance repeats either
    recs = default_records[claim] if budget is None else verify_claim(claim, budget)
    keys = [(r.claim.value, r.instance) for r in recs]
    assert keys and all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "formatter, digest",
    [
        (report_to_json, "6ea7c29519a55d452537f89a610b2eac6d63e4318759a5cb7c14e9424184049e"),
        (report_to_csv, "c368e9db86e0bfaa51964c7660d9e3f683e93c068f39a9162a0634337a28d22c"),
        (report_to_text, "a0181979524bf70689ec32e20803f105fe5dfbbd30916ecd663d8c96f5bcc906"),
    ],
)
def test_verify_all_report_golden_digest(verify_all_report, formatter, digest):
    # the bytes of `kmatch verify --claim all --format {json,csv,text}`;
    # refactors of the claim layer must leave them as they are
    text = formatter(verify_all_report)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


# a README verdict's settings: (the one under which the claim holds, the
# one under which it fails, in every variant); a variant is under a setting
# if the setting is one of its /-separated parts, and "" is every variant
_README_VERDICTS = {
    "hold everywhere": ("", None),
    "holds everywhere": ("", None),
    "holds in corrected mode": ("gmode=corrected", "gmode=paper"),
    "holds under the corrected index convention": ("index=corrected", "index=paper"),
    "false": (None, ""),
}


def _readme_claim_table():
    """{claim: verdict} from the rows of the README's claim table."""
    rows = {}
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines():
        if line.startswith("| `"):
            names, _, verdict = (cell.strip() for cell in line.strip("| ").split(" | "))
            rows.update((name, verdict) for name in re.findall(r"`(\w+)`", names))
    return rows


def test_readme_claim_table_agrees_with_records(verify_all_report):
    # the hand-written verdicts of the README against the mismatches per
    # (claim, variant) of `kmatch verify --claim all` at the default budgets
    rows = _readme_claim_table()
    assert set(rows) == {c.value for c in ClaimId}
    mismatches: dict = {}
    for r in verify_all_report.records:
        tally = mismatches.setdefault(r.claim.value, {})
        tally[r.variant] = tally.get(r.variant, 0) + (r.verdict == "mismatch")
    for claim, verdict in rows.items():
        [(holds, fails)] = [v for prefix, v in _README_VERDICTS.items() if verdict.startswith(prefix)]

        def under(setting):
            counts = [c for v, c in mismatches[claim].items() if not setting or setting in v.split("/")]
            assert counts, (claim, setting)
            return counts

        if holds is not None:
            assert max(under(holds)) == 0, (claim, verdict)
        if fails is not None:
            assert min(under(fails)) > 0, (claim, verdict)
        for k, s in re.findall(r"fails at k=(\d+), s=(\d+)", verdict):
            assert verify_all_report.first_counterexample[claim].startswith(f"k={int(k):02d}/s={int(s):02d}/")


@pytest.mark.parametrize("n_max, k_max", [(3, 2), (4, 3), (4, 8)])
def test_search_records_are_end_to_end_records(n_max, k_max):
    # verify and search produce END_TO_END records through one code path
    assert verify_claim(ClaimId.END_TO_END, Budget(n_max, k_max)) == discrepancy_search(n_max, k_max).records


def test_search_soundness_spot_check():
    rep = discrepancy_search(4, 2)
    pat = re.compile(r"n=(\d+)/g=(.+)/k=(\d+)/gmode=(\w+)/index=(\w+)$")
    picked = rep.records[::97]
    assert picked
    for r in picked:
        m = pat.match(r.instance)
        n, g6, k, gm, ix = m.groups()
        g = parse_graph6(g6)
        assert g.n == int(n)
        opts = FastCountOptions(gm, ix)
        assert r.lhs == fast_count(g, int(k), opts).value
        assert r.rhs == count_k_matchings(g, int(k))
        assert r.verdict == ("match" if r.lhs == r.rhs else "mismatch")


def test_search_guards():
    # the search is refused by END_TO_END's own guard, n_max <= 6 and k_max <= 8
    for n_max, k_max in ((7, 1), (1, 9)):
        text = f"budget n_max={n_max}, k_max={k_max} exceeds END_TO_END guard (n_max <= 6, k_max <= 8)"
        with pytest.raises(CapacityError, match=re.escape(text)):
            discrepancy_search(n_max, k_max)
    with pytest.raises(ValueError):
        discrepancy_search(0, 1)


def _class_reps(n_max):
    """The smallest-mask graph of each isomorphism class with n <= n_max, in walk order."""
    return [graph_from_mask(n, rep) for n in range(1, n_max + 1) for rep in graph_classes(n)[1]]


def test_graph_walker_calls_each_plain_side_once_per_graph(monkeypatch):
    # the oracle side reads no degrees: one matching_counts call per
    # isomorphism class for all k, however many labeled graphs it has or
    # share its degree histogram; fast_count once per (histogram, k, options)
    calls = {"oracle": 0, "fast": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(harness, "matching_counts", counted("oracle", matching_counts))
    monkeypatch.setattr(harness, "fast_count", counted("fast", fast_count))
    recs = verify_claim(ClaimId.END_TO_END, Budget(n_max=4, k_max=2))
    graphs = sum(2 ** (n * (n - 1) // 2) for n in range(1, 5))
    assert len(recs) == graphs * 2 * len(OPTIONS_MATRIX)
    assert calls["oracle"] == len(_class_reps(4)) == 1 + 2 + 4 + 11
    histograms = {(parse_graph6(r.head.split("/")[1][2:]).degree_counts, r.head[-2:]) for r in recs}
    assert calls["fast"] == len(histograms) * len(OPTIONS_MATRIX)


def test_every_side_is_label_invariant():
    # each chain referee, and each THM4 side, sums over all tuples or
    # permutations of the vertices, so it must give the same values on every
    # relabeling of a graph: here on the images under i -> n-1-i and
    # i -> i+1 mod n, and on the smallest-mask graph of its isomorphism class,
    # whose values the graph walker gives every graph of the class
    sides = [harness._oracle, harness._lemma1, harness._thm1, harness._thm2, harness._lemma7, harness._fast,
             harness._products, harness._sums]
    for n in range(1, 5):
        class_of, reps = graph_classes(n)
        for mask, g in enumerate(enumerate_all_graphs(n)):
            edges = [(i, j) for i, row in enumerate(g.rows) for j in row]
            images = [from_edge_list(n, [(f(i) + 1, f(j) + 1) for i, j in edges])
                      for f in (lambda i: n - 1 - i, lambda i: (i + 1) % n)]
            images.append(graph_from_mask(n, reps[class_of[mask]]))
            for side in sides:
                want = side(g, 2)
                for h in images:
                    assert side(h, 2) == want, (side.__name__, encode_graph6(g), encode_graph6(h))


@pytest.mark.parametrize("claim, lhs, rhs, tails", [
    (ClaimId.LEMMA1_VS_ORACLE, "_lemma1", "_oracle", "_k_tails"),
    (ClaimId.END_TO_END, "_fast", "_oracle", "_k_tails"),
    (ClaimId.THM4_FACTORIZATION, "_products", "_sums", "_pi_tails"),
], ids=["LEMMA1_VS_ORACLE", "END_TO_END", "THM4_FACTORIZATION"])
def test_graph_walker_calls_each_side_once_per_graph_for_all_k(monkeypatch, claim, lhs, rhs, tails):
    # a side answers every k <= k_max (every THM4 partition of {1..m},
    # m <= k_max) in one call: once per isomorphism class, on its
    # smallest-mask graph, in walk order, even a side that sees only degrees
    seen = {lhs: [], rhs: []}

    def counted(name):
        def side(g, k_max):
            seen[name].append((g, k_max))
            return getattr(harness, name)(g, k_max)
        return side

    # n = 5 is the first n at which two classes share a sorted degree
    # sequence (P5 and K3+K2 among them), where a memo keyed on degrees
    # would call _fast and _products fewer times
    budget = Budget(n_max=5, k_max=3)
    want = verify_claim(claim, budget)
    walk = harness._graph_walker(counted(lhs), counted(rhs), getattr(harness, tails))
    monkeypatch.setitem(harness._SPECS, claim, replace(harness._SPECS[claim], walk=walk))
    assert verify_claim(claim, budget) == want
    reps = [(g, budget.k_max) for g in _class_reps(budget.n_max)]
    assert seen[lhs] == seen[rhs] == reps


def test_graph_walker_decides_each_class_once_per_tail(monkeypatch):
    # the END_TO_END walk at (5, 3) decides each (class, k) once, 52 classes
    # times 3 k, into one block per class, and yields each of the 1,099
    # labeled graphs with its class's block object, however many records it
    # has; the writer tallies and spells each block once, not per graph
    compare, calls = harness._compare, []

    def counted(lv, rv):
        calls.append((lv, rv))
        return compare(lv, rv)

    monkeypatch.setattr(harness, "_compare", counted)
    budget = Budget(n_max=5, k_max=3)
    assert len(verify_claim(ClaimId.END_TO_END, budget)) == 13_188
    assert len(calls) == 156 == len(_class_reps(5)) * 3
    units = harness._SPECS[ClaimId.END_TO_END].walk(budget, {})
    seen = {}
    for n in range(1, 6):
        for mask, c in enumerate(graph_classes(n)[0]):
            head, block = next(units)
            assert head == f"n={n:02d}/g={graph6_from_mask(n, mask)}/"
            assert [tail for tail, _ in block] == ["k=01", "k=02", "k=03"], head
            assert seen.setdefault((n, c), block) is block, head
    assert next(units, None) is None
    assert sum(2 ** (n * (n - 1) // 2) for n in range(1, 6)) == 1_099
    assert len(seen) == 52 and len(calls) == 2 * 156
    # through write_claims, in JSON and in text, each block's tally and
    # row pieces are made once, at its first labeled graph, and no pieces
    # of the other format are made
    made = {"_block_tally": 0, "json": 0, "text": 0}
    block_tally, row_pieces = harness._block_tally, harness._row_pieces

    def tallied(*args):
        made["_block_tally"] += 1
        return block_tally(*args)

    def spelled(block, format):
        made[format] += 1
        return row_pieces(block, format)

    monkeypatch.setattr(harness, "_block_tally", tallied)
    monkeypatch.setattr(harness, "_row_pieces", spelled)
    for format, other, digest in (("json", "text", SEARCH_DIGESTS[1][2]), ("text", "json", None)):
        made.update(dict.fromkeys(made, 0))
        sink = _HashSink()
        harness.write_claims([ClaimId.END_TO_END], budget, format, lambda: nullcontext(sink))
        assert digest is None or sink.sha.hexdigest() == digest
        assert made == {"_block_tally": 52, format: 52, other: 0}, format


# per graph claim, its (lhs, rhs) referees as (name in harness, what each reads
# besides (graph, k)): nothing, the gmode or the full options
_CHAIN_SIDES = {
    ClaimId.LEMMA1_VS_ORACLE: (("lemma1_sum", ""), ("matching_counts", "")),
    ClaimId.THM1_VS_LEMMA1: (("theorem1_eval", "gmode"), ("lemma1_sum", "")),
    ClaimId.THM2_VS_THM1: (("theorem2_eval", "gmode"), ("theorem1_eval", "gmode")),
    ClaimId.LEMMA7_VS_THM2: (("lemma7_eval", "options"), ("theorem2_eval", "gmode")),
    ClaimId.THM3_VS_LEMMA7: (("fast_count", "options"), ("lemma7_eval", "options")),
    ClaimId.END_TO_END: (("fast_count", "options"), ("matching_counts", "")),
}

# the variants a referee's values stand for, in report order, by what it reads
_READ_VARIANTS = {
    "": [""],
    "gmode": [f"gmode={gm}" for gm in GMODES],
    "options": [f"gmode={o.gmode}/index={o.index_convention}" for o in OPTIONS_MATRIX],
}


def _referee_args(read, variant):
    """What a referee that reads `read` takes besides (graph, k) in a record of `variant`."""
    if not read:
        return ()
    gm, _, ix = variant.removeprefix("gmode=").partition("/index=")
    return (gm,) if read == "gmode" else (FastCountOptions(gm, ix),)


@pytest.mark.parametrize("claim", list(_CHAIN_SIDES), ids=[c.value for c in _CHAIN_SIDES])
def test_graph_walker_pairs_each_record_with_its_own_variant(monkeypatch, claim):
    # each record's lhs and rhs are the referees at that record's own gmode or
    # options, evaluated here on the record's own labeled graph; the walker
    # calls matching_counts once per isomorphism class for all k, every other
    # referee once per (class, k) and value it reads, and fast_count, which
    # sees only degrees, once per (histogram, k, options)
    sides = _CHAIN_SIDES[claim]
    originals = {name: getattr(harness, name) for name, _ in sides}
    calls = dict.fromkeys(originals, 0)

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return originals[name](*args)
        return wrapper

    for name in originals:
        monkeypatch.setattr(harness, name, counted(name))
    budget = Budget(n_max=3, k_max=2)
    recs = verify_claim(claim, budget)

    def value(side, g, k, variant):
        name, read = side
        if name == "matching_counts":
            return count_k_matchings(g, k)
        v = originals[name](g, k, *_referee_args(read, variant))
        return v.value if name == "fast_count" else v

    graphs = sum(2 ** (n * (n - 1) // 2) for n in range(1, budget.n_max + 1))
    variants = max((_READ_VARIANTS[read] for _, read in sides), key=len)
    assert len(recs) == graphs * budget.k_max * len(variants)
    per_head = {}
    for r in recs:
        per_head.setdefault(r.head, []).append(r.variant)
        _, g6, k = r.head.split("/")
        g, k = parse_graph6(g6[2:]), int(k[2:])
        assert (r.lhs, r.rhs) == (value(sides[0], g, k, r.variant), value(sides[1], g, k, r.variant)), r.instance
    assert all(seen == variants for seen in per_head.values())
    histograms = {(parse_graph6(h.split("/")[1][2:]).degree_counts, h[-2:]) for h in per_head}
    for name, read in sides:
        classes = len(_class_reps(budget.n_max))
        per_value = {"fast_count": len(histograms), "matching_counts": classes}.get(name, classes * budget.k_max)
        assert calls[name] == per_value * len(_READ_VARIANTS[read]), name


# each chain referee, which two claims read, and one of those claims
_SHARED_REFEREES = {
    "matching_counts": ClaimId.LEMMA1_VS_ORACLE,
    "lemma1_sum": ClaimId.LEMMA1_VS_ORACLE,
    "theorem1_eval": ClaimId.THM1_VS_LEMMA1,
    "theorem2_eval": ClaimId.THM2_VS_THM1,
    "lemma7_eval": ClaimId.LEMMA7_VS_THM2,
    "fast_count": ClaimId.END_TO_END,
}


def test_claims_of_one_run_share_each_side(monkeypatch, tmp_path):
    # under `kmatch verify --claim all` the claims share the run's side memo:
    # each referee is called as often as by one claim that reads it, not once
    # per claim
    calls = dict.fromkeys(_SHARED_REFEREES, 0)

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    argv = ["verify", "--claim", "all", "--nmax", "4", "--kmax", "2", "--out", str(tmp_path / "all.json")]
    assert cli.main(argv) == 0
    under_all = dict(calls)
    for name, claim in _SHARED_REFEREES.items():
        calls.update(dict.fromkeys(calls, 0))
        verify_claim(claim, Budget(n_max=4, k_max=2))
        assert under_all[name] == calls[name] > 0, name


def test_side_memo_keys_on_k_max():
    # one memo across walks at several k_max: a side's values for one k_max
    # are never read for another
    walk, memo = harness._SPECS[ClaimId.END_TO_END].walk, {}
    for k_max in (1, 3, 2):
        budget = Budget(n_max=4, k_max=k_max)
        assert list(walk(budget, memo)) == list(walk(budget, {}))


def test_json_round_trip_preserves_everything():
    rep = discrepancy_search(3, 2)
    back = report_from_json(report_to_json(rep))
    assert back == rep
    assert report_to_json(back) == report_to_json(rep)


def test_json_round_trip_across_claims(verify_all_report):
    # LEMMA2's seed=/x= heads, LEMMA4's gmode-only variants, THM4's pi= heads
    # and the graph claims' gmode/index variants in one report
    rep = verify_all_report
    shapes = {(r.claim, r.variant.count("=")) for r in rep.records}
    assert {(ClaimId.LEMMA2, 0), (ClaimId.LEMMA4, 1), (ClaimId.END_TO_END, 2)} <= shapes
    assert any("/seed=" in r.instance for r in rep.records if r.claim == ClaimId.LEMMA2)
    back = report_from_json(report_to_json(rep))
    assert back == rep
    assert [r.instance for r in back.records] == [r.instance for r in rep.records]


@pytest.mark.parametrize("format, formatter", [
    ("json", report_to_json), ("csv", report_to_csv), ("text", report_to_text),
])
def test_every_sink_gets_the_formatter_bytes(verify_all_report, tmp_path, capsys, format, formatter):
    # the report spans several chunks of units; a string, the CLI's --out
    # file and its stdout are three sinks of one writer
    want = formatter(verify_all_report)
    units = (u for c in ClaimId for u in harness._SPECS[c].walk(harness.resolve_budget(c), {}))
    assert len(list(islice(units, 2 * harness._CHUNK + 1))) > 2 * harness._CHUNK
    path = tmp_path / f"rep.{format}"
    argv = ["verify", "--claim", "all", "--format", format]
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want.encode("ascii")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == want


def _order_case_records():
    return (verify_claim(ClaimId.LEMMA4, Budget(n_max=2, k_max=3))
            + verify_claim(ClaimId.THM2_VS_THM1, Budget(n_max=3, k_max=2)))


def _swap(recs, i, j):
    recs[i], recs[j] = recs[j], recs[i]
    return recs


def _move_head(recs, i, j):
    # the records of the i-th head of the first claim moved after the j-th's
    g = len(GMODES)
    return recs[:i * g] + recs[(i + 1) * g:(j + 1) * g] + recs[i * g:(i + 1) * g] + recs[(j + 1) * g:]


DISORDER_CASES = pytest.mark.parametrize("disorder, first_out", [
    # the claim runs in the wrong order
    (lambda recs: recs[-2:] + recs[:-2], "LEMMA4 k=02/s=00/gmode=corrected"),
    # a claim run again after another claim's run
    (lambda recs: recs + recs[:1], "LEMMA4 k=02/s=00/gmode=corrected"),
    # two heads of one claim swapped
    (lambda recs: _swap(recs, 0, len(GMODES)), "LEMMA4 k=02/s=00/gmode=paper"),
    # two variants of one head swapped
    (lambda recs: _swap(recs, 0, 1), "LEMMA4 k=02/s=00/gmode=corrected"),
    # a head moved after the next one: at a chunk of 3 heads, it lies between
    # the first and the last head of the chunk before it
    (lambda recs: _move_head(recs, 2, 3), "LEMMA4 k=02/s=02/gmode=corrected"),
], ids=["claim", "claim-repeated", "head", "variant", "head-moved"])


@DISORDER_CASES
def test_build_report_refuses_records_out_of_order(disorder, first_out):
    recs = disorder(_order_case_records())
    with pytest.raises(ValueError, match=f"out of canonical order at {re.escape(first_out)}$"):
        build_report(recs, OPTIONS_MATRIX)


@DISORDER_CASES
def test_streamed_tallies_refuse_the_same_record(monkeypatch, disorder, first_out):
    # chunk by chunk, in every format, the stream refuses the record
    # build_report refuses, and opens no output
    recs = disorder(_order_case_records())
    opened = []
    for size in (1, 3, 7):
        monkeypatch.setattr(harness, "_CHUNK", size)
        for format in ("json", "csv", "text"):
            with pytest.raises(ValueError, match=f"out of canonical order at {re.escape(first_out)}$"):
                harness._write_heads(harness._heads_of(recs), format, lambda: opened.append(1))
    assert opened == []


def _broken_block_units():
    # hand-built units of one claim: a sound block on the first head, then a
    # shared block out of order inside on the next three heads, either two
    # tails or two variants of a tail swapped; and the record each refuses
    comps = harness._compare([1, 2], [1, 3])
    sound = harness._Block([("k=01", comps), ("k=02", comps), ("k=03", comps)])
    broken = {
        "tails": (harness._Block([("k=01", comps), ("k=03", comps), ("k=02", comps)]),
                  "END_TO_END n=03/g=BO/k=02/gmode=corrected"),
        "variants": (harness._Block([("k=01", comps), ("k=02", comps), ("k=03", comps[::-1])]),
                     "END_TO_END n=03/g=BO/k=03/gmode=corrected"),
    }
    return {case: ([(ClaimId.END_TO_END, "n=03/g=B?/", sound)]
                   + [(ClaimId.END_TO_END, f"n=03/g={g}/", block) for g in ("BO", "BW", "Bw")], first_out)
            for case, (block, first_out) in broken.items()}


@pytest.mark.parametrize("case", ["tails", "variants"])
def test_streamed_tallies_refuse_a_broken_block_at_its_first_graph(monkeypatch, case):
    # a block shared by several heads is out of order inside: the writer
    # refuses the first record out of order, under the block's first graph,
    # at every chunk size and in every format, and opens no output
    units, first_out = _broken_block_units()[case]
    opened = []
    for size in (1, 3, 7):
        monkeypatch.setattr(harness, "_CHUNK", size)
        for format in ("json", "csv", "text"):
            with pytest.raises(ValueError, match=f"out of canonical order at {re.escape(first_out)}$"):
                harness._write_heads(iter(units), format, lambda: opened.append(1))
    assert opened == []
    # a refused report leaves no count behind on the sound block it used
    buf = io.StringIO()
    harness._write_heads(iter(units[:1]), "json", lambda: nullcontext(buf))
    back = report_from_json(buf.getvalue())
    assert back.summary == {"END_TO_END": {"match": 3, "mismatch": 3}}
    assert back.first_counterexample == {"END_TO_END": "n=03/g=B?/k=01/gmode=paper"}


def _rows(text, format):
    # (claim, instance) per record row of a written report, read without the
    # writer: parsed as JSON or CSV, or each text line split at its first two
    # spaces after the "records:" line
    if format == "json":
        return [(r["claim"], r["instance"]) for r in json.loads(text)["records"]]
    if format == "csv":
        return [(r[0], r[1]) for r in list(csv.reader(io.StringIO(text)))[1:]]
    lines = text.splitlines()
    return [tuple(line[2:].split(" ", 2)[:2]) for line in lines[lines.index("records:") + 1:]]


@pytest.mark.parametrize("format", ["json", "csv", "text"])
def test_a_block_shared_by_two_claims_is_spelled_for_each(format):
    # a block's row pieces name no claim, so a block that two claims' units
    # share is written under each claim
    block = harness._one_tail(harness._compare([1, 2], [1, 3]))
    units = [(ClaimId.LEMMA2, "n=01/x=(0)", block), (ClaimId.LEMMA3, "n=01/x=(0)", block),
             (ClaimId.LEMMA3, "n=01/x=(1)", block)]
    recs = [VerificationRecord(c, head, lhs, rhs, verdict, variant)
            for c, head, b in units for variant, lhs, rhs, verdict in b[0][1]]
    buf = io.StringIO()
    harness._write_heads(iter(units), format, lambda: nullcontext(buf))
    assert buf.getvalue() == _written(build_report(recs, OPTIONS_MATRIX), format)
    assert _rows(buf.getvalue(), format) == [
        (claim, f"n=01/x=({x})/gmode={gm}") for claim, x in (("LEMMA2", 0), ("LEMMA3", 0), ("LEMMA3", 1))
        for gm in ("corrected", "paper")]


@pytest.mark.parametrize("format", ["json", "csv", "text"])
def test_units_written_twice_give_the_held_bytes_twice(format):
    # blocks shared across heads and across two claims keep nothing of a
    # report: a second write of the same units gives the bytes of the first,
    # and both are the bytes of the held records
    mixed, match = harness._compare([1, 2], [1, 3]), harness._compare([1, 1], [1])
    a = harness._Block([("k=01", mixed), ("k=02", match)])
    b = harness._Block([("k=01", match), ("k=02", mixed)])
    units = [(c, f"n=03/g={g}/", block) for c in (ClaimId.END_TO_END, ClaimId.LEMMA1_VS_ORACLE)
             for g, block in (("B?", b), ("BO", a), ("BW", b), ("Bw", a))]
    recs = [VerificationRecord(c, head + tail, lhs, rhs, verdict, variant)
            for c, head, block in units for tail, comps in block for variant, lhs, rhs, verdict in comps]
    want = _written(build_report(recs, OPTIONS_MATRIX), format)
    for _ in range(2):
        buf = io.StringIO()
        harness._write_heads(iter(units), format, lambda: nullcontext(buf))
        assert buf.getvalue() == want


def test_build_report_keeps_the_callers_list_and_equal_keys():
    recs = _order_case_records()
    rep = build_report(recs, OPTIONS_MATRIX)
    assert rep.records is recs
    # equal (head, variant) pairs in a row are in order
    twice = [r for r in recs for _ in range(2)]
    assert build_report(twice, OPTIONS_MATRIX).summary == {
        c: {v: 2 * n for v, n in t.items()} for c, t in rep.summary.items()}


@pytest.mark.parametrize("records", [(), iter([]), {}], ids=["tuple", "iterator", "dict"])
def test_build_report_takes_only_a_list(records):
    with pytest.raises(TypeError, match="list of records"):
        build_report(records, OPTIONS_MATRIX)


@pytest.mark.parametrize("format", ["json", "csv", "text"])
def test_writers_write_each_value_by_its_str(format):
    # a Fraction in lowest terms as num/den, an integral one as num, and an
    # int of any size in full
    values = [(Fraction(3, 6), "1/2"), (Fraction(4, 2), "2"), (Fraction(-5, 4), "-5/4"), (10**30, str(10**30))]
    recs = [VerificationRecord(ClaimId.LEMMA2, f"x={i}", v, 0, "mismatch") for i, (v, _) in enumerate(values)]
    text = _written(build_report(recs), format)
    for i, (_, want) in enumerate(values):
        line = {"json": f'"instance":"x={i}","lhs":"{want}","rhs":"0"',
                "csv": f"LEMMA2,x={i},{want},0,mismatch",
                "text": f"  LEMMA2 x={i} lhs={want} rhs=0 mismatch"}[format]
        assert line in text


def test_every_value_is_an_int_or_a_fraction(verify_all_report):
    # the writers put each value by its str, which is "p/q" or "p" for these
    # two types only: a bool would be written True
    assert {type(v) for r in verify_all_report.records for v in (r.lhs, r.rhs)} <= {int, Fraction}


def test_records_carry_head_and_variant():
    rec = discrepancy_search(2, 1).records[0]
    assert (rec.head, rec.variant) == ("n=01/g=@/k=01", "gmode=corrected/index=corrected")
    assert rec.instance == "n=01/g=@/k=01/gmode=corrected/index=corrected"
    assert type(rec.rhs) is int  # as count_k_matchings returns it, not wrapped
    assert VerificationRecord(ClaimId.LEMMA2, "x", 1, 1, "match").instance == "x"


def test_json_is_canonical():
    text = report_to_json(build_report([], OPTIONS_MATRIX))
    assert text.endswith("\n")
    assert '"records":[]' in text
    assert '"summary":{}' in text
    assert ": " not in text


def test_csv_shape():
    recs = verify_claim(ClaimId.LEMMA1_VS_ORACLE, Budget(n_max=3, k_max=2))
    text = report_to_csv(build_report(recs))
    lines = text.splitlines()
    assert lines[0] == "claim,instance,lhs,rhs,verdict"
    assert len(lines) == 1 + len(recs)


def test_text_format_mentions_tallies():
    recs = verify_claim(ClaimId.LEMMA1_VS_ORACLE, Budget(n_max=3, k_max=2))
    text = report_to_text(build_report(recs))
    assert "LEMMA1_VS_ORACLE" in text
    assert "mismatch" in text


def test_write_report_and_bad_paths(tmp_path):
    claims, budget = [ClaimId.LEMMA3], Budget(n_max=2)
    rep = build_report(verify_claim(ClaimId.LEMMA3, budget), OPTIONS_MATRIX)
    buf = io.StringIO()
    harness.write_claims(claims, budget, "json", lambda: nullcontext(buf))
    assert report_from_json(buf.getvalue()) == rep
    buf = io.StringIO()
    with pytest.raises(ValueError):
        harness.write_claims(claims, budget, "yaml", lambda: nullcontext(buf))
    assert buf.getvalue() == ""
    # the CLI opens --out itself: a bad format makes no file, a bad path
    # names the path
    out = tmp_path / "rep.yaml"
    with pytest.raises(ValueError):
        harness.write_claims(claims, budget, "yaml", lambda: cli._open_out(str(out)))
    assert not out.exists()
    with pytest.raises(OSError, match="failed writing report to"):
        harness.write_claims(claims, budget, "json", lambda: cli._open_out(str(tmp_path / "missing" / "rep.json")))


def test_records_are_frozen_and_comparable():
    r = VerificationRecord(ClaimId.LEMMA2, "x", Fraction(1), Fraction(1), "match")
    with pytest.raises(AttributeError):
        r.verdict = "mismatch"
    assert r == VerificationRecord(ClaimId.LEMMA2, "x", Fraction(1), Fraction(1), "match")
