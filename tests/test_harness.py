"""Claim walkers, the exhaustive search, and report plumbing.

Beyond unit behavior, two meta-properties are enforced: reports must be
byte-identical regardless of worker count, and summaries must be honest
recounts of the records they summarize.
"""

import hashlib
import os
import re
from fractions import Fraction

import pytest

from kmatchlab.errors import CapacityError
from kmatchlab.fastcount import FastCountOptions, fast_count
from kmatchlab.graph import parse_graph6
from kmatchlab.harness import (
    OPTIONS_MATRIX,
    Budget,
    ClaimId,
    VerificationRecord,
    _worker_count,
    build_report,
    discrepancy_search,
    report_from_json,
    report_to_csv,
    report_to_json,
    report_to_text,
    verify_claim,
    write_report,
)
from kmatchlab.oracle import count_k_matchings

CC = FastCountOptions("corrected", "corrected")


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
    recs = verify_claim(ClaimId.THM3_VS_LEMMA7, Budget(n_max=3, k_max=2), options=[CC])
    assert recs == sorted(recs, key=lambda r: (r.claim.value, r.instance))
    assert all(r.instance.endswith("gmode=corrected/index=corrected") for r in recs)
    assert _counts(recs)[1] == 0


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


def test_search_worker_count_does_not_change_bytes(monkeypatch):
    monkeypatch.setenv("KMATCH_THREADS", "1")
    serial = report_to_json(discrepancy_search(3, 2))
    monkeypatch.setenv("KMATCH_THREADS", "2")
    parallel = report_to_json(discrepancy_search(3, 2))
    assert serial == parallel


@pytest.mark.parametrize(
    "n_max, k_max, digest",
    [
        (4, 2, "57ccbcd0f8451de91bdcd64e461f53856ac6476a909a96f67d86b628fcb84177"),
        (5, 3, "c3ca25f7cd19b1fe643586ba458a7229638f2eb1804ff83c273f3da5bd9b48da"),
    ],
)
def test_search_report_golden_digest(monkeypatch, n_max, k_max, digest):
    # refactors of the formula or the search must leave the report bytes as
    # they are
    monkeypatch.setenv("KMATCH_THREADS", "1")
    text = report_to_json(discrepancy_search(n_max, k_max))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


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
    with pytest.raises(CapacityError):
        discrepancy_search(7, 2)
    with pytest.raises(CapacityError):
        discrepancy_search(3, 4)
    with pytest.raises(ValueError):
        discrepancy_search(0, 1)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("KMATCH_THREADS", raising=False)
    assert _worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("KMATCH_THREADS", "3")
    assert _worker_count() == 3
    monkeypatch.setenv("KMATCH_THREADS", "0")
    assert _worker_count() == 1
    monkeypatch.setenv("KMATCH_THREADS", "many")
    with pytest.raises(ValueError):
        _worker_count()


def test_json_round_trip_preserves_everything():
    rep = discrepancy_search(3, 2)
    back = report_from_json(report_to_json(rep))
    assert back == rep
    assert report_to_json(back) == report_to_json(rep)


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
    recs = verify_claim(ClaimId.LEMMA3, Budget(n_max=2))
    rep = build_report(recs)
    out = tmp_path / "rep.json"
    write_report(rep, "json", str(out))
    assert report_from_json(out.read_text()) == rep
    with pytest.raises(ValueError):
        write_report(rep, "yaml", str(out))
    with pytest.raises(OSError):
        write_report(rep, "json", str(tmp_path / "missing" / "rep.json"))


def test_records_are_frozen_and_comparable():
    r = VerificationRecord(ClaimId.LEMMA2, "x", Fraction(1), Fraction(1), "match")
    with pytest.raises(AttributeError):
        r.verdict = "mismatch"
    assert r == VerificationRecord(ClaimId.LEMMA2, "x", Fraction(1), Fraction(1), "match")
