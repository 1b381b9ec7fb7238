"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion states its own instance space, success condition, and wall
clock budget.  The budgets are asserted, not just observed; the printed
lines bypass capture so a bare pytest run always shows the scoreboard.
"""

import hashlib
import re
import time
from fractions import Fraction

from kmatchlab.fastcount import FastCountOptions, fast_count
from kmatchlab.graph import generate
from kmatchlab.harness import (
    Budget,
    ClaimId,
    discrepancy_search,
    report_to_json,
    verify_claim,
)
from kmatchlab.oracle import count_k_directed_matchings, count_k_matchings

from helpers import enumerate_all_graphs

CC = FastCountOptions("corrected", "corrected")


def _scoreboard(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num} {name}: {verdict} ({detail})")


def test_criterion_1_pair_sum_identities(capsys):
    t0 = time.perf_counter()
    l2 = verify_claim(ClaimId.LEMMA2, Budget(n_max=6))
    l3 = verify_claim(ClaimId.LEMMA3, Budget(n_max=6))
    elapsed = time.perf_counter() - t0
    exhaustive = [r for r in l2 + l3 if "trial=" not in r.instance]
    ok = (
        len(exhaustive) == 252
        and all(r.verdict == "match" for r in l2 + l3)
        and elapsed < 1.0
    )
    _scoreboard(capsys, 1, "pair-sum identities", ok, f"{len(l2) + len(l3)} records, {elapsed:.2f}s")
    assert ok


def test_criterion_2_falling_factorial_expansion(capsys):
    t0 = time.perf_counter()
    recs = verify_claim(ClaimId.LEMMA4, Budget(n_max=8, k_max=6))
    elapsed = time.perf_counter() - t0
    corrected = [r for r in recs if "gmode=corrected" in r.instance]
    power = [r for r in corrected if r.instance.startswith("k=")]
    ks = {int(r.instance[2:4]) for r in power}
    ss = {int(r.instance.split("/s=")[1][:2]) for r in power}
    broken = [r for r in recs if r.instance == "k=02/s=02/gmode=paper"]
    ok = (
        ks == set(range(2, 7))
        and ss == set(range(0, 9))
        and all(r.verdict == "match" for r in corrected)
        and len(broken) == 1
        and broken[0].verdict == "mismatch"
        and elapsed < 5.0
    )
    _scoreboard(capsys, 2, "falling-factorial expansion", ok, f"{len(recs)} records, {elapsed:.2f}s")
    assert ok


def test_criterion_3_injective_sum_expansion(capsys):
    t0 = time.perf_counter()
    recs = verify_claim(ClaimId.LEMMA6, Budget(n_max=6, k_max=4))
    elapsed = time.perf_counter() - t0
    per_mn = {}
    entries_ok = True
    for r in recs:
        per_mn[r.instance.split("/seed=")[0]] = per_mn.get(r.instance.split("/seed=")[0], 0) + 1
        for v in re.findall(r"-?\d+", r.instance.split("/X=")[1]):
            entries_ok = entries_ok and -3 <= int(v) <= 3
    ok = (
        set(per_mn) == {f"m={m:02d}/n={n:02d}" for m in (2, 3, 4) for n in range(m, 7)}
        and all(v >= 20 for v in per_mn.values())
        and entries_ok
        and all(r.verdict == "match" for r in recs)
        and elapsed < 10.0
    )
    _scoreboard(capsys, 3, "injective-sum expansion", ok, f"{len(recs)} records, {elapsed:.2f}s")
    assert ok


def test_criterion_4_power_sum_factorization(capsys):
    t0 = time.perf_counter()
    recs = verify_claim(ClaimId.THM4_FACTORIZATION, Budget(n_max=4, k_max=4))
    elapsed = time.perf_counter() - t0
    ok = len(recs) == 1725 and all(r.verdict == "match" for r in recs) and elapsed < 30.0
    _scoreboard(capsys, 4, "power-sum factorization", ok, f"{len(recs)} records, {elapsed:.2f}s")
    assert ok


def test_criterion_5_derivation_chain_localization(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []

    # the corrected g' base row, and then the corrected index convention: the
    # readings under which each step holds
    step = verify_claim(ClaimId.THM1_VS_LEMMA1, Budget(n_max=5, k_max=2))
    step = [r for r in step if r.variant == "gmode=corrected"]
    ok &= len(step) == 2198 and all(r.verdict == "match" for r in step)
    details.append(f"expansion {len(step)}")

    step = verify_claim(ClaimId.LEMMA7_VS_THM2, Budget(n_max=4, k_max=3))
    step = [r for r in step if r.variant.endswith("/index=corrected")]
    ok &= len(step) == 450 and all(r.verdict == "match" for r in step)
    details.append(f"substitution {len(step)}")

    step = verify_claim(ClaimId.THM3_VS_LEMMA7, Budget(n_max=4, k_max=3))
    ok &= len(step) == 900 and all(r.verdict == "match" for r in step)
    details.append(f"interchange {len(step)}")

    step = verify_claim(ClaimId.THM2_VS_THM1, Budget(n_max=4, k_max=2))
    verdicts = {r.verdict for r in step}
    ok &= len(step) == 300 and verdicts == {"match", "mismatch"}
    details.append(f"regrouping {len(step)}")

    step = verify_claim(ClaimId.LEMMA1_VS_ORACLE, Budget(n_max=3, k_max=2))
    hit = [r for r in step if r.instance == "n=03/g=Bg/k=02"]
    ok &= len(hit) == 1 and (hit[0].lhs, hit[0].rhs) == (1, 0) and hit[0].verdict == "mismatch"
    details.append(f"baseline {len(step)}")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _scoreboard(
        capsys, 5, "derivation chain localization", bool(ok),
        ", ".join(details) + f", {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_exhaustive_search(capsys):
    t0 = time.perf_counter()
    rep = discrepancy_search(6, 3)
    elapsed = time.perf_counter() - t0

    cc = rep.options_summary["gmode=corrected/index=corrected"]
    combo_totals = {k: v["match"] + v["mismatch"] for k, v in rep.options_summary.items()}
    paper_first = {
        k: v["first_counterexample"]
        for k, v in rep.options_summary.items()
        if k.startswith("gmode=paper")
    }
    ok = (
        len(rep.records) == 406404
        and (cc["match"], cc["mismatch"]) == (35961, 65640)
        and set(combo_totals.values()) == {101601}
        and len(combo_totals) == 4
        and all(v.startswith("n=02/g=A_/k=02/") for v in paper_first.values())
        and elapsed < 600.0
    )
    _scoreboard(capsys, 6, "exhaustive discrepancy search", ok, f"{len(rep.records)} records, {elapsed:.2f}s")
    assert ok
    # the bytes of `kmatch search --nmax 6 --kmax 3`
    digest = hashlib.sha256(report_to_json(rep).encode("ascii")).hexdigest()
    assert digest == "9fa90d0d1b292737fb58057f7cb5aec9c5f14a5f162e8dd62e9644e864a2d6f1"


def test_criterion_7_directed_matching_scaling(capsys):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 7):
        for g in enumerate_all_graphs(n):
            for k in (1, 2, 3):
                ok = ok and count_k_directed_matchings(g, k) == 2**k * count_k_matchings(g, k)
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 101601 and elapsed < 60.0
    _scoreboard(capsys, 7, "directed matching scaling", ok, f"{checked} comparisons, {elapsed:.2f}s")
    assert ok


def test_criterion_8_large_instance_evaluation(capsys):
    g = generate("random", 1000, p=0.01, seed=0)
    t0 = time.perf_counter()
    res = fast_count(g, 10, CC)
    elapsed = time.perf_counter() - t0
    ok = (
        isinstance(res.value, Fraction)
        and res.is_integral == (res.value.denominator == 1)
        and not res.is_integral
        and elapsed < 10.0
    )
    _scoreboard(capsys, 8, "large-instance evaluation", ok, f"n=1000 k=10, {elapsed:.2f}s")
    assert ok
