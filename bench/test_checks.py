"""Each output check rejects a corrupted value.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
from fractions import Fraction

import pytest

import checks
from tracing import PER_LAYER

from kmatchlab import fastcount, graph, harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def search_obj():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("KMATCH_THREADS", "1")
        return json.loads(harness.report_to_json(harness.discrepancy_search(4, 3)))


def _index(obj, claim, pred):
    return next(i for i, r in enumerate(obj["records"]) if r["claim"] == claim and pred(r))


def _retally(obj):
    """Recompute the tallies so that only the corrupted record is wrong."""
    report = harness.report_from_json(_dump(obj))
    fresh = json.loads(harness.report_to_json(harness.build_report(report.records, report.options_matrix)))
    for key in ("summary", "options_summary", "first_counterexample"):
        obj[key] = fresh[key]
    return obj


# -- search ------------------------------------------------------------------

def test_search_clean(search_obj):
    v = checks.check_search(_dump(search_obj), 4, 3)
    assert (v.failed, v.problems) == (set(), [])


def test_search_rejects_wrong_lhs(search_obj):
    obj = json.loads(_dump(search_obj))
    i = _index(obj, "END_TO_END", lambda r: "k=02" in r["instance"] and r["verdict"] == "mismatch")
    r = obj["records"][i]
    r["lhs"] = str(Fraction(r["lhs"]) + 1) if Fraction(r["lhs"]) + 1 != Fraction(r["rhs"]) else "-7"
    v = checks.check_search(_dump(obj), 4, 3)
    assert v.failed == {i} and v.problems == []


def test_search_rejects_wrong_oracle_column(search_obj):
    obj = json.loads(_dump(search_obj))
    i = _index(obj, "END_TO_END", lambda r: "k=02" in r["instance"] and r["verdict"] == "mismatch")
    obj["records"][i]["rhs"] = str(int(obj["records"][i]["rhs"]) + 1)
    v = checks.check_search(_dump(obj), 4, 3)
    assert i in v.failed and len(v.failed) > 1 and v.problems == []


def test_search_rejects_k1_mismatch(search_obj):
    # two k = 1 records of one column, moved in opposite directions so that
    # the column sum still holds and only the k = 1 rule can catch them
    obj = json.loads(_dump(search_obj))
    tag = "/k=01/gmode=paper/index=corrected"
    i = _index(obj, "END_TO_END", lambda r: r["instance"].startswith("n=04") and tag in r["instance"]
               and r["lhs"] != "0")
    j = _index(obj, "END_TO_END", lambda r: r["instance"].startswith("n=04") and tag in r["instance"]
               and r["instance"] != obj["records"][i]["instance"])
    for idx, step in ((i, 1), (j, -1)):
        r = obj["records"][idx]
        r["rhs"] = str(int(r["rhs"]) + step)
        r["verdict"] = "mismatch"
    v = checks.check_search(_dump(_retally(obj)), 4, 3)
    assert v.failed == {i, j} and v.problems == []


def test_search_rejects_wrong_verdict(search_obj):
    obj = json.loads(_dump(search_obj))
    i = _index(obj, "END_TO_END", lambda r: "k=02" in r["instance"] and r["verdict"] == "mismatch")
    obj["records"][i]["verdict"] = "match"
    v = checks.check_search(_dump(_retally(obj)), 4, 3)
    assert v.failed == {i} and v.problems == []


@pytest.mark.parametrize("key", ["summary", "options_summary", "first_counterexample"])
def test_search_rejects_wrong_tallies(search_obj, key):
    obj = json.loads(_dump(search_obj))
    if key == "summary":
        obj["summary"]["END_TO_END"]["match"] += 1
    elif key == "options_summary":
        obj["options_summary"]["gmode=paper/index=paper"]["mismatch"] -= 1
    else:
        obj["first_counterexample"]["END_TO_END"] = obj["records"][-1]["instance"]
    v = checks.check_search(_dump(obj), 4, 3)
    assert v.problems == [f"{key} differs from a recount of the records"]


def test_search_rejects_noncanonical_bytes(search_obj):
    v = checks.check_search(json.dumps(search_obj, sort_keys=True) + "\n", 4, 3)
    assert v.problems == ["re-serialized JSON differs from the report's bytes"]


def test_search_rejects_missing_record(search_obj):
    obj = json.loads(_dump(search_obj))
    del obj["records"][-1]
    v = checks.check_search(_dump(_retally(obj)), 4, 3)
    assert any("records, expected" in p for p in v.problems)


# -- large_count -------------------------------------------------------------

SPECS = [(12, 0.4, 3), (40, 0.1, 8)]


@pytest.fixture(scope="module")
def large_results():
    graphs = [graph.generate("random", n, p=p, seed=s) for n, p, s in SPECS]
    return [
        fastcount.fast_count(graphs[gi], k, fastcount.FastCountOptions(gm, ix))
        for gi, k, gm, ix in checks.large_count_cases(len(SPECS))
    ]


def test_large_clean(large_results):
    v = checks.check_large_count(large_results, SPECS)
    assert (v.failed, v.problems) == (set(), [])


@pytest.mark.parametrize("i, change", [
    (47, lambda r: {"value": r.value + Fraction(1, 3)}),
    (1, lambda r: {"value": r.value + 1, "is_integral": True}),  # k = 1, off the edge count
    (45, lambda r: {"is_integral": not r.is_integral}),
    (60, lambda r: {"k": r.k + 1}),
])
def test_large_rejects_corrupted_result(large_results, i, change):
    results = list(large_results)
    results[i] = dataclasses.replace(results[i], **change(results[i]))
    v = checks.check_large_count(results, SPECS)
    assert v.failed == {i}


def test_large_rejects_missing_result(large_results):
    v = checks.check_large_count(large_results[:-1], SPECS)
    assert v.problems


# -- the independent formula and the benchmark's declared metrics ------------

def test_formula_agrees_with_edge_count_and_k_greater_than_n():
    assert checks.formula([1, 2, 1], 1, "paper", "paper") == 2
    assert checks.formula([1, 1], 3, "corrected", "corrected") == 0


def test_declared_metrics_match_emitted():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, *_ in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, *_ in PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "ops_per_s", "peak_rss_mb"]
