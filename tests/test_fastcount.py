"""The degree-power-sum formula and its literal nested-loop twin.

fast_count is the production evaluator; lemma7_eval spells the same claimed
expansion out as nested tuple loops.  They must agree wherever both run, and
their disagreement with the matching oracle on specific graphs is itself a
frozen expectation, not a bug.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from kmatchlab import fastcount
from kmatchlab.coeffs import compute_f, compute_gprime
from kmatchlab.errors import CapacityError
from kmatchlab.fastcount import (
    MAX_FAST_K,
    CountResult,
    FastCountOptions,
    _bracket,
    _histogram_bracket,
    fast_count,
    lemma7_eval,
    partition_product,
    partition_sum,
    power_sum,
)
from kmatchlab.graph import (
    MAX_ENUM_N,
    degree_vector,
    from_edge_list,
    generate,
    graph_from_mask,
)
from kmatchlab.oracle import count_k_matchings

from helpers import enumerate_all_graphs

CC = FastCountOptions(gmode="corrected", index_convention="corrected")
CP = FastCountOptions(gmode="corrected", index_convention="paper")
PP = FastCountOptions(gmode="paper", index_convention="paper")
PC = FastCountOptions(gmode="paper", index_convention="corrected")
ALL_OPTIONS = (CC, CP, PC, PP)


def test_default_options_are_corrected():
    opts = FastCountOptions()
    assert opts.gmode == "corrected"
    assert opts.index_convention == "corrected"
    r = fast_count(generate("path", 3), 2)
    assert r.options == CC


def test_frozen_values_p3(p3):
    assert fast_count(p3, 2, CC).value == Fraction(1, 4)
    assert fast_count(p3, 2, CP).value == Fraction(-5, 4)
    assert fast_count(p3, 2, PP).value == Fraction(15, 4)


def test_frozen_values_small_graphs(c4, k4, k2):
    assert fast_count(c4, 2, CC).value == 3
    assert fast_count(k4, 2, CC).value == 9
    for opts in ALL_OPTIONS:
        assert fast_count(k2, 1, opts).value == 1


def test_oracle_disagreement_is_real(c4, k4):
    assert fast_count(c4, 2, CC).value != count_k_matchings(c4, 2)
    assert fast_count(k4, 2, CC).value != count_k_matchings(k4, 2)


def test_not_invariant_under_isolated_vertices():
    p3 = generate("path", 3)
    p3_plus = from_edge_list(4, [(1, 2), (2, 3)])
    assert fast_count(p3, 2, CC).value == Fraction(1, 4)
    assert fast_count(p3_plus, 2, CC).value == Fraction(-1, 4)


def test_edgeless_and_beyond_n(edgeless4):
    r = fast_count(edgeless4, 2, CC)
    assert r.value == 0 and r.is_integral
    r = fast_count(generate("path", 3), 9, CC)
    assert r.value == 0 and r.is_integral and r.k == 9


def test_k1_collapses_to_edge_count():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            for opts in ALL_OPTIONS:
                assert fast_count(g, 1, opts).value == sum(map(len, g.rows))


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**15 - 1))
@settings(max_examples=60, deadline=None)
def test_k1_collapses_on_random_masks(n, mask):
    pairs = n * (n - 1) // 2
    g = graph_from_mask(n, mask % 2**pairs)
    assert fast_count(g, 1).value == sum(map(len, g.rows))


def test_power_sum_examples(c4, p3):
    dc4, dp3 = degree_vector(c4), degree_vector(p3)
    assert power_sum(dc4, 1) == 8
    assert power_sum(dc4, 2) == 16
    assert power_sum(dp3, 1) == 4
    assert power_sum(dp3, 2) == 6
    with pytest.raises(ValueError):
        power_sum(dp3, 0)


def test_partition_product_examples(c4, p3):
    dc4, dp3 = degree_vector(c4), degree_vector(p3)
    two_singles = ((1,), (2,))
    one_pair = ((1, 2),)
    assert partition_product(dc4, two_singles) == 64
    assert partition_product(dc4, one_pair) == 16
    assert partition_product(dp3, one_pair) == 6
    assert partition_product(dp3, two_singles) == 16


def test_partition_sum_examples(c4, p3):
    # the literal sum equals its factored twin on the same examples
    for g, d in ((c4, degree_vector(c4)), (p3, degree_vector(p3))):
        for pi in (((1,), (2,)), ((1, 2),), ((1, 3), (2,)), ((1,), (2,), (3,))):
            assert partition_sum(g, pi) == partition_product(d, pi)


def test_partition_sum_refuses_past_the_enumeration_bound():
    g = from_edge_list(MAX_ENUM_N + 1, [(1, 2)])
    with pytest.raises(CapacityError):
        partition_sum(g, ((1,),))
    assert "adj" not in vars(g)  # refused before the matrix is built


@pytest.mark.parametrize("opts", ALL_OPTIONS, ids=lambda o: f"{o.gmode}-{o.index_convention}")
def test_lemma7_eval_sums_each_ground_set_once_per_call(monkeypatch, opts):
    # the paper convention's ground set is {1..k} for every l: its literal
    # sum is enumerated once per call, one partition_sum per partition of
    # {1..k}, not once per l; the corrected one sums {1..l} for each l
    calls = []

    def counted(g, pi):
        calls.append(pi)
        return partition_sum(g, pi)

    monkeypatch.setattr(fastcount, "partition_sum", counted)
    g, k = generate("complete", 4), 3
    value = lemma7_eval(g, k, opts)
    ms = [k] if opts.index_convention == "paper" else range(1, k + 1)
    assert sorted(calls) == sorted(pi for m in ms for _, pi, _ in compute_f(m))
    gp = compute_gprime(k, opts.gmode)
    s = {m: sum(fv * partition_sum(g, pi) for _, pi, fv in compute_f(m)) for m in range(1, k + 1)}
    want = sum(factorial(4 - l) * gp[l] * s[k if opts.index_convention == "paper" else l] for l in range(1, k + 1))
    assert value == Fraction(want, factorial(k) * factorial(4 - k) * 2**k)


def _elementary_symmetric(d, m):
    e = [1] + [0] * m
    for x in d:
        for j in range(m, 0, -1):
            e[j] += x * e[j - 1]
    return e[m]


@pytest.mark.parametrize("seed", range(4))
def test_bracket_is_scaled_elementary_symmetric(seed):
    # Lemma 6 with equal rows: the f-weighted power-sum products over the
    # partitions of {1..m} add up to m! e_m(d)
    rng = random.Random(f"bracket:{seed}")
    d = [rng.randint(0, 12) for _ in range(rng.randint(3, 15))]
    sums = {e: power_sum(d, e) for e in range(1, 13)}
    for m in range(1, 13):
        assert _bracket(sums, m) == factorial(m) * _elementary_symmetric(d, m)


def test_fast_count_matches_nested_loops():
    for n in range(1, 4):
        for g in enumerate_all_graphs(n):
            for k in (1, 2, 3):
                for opts in ALL_OPTIONS:
                    assert fast_count(g, k, opts).value == lemma7_eval(g, k, opts)


def test_integrality_flag_tracks_denominator():
    for n in range(2, 5):
        for g in enumerate_all_graphs(n):
            for k in (1, 2):
                r = fast_count(g, k, CC)
                assert r.is_integral == (r.value.denominator == 1)


def test_result_metadata(p3):
    r = fast_count(p3, 2, CP)
    assert isinstance(r, CountResult)
    assert (r.n, r.k) == (3, 2)
    assert r.options is CP


def test_options_validation():
    with pytest.raises(ValueError):
        FastCountOptions(gmode="fixed")
    with pytest.raises(ValueError):
        FastCountOptions(index_convention="both")


def test_guards(p3):
    with pytest.raises(ValueError):
        fast_count(p3, 0)
    k32 = generate("complete", 32)
    with pytest.raises(CapacityError):
        fast_count(k32, 31)
    assert isinstance(fast_count(k32, 30).value, Fraction)
    with pytest.raises(ValueError):
        lemma7_eval(p3, 0)
    with pytest.raises(CapacityError):
        lemma7_eval(generate("path", 6), 2)


def test_large_graph_is_fast():
    g = generate("random", 300, p=0.05, seed=7)
    r = fast_count(g, 8, CC)
    assert isinstance(r.value, Fraction)


def _transcribed_value(g, k, opts):
    """fast_count's value as the formula displays it: per-vertex power sums,
    every (n-l)! in full and the whole k!(n-k)!2^k denominator."""
    n = g.n
    if k > n:
        return Fraction(0)
    d = degree_vector(g)
    sums = {e: sum(x**e for x in d) for e in range(1, k + 1)}
    gp = compute_gprime(k, opts.gmode)
    if opts.index_convention == "paper":
        total = _bracket(sums, k) * sum(factorial(n - l) * gp[l] for l in range(1, k + 1))
    else:
        total = sum(factorial(n - l) * gp[l] * _bracket(sums, l) for l in range(1, k + 1))
    return Fraction(total, factorial(k) * factorial(n - k) * 2**k)


@pytest.mark.parametrize("n, seed", [(1000, 3), (316, 11)])
def test_value_matches_transcription_at_scale(n, seed):
    g = generate("random", n, p=0.05, seed=seed)
    for k in [*range(1, 13), 30]:
        for opts in ALL_OPTIONS:
            assert fast_count(g, k, opts).value == _transcribed_value(g, k, opts), (k, opts)


def test_value_matches_transcription_at_the_edges():
    graphs = [
        generate("random", 30, p=0.2, seed=5),
        generate("random", 12, p=0.4, seed=2),
        generate("complete", 1),
        generate("complete", 7),
        from_edge_list(9, [(1, 2), (2, 3), (3, 4), (2, 5)]),  # 4 isolated vertices
        generate("random", 10, p=0.0),  # edgeless
    ]
    for g in graphs:
        n = g.n
        # k = n + 1 takes the k > n branch, except past the guard at n = 30
        for k in sorted({1, 2, 3, n - 1, n, n + 1} - {0, MAX_FAST_K + 1}):
            for opts in ALL_OPTIONS:
                assert fast_count(g, k, opts).value == _transcribed_value(g, k, opts), (n, k, opts)


def test_bracket_memo_is_order_independent():
    # brackets are shared across k and conventions; whichever call fills the
    # memo first, every result is the one a cold in-order sweep gives
    g = generate("random", 316, p=0.05, seed=11)
    calls = [(k, opts) for k in range(1, 10) for opts in ALL_OPTIONS]
    _histogram_bracket.cache_clear()
    in_order = [fast_count(g, k, opts) for k, opts in calls]
    _histogram_bracket.cache_clear()
    shuffled = calls[:]
    random.Random(5).shuffle(shuffled)
    by_call = {(k, opts): fast_count(g, k, opts) for k, opts in shuffled}
    assert [by_call[c] for c in calls] == in_order


def test_graphs_sharing_a_histogram_share_brackets():
    c6 = generate("cycle", 6)
    two_c3 = from_edge_list(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert c6 != two_c3 and c6.degree_counts == two_c3.degree_counts
    _histogram_bracket.cache_clear()
    first = [fast_count(c6, k, opts) for k in range(1, 7) for opts in ALL_OPTIONS]
    misses = _histogram_bracket.cache_info().misses
    assert misses == 6  # B_1..B_6, once each for all k and conventions
    second = [fast_count(two_c3, k, opts) for k in range(1, 7) for opts in ALL_OPTIONS]
    assert _histogram_bracket.cache_info().misses == misses
    assert [r.value for r in first] == [r.value for r in second]


def test_histogram_bracket_equals_bracket_of_vertex_power_sums():
    graphs = [g for n in range(1, 6) for g in enumerate_all_graphs(n)]
    graphs += [generate("random", 40, p=0.3, seed=s) for s in range(3)] + [generate("complete", 9)]
    for g in graphs:
        d = degree_vector(g)
        sums = {e: power_sum(d, e) for e in range(1, 10)}
        for m in range(1, min(g.n, 9) + 1):
            assert _histogram_bracket(g.degree_counts, m) == _bracket(sums, m), (g, m)


def test_bracket_memo_is_bounded():
    info = _histogram_bracket.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    for d in range(info.maxsize + 50):
        _histogram_bracket(((d, 1),), 1)
        assert _histogram_bracket.cache_info().currsize <= info.maxsize
    assert _histogram_bracket.cache_info().currsize == info.maxsize
