"""Reference counters and the small-instance formula evaluators.

The counters here are each other's cross-checks: directed matchings must be
a power-of-two multiple of matchings, the permutation double sum must agree
with rook placements up to the same power of two, and arrangement sums (the
injective sum over k copies of one row) over 0/1 vectors collapse to falling
factorials.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from kmatchlab.errors import CapacityError
from kmatchlab.exact import falling_factorial
from kmatchlab.graph import Graph, from_edge_list, generate
from kmatchlab.oracle import (
    MAX_MATCH_EDGES,
    MAX_MATCH_K,
    count_k_directed_matchings,
    count_k_matchings,
    count_rook_placements,
    injection_sum,
    lemma1_sum,
    matching_counts,
    theorem1_eval,
    theorem2_eval,
)

from helpers import enumerate_all_graphs


def _matchings_by_edge_subsets(g: Graph, k: int) -> int:
    """Slow independent count: scan all k-subsets of edges for disjointness."""
    total = 0
    edges = [(i, j) for i, row in enumerate(g.rows) for j in row]
    for combo in combinations(edges, k):
        seen = set()
        for a, b in combo:
            seen.add(a)
            seen.add(b)
        if len(seen) == 2 * k:
            total += 1
    return total


def test_matching_counts_frozen(p3, c4, k4, k2, edgeless4):
    assert count_k_matchings(p3, 2) == 0
    assert count_k_matchings(c4, 2) == 2
    assert count_k_matchings(k4, 2) == 3
    assert count_k_matchings(k2, 1) == 1
    assert count_k_matchings(edgeless4, 1) == 0
    assert count_k_matchings(p3, 0) == 1
    assert count_k_matchings(p3, 1) == 2


def test_matching_counts_vs_edge_subset_scan():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            for k in range(0, n // 2 + 1):
                assert count_k_matchings(g, k) == _matchings_by_edge_subsets(g, k)


def _count_each(g: Graph, k: int) -> list[int]:
    return [count_k_matchings(g, j) for j in range(k + 1)]


def test_matching_counts_on_every_small_graph():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            for k in range(4):
                assert matching_counts(g, k) == _count_each(g, k)
            assert matching_counts(g, 0) == [1]


def test_matching_counts_up_to_the_edge_bound():
    edges = list(combinations(range(1, 13), 2))  # K12, 66 edges
    graphs = [from_edge_list(12, edges[:MAX_MATCH_EDGES])]
    graphs += [generate("random", n, p=p, seed=seed)
               for n, p in ((8, 0.5), (12, 0.6), (16, 0.4)) for seed in range(3)]
    for g in graphs:
        assert sum(map(len, g.rows)) <= MAX_MATCH_EDGES
        assert matching_counts(g, 3) == _count_each(g, 3)
    assert sum(map(len, graphs[0].rows)) == MAX_MATCH_EDGES


class _UnreadRow(tuple):
    """A neighbour row that can be counted but not read, so no mask is built from it."""

    def __iter__(self):
        raise AssertionError("an edge mask was built")


def _unread(g: Graph) -> Graph:
    return Graph(g.n, tuple(map(_UnreadRow, g.rows)))


@pytest.mark.parametrize("g, k, error", [
    (generate("path", 5), -1, ValueError),
    (generate("path", 5), MAX_MATCH_K + 1, CapacityError),
    (generate("complete", 12), 2, CapacityError),
], ids=["negative-k", "past-k-bound", "past-edge-bound"])
def test_matching_counts_refuses_as_count_k_matchings_before_any_mask(g, k, error):
    with pytest.raises(error) as each:
        count_k_matchings(g, k)
    with pytest.raises(error) as once:
        matching_counts(_unread(g), k)
    assert str(once.value) == str(each.value)


def test_directed_matchings_are_scaled_matchings(k2):
    assert count_k_directed_matchings(k2, 1) == 2
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            for k in range(0, 3):
                want = 2**k * count_k_matchings(g, k)
                assert count_k_directed_matchings(g, k) == want


def test_rook_placements_frozen(p3, k4):
    assert count_rook_placements(p3, 2) == 4
    assert count_rook_placements(p3, 1) == 4
    assert count_rook_placements(k4, 1) == 12
    assert count_rook_placements(p3, 0) == 1
    assert count_rook_placements(p3, 4) == 0


def test_rook_guard_refuses_many_edges_before_building_adj():
    # beyond MAX_ROOK_N vertices the edge count is bounded too, whatever k
    k40 = generate("complete", 40)
    with pytest.raises(CapacityError, match="n=40, k=4, 780 edges"):
        count_rook_placements(k40, 4)
    assert "adj" not in vars(k40)
    edges = list(combinations(range(1, 13), 2))  # K12, 66 edges
    at_bound = from_edge_list(12, edges[:MAX_MATCH_EDGES])
    assert count_rook_placements(at_bound, 1) == 2 * MAX_MATCH_EDGES
    assert "adj" not in vars(at_bound)
    with pytest.raises(CapacityError):
        count_rook_placements(from_edge_list(12, edges[:MAX_MATCH_EDGES + 1]), 1)


def test_lemma1_equals_scaled_rook_count():
    for n in range(1, 5):
        for g in enumerate_all_graphs(n):
            for k in range(1, 4):
                want = Fraction(count_rook_placements(g, k), 2**k)
                assert lemma1_sum(g, k) == want


def test_lemma1_frozen(p3, k2):
    assert lemma1_sum(p3, 2) == 1
    assert lemma1_sum(k2, 1) == 1
    assert lemma1_sum(p3, 5) == 0


def test_lemma1_invariant_under_relabeling():
    g = from_edge_list(4, [(1, 2), (2, 3), (3, 4)])
    h = from_edge_list(4, [(4, 3), (3, 1), (1, 2)])
    for k in (1, 2):
        assert lemma1_sum(g, k) == lemma1_sum(h, k)


def test_arrangement_sum_frozen():
    assert injection_sum(((1, 1, 0),) * 2) == 2
    assert injection_sum(((1, 1, 1),) * 2) == 6
    assert injection_sum(((2, 3),)) == 5
    assert injection_sum(((2, 3),) * 3) == 0
    assert injection_sum(((2, 3),) * 0) == 1


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=8),
)
def test_arrangement_on_binary_is_falling_factorial(bits, k):
    s = sum(bits)
    assert injection_sum((tuple(bits),) * k) == falling_factorial(s, k)


def test_injection_sum_frozen():
    ones = ((1, 1), (1, 1))
    assert injection_sum(ones) == 2
    assert injection_sum(ones[:1]) == 2
    assert injection_sum(()) == 1
    assert injection_sum(((1, 2, 3),)) == 6
    assert injection_sum(((1, 2),) * 3) == 0  # more rows than columns


def test_injection_sum_column_permutation_invariant():
    X = ((1, -2, 3), (0, 4, 1), (2, 2, -1))
    Y = tuple(tuple(row[j] for j in (2, 0, 1)) for row in X)
    for m in (1, 2, 3):
        assert injection_sum(X[:m]) == injection_sum(Y[:m])


def test_injection_sum_uses_row_prefix():
    # the sum reads every row it is given: a caller sums fewer rows by
    # passing a prefix of them
    X = ((1, 2), (3, 4))
    assert injection_sum(X[:1]) == 1 + 2
    assert injection_sum(X) == 1 * 4 + 2 * 3


def test_injection_sum_rejects_bad_shapes():
    with pytest.raises(ValueError):
        injection_sum(((1, 2), (3,)))
    with pytest.raises(ValueError):
        injection_sum(((1,), (2, 3)))


def test_theorem1_matches_lemma1_in_corrected_mode():
    for n in range(1, 5):
        for g in enumerate_all_graphs(n):
            for k in range(1, 4):
                assert theorem1_eval(g, k, "corrected") == lemma1_sum(g, k)


def test_theorem1_frozen(k2, p3):
    assert theorem1_eval(k2, 1, "corrected") == 1
    assert theorem1_eval(k2, 1, "paper") == 1
    assert theorem1_eval(p3, 4) == 0


def test_theorem2_frozen(p3):
    assert theorem2_eval(p3, 2, "corrected") == Fraction(1, 4)
    assert theorem2_eval(p3, 4) == 0


def test_edgeless_graphs_count_zero(edgeless4):
    assert count_k_matchings(edgeless4, 2) == 0
    assert lemma1_sum(edgeless4, 2) == 0
    assert theorem1_eval(edgeless4, 2) == 0
    assert theorem2_eval(edgeless4, 2) == 0


def test_beyond_n_gives_zero(p3):
    assert count_k_matchings(p3, 4) == 0
    assert count_rook_placements(p3, 5) == 0
    assert lemma1_sum(p3, 7) == 0
    assert theorem1_eval(p3, 6, "paper") == 0
    assert theorem2_eval(p3, 6, "paper") == 0


def test_capacity_guards():
    k12 = generate("complete", 12)
    with pytest.raises(CapacityError):
        count_k_matchings(k12, 2)
    with pytest.raises(CapacityError):
        count_k_matchings(generate("path", 5), 9)
    with pytest.raises(CapacityError):
        count_rook_placements(generate("path", 9), 5)
    assert count_rook_placements(generate("path", 9), 4) >= 0
    with pytest.raises(CapacityError):
        injection_sum((tuple(range(11)),) * 2)
    assert injection_sum(((1,) * 10,)) == 10
    with pytest.raises(CapacityError):
        lemma1_sum(generate("path", 8), 2)
    with pytest.raises(CapacityError):
        theorem1_eval(generate("path", 8), 2)
    with pytest.raises(CapacityError):
        theorem2_eval(generate("path", 7), 2)


def test_value_errors(p3):
    with pytest.raises(ValueError):
        count_k_matchings(p3, -1)
    with pytest.raises(ValueError):
        theorem1_eval(p3, 0)
    with pytest.raises(ValueError):
        theorem2_eval(p3, 0)
    with pytest.raises(ValueError):
        theorem1_eval(p3, 2, "fixed")


def test_lemma1_prefactor_shape(k2):
    raw = lemma1_sum(k2, 1) * factorial(1) * factorial(1) * 2
    assert raw == 2
