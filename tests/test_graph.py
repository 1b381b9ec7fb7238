import pickle
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmatchlab.errors import CapacityError, Graph6ParseError
from kmatchlab.fastcount import fast_count
from kmatchlab.graph import (
    Graph,
    degree_vector,
    encode_graph6,
    enumerate_all_graphs,
    from_edge_list,
    generate,
    graph_from_mask,
    parse_edge_list_text,
    parse_graph6,
)
from kmatchlab.oracle import count_k_matchings, count_rook_placements


def _pairs(g):
    """The edges of g as 0-based pairs (i, j), i < j, in row-major order, read from its rows."""
    return tuple((i, j) for i, row in enumerate(g.rows) for j in row)


def test_from_edge_list_basic():
    g = from_edge_list(3, [(1, 2), (2, 3)])
    assert g.n == 3
    assert g.adj == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert _pairs(g) == ((0, 1), (1, 2))


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(3, [(1, 2), (2, 1), (1, 2)])
    assert _pairs(g) == ((0, 1),)


@pytest.mark.parametrize("edges", [[(0, 1)], [(1, 4)], [(2, 2)]])
def test_from_edge_list_rejects(edges):
    with pytest.raises(ValueError):
        from_edge_list(3, edges)


def test_generators():
    assert _pairs(generate("path", 4)) == ((0, 1), (1, 2), (2, 3))
    assert _pairs(generate("cycle", 4)) == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert len(_pairs(generate("complete", 4))) == 6
    assert _pairs(generate("path", 1)) == ()
    with pytest.raises(ValueError):
        generate("cycle", 2)
    with pytest.raises(ValueError):
        generate("banana", 3)
    with pytest.raises(ValueError):
        generate("random", 3)  # missing p
    with pytest.raises(ValueError):
        generate("random", 3, p=1.5)


def test_random_graph_deterministic():
    a = generate("random", 12, p=0.4, seed=7)
    b = generate("random", 12, p=0.4, seed=7)
    c = generate("random", 12, p=0.4, seed=8)
    assert a.adj == b.adj
    assert a.adj != c.adj  # astronomically unlikely to collide
    assert len(_pairs(generate("random", 10, p=0.0))) == 0
    assert len(_pairs(generate("random", 10, p=1.0))) == 45


@pytest.mark.parametrize("n, p, seed", [
    (1, 0.5, 0), (2, 0.5, 1), (12, 0.4, 7), (40, 0.1, 3), (100, 0.05, 11),
    (25, 0.0, 5), (25, 1.0, 5), (60, 0.999, 2), (60, 0.001, 9),
])
def test_random_graph_follows_the_documented_coin_order(n, p, seed):
    # one rng.random() per vertex pair in row-major order, the pair kept when
    # the coin is below p
    rng = random.Random(seed)
    want = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    g = generate("random", n, p=p, seed=seed)
    assert _pairs(g) == want
    assert g == from_edge_list(n, [(i + 1, j + 1) for i, j in want])


def test_degree_vector():
    assert degree_vector(generate("path", 3)) == (1, 2, 1)
    assert degree_vector(generate("cycle", 4)) == (2, 2, 2, 2)
    g = generate("random", 9, p=0.5, seed=3)
    assert sum(degree_vector(g)) == 2 * len(_pairs(g))


def test_degrees_are_summed_once_per_graph():
    g = generate("random", 9, p=0.5, seed=3)
    assert degree_vector(g) is degree_vector(g) is g.degrees
    # the cached degrees take no part in equality or hashing
    fresh = generate("random", 9, p=0.5, seed=3)
    assert fresh == g and hash(fresh) == hash(g)
    assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize(
    "g",
    [generate("random", 40, p=0.2, seed=4), generate("path", 5), from_edge_list(6, [(1, 2)]), from_edge_list(3, [])],
)
def test_degree_counts_are_the_degree_histogram(g):
    counts = g.degree_counts
    assert [d for d, _ in counts] == sorted({*g.degrees})
    assert all(c == g.degrees.count(d) for d, c in counts)
    assert sum(c for _, c in counts) == g.n
    assert sum(c * d for d, c in counts) == 2 * len(_pairs(g))


def test_degree_counts_are_built_once_per_graph():
    g = generate("random", 9, p=0.5, seed=3)
    assert g.degree_counts is g.degree_counts
    assert generate("path", 4).degree_counts == ((1, 2), (2, 2))
    # the cached histogram takes no part in equality, hashing or pickling
    fresh = generate("random", 9, p=0.5, seed=3)
    assert fresh == g and hash(fresh) == hash(g)
    restored = pickle.loads(pickle.dumps(g))
    assert restored == g and restored.degree_counts == g.degree_counts


def _dense(g):
    """The symmetric 0/1 matrix of g, built here from its edge pairs."""
    rows = [[0] * g.n for _ in range(g.n)]
    for i, j in _pairs(g):
        rows[i][j] = rows[j][i] = 1
    return tuple(tuple(r) for r in rows)


def test_adjacency_matrix_is_built_only_when_read():
    big = generate("random", 2000, p=0.01, seed=2)
    big.degree_counts, fast_count(big, 9)
    with pytest.raises(ValueError):
        encode_graph6(big)
    with pytest.raises(CapacityError):
        count_k_matchings(big, 3)
    with pytest.raises(CapacityError):
        count_rook_placements(big, 2)
    assert "adj" not in vars(big)
    small = generate("random", 10, p=0.3, seed=1)
    encode_graph6(small), count_k_matchings(small, 3), count_rook_placements(small, 3), fast_count(small, 3)
    assert "adj" not in vars(small)
    assert small.adj == _dense(small) and "adj" in vars(small)


@pytest.mark.parametrize(
    "g",
    [
        generate("random", 30, p=0.3, seed=5),
        generate("cycle", 6),
        generate("complete", 5),
        from_edge_list(4, [(4, 1), (3, 2)]),
        from_edge_list(2, []),
        parse_graph6("Dhc"),
    ],
)
def test_adjacency_matrix_is_the_dense_form_of_the_edges(g):
    assert g.adj == _dense(g)
    assert g.adj is g.adj
    assert _pairs(g) == tuple(sorted(set(_pairs(g))))


def test_every_constructor_gives_one_canonical_order():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            flipped = [(j + 1, i + 1) for i, j in reversed(_pairs(g))]
            for other in (from_edge_list(n, flipped), parse_graph6(encode_graph6(g))):
                assert other == g and hash(other) == hash(g)


@given(st.integers(1, 8), st.data(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_constructors_agree_on_random_edge_sets(n, data, rng):
    # bit N-1-p of the mask selects the p-th pair in graph6 order (0,1), (0,2), (1,2), ...
    all_pairs = [(i, j) for j in range(n) for i in range(j)]
    nbits = len(all_pairs)
    mask = data.draw(st.integers(0, (1 << nbits) - 1))
    edges = sorted(pair for p, pair in enumerate(all_pairs) if mask >> nbits - 1 - p & 1)
    listed = [(j + 1, i + 1) if rng.random() < 0.5 else (i + 1, j + 1) for i, j in edges]
    rng.shuffle(listed)
    g = from_edge_list(n, listed)
    assert _pairs(g) == tuple(edges)
    assert len(g.rows) == n
    for i, row in enumerate(g.rows):
        assert all(a < b for a, b in zip((i,) + row, row))
    for other in (parse_graph6(encode_graph6(g)), graph_from_mask(n, mask)):
        assert other == g and hash(other) == hash(g) and other.rows == g.rows
    want = Counter(v for e in edges for v in e)
    assert g.degrees == tuple(want[v] for v in range(n))


def test_large_random_graph_holds_no_tuple_per_edge():
    # G(5000, 0.01) has about 125,000 edges: one (i, j) tuple per edge held
    # 8.1 MB, the rows hold about 1.4 MB
    tracemalloc.start()
    try:
        g = generate("random", 5000, p=0.01, seed=1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2_000_000
    assert fast_count(g, 9).n == 5000
    assert "adj" not in vars(g)


def test_graph_pickled_after_adjacency_read_equals_a_fresh_one():
    g = generate("random", 9, p=0.5, seed=3)
    assert g.adj
    restored = pickle.loads(pickle.dumps(g))
    fresh = generate("random", 9, p=0.5, seed=3)
    assert restored == fresh and hash(restored) == hash(fresh)
    assert restored.adj == fresh.adj == _dense(fresh)


def test_enumerate_all_graphs_counts():
    for n, want in [(1, 1), (2, 2), (3, 8), (4, 64)]:
        graphs = list(enumerate_all_graphs(n))
        assert len(graphs) == want
        assert len({g.adj for g in graphs}) == want


def test_enumerate_all_graphs_guard():
    # n is checked on the call itself, before any graph is made
    for n in (7, 8):
        with pytest.raises(CapacityError):
            enumerate_all_graphs(n)
    with pytest.raises(ValueError):
        enumerate_all_graphs(0)


def test_enumeration_is_in_ascending_graph6_order():
    for n in range(1, 7):
        codes = [encode_graph6(g) for g in enumerate_all_graphs(n)]
        assert all(a < b for a, b in zip(codes, codes[1:]))


def test_graph_from_mask_matches_enumeration():
    for n in (3, 4):
        for mask, g in enumerate(enumerate_all_graphs(n)):
            assert graph_from_mask(n, mask).adj == g.adj
    with pytest.raises(ValueError):
        graph_from_mask(3, 8)


def test_known_graph6_encodings():
    assert encode_graph6(generate("complete", 3)) == "Bw"
    assert encode_graph6(generate("path", 3)) == "Bg"
    assert encode_graph6(from_edge_list(1, [])) == "@"
    assert parse_graph6("Bw").adj == generate("complete", 3).adj


def test_graph6_header_and_newline():
    assert parse_graph6(">>graph6<<Bg\n").adj == generate("path", 3).adj


def test_graph6_round_trip_exhaustive():
    for n in range(1, 6):
        for g in enumerate_all_graphs(n):
            assert parse_graph6(encode_graph6(g)).adj == g.adj


@given(st.integers(min_value=2, max_value=7), st.data())
def test_graph6_round_trip_random(n, data):
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = graph_from_mask(n, mask)
    assert parse_graph6(encode_graph6(g)).adj == g.adj


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("~??", 0),
        (chr(30), 0),
        ("B", 1),  # missing data byte
        ("Bww", 3),  # extra data byte
        ("B" + chr(20), 1),  # invalid data byte
        ("B@", 1),  # nonzero padding bits for n=3
    ],
)
def test_graph6_errors(text, offset):
    with pytest.raises(Graph6ParseError) as exc:
        parse_graph6(text)
    assert exc.value.offset == offset


def test_edge_list_text_round_trip():
    g = generate("random", 6, p=0.5, seed=1)
    text = f"{g.n} {len(_pairs(g))}\n" + "".join(f"{i + 1} {j + 1}\n" for i, j in _pairs(g))
    assert parse_edge_list_text(text) == g
    assert parse_edge_list_text("2 1\n1 2\n").adj == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "text",
    ["", "3\n", "3 2\n1 2\n", "2 1\n1 2 3\n", "2 1\n1 3\n"],
)
def test_edge_list_text_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list_text(text)


def test_graph_is_hashable_and_frozen():
    g = generate("path", 3)
    assert hash(g) == hash(generate("path", 3))
    with pytest.raises(AttributeError):
        g.n = 5
