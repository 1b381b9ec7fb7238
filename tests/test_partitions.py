from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmatchlab.coeffs import compute_f
from kmatchlab.errors import CapacityError
from kmatchlab.harness import Budget, ClaimId, verify_claim
from kmatchlab.partitions import MAX_ENUM_M, by_str, grow, partition_str


def stirling2(m, q):
    """Reference S(m, q) by the recurrence S(m,q) = q·S(m-1,q) + S(m-1,q-1)."""
    if m < 0 or q < 0:
        raise ValueError(f"negative arguments m={m}, q={q}")
    if m == 0:
        return 1 if q == 0 else 0
    if q == 0 or q > m:
        return 0
    return q * stirling2(m - 1, q) + stirling2(m - 1, q - 1)


def bell(m):
    """Reference B_m = sum over q of S(m, q)."""
    if m < 0:
        raise ValueError(f"negative argument m={m}")
    return sum(stirling2(m, q) for q in range(m + 1))


def _partitions_by_insertion(m):
    """Grow partitions by inserting element m everywhere.

    This is the construction ``grow`` uses, so it checks the set of
    partitions only; their order is checked by reading each one back as its
    restricted growth string in test_enumeration_order_is_rgs_lex.
    """
    if m == 1:
        return [((1,),)]
    out = []
    for smaller in _partitions_by_insertion(m - 1):
        for idx in range(len(smaller)):
            blocks = [list(b) for b in smaller]
            blocks[idx].append(m)
            out.append(tuple(tuple(b) for b in blocks))
        out.append(smaller + ((m,),))
    return out


def _oracle_set(m):
    """The insertion oracle's partitions of {1..m}, each in canonical form."""
    return {
        tuple(sorted((tuple(sorted(b)) for b in part), key=lambda b: b[0]))
        for part in _partitions_by_insertion(m)
    }


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_matches_insertion_oracle(m):
    oracle = _oracle_set(m)
    assert set(compute_f(m)) == oracle
    # no duplicates: the level keeps every partition that grow makes from the
    # level below, which a repeat would have overwritten
    made = sum(1 for pi in compute_f(m - 1) for _ in grow(pi, m)) if m > 1 else 1
    assert len(compute_f(m)) == made == len(oracle)


@pytest.mark.parametrize("n_max, k_max, graphs, count", [(3, 3, 11, 88), (2, 5, 3, 225)])
def test_thm4_covers_every_partition(n_max, k_max, graphs, count):
    # one record per (graph, m, pi): 11 graphs with n <= 3 times 1 + 2 + 5
    # partitions, and 3 graphs with n <= 2 times B_1 + ... + B_5 = 75
    recs = verify_claim(ClaimId.THM4_FACTORIZATION, Budget(n_max=n_max, k_max=k_max))
    assert len(recs) == count
    heads = defaultdict(set)
    for r in recs:
        graph_m, pi = r.instance.split("/pi=")
        heads[graph_m].add(pi)
    assert len(heads) == graphs * k_max
    for graph_m, pis in heads.items():
        m = int(graph_m.rsplit("/m=", 1)[1])
        assert pis == {partition_str(p) for p in _oracle_set(m)}


def test_enumeration_order_is_rgs_lex():
    # for m=3: 000, 001, 010, 011, 012 as block structures
    got = [partition_str(p) for p in compute_f(3)]
    assert got == ["{1,2,3}", "{1,2|3}", "{1,3|2}", "{1|2,3}", "{1|2|3}"]
    # independent of how the partitions are built: read each one back as its
    # restricted growth string, the block index of each element
    for m in range(1, 9):
        rgss = []
        for p in compute_f(m):
            assert all(list(b) == sorted(b) for b in p)
            assert sorted(x for b in p for x in b) == list(range(1, m + 1))
            rgs = [0] * m
            for h, b in enumerate(p):
                for x in b:
                    rgs[x - 1] = h
            assert rgs[0] == 0 and all(rgs[i] <= max(rgs[:i]) + 1 for i in range(1, m))
            rgss.append(rgs)
        assert all(a < b for a, b in zip(rgss, rgss[1:]))
        assert len(rgss) == bell(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_by_str_yields_each_partition_once_in_string_order(m):
    f = compute_f(m)
    got = list(by_str(f))
    assert [s for s, _ in got] == sorted(map(partition_str, f))
    assert [partition_str(pi) for _, pi in got] == [s for s, _ in got]
    assert sorted(pi for _, pi in got) == sorted(f)


@pytest.mark.parametrize("m", range(1, 9))
def test_counts_match_stirling_and_bell(m):
    assert len(compute_f(m)) == bell(m)
    by_blocks = Counter(len(p) for p in compute_f(m))
    assert by_blocks == {q: stirling2(m, q) for q in range(1, m + 1)}


def test_stirling_known_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 5) == 0
    assert stirling2(6, 0) == 0
    assert [bell(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_stirling_rejects_negative():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        bell(-2)


def test_canonical_form_and_str():
    assert ((1, 3), (2,), (4, 5)) in set(compute_f(5))
    assert partition_str(((1, 3), (2,), (4, 5))) == "{1,3|2|4,5}"


def test_enumeration_guards():
    with pytest.raises(ValueError):
        compute_f(0)
    with pytest.raises(CapacityError):
        compute_f(MAX_ENUM_M + 1)


@given(st.integers(min_value=1, max_value=7))
def test_partitions_are_hashable_keys(m):
    seen = {p: str(p) for p in compute_f(m)}
    assert len(seen) == bell(m)
