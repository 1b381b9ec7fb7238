from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmatchlab.coeffs import compute_f
from kmatchlab.errors import CapacityError
from kmatchlab.harness import Budget, ClaimId, verify_claim
from kmatchlab.partitions import MAX_ENUM_M


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
    """(partition, f) pairs of {1..m}, grown by inserting element m everywhere.

    This is the deletion rule read forward: m joins a block of size c at a
    factor of -c, or opens a singleton at a factor of 1.  The walk in
    ``compute_f`` multiplies the same factors in text order instead, so this
    checks its partitions and its f values; their order is checked by
    spelling each one in test_walk_yields_each_partition_once_in_string_order.
    """
    if m == 1:
        return [(((1,),), 1)]
    out = []
    for smaller, fv in _partitions_by_insertion(m - 1):
        for idx in range(len(smaller)):
            blocks = [list(b) for b in smaller]
            blocks[idx].append(m)
            out.append((tuple(tuple(b) for b in blocks), -len(smaller[idx]) * fv))
        out.append((smaller + ((m,),), fv))
    return out


def _oracle(m):
    """The insertion oracle's {partition: f} of {1..m}, each partition in canonical form."""
    return {
        tuple(sorted((tuple(sorted(b)) for b in part), key=lambda b: b[0])): fv
        for part, fv in _partitions_by_insertion(m)
    }


def _spell(pi):
    """A partition's text, {1,3|2}: blocks split by "|", elements by ","."""
    return "{" + "|".join(",".join(str(x) for x in b) for b in pi) + "}"


@pytest.mark.parametrize("m", range(1, 10))
def test_enumeration_matches_insertion_oracle(m):
    walked = [(pi, fv) for _, pi, fv in compute_f(m)]
    assert len(dict(walked)) == len(walked)  # no partition twice
    assert dict(walked) == _oracle(m)


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
        assert pis == set(map(_spell, _oracle(m)))


@pytest.mark.parametrize("m", range(1, 10))
def test_walk_yields_each_partition_once_in_string_order(m):
    walked = list(compute_f(m))
    texts = [text for text, _, _ in walked]
    assert all(a < b for a, b in zip(texts, texts[1:]))
    for text, pi, _ in walked:
        assert text == _spell(pi)
        # canonical: elements ascend within each block, blocks by their
        # minimum, and together they cover {1..m}
        assert all(list(b) == sorted(b) for b in pi)
        assert [b[0] for b in pi] == sorted(b[0] for b in pi)
        assert sorted(x for b in pi for x in b) == list(range(1, m + 1))
    assert len(walked) == bell(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_counts_match_stirling_and_bell(m):
    pis = [pi for _, pi, _ in compute_f(m)]
    assert len(pis) == bell(m)
    by_blocks = Counter(map(len, pis))
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
    assert ("{1,3|2|4,5}", ((1, 3), (2,), (4, 5)), 1) in set(compute_f(5))
    assert [text for text, _, _ in compute_f(3)] == ["{1,2,3}", "{1,2|3}", "{1,3|2}", "{1|2,3}", "{1|2|3}"]


def test_enumeration_guards():
    with pytest.raises(ValueError):
        compute_f(0)
    with pytest.raises(CapacityError):
        compute_f(MAX_ENUM_M + 1)


@given(st.integers(min_value=1, max_value=7))
def test_partitions_are_hashable_keys(m):
    seen = {p: str(p) for _, p, _ in compute_f(m)}
    assert len(seen) == bell(m)
