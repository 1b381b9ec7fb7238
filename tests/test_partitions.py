from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmatchlab.errors import CapacityError
from kmatchlab.partitions import (
    SetPartition,
    bell,
    enumerate_partitions,
    stirling2,
)


def _partitions_by_insertion(m):
    """Independent oracle: grow partitions by inserting element m everywhere."""
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


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_matches_insertion_oracle(m):
    ours = {p.blocks for p in enumerate_partitions(m)}
    oracle = {
        tuple(sorted((tuple(sorted(b)) for b in part), key=lambda b: b[0]))
        for part in _partitions_by_insertion(m)
    }
    assert ours == oracle
    assert len(list(enumerate_partitions(m))) == len(oracle)  # no duplicates


def test_enumeration_order_is_rgs_lex():
    # for m=3: 000, 001, 010, 011, 012 as block structures
    got = [str(p) for p in enumerate_partitions(3)]
    assert got == ["{1,2,3}", "{1,2|3}", "{1,3|2}", "{1|2,3}", "{1|2|3}"]


@pytest.mark.parametrize("m", range(1, 9))
def test_counts_match_stirling_and_bell(m):
    assert len(list(enumerate_partitions(m))) == bell(m)
    by_blocks = Counter(len(p.blocks) for p in enumerate_partitions(m))
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
    p = SetPartition.from_blocks([[3, 1], [5, 4], [2]])
    assert p.blocks == ((1, 3), (2,), (4, 5))
    assert str(p) == "{1,3|2|4,5}"
    assert p.m == 5


@pytest.mark.parametrize(
    "blocks",
    [[[1, 2], [2, 3]], [[1], [3]], [[]], [[1, 2], []]],
)
def test_from_blocks_rejects(blocks):
    with pytest.raises(ValueError):
        SetPartition.from_blocks(blocks)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        next(enumerate_partitions(0))
    with pytest.raises(CapacityError):
        next(enumerate_partitions(13))


@given(st.integers(min_value=1, max_value=7))
def test_partitions_are_hashable_keys(m):
    seen = {p: str(p) for p in enumerate_partitions(m)}
    assert len(seen) == bell(m)
