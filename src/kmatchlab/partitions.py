"""Set partitions of {1..m}: canonical form, text form, enumeration.

A set partition is the canonical tuple of its blocks itself, for example
``((1, 3), (2,))``: elements ascend within each block and blocks are ordered
by their minimum element, so a partition is an exact lookup key for
coefficient tables as it stands.  ``partition_str`` writes it as
``{1,3|2}``, the form of THM4 instances and ``kmatch coeffs --what f``.

Level m grows from level m-1 by inserting m, the largest element: ``grow``
joins m to each block in turn, then adds {m} as a new singleton.  Read as a
restricted growth string (the block index of each element), that appends
0, 1, ..., max+1 to the parent's string, so growing level m-1 in order
yields level m in RGS-lexicographic order, already canonical.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .errors import CapacityError

MAX_ENUM_M = 12  # B_12 ~ 4.2M partitions; enumeration refuses beyond this

Partition = tuple[tuple[int, ...], ...]


# a block is a subset of {1..MAX_ENUM_M}, so at most 4,095 are ever cached
@lru_cache(maxsize=None)
def _block_str(b: tuple[int, ...]) -> str:
    return ",".join(map(str, b))


def partition_str(pi: Partition) -> str:
    """``{1,3|2}``: blocks in order, split by ``|``, elements by ``,``."""
    return "{" + "|".join(map(_block_str, pi)) + "}"


def grow(pi: Partition, m: int) -> Iterator[tuple[Partition, int]]:
    """Each partition that deleting m turns back into pi, in RGS order, with
    the size of the block m joined (0 when m is a new singleton)."""
    for i, b in enumerate(pi):
        yield pi[:i] + (b + (m,),) + pi[i + 1 :], len(b)
    yield pi + ((m,),), 0


def enumerate_partitions(m: int) -> Iterator[Partition]:
    """Every partition of {1..m} exactly once, in RGS-lexicographic order."""
    if m < 1:
        raise ValueError(f"ground-set size must be positive, got {m}")
    if m > MAX_ENUM_M:
        raise CapacityError(f"refusing to enumerate B_{m} partitions (m={m} > {MAX_ENUM_M})")
    if m == 1:
        yield ((1,),)
        return
    for pi in enumerate_partitions(m - 1):
        for child, _ in grow(pi, m):
            yield child
