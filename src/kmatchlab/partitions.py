"""Set partitions of {1..m}: canonical form, text form, the insertion step.

A set partition is the canonical tuple of its blocks itself, for example
``((1, 3), (2,))``: elements ascend within each block and blocks are ordered
by their minimum element, so a partition is an exact lookup key for
coefficient tables as it stands.  ``partition_str`` writes it as
``{1,3|2}``, the form of THM4 instances and ``kmatch coeffs --what f``,
and ``by_str`` puts partitions in the order of those strings.

Level m grows from level m-1 by inserting m, the largest element: ``grow``
joins m to each block in turn, then adds {m} as a new singleton.  Read as a
restricted growth string (the block index of each element), that appends
0, 1, ..., max+1 to the parent's string, so growing level m-1 in order
yields level m in RGS-lexicographic order, already canonical.  The keys of
``coeffs.compute_f(m)``, built by this step, are that enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

MAX_ENUM_M = 12  # B_12 ~ 4.2M partitions; the f table refuses beyond this

Partition = tuple[tuple[int, ...], ...]


# a block is a subset of {1..MAX_ENUM_M}, so at most 4,095 are ever cached
@lru_cache(maxsize=None)
def _block_str(b: tuple[int, ...]) -> str:
    return ",".join(map(str, b))


def partition_str(pi: Partition) -> str:
    """``{1,3|2}``: blocks in order, split by ``|``, elements by ``,``."""
    return "{" + "|".join(map(_block_str, pi)) + "}"


def by_str(pis: Iterable[Partition]) -> Iterator[tuple[str, Partition]]:
    """(partition_str(pi), pi) for every pi of pis, in ascending string order.

    The partitions that share a first block B make one run of that order,
    since all their strings start with "{B|" (or are "{B}"), so the strings
    are built and sorted one run at a time, never all at once.
    """
    runs: dict[tuple[int, ...], list[Partition]] = {}
    for pi in pis:
        runs.setdefault(pi[0], []).append(pi)
    for run in sorted(runs.values(), key=lambda r: partition_str(r[0])):
        yield from sorted([(partition_str(pi), pi) for pi in run])


def grow(pi: Partition, m: int) -> Iterator[tuple[Partition, int]]:
    """Each partition that deleting m turns back into pi, in RGS order, with
    the size of the block m joined (0 when m is a new singleton)."""
    for i, b in enumerate(pi):
        yield pi[:i] + (b + (m,),) + pi[i + 1 :], len(b)
    yield pi + ((m,),), 0
