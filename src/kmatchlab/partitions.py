"""Set partitions of {1..m}, Stirling numbers of the second kind, Bell numbers.

Partitions are kept in a canonical form (elements ascending within each
block, blocks ordered by their minimum element) so they can serve as exact
lookup keys for coefficient tables.  Enumeration walks restricted growth
strings in lexicographic order, which produces the canonical form directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import CapacityError

MAX_ENUM_M = 12  # B_12 ~ 4.2M partitions; enumeration refuses beyond this


@dataclass(frozen=True)
class SetPartition:
    """Unordered partition of {1..m} into nonempty blocks, canonical form."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return sum(len(b) for b in self.blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Canonicalize and validate arbitrary block input."""
        raw = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in raw):
            raise ValueError("empty block")
        canon = tuple(sorted(raw, key=lambda b: b[0]))
        seen: set[int] = set()
        for b in canon:
            for x in b:
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        m = sum(len(b) for b in canon)
        if seen != set(range(1, m + 1)):
            raise ValueError(f"blocks must cover 1..{m} exactly, got {sorted(seen)}")
        return cls(canon)

    def __str__(self) -> str:
        return "{" + "|".join(",".join(str(x) for x in b) for b in self.blocks) + "}"


def _rgs_stream(m: int) -> Iterator[list[int]]:
    """All restricted growth strings of length m, lexicographically."""
    a = [0] * m
    if m == 1:
        yield a
        return
    b = [1] * m  # b[j] = 1 + max(a[:j]); b[0] unused
    while True:
        yield a
        if a[m - 1] < b[m - 1]:
            a[m - 1] += 1
            continue
        j = m - 2
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        nb = b[j] + 1 if a[j] == b[j] else b[j]
        for i in range(j + 1, m):
            a[i] = 0
            b[i] = nb


def _blocks_of_rgs(rgs: list[int]) -> tuple[tuple[int, ...], ...]:
    nblocks = max(rgs) + 1
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for i, v in enumerate(rgs):
        blocks[v].append(i + 1)
    return tuple(tuple(b) for b in blocks)


def enumerate_partitions(m: int) -> Iterator[SetPartition]:
    """Every partition of {1..m} exactly once, in RGS-lexicographic order."""
    if m < 1:
        raise ValueError(f"ground-set size must be positive, got {m}")
    if m > MAX_ENUM_M:
        raise CapacityError(f"refusing to enumerate B_{m} partitions (m={m} > {MAX_ENUM_M})")
    for rgs in _rgs_stream(m):
        yield SetPartition(_blocks_of_rgs(rgs))


@lru_cache(maxsize=None)
def stirling2(m: int, q: int) -> int:
    """S(m, q) by the recurrence S(m,q) = q·S(m-1,q) + S(m-1,q-1)."""
    if m < 0 or q < 0:
        raise ValueError(f"negative arguments m={m}, q={q}")
    if m == 0:
        return 1 if q == 0 else 0
    if q == 0 or q > m:
        return 0
    return q * stirling2(m - 1, q) + stirling2(m - 1, q - 1)


def bell(m: int) -> int:
    """B_m = sum over q of S(m, q)."""
    if m < 0:
        raise ValueError(f"negative argument m={m}")
    return sum(stirling2(m, q) for q in range(m + 1))
