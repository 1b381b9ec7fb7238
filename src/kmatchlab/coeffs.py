"""Integer coefficient tables used by the fast counting formula.

Three tables are produced here:

* ``g'`` - a triangular table g'_k(l) for 1 <= l <= k, defined by a
  first-order recursion in k.  The k=2 base row is contested, so both
  variants are first-class: mode ``"paper"`` seeds (g'(1), g'(2)) = (1, 1)
  verbatim, mode ``"corrected"`` seeds (-1, 1).  In corrected mode the row
  k equals the coefficient vector of the falling factorial
  s(s-1)...(s-k+1) expanded in powers of s.

* ``f`` - an integer weight per set partition, defined by deleting the
  largest element: a singleton block {m} is dropped at no cost, while
  removing m from a larger block B multiplies by -(|B|-1).  The set-level
  table (one entry per partition of {1..m}, B_m of them) serves the literal
  referees and ``kmatch coeffs --what f``.

* ``F`` - the f table aggregated to block-size types: F(lam) is the sum of
  f over the set partitions of {1..m} whose block sizes form lam.  It comes
  from the same deletion rule lifted to types, so level m holds only the
  p(m) integer partitions of m; this is the table the fast formula uses.

All recursions are evaluated verbatim; closed forms are only used as
cross-checks in the test suite, never as the source of values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .errors import CapacityError
from .partitions import SetPartition, enumerate_partitions

MAX_F_M = 12  # partition enumeration bound of the set-level f table

GMODES = ("paper", "corrected")


@dataclass(frozen=True)
class GPrimeTable:
    """Row k of the g' table: values[l] = g'_k(l) for l = 1..k."""

    k: int
    mode: str
    values: dict[int, int] = field(hash=False)

    def __getitem__(self, l: int) -> int:
        return self.values[l]


@dataclass(frozen=True)
class FTable:
    """f weights for every partition of {1..m}, all m = 1..m_max."""

    m_max: int
    values: Mapping[SetPartition, int] = field(hash=False)

    def __getitem__(self, pi: SetPartition) -> int:
        return self.values[pi]


_GPRIME_CACHE: dict[tuple[int, str], dict[int, int]] = {}


def compute_gprime(k: int, mode: str = "corrected") -> GPrimeTable:
    """Row k of the g' recursion under the chosen base convention."""
    if mode not in GMODES:
        raise ValueError(f"unknown gmode {mode!r}, expected one of {GMODES}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    key = (k, mode)
    if key not in _GPRIME_CACHE:
        if k == 1:
            row = {1: 1}
        elif k == 2:
            row = {1: 1, 2: 1} if mode == "paper" else {1: -1, 2: 1}
        else:
            prev = compute_gprime(k - 1, mode).values
            row = {k: prev[k - 1], 1: -(k - 1) * prev[1]}
            for l in range(2, k):
                row[l] = prev[l - 1] - (k - 1) * prev[l]
        _GPRIME_CACHE[key] = row
    return GPrimeTable(k, mode, dict(_GPRIME_CACHE[key]))


# level m holds the partitions of exactly {1..m}; level m depends only on
# level m-1, and finished tables are kept as read-only views so repeated
# compute_f calls cost a dict lookup, not a rebuild
_F_LEVELS: dict[int, dict[SetPartition, int]] = {1: {SetPartition(((1,),)): 1}}
_F_TABLES: dict[int, FTable] = {}


def _f_value(pi: SetPartition, prev: dict[SetPartition, int]) -> int:
    m = pi.m
    for bi, b in enumerate(pi.blocks):
        if b[-1] == m:
            break
    rest = pi.blocks[:bi] + pi.blocks[bi + 1 :]
    if len(b) == 1:
        reduced = SetPartition(rest)
        return prev[reduced]
    shrunk = b[:-1]
    # reinsert the shrunk block at its min-ordered position
    reduced = SetPartition.from_blocks(rest + (shrunk,))
    return -(len(b) - 1) * prev[reduced]


def compute_f(m_max: int) -> FTable:
    """f values for every partition of every ground set up to size m_max."""
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if m_max > MAX_F_M:
        raise CapacityError(f"f table for m_max={m_max} exceeds partition bound {MAX_F_M}")
    if m_max in _F_TABLES:
        return _F_TABLES[m_max]
    for m in range(max(_F_LEVELS) + 1, m_max + 1):
        prev = _F_LEVELS[m - 1]
        _F_LEVELS[m] = {pi: _f_value(pi, prev) for pi in enumerate_partitions(m)}
    merged: dict[SetPartition, int] = {}
    for m in range(1, m_max + 1):
        merged.update(_F_LEVELS[m])
    _F_TABLES[m_max] = FTable(m_max, MappingProxyType(merged))
    return _F_TABLES[m_max]


# level m maps each block-size type of {1..m} (parts in non-increasing
# order) to F(type); like _F_LEVELS, level m depends only on level m-1
_F_TYPE_LEVELS: dict[int, dict[tuple[int, ...], int]] = {0: {(): 1}}


def compute_f_types(m: int) -> Mapping[tuple[int, ...], int]:
    """F(lam) for every integer partition lam of m, read-only.

    Deleting m from a partition of type lam leaves type lam - {1} when m
    was a singleton, or type mu (one part c+1 of lam lowered to c) at a cost
    of -c; mu has mult_mu(c) blocks of size c that m could have joined.  So

        F(lam) = [1 in lam] F(lam - {1}) + sum_c (-c) mult_mu(c) F(mu),

    evaluated here by pushing each F(mu) of level m-1 to the types it
    reaches.  The cost is polynomial in p(m); callers bound m.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    for level in range(max(_F_TYPE_LEVELS) + 1, m + 1):
        nxt: dict[tuple[int, ...], int] = {}
        for mu, fv in _F_TYPE_LEVELS[level - 1].items():
            # m as a singleton: 1 is the smallest part, so it goes last
            lam = mu + (1,)
            nxt[lam] = nxt.get(lam, 0) + fv
            for i, c in enumerate(mu):
                if i and mu[i - 1] == c:
                    continue
                # m joins one of the mult_mu(c) blocks of size c; raising the
                # first c keeps the parts non-increasing
                lam = mu[:i] + (c + 1,) + mu[i + 1 :]
                nxt[lam] = nxt.get(lam, 0) - c * mu.count(c) * fv
        _F_TYPE_LEVELS[level] = nxt
    return MappingProxyType(_F_TYPE_LEVELS[m])
