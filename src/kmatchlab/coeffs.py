"""Integer coefficient tables used by the fast counting formula.

Each table is built by its defining recursion.  g' rows and F levels are
read-only mappings; only F levels and g' rows up to ``MAX_FAST_K`` are
cached, and returned as the cached mapping itself, while a g' row above
``MAX_FAST_K`` is rebuilt on each call, holding only the row before it.
The f weights are never stored: each call walks them anew.

* ``compute_gprime(k, mode)`` - row k of the g' table, l -> g'_k(l) for
  1 <= l <= k, defined by a first-order recursion in k.  The k=2 base row
  is contested, so both variants are first-class: mode ``"paper"`` seeds
  (g'(1), g'(2)) = (1, 1) verbatim, mode ``"corrected"`` seeds (-1, 1).  In
  corrected mode row k equals the coefficient vector of the falling
  factorial s(s-1)...(s-k+1) expanded in powers of s.  Rows are built
  forward from the highest cached row, up to ``MAX_GPRIME_K``, checked
  before any row is built.

* ``compute_f(m)`` - an integer weight per set partition of {1..m}, walked
  anew on each call as ``(text, pi, f(pi))`` in ascending order of the text
  ``{1,3|2}``.  f is defined by deleting the largest element: a singleton
  {m} is dropped at no cost, while removing m from a larger block B
  multiplies by -(|B|-1).  Deleting every element in turn, f(pi) is the
  product over each j of -(the number of smaller elements in j's block),
  or 1 when j is the smallest in its block; the walk multiplies exactly
  these factors, in text order.  Level m has B_m partitions; it serves the
  literal referees, THM4 and ``kmatch coeffs --what f``, bounded by
  ``partitions.MAX_ENUM_M`` on the call, before anything is walked.

* ``compute_f_types(m)`` - F on the integer partitions of m: F(lam) is the
  sum of f over the set partitions of {1..m} whose block sizes form lam.
  It comes from the same deletion rule lifted to types, so level m holds
  only p(m) entries; this is the table the fast formula uses.

All recursions are evaluated verbatim; closed forms are only used as
cross-checks in the test suite, never as the source of values.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import CapacityError
from .partitions import MAX_ENUM_M, Partition

# alphabetical, which is report order: walkers emit gmode variants in it
GMODES = ("corrected", "paper")

# `kmatch coeffs` prints one row up to this k; building it holds two rows,
# about 23 MB of peak RSS for `kmatch coeffs --k 1000`
MAX_GPRIME_K = 1000

# the highest k the fast formula takes: p(30) = 5,604 block-size types in
# the largest F level.  The formula and the referees read no g' row past
# it, so no higher row is cached: it is built from the top cached row
# holding only the row before it, since row k depends only on row k-1
MAX_FAST_K = 30

# per mode, rows 1..K cached so far, K <= MAX_FAST_K, row k at
# position k-1; rows 1 and 2 are the base
_GPRIME_ROWS: dict[str, list[Mapping[int, int]]] = {
    "paper": [MappingProxyType({1: 1}), MappingProxyType({1: 1, 2: 1})],
    "corrected": [MappingProxyType({1: 1}), MappingProxyType({1: -1, 2: 1})],
}


def compute_gprime(k: int, mode: str = "corrected") -> Mapping[int, int]:
    """Row k of the g' recursion under the chosen base convention, read-only."""
    if mode not in GMODES:
        raise ValueError(f"unknown gmode {mode!r}, expected one of {GMODES}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > MAX_GPRIME_K:
        raise CapacityError(f"g' table refused: k={k} > {MAX_GPRIME_K}")
    rows = _GPRIME_ROWS[mode]
    if k <= len(rows):
        return rows[k - 1]
    prev = rows[-1]
    for level in range(len(rows) + 1, k + 1):
        row = {1: -(level - 1) * prev[1]}
        for l in range(2, level):
            row[l] = prev[l - 1] - (level - 1) * prev[l]
        row[level] = prev[level - 1]
        prev = MappingProxyType(row)
        if level <= MAX_FAST_K:
            rows.append(prev)
    return prev


def compute_f(m: int) -> Iterator[tuple[str, Partition, int]]:
    """(text, pi, f(pi)) for every partition pi of {1..m}, in ascending text
    order, walked anew; m is checked on the call, before anything is walked."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m > MAX_ENUM_M:
        raise CapacityError(f"f table for m={m} exceeds partition bound {MAX_ENUM_M}")
    return _f_walk(m)


def _f_walk(m: int) -> Iterator[tuple[str, Partition, int]]:
    # depth first over text prefixes: (text, closed blocks, open block, the
    # unused elements in str order, f so far).  A prefix goes on with ",j"
    # for each unused j above the open block's last element, in str order,
    # then with "|" and the smallest unused element, or ends with "}".
    # "," < "|" < "}", and no j's string is a prefix of another's for
    # 2 <= j <= 19, so that is text order; the stack is last in, first out,
    # so each prefix's children are pushed in reverse
    stack = [("{1", (), (1,), tuple(sorted(range(2, m + 1), key=str)), 1)]
    while stack:
        text, closed, block, rest, fv = stack.pop()
        if not rest:
            yield text + "}", closed + (block,), fv
            continue
        i = rest.index(min(rest))
        stack.append((f"{text}|{rest[i]}", closed + (block,), (rest[i],), rest[:i] + rest[i + 1 :], fv))
        # j joins a block of len(block) smaller elements
        c = -len(block) * fv
        for i in reversed(range(len(rest))):
            if rest[i] > block[-1]:
                stack.append((f"{text},{rest[i]}", closed, block + (rest[i],), rest[:i] + rest[i + 1 :], c))


# level m maps each block-size type of {1..m} (parts in non-increasing
# order) to F(type); level m depends only on level m-1
_F_TYPE_LEVELS: dict[int, Mapping[tuple[int, ...], int]] = {0: MappingProxyType({(): 1})}


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
        _F_TYPE_LEVELS[level] = MappingProxyType(nxt)
    return _F_TYPE_LEVELS[m]
