"""Brute-force ground truth: combinatorial counters and literal formula sums.

Every function here evaluates its defining sum or counts its defining set by
explicit term-by-term enumeration.  None of them use the partition expansion,
the coefficient closed forms, or any regrouping shortcut: these are the
referees the fast formula is judged against, so they stay transparent.  The
only liberty taken is skipping terms whose product is provably zero and
reordering addition (exact integers commute); capacity guards refuse inputs
whose literal enumeration would be infeasible.

The formula evaluators (lemma1_sum, theorem1_eval, theorem2_eval) carry a
1/(k!(n-k)!2^k) prefactor, so they return exact rationals.  All of them
return 0 when k > n, where the (n-k)! prefactor is otherwise undefined.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from operator import getitem
from typing import Sequence

from .coeffs import compute_gprime
from .errors import CapacityError
from .graph import Graph

MAX_MATCH_EDGES = 64
MAX_MATCH_K = 8
MAX_ROOK_N = 8
MAX_ROOK_K = 4
MAX_INJECT_N = 10
MAX_LEMMA1_N = 7
MAX_THEOREM1_N = 7
MAX_THEOREM2_N = 6


def _count_disjoint(masks: list[int], k: int) -> int:
    """Number of k-subsets of ``masks`` whose bitmasks are pairwise disjoint.

    Depth-first over index-increasing subsets; candidates are filtered at
    each level, and the last level counts the surviving candidate list.
    """
    if k == 0:
        return 1

    def rec(cands: list[int], need: int) -> int:
        if need == 1:
            return len(cands)
        total = 0
        for pos in range(len(cands) - need + 1):
            chosen = cands[pos]
            rest = [c for c in cands[pos + 1 :] if not c & chosen]
            if len(rest) >= need - 1:
                total += rec(rest, need - 1)
        return total

    return rec(masks, k)


def _edge_masks(g: Graph, k: int, what: str) -> list[int]:
    """Endpoint bitmasks of g's edges, row-major, once the matching guard passes."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    m = sum(map(len, g.rows))
    if m > MAX_MATCH_EDGES or k > MAX_MATCH_K:
        raise CapacityError(
            f"{what} enumeration refused: {m} edges, k={k} "
            f"(limits: {MAX_MATCH_EDGES} edges, k <= {MAX_MATCH_K})"
        )
    return [1 << i | 1 << j for i, row in enumerate(g.rows) for j in row]


def count_k_matchings(g: Graph, k: int) -> int:
    """N(k): sets of k pairwise vertex-disjoint edges; N(0) = 1."""
    return _count_disjoint(_edge_masks(g, k, "matching"), k)


def matching_counts(g: Graph, k: int) -> list[int]:
    """[N(0), ..., N(k)]: count_k_matchings for each j <= k, from one guard
    check and one edge-mask list."""
    masks = _edge_masks(g, k, "matching")
    return [_count_disjoint(masks, j) for j in range(k + 1)]


def count_k_directed_matchings(g: Graph, k: int) -> int:
    """Sets of k directed edges whose 2k endpoints are all distinct."""
    # both orientations of an edge carry the same endpoint mask
    return _count_disjoint([x for x in _edge_masks(g, k, "directed matching") for _ in range(2)], k)


def count_rook_placements(g: Graph, k: int) -> int:
    """k-subsets of the 1-entries of adj with distinct rows and distinct columns.

    The 1-entries are read from the forward-neighbour rows, (i, j) and
    (j, i) per edge j in row i, so the n x n matrix is never built.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n, m = g.n, sum(map(len, g.rows))
    if n > MAX_ROOK_N and (k > MAX_ROOK_K or m > MAX_MATCH_EDGES):
        raise CapacityError(
            f"rook enumeration refused: n={n}, k={k}, {m} edges "
            f"(needs n <= {MAX_ROOK_N}, or k <= {MAX_ROOK_K} and at most {MAX_MATCH_EDGES} edges)"
        )
    if k > n:
        return 0  # k distinct rows cannot exist
    masks = [1 << a | 1 << (n + b) for i, row in enumerate(g.rows) for j in row for a, b in ((i, j), (j, i))]
    return _count_disjoint(masks, k)


def injection_sum(X: Sequence[Sequence[int]]) -> int:
    """Sum over injective maps sigma from the rows of X to its columns of the
    product of X[i][sigma(i)]; 1 when X has no rows.

    X's rows must have one length n, the number of columns.
    """
    if not X:
        return 1
    n = len(X[0])
    if any(len(r) != n for r in X):
        raise ValueError("ragged matrix rows")
    if n > MAX_INJECT_N:
        raise CapacityError(f"injection enumeration refused: n={n} > {MAX_INJECT_N}")
    return sum(prod(map(getitem, X, cols)) for cols in permutations(range(n), len(X)))


def lemma1_sum(g: Graph, k: int) -> Fraction:
    """The permutation double sum with prefactor 1/(k!(n-k)!2^k).

    For every permutation phi of the n vertices and every injective sigma
    into {1..n}, adds the product of adj[sigma(j)][phi(sigma(j))].  The
    entries are 0/1, so only sigma-tuples landing entirely on the
    fixed-phi hit set contribute; those are enumerated one by one.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = g.n
    if n > MAX_LEMMA1_N:
        raise CapacityError(f"permutation sum refused: n={n} > {MAX_LEMMA1_N}")
    if k > n:
        return Fraction(0)
    adj = g.adj
    raw = 0
    for phi in permutations(range(n)):
        hits = [v for v in range(n) if adj[v][phi[v]]]
        if len(hits) >= k:
            raw += sum(1 for _ in permutations(hits, k))
    return Fraction(raw, factorial(k) * factorial(n - k) * 2**k)


def theorem1_eval(g: Graph, k: int, gmode: str = "corrected") -> Fraction:
    """The g'-expanded permutation sum, evaluated by explicit enumeration.

    Value: 1/(k!(n-k)!2^k) * sum_l g'_k(l) * sum over l-tuples j in {1..n}^l
    and all n! permutations phi of the product of adj[j_h][phi(j_h)].
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = g.n
    if n > MAX_THEOREM1_N:
        raise CapacityError(f"permutation sum refused: n={n} > {MAX_THEOREM1_N}")
    if k > n:
        return Fraction(0)
    gp = compute_gprime(k, gmode)
    adj = g.adj
    diags = [
        tuple(adj[v][phi[v]] for v in range(n)) for phi in permutations(range(n))
    ]
    total = 0
    for l in range(1, k + 1):
        s_l = 0
        for d in diags:
            s_l += sum(map(prod, product(d, repeat=l)))
        total += gp[l] * s_l
    return Fraction(total, factorial(k) * factorial(n - k) * 2**k)


def theorem2_eval(g: Graph, k: int, gmode: str = "corrected") -> Fraction:
    """The (n-l)!-regrouped form, evaluated by explicit enumeration.

    Value: 1/(k!(n-k)!2^k) * sum_l (n-l)! g'_k(l) * sum over l-tuples j of
    the injective sum over phi in P(n,l) of the product of adj[j_h][phi(h)].
    The l-tuples deliberately include repeated entries, exactly as displayed;
    whether the regrouping survives repetition is the question under test.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = g.n
    if n > MAX_THEOREM2_N:
        raise CapacityError(f"l-tuple sum refused: n={n} > {MAX_THEOREM2_N}")
    if k > n:
        return Fraction(0)
    gp = compute_gprime(k, gmode)
    adj = g.adj
    total = 0
    for l in range(1, k + 1):
        s_l = 0
        for jt in product(range(n), repeat=l):
            s_l += injection_sum([adj[j] for j in jt])
        total += factorial(n - l) * gp[l] * s_l
    return Fraction(total, factorial(k) * factorial(n - k) * 2**k)
