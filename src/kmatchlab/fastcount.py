"""The claimed fast k-matching count and its pre-interchange form.

fast_count evaluates, in exact rational arithmetic,

    1/(k!(n-k)!2^k) * sum_{l=1..k} (n-l)! g'_k(l) * B(ground set)

where B sums f(pi) * prod over blocks of power_sum(degrees, |block|) over
set partitions of the ground set.  The product depends on pi only through
its block sizes, so B is evaluated as a sum over block-size types lam of
F(lam) * prod_i power_sum(degrees, lam_i), with F the type-aggregated f
table: p(m) terms for a ground set of size m instead of B_m.  Each power
sum is taken over the graph's distinct degrees (Graph.degree_counts), not
over its vertices, and the common (n-k)! cancels exactly:
(n-l)!/(n-k)! is the falling factorial (n-l)_(k-l), so the only
denominator left is k!2^k.  A bracket depends on the graph only through
its degree histogram and on nothing but the ground-set size m, so B_m is
memoised per (histogram, m) and shared by every k and both conventions.
Which ground set is the contested part:

* index_convention="corrected" partitions {1..l}, so B varies with l (the
  dimensionally consistent reading of the substitution step);
* index_convention="paper" partitions {1..k} for every l, exactly as the
  final display states, so B is a single k-dependent bracket.

Together with the contested g' base row (gmode), this gives four variants.
None of them is asserted correct here; the harness compares each against
brute-force ground truth and records verdicts.

lemma7_eval is the same quantity before the summation interchange and
power-sum factorization: fully nested j-tuple and p-tuple sums, kept
literal so the interchange itself can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Mapping, Sequence

from .coeffs import GMODES, MAX_FAST_K, compute_f, compute_f_types, compute_gprime
from .errors import CapacityError
from .exact import falling_factorial
from .graph import Graph
from .partitions import Partition

# alphabetical, which is report order, as coeffs.GMODES
INDEX_CONVENTIONS = ("corrected", "paper")

MAX_LEMMA7_N = 5
# END_TO_END at its guard (every graph with n <= 6, k <= 8) needs 828
# distinct (histogram, m) brackets, the n <= 6 search at k <= 3 449
_BRACKET_CACHE_SIZE = 4096


@dataclass(frozen=True)
class FastCountOptions:
    """The two contested conventions, always explicit, never compile-time."""

    gmode: str = "corrected"
    index_convention: str = "corrected"

    def __post_init__(self) -> None:
        if self.gmode not in GMODES:
            raise ValueError(f"unknown gmode {self.gmode!r}, expected one of {GMODES}")
        if self.index_convention not in INDEX_CONVENTIONS:
            raise ValueError(
                f"unknown index_convention {self.index_convention!r}, "
                f"expected one of {INDEX_CONVENTIONS}"
            )


@dataclass(frozen=True)
class CountResult:
    """Exact output of fast_count; never rounded, integrality flagged."""

    value: Fraction
    is_integral: bool
    n: int
    k: int
    options: FastCountOptions


def power_sum(d: Sequence[int], e: int) -> int:
    """Sum over vertices p of d[p]**e."""
    if e < 1:
        raise ValueError(f"exponent must be positive, got {e}")
    return sum(x**e for x in d)


def partition_product(d: Sequence[int], pi: Partition) -> int:
    """Product over blocks B of pi of power_sum(d, |B|)."""
    return prod(power_sum(d, len(b)) for b in pi)


def _bracket(sums: Mapping[int, int], m: int) -> int:
    """B for a ground set of size m, from power sums sums[e] for e <= m."""
    return sum(fv * prod(sums[part] for part in lam) for lam, fv in compute_f_types(m).items())


@lru_cache(maxsize=_BRACKET_CACHE_SIZE)
def _histogram_bracket(counts: tuple[tuple[int, int], ...], m: int) -> int:
    """B_m of a graph whose (degree, multiplicity) histogram is counts.

    Power sums are built by running products, one multiply per (distinct
    degree, exponent), then handed to _bracket.
    """
    sums = dict.fromkeys(range(1, m + 1), 0)
    for x, c in counts:
        term = c  # c * x**e, one multiply per exponent
        for e in sums:
            term *= x
            sums[e] += term
    return _bracket(sums, m)


def fast_count(g: Graph, k: int, options: FastCountOptions | None = None) -> CountResult:
    """Evaluate the claimed formula exactly under the chosen conventions.

    Each bracket comes from _histogram_bracket, memoised per (degree
    histogram, ground-set size), so a histogram's B_m is built once, by
    one pass over the histogram plus one product per block-size type,
    whatever k and conventions later ask for it.  (n-k)! is divided out of
    every (n-l)! exactly, leaving (n-l)_(k-l) over k!2^k: the same rational,
    from integers of k-l factors instead of n-l.  When k > n the claimed count
    is 0 by convention (no k-matching can exist and the (n-k)! prefactor
    is undefined).
    """
    if options is None:
        options = FastCountOptions()
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > MAX_FAST_K:
        raise CapacityError(f"f type table refused: k={k} > {MAX_FAST_K}")
    n = g.n
    if k > n:
        return CountResult(Fraction(0), True, n, k, options)
    counts = g.degree_counts
    gp = compute_gprime(k, options.gmode)
    # (n-l)! g'_k(l) with (n-k)! divided out
    weights = {l: falling_factorial(n - l, k - l) * gp[l] for l in range(1, k + 1)}
    if options.index_convention == "paper":
        total = _histogram_bracket(counts, k) * sum(weights.values())
    else:
        total = sum(w * _histogram_bracket(counts, l) for l, w in weights.items())
    value = Fraction(total, factorial(k) * 2**k)
    return CountResult(value, value.denominator == 1, n, k, options)


def lemma7_eval(g: Graph, k: int, options: FastCountOptions | None = None) -> Fraction:
    """The partition-expanded form before the summation interchange, literal.

    For each l the j-tuple and the per-partition p-tuple are fully nested
    explicit sums over {1..n}^m and {1..n}^q; the ground set m follows the
    chosen index convention (m=l corrected, m=k paper).
    """
    if options is None:
        options = FastCountOptions()
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = g.n
    if n > MAX_LEMMA7_N:
        raise CapacityError(f"nested tuple sum refused: n={n} > {MAX_LEMMA7_N}")
    if k > n:
        return Fraction(0)
    adj = g.adj
    gp = compute_gprime(k, options.gmode)
    total = 0
    for l in range(1, k + 1):
        m = k if options.index_convention == "paper" else l
        parts = [
            (fv, len(pi), [(i - 1, h) for h, b in enumerate(pi) for i in b])
            for pi, fv in compute_f(m).items()
        ]
        s_l = 0
        for jt in product(range(n), repeat=m):
            for fv, q, pairs in parts:
                inner = 0
                for pt in product(range(n), repeat=q):
                    term = 1
                    for i, h in pairs:
                        if not adj[jt[i]][pt[h]]:
                            term = 0
                            break
                    inner += term
                s_l += fv * inner
        total += factorial(n - l) * gp[l] * s_l
    return Fraction(total, factorial(k) * factorial(n - k) * 2**k)
