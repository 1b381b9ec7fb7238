"""Exact integer and rational arithmetic helpers.

All formula evaluation in this package is exact: integers are Python's
arbitrary-precision ``int``, rationals are ``fractions.Fraction`` (always in
lowest terms with a positive denominator).  No floating point enters any
formula path; a non-integral result is evidence, not rounding noise.
"""

from __future__ import annotations


def falling_factorial(s: int, k: int) -> int:
    """Product s·(s-1)···(s-k+1); the empty product 1 when k = 0.

    ``s`` may be any (arbitrarily large) integer, so this can serve as an
    independent oracle for injective-sum identities at any scale.
    """
    if k < 0:
        raise ValueError(f"falling_factorial with negative k={k}")
    out = 1
    for i in range(k):
        out *= s - i
    return out
