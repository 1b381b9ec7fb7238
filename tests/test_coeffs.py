"""Coefficient tables checked against independent derivations.

The g' rows are produced by a recursion; the reference here expands the
falling-factorial polynomial by direct convolution.  The f values are
produced by a walk that multiplies the deletion rule's factors; the
reference here solves for them from
scratch as the unique solution of the injective-sum identity on random
matrices (exact Gaussian elimination), plus a product-form cross-check.
The type-aggregated F table is checked against sums of the set-level f
values and against its closed form.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from kmatchlab import coeffs
from kmatchlab.coeffs import compute_f, compute_f_types, compute_gprime
from kmatchlab.errors import CapacityError
from kmatchlab.exact import falling_factorial
from kmatchlab.oracle import injection_sum
from kmatchlab.partitions import MAX_ENUM_M

from helpers import f_table


def _falling_poly_coeffs(k):
    """Coefficients of s(s-1)...(s-k+1) in powers of s, by convolution."""
    coeffs = [1]
    for i in range(k):
        new = [0] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            new[e + 1] += c
            new[e] -= i * c
        coeffs = new
    return coeffs


@pytest.mark.parametrize("k", range(1, 9))
def test_corrected_gprime_equals_falling_poly(k):
    ref = _falling_poly_coeffs(k)
    tab = compute_gprime(k, "corrected")
    assert tab == {l: ref[l] for l in range(1, k + 1)}
    assert ref[0] == 0 or k == 0


def test_gprime_frozen_rows():
    assert compute_gprime(1, "paper") == {1: 1}
    assert compute_gprime(2, "paper") == {1: 1, 2: 1}
    assert compute_gprime(2, "corrected") == {1: -1, 2: 1}
    assert compute_gprime(3, "paper") == {1: -2, 2: -1, 3: 1}
    assert compute_gprime(3, "corrected") == {1: 2, 2: -3, 3: 1}
    assert compute_gprime(4, "corrected") == {1: -6, 2: 11, 3: -6, 4: 1}


def _fresh_gprime_table(monkeypatch):
    """Swap in a g' table holding only the two base rows of each mode."""
    fresh = {mode: rows[:2] for mode, rows in coeffs._GPRIME_ROWS.items()}
    monkeypatch.setattr(coeffs, "_GPRIME_ROWS", fresh)
    return fresh


def test_gprime_guard_fires_before_any_row_is_built(monkeypatch):
    fresh = _fresh_gprime_table(monkeypatch)
    k = coeffs.MAX_GPRIME_K + 1
    with pytest.raises(CapacityError, match=f"k={k} > {coeffs.MAX_GPRIME_K}"):
        compute_gprime(k, "paper")
    assert {mode: len(rows) for mode, rows in fresh.items()} == {"paper": 2, "corrected": 2}


def test_gprime_rows_are_built_forward_in_a_loop(monkeypatch):
    # row 300 from the base rows, with room for 100 frames above this one:
    # a recursion of one frame per row would overflow it
    fresh = _fresh_gprime_table(monkeypatch)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        row = compute_gprime(300, "corrected")
    finally:
        sys.setrecursionlimit(limit)
    ref = _falling_poly_coeffs(300)
    assert row == {l: ref[l] for l in range(1, 301)}
    assert len(fresh["corrected"]) == coeffs.MAX_FAST_K and len(fresh["paper"]) == 2
    assert compute_gprime(30, "corrected") is fresh["corrected"][29]


def test_gprime_cache_holds_no_row_past_the_formulas(monkeypatch):
    # rows past MAX_FAST_K are built from the top cached row and dropped
    fresh = _fresh_gprime_table(monkeypatch)
    ref = _falling_poly_coeffs(500)
    assert compute_gprime(500, "corrected") == {l: ref[l] for l in range(1, 501)}
    assert len(compute_gprime(500, "paper")) == 500
    assert {mode: len(rows) for mode, rows in fresh.items()} == {"paper": 30, "corrected": 30}
    assert compute_gprime(29, "paper") is fresh["paper"][28]


@pytest.mark.parametrize("mode", ["paper", "corrected"])
@pytest.mark.parametrize("k", range(3, 9))
def test_gprime_recursion_links_rows(k, mode):
    cur = compute_gprime(k, mode)
    prev = compute_gprime(k - 1, mode)
    assert cur[k] == prev[k - 1]
    assert cur[1] == -(k - 1) * prev[1]
    for l in range(2, k):
        assert cur[l] == prev[l - 1] - (k - 1) * prev[l]


def test_corrected_power_identity_paper_breaks():
    for k in range(2, 9):
        tab = compute_gprime(k, "corrected")
        for s in range(0, 13):
            assert sum(tab[l] * s**l for l in range(1, k + 1)) == falling_factorial(s, k)
    paper2 = compute_gprime(2, "paper")
    assert sum(paper2[l] * 2**l for l in (1, 2)) == 6 != falling_factorial(2, 2)


def test_gprime_bad_inputs():
    with pytest.raises(ValueError):
        compute_gprime(0)
    with pytest.raises(ValueError):
        compute_gprime(3, "fixed")


def test_gprime_cache_isolation():
    a = compute_gprime(3, "corrected")
    with pytest.raises(TypeError):
        a[1] = 999
    assert compute_gprime(3, "corrected")[1] == 2


def test_f_frozen_values():
    def f(pi):
        return f_table(sum(map(len, pi)))[pi]

    assert f(((1,),)) == 1
    assert f(((1,), (2,))) == 1
    assert f(((1, 2),)) == -1
    assert f(((1, 2, 3),)) == 2
    assert f(((1, 2), (3,))) == -1
    assert f(((1, 3), (2,))) == -1
    assert f(((1,), (2, 3))) == -1
    assert f(((1,), (2,), (3,))) == 1


def _basis_eval(X, pi):
    """Independent evaluation of the partition basis functional on X."""
    n = len(X[0])
    val = 1
    for b in pi:
        val *= sum(prod(X[i - 1][j] for i in b) for j in range(n))
    return val


def _solve_exact(rows, rhs):
    """Unique exact solution of an overdetermined consistent system."""
    width = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        assert piv is not None, "sampled system is rank-deficient; add samples"
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                fac = aug[i][c]
                aug[i] = [a - fac * b for a, b in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, len(aug)):
        assert all(v == 0 for v in aug[i]), "sampled system is inconsistent"
    return [aug[i][width] for i in range(width)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_f_is_unique_solution_of_identity(m):
    """Fit f from the identity alone and compare with the walk's output."""
    table = f_table(m)
    parts = list(table)
    rng = random.Random(f"fit:{m}")
    rows, rhs = [], []
    for _ in range(3 * len(parts) + 10):
        n = rng.choice([m, m + 1])
        X = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
        rows.append([_basis_eval(X, pi) for pi in parts])
        rhs.append(injection_sum(X))
    fitted = _solve_exact(rows, rhs)
    assert fitted == [table[pi] for pi in parts]


@pytest.mark.parametrize("m", range(1, 7))
def test_f_product_form_cross_check(m):
    table = f_table(m)
    for pi, fv in table.items():
        assert fv == prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in pi)
    one_block = (tuple(range(1, m + 1)),)
    assert table[one_block] == (-1) ** (m - 1) * factorial(m - 1)


@pytest.mark.parametrize("m,n", [(5, 5), (5, 6), (6, 6)])
def test_f_identity_holds_at_larger_m(m, n):
    table = f_table(m)
    rng = random.Random(f"ident:{m}:{n}")
    for _ in range(5):
        X = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m))
        expansion = sum(fv * _basis_eval(X, pi) for pi, fv in table.items())
        assert expansion == injection_sum(X)


def test_f_table_scope_and_errors():
    # one walk per call, m = 1..MAX_ENUM_M: its partitions and their order are
    # checked in test_partitions.py
    assert list(compute_f(1)) == [("{1}", ((1,),), 1)]
    # the top level, m = 12, is admitted: its first text takes 10, 11 and 12
    # into the first block ahead of 2, which can then no longer join it
    first = ("{1,10,11,12|2,3,4,5,6,7,8,9}", ((1, 10, 11, 12), (2, 3, 4, 5, 6, 7, 8, 9)), -6 * -5040)
    assert next(compute_f(12)) == first
    assert list(compute_f(2)) == list(compute_f(2)) == [("{1,2}", ((1, 2),), -1), ("{1|2}", ((1,), (2,)), 1)]
    with pytest.raises(ValueError):
        compute_f(0)
    with pytest.raises(CapacityError):
        compute_f(MAX_ENUM_M + 1)


def test_f_guard_fires_before_any_level(monkeypatch):
    # the bare call raises: a guard inside the walk would fire only when the
    # caller first asks for a partition, after it has begun its output
    def no_work(*args, **kwargs):
        raise AssertionError("the walk started past the guard")

    monkeypatch.setattr(coeffs, "_f_walk", no_work)
    with pytest.raises(CapacityError, match=f"m={MAX_ENUM_M + 1} exceeds"):
        compute_f(MAX_ENUM_M + 1)
    with pytest.raises(ValueError, match="m must be positive"):
        compute_f(0)


def test_tables_are_read_only():
    for table, key in [(compute_gprime(3, "paper"), 1), (compute_f_types(2), (2,))]:
        with pytest.raises(TypeError):
            table[key] = 0
    assert compute_gprime(3, "paper")[1] == -2
    assert compute_f_types(2)[(2,)] == -1


@pytest.mark.parametrize("m", range(1, 9))
def test_f_types_sum_set_level_f(m):
    want: Counter = Counter()
    for _, pi, fv in compute_f(m):
        want[tuple(sorted((len(b) for b in pi), reverse=True))] += fv
    assert dict(compute_f_types(m)) == dict(want)


def _integer_partitions(m, largest):
    """Partitions of m into parts <= largest, parts non-increasing."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _integer_partitions(m - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("m", range(1, 31))
def test_f_types_closed_form(m):
    # F(lam) = m! prod_i (-1)^(lam_i - 1) / lam_i / prod_c mult_c!
    types = compute_f_types(m)
    want = {}
    for lam in _integer_partitions(m, m):
        value = Fraction(factorial(m))
        for part in lam:
            value *= Fraction((-1) ** (part - 1), part)
        for mult in Counter(lam).values():
            value /= factorial(mult)
        want[lam] = value
    assert types == want


def test_f_types_scope_and_errors():
    assert dict(compute_f_types(1)) == {(1,): 1}
    assert dict(compute_f_types(2)) == {(1, 1): 1, (2,): -1}
    assert len(compute_f_types(30)) == 5604
    with pytest.raises(TypeError):
        compute_f_types(2)[(2,)] = 0
    with pytest.raises(ValueError):
        compute_f_types(0)
