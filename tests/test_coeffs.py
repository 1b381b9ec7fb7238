"""Coefficient tables checked against independent derivations.

The g' rows are produced by a recursion; the reference here expands the
falling-factorial polynomial by direct convolution.  The f values are
produced by a deletion recursion; the reference here solves for them from
scratch as the unique solution of the injective-sum identity on random
matrices (exact Gaussian elimination), plus a product-form cross-check.
The type-aggregated F table is checked against sums of the set-level f
values and against its closed form.
"""

import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from kmatchlab.coeffs import FTable, compute_f, compute_f_types, compute_gprime
from kmatchlab.errors import CapacityError
from kmatchlab.exact import falling_factorial
from kmatchlab.oracle import injection_sum
from kmatchlab.partitions import SetPartition, bell, enumerate_partitions


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
    assert tab.values == {l: ref[l] for l in range(1, k + 1)}
    assert ref[0] == 0 or k == 0


def test_gprime_frozen_rows():
    assert compute_gprime(1, "paper").values == {1: 1}
    assert compute_gprime(2, "paper").values == {1: 1, 2: 1}
    assert compute_gprime(2, "corrected").values == {1: -1, 2: 1}
    assert compute_gprime(3, "paper").values == {1: -2, 2: -1, 3: 1}
    assert compute_gprime(3, "corrected").values == {1: 2, 2: -3, 3: 1}
    assert compute_gprime(4, "corrected").values == {1: -6, 2: 11, 3: -6, 4: 1}


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
    a.values[1] = 999
    assert compute_gprime(3, "corrected").values[1] == 2


def test_f_frozen_values():
    f = compute_f(3)
    assert f[SetPartition.from_blocks([[1]])] == 1
    assert f[SetPartition.from_blocks([[1], [2]])] == 1
    assert f[SetPartition.from_blocks([[1, 2]])] == -1
    assert f[SetPartition.from_blocks([[1, 2, 3]])] == 2
    assert f[SetPartition.from_blocks([[1, 2], [3]])] == -1
    assert f[SetPartition.from_blocks([[1, 3], [2]])] == -1
    assert f[SetPartition.from_blocks([[1], [2, 3]])] == -1
    assert f[SetPartition.from_blocks([[1], [2], [3]])] == 1


def _basis_eval(X, pi):
    """Independent evaluation of the partition basis functional on X."""
    n = len(X[0])
    val = 1
    for b in pi.blocks:
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
    """Fit f from the identity alone and compare with the recursion's output."""
    parts = list(enumerate_partitions(m))
    rng = random.Random(f"fit:{m}")
    rows, rhs = [], []
    for _ in range(3 * bell(m) + 10):
        n = rng.choice([m, m + 1])
        X = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
        rows.append([_basis_eval(X, pi) for pi in parts])
        rhs.append(injection_sum(X, m))
    fitted = _solve_exact(rows, rhs)
    table = compute_f(m)
    assert fitted == [table[pi] for pi in parts]


@pytest.mark.parametrize("m", range(1, 7))
def test_f_product_form_cross_check(m):
    table = compute_f(m)
    for pi in enumerate_partitions(m):
        want = prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in pi.blocks)
        assert table[pi] == want
    one_block = SetPartition.from_blocks([range(1, m + 1)])
    assert table[one_block] == (-1) ** (m - 1) * factorial(m - 1)


@pytest.mark.parametrize("m,n", [(5, 5), (5, 6), (6, 6)])
def test_f_identity_holds_at_larger_m(m, n):
    table = compute_f(m)
    parts = list(enumerate_partitions(m))
    rng = random.Random(f"ident:{m}:{n}")
    for _ in range(5):
        X = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m))
        expansion = sum(table[pi] * _basis_eval(X, pi) for pi in parts)
        assert expansion == injection_sum(X, m)


def test_f_table_scope_and_errors():
    small = compute_f(2)
    assert isinstance(small, FTable)
    assert small.m_max == 2
    assert {pi.m for pi in small.values} == {1, 2}
    with pytest.raises(ValueError):
        compute_f(0)
    with pytest.raises(CapacityError):
        compute_f(13)


@pytest.mark.parametrize("m", range(1, 9))
def test_f_types_sum_set_level_f(m):
    table = compute_f(m)
    want: Counter = Counter()
    for pi in enumerate_partitions(m):
        want[tuple(sorted((len(b) for b in pi.blocks), reverse=True))] += table[pi]
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
