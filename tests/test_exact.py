from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kmatchlab.exact import falling_factorial


def test_falling_factorial_table():
    # s(s-1)...(s-k+1) written out
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 1) == 5
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(2, 3) == 0
    assert falling_factorial(0, 2) == 0
    assert falling_factorial(-2, 2) == 6  # (-2)(-3)


def test_falling_factorial_negative_k():
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=12))
def test_falling_factorial_recurrence(s, k):
    # (s)_{k+1} = (s)_k * (s - k)
    assert falling_factorial(s, k + 1) == falling_factorial(s, k) * (s - k)


def test_rat_str_forms():
    # a rational's str is the form every report writes: "num", or "num/den"
    # in lowest terms
    assert str(Fraction(3)) == "3"
    assert str(Fraction(-5, 4)) == "-5/4"
    assert str(Fraction(0)) == "0"


def _rat_str_via_fraction(x):
    # the report form spelled out from numerator and denominator
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@pytest.mark.parametrize("x", [
    0, 7, -7, 10**30, -(10**30), 1,
    Fraction(6, 3), Fraction(-4, 2), Fraction(0), Fraction(5, 4), Fraction(-5, 4), Fraction(10**20, 3),
])
def test_rat_str_fast_path_matches_fraction_path(x):
    # str of an int or a Fraction, the two types a referee returns, is that
    # form with no conversion
    assert str(x) == _rat_str_via_fraction(x)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rat_round_trip(num, den):
    # report_from_json reads a written value back with Fraction
    x = Fraction(num, den)
    assert Fraction(str(x)) == x
