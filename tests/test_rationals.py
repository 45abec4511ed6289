from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplicial_transfer.cochains import project_f
from simplicial_transfer.forms import Form, wedge
from simplicial_transfer.rationals import (
    bernoulli_number,
    binomial,
    factorial,
    parse_rational,
    rational_str,
)
from simplicial_transfer.transfer import bernoulli_polynomial

from helpers import exp_series_ratio, poly


def akiyama_tanigawa(n):
    """Independent oracle for B_0..B_n via the triangular scheme, adjusted to
    the B_1 = -1/2 convention (the scheme itself produces B_1 = +1/2)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert all(binomial(n, 0) == 1 for n in range(8))
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_bernoulli_against_triangular_oracle():
    oracle = akiyama_tanigawa(16)
    for n in range(17):
        assert bernoulli_number(n) == oracle[n]


def test_bernoulli_small_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)


def test_odd_bernoulli_vanish():
    for n in range(3, 16, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_polynomial_small():
    assert bernoulli_polynomial(0) == poly(1)
    assert bernoulli_polynomial(1) == poly(Fraction(-1, 2), 1)
    assert bernoulli_polynomial(2) == poly(Fraction(1, 6), -1, 1)


def test_bernoulli_polynomial_at_zero():
    for n in range(17):
        # B_n(0) is f of the 0-form at the vertex 0
        assert project_f(bernoulli_polynomial(n)).terms.get((0,), 0) == bernoulli_number(n)


def test_exp_series_ratio_low_orders():
    series = exp_series_ratio(2)
    assert series[0] == poly()
    assert series[1] == poly(0, 1)
    assert series[2] == poly(0, Fraction(-1, 2), Fraction(1, 2))


def test_exp_series_ratio_matches_bernoulli():
    series = exp_series_ratio(8)
    for n in range(1, 9):
        closed = Fraction(1, factorial(n)) * (
            bernoulli_polynomial(n) - bernoulli_number(n) * Form.one(1)
        )
        assert series[n] == closed


def test_interval_polynomial_arithmetic():
    # the polynomials of the interval are 0-forms on the 1-simplex
    p = poly(1, 2)
    q = poly(0, 0, 3)
    dt = Form.monomial(1, (0,), (1,))
    assert p + q == poly(1, 2, 3)
    assert wedge(p, q) == poly(0, 0, 3, 6)
    assert (p - p) == poly()
    assert not poly(0, 0)
    # the integral over the interval is f at its top face
    assert project_f(wedge(poly(1, 1), dt)).terms[(0, 1)] == Fraction(3, 2)


def test_rational_round_trip():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(-7)) == "-7"
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" +12/8\n") == Fraction(3, 2)
    for bad in (0.1, 3, None, "1/0", "x", "1e1000000", "1.5", "1_000", "1 / 2", "/2", "½", "١"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(), st.fractions())
def test_rational_arithmetic_is_exact(a, c):
    assert (a + c) - c == a


def test_bernoulli_indices_start_at_zero():
    with pytest.raises(ValueError, match="bernoulli_number requires n >= 0"):
        bernoulli_number(-1)
    with pytest.raises(ValueError, match="bernoulli_polynomial requires n >= 0"):
        bernoulli_polynomial(-1)
