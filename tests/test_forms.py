from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer.cochains import project_f
from simplicial_transfer.contraction import h_operator
from simplicial_transfer.forms import (
    Form,
    differential,
    format_form,
    generator,
    monomial_basis,
    parse_form,
    wedge,
)

from helpers import face_restrict, homogeneous_degree, integrate_face, integrate_top


def F1(text):
    return parse_form(text, 1)


def F2(text):
    return parse_form(text, 2)


def test_generator_normal_forms():
    assert generator(1, "t", 0) == F1("1 + -1 t1")
    assert generator(2, "dt", 0) == F2("-1 dt1 + -1 dt2")
    assert generator(1, "t", 1) == F1("t1")
    with pytest.raises(ValueError):
        generator(1, "t", 2)
    with pytest.raises(ValueError):
        generator(1, "dt", -1)


def test_wedge_basics():
    dt1 = generator(1, "dt", 1)
    t1 = generator(1, "t", 1)
    assert not wedge(dt1, dt1)
    assert wedge(t1, dt1) == F1("t1 dt1")
    assert wedge(generator(2, "dt", 2), generator(2, "dt", 1)) == F2("-1 dt1 dt2")
    with pytest.raises(ValueError):
        wedge(t1, generator(2, "t", 1))


def test_exponents_overflow_instead_of_wrapping():
    top = 2**15 - 1  # the largest exponent a packed monomial holds
    assert dict(Form.monomial(2, (top, 0), ()).terms) == {((top, 0), ()): 1}
    with pytest.raises(OverflowError):
        Form.monomial(2, (0, top + 1), ())
    with pytest.raises(OverflowError):
        parse_form(f"t1^{top} t1", 1)
    half = Form.monomial(2, (2**14, 0), (2,))
    assert wedge(half, Form.monomial(2, (2**14 - 1, 1), ())) == Form.monomial(2, (top, 1), (2,))
    # a carry out of the t1 field would read as t2: it raises instead
    with pytest.raises(OverflowError):
        wedge(half, Form.monomial(2, (2**14, 0), (1,)))
    with pytest.raises(OverflowError):
        wedge(Form.monomial(1, (top,), ()), generator(1, "t", 1))
    # h^0 raises the exponent of t1 by one
    with pytest.raises(OverflowError):
        h_operator(Form.monomial(1, (top,), (1,)), 0)


def test_malformed_monomial_keys_are_rejected():
    for exps, dts in (
        ((1,), ()),  # two exponents on the 2-simplex
        ((-1, 0), ()),
        ((0, 0), (2, 1)),  # dt indices must ascend
        ((0, 0), (1, 1)),
        ((0, 0), (0,)),
        ((0, 0), (3,)),
    ):
        with pytest.raises(ValueError):
            Form.monomial(2, exps, dts)


def test_differential_examples():
    t1 = generator(1, "t", 1)
    assert differential(wedge(t1, t1)) == F1("2 t1 dt1")
    assert not differential(generator(1, "dt", 1))
    prod = wedge(generator(2, "t", 1), generator(2, "t", 2))
    assert differential(prod) == F2("t2 dt1 + t1 dt2")


def test_differential_squares_to_zero():
    for n in (1, 2, 3):
        for m in monomial_basis(n, 6):
            assert not differential(differential(m))


def _random_monomials(dim, max_exp=2):
    exps = st.tuples(*([st.integers(0, max_exp)] * dim))
    dts = st.sets(st.integers(1, dim)).map(lambda s: tuple(sorted(s)))
    return st.builds(lambda e, d: Form.monomial(dim, e, d), exps, dts)


@settings(max_examples=60, deadline=None)
@given(_random_monomials(2), _random_monomials(2))
def test_leibniz_rule(a, b):
    k = homogeneous_degree(a)
    sign = -1 if k % 2 else 1
    lhs = differential(wedge(a, b))
    rhs = wedge(differential(a), b) + sign * wedge(a, differential(b))
    assert lhs == rhs


def test_f_at_a_vertex_is_evaluation_there():
    # the value of a form at vertex i is its f at the 0-face (i,)
    assert project_f(generator(1, "t", 1)).terms[(1,)] == 1
    assert (0,) not in project_f(generator(1, "dt", 1)).terms
    a = project_f(F1("t1^2 + 3")).terms
    assert a[(0,)] == 3
    assert a[(1,)] == 4


def test_face_restrict_examples():
    assert face_restrict(generator(2, "t", 1), (0, 1)) == F1("t1")
    assert not face_restrict(generator(2, "t", 2), (0, 1))
    assert face_restrict(generator(2, "dt", 2), (0, 2)) == F1("dt1")
    with pytest.raises(ValueError):
        face_restrict(generator(2, "t", 1), (1, 0))
    with pytest.raises(ValueError):
        face_restrict(generator(2, "t", 1), (0, 3))


def test_face_restrict_functorial():
    # restricting along a face then a sub-face equals the composite face
    for m in monomial_basis(3, 2):
        for size in (2, 3):
            for face in combinations(range(4), size):
                once = face_restrict(m, face)
                for sub_size in range(1, size):
                    for local in combinations(range(size), sub_size):
                        composite = tuple(face[i] for i in local)
                        assert face_restrict(once, local) == face_restrict(m, composite)


@lru_cache(maxsize=None)
def _sympy_simplex_integral(exps):
    """Iterated integral of t^exps over the standard simplex, as an
    independent quadrature oracle."""
    n = len(exps)
    ts = sympy.symbols(f"x1:{n + 1}")
    expr = sympy.Integer(1)
    for t, e in zip(ts, exps):
        expr *= t**e
    upper = 1
    for i in reversed(range(n)):
        expr = sympy.integrate(expr, (ts[i], 0, upper - sum(ts[:i])))
    return Fraction(int(sympy.fraction(expr)[0]), int(sympy.fraction(expr)[1]))


def test_integrate_top_examples():
    assert integrate_top(F1("t1 dt1")) == Fraction(1, 2)
    assert integrate_top(F2("dt1 dt2")) == Fraction(1, 2)
    assert integrate_top(F1("t1^2 dt1")) == Fraction(1, 3)
    assert integrate_top(F1("t1")) == 0
    assert integrate_top(Form.one(0)) == 1


def test_integrate_top_against_quadrature_oracle():
    cases = [(3,), (1, 2), (2, 2), (0, 3), (1, 1, 1), (2, 0, 1)]
    for exps in cases:
        n = len(exps)
        form = Form.monomial(n, exps, tuple(range(1, n + 1)))
        assert integrate_top(form) == _sympy_simplex_integral(exps)


def _value_at_vertex(a: Form, i: int) -> Fraction:
    """a at the vertex e_i: t_i -> 1, every other t_j -> 0, dt -> 0."""
    point = [1 if j == i else 0 for j in range(1, a.dim + 1)]
    return sum(
        (c * prod(x**e for x, e in zip(point, exps)) for (exps, dts), c in a.terms.items() if not dts),
        Fraction(0),
    )


@pytest.mark.parametrize("n, bound", [(0, 4), (1, 4), (2, 4), (3, 4), (4, 3)])
def test_f_reads_the_vertex_values_and_the_top_integral(n, bound):
    # f integrates over every face: at a 0-face that is evaluation at the
    # vertex, at the top face the integral over the simplex
    top = tuple(range(n + 1))
    for m in monomial_basis(n, bound):
        f = project_f(m).terms
        assert [f.get((i,), 0) for i in top] == [_value_at_vertex(m, i) for i in top], m
        ((exps, dts),) = m.terms
        # the simplex is symmetric in its coordinates, and sympy integrates
        # the exponents in descending order fastest
        exps = tuple(sorted(exps, reverse=True))
        assert f.get(top, 0) == (_sympy_simplex_integral(exps) if len(dts) == n else 0), m


def test_integrate_face_examples():
    assert integrate_face(Form.one(0), (0,)) == 1
    assert integrate_face(generator(2, "dt", 1), (0, 1)) == 1
    assert integrate_face(F1("t1 dt1"), (0, 1)) == Fraction(1, 2)


def test_stokes():
    # integral of d(omega) over a face equals the signed sum over its facets
    for n in (1, 2, 3):
        for size in range(2, n + 2):
            for face in combinations(range(n + 1), size):
                k = size - 1
                for m in monomial_basis(n, 5):
                    if homogeneous_degree(m) != k - 1:
                        continue
                    lhs = integrate_face(differential(m), face)
                    rhs = Fraction(0)
                    for j in range(size):
                        sub = face[:j] + face[j + 1 :]
                        term = integrate_face(m, sub)
                        rhs += -term if j % 2 else term
                    assert lhs == rhs


def test_text_round_trip():
    sample = F2("3/2 t1^2 t2 dt1 + -1 dt2 + 4 + -7/3 t2^3")
    assert parse_form(format_form(sample), 2) == sample
    assert format_form(Form.zero(2)) == "0"
    assert parse_form("dt2 dt1", 2) == F2("-1 dt1 dt2")
    assert not parse_form("dt1 dt1", 2)


def test_coefficients_parse_as_rationals_only():
    # Fraction reads the first three ("1e1000000" as a 3.3-million-bit int)
    # and raises ZeroDivisionError on the last
    for text in ("1e1000000 t1", "1.5 t1", "1_0 t1", "1/0 t1"):
        with pytest.raises(ValueError):
            parse_form(text, 1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("t5", "generator 't5' out of range"),
        ("dt5", "generator 'dt5' out of range"),
        ("1 2 t1", "unrecognized token '2'"),
    ],
    ids=["t-out-of-range", "dt-out-of-range", "two-coefficients"],
)
def test_parse_form_token_errors(text, message):
    with pytest.raises(ValueError) as info:
        parse_form(text, 2)
    assert str(info.value) == message


@settings(max_examples=40, deadline=None)
@given(st.lists(_random_monomials(2), max_size=4))
def test_text_round_trip_random(monomials):
    total = Form.zero(2)
    for i, m in enumerate(monomials):
        total = total + (i + 1) * m
    assert parse_form(format_form(total), 2) == total


def test_parsed_terms_are_added_in_one_form():
    # repeated monomials add up and cancelling ones drop out
    assert parse_form("t1 + 2 t1 + 1/2 t1", 1) == Form.monomial(1, (1,), (), Fraction(7, 2))
    both = parse_form("t1 dt1 + 3 + -1 t1 dt1 + t1^2 + -1 t1^2", 1)
    assert both == 3 * Form.one(1) and both.num == {0: 3}
    assert not parse_form("1/2 t1 + -1/2 t1", 1)
    # a repeated dt index kills its term alone; an unsorted dt order keeps
    # the sign of its permutation
    assert parse_form("5 t1 dt1 dt1 + t1", 1) == F1("t1")
    assert parse_form("2 dt2 dt1 + dt1 dt2", 2) == F2("-1 dt1 dt2")
    assert parse_form("dt3 dt1 dt2 + dt2 dt1 dt3", 3) == Form.zero(3)
    assert parse_form("dt3 dt1 dt2", 3) == Form.monomial(3, (0, 0, 0), (1, 2, 3))
    # an exponent of 2^15 overflows wherever its term stands
    with pytest.raises(OverflowError):
        parse_form(f"1 + t1^{2**15} dt1 + t1", 1)
    with pytest.raises(OverflowError):
        parse_form(f"t1^{2**14} t2 t1^{2**14}", 2)


def test_a_long_form_round_trips():
    total = Form.zero(2)
    for k, m in enumerate(monomial_basis(2, 12)):
        total = total + Fraction(k - 40, 7) * m
    assert len(total.num) > 300
    assert parse_form(format_form(total), 2) == total


def test_an_empty_term_is_refused():
    # a "+" with nothing on one side is malformed, like any other token
    for text in ("t1 + + dt1", "t1 +", "+ t1"):
        with pytest.raises(ValueError, match="empty term"):
            parse_form(text, 1)
    # the empty text and "0" still read as zero
    assert parse_form("", 1) == parse_form("0", 1) == Form.zero(1)


def test_a_form_repr_shows_its_dimension_and_text():
    assert repr(F2("1/2 t1 dt2 + -1")) == "Form(2, '-1 + 1/2 t1 dt2')"
    assert repr(Form.zero(1)) == "Form(1, '0')"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Form.zero(-1), "dimension must be >= 0"),
        (lambda: generator(1, "x", 0), "unknown generator kind 'x'"),
    ],
    ids=["negative-dimension", "generator-kind"],
)
def test_range_and_argument_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
