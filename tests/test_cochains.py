import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer.cochains import (
    Cochain,
    ComplexFormatError,
    OrderedComplex,
    coboundary,
    elementary_form,
    format_cochain,
    include_g,
    interval_basis_components,
    project_f,
    standard_simplex,
)
from simplicial_transfer.forms import (
    Form,
    differential,
    monomial_basis,
    parse_form,
)
from simplicial_transfer.rationals import SparseVector

from helpers import (
    cochain_from_interval_basis,
    cochain_from_records,
    cochain_records,
    face_restrict,
    restrict_cochain,
)
from span_oracle import koszul_apply


def chi(dim, *face):
    return Cochain.basis_element(standard_simplex(dim), face)


def test_basis_faces_counts():
    assert len(standard_simplex(1).simplices) == 3
    assert len(standard_simplex(2).simplices) == 7
    assert len(standard_simplex(4).simplices) == 31


def test_an_ordered_complex_is_immutable_and_shows_its_input():
    complex_ = OrderedComplex(["a", "b", "c"], [[0, 1], [1, 2]])
    with pytest.raises(AttributeError, match="OrderedComplex is immutable"):
        complex_.vertices = ()
    assert repr(complex_) == "OrderedComplex(vertices=['a', 'b', 'c'], maximal=[[0, 1], [1, 2]])"


def test_maximal_simplices_keep_their_order_and_refuse_a_repeat():
    assert OrderedComplex(range(3), [[1, 2], [0, 2], [0, 1]]).maximal == ((1, 2), (0, 2), (0, 1))
    with pytest.raises(ComplexFormatError) as info:
        OrderedComplex(range(3), [[0, 1], [1, 2], (0, 1)])
    assert str(info.value) == "duplicate simplex [0, 1]"


@pytest.mark.parametrize(
    "listed", [[[0, 1, 2], [0, 1]], [[0, 1], [0, 1, 2]]], ids=["face-last", "face-first"]
)
def test_a_listed_face_of_another_simplex_is_not_maximal(listed):
    complex_ = OrderedComplex([0, 1, 2], listed)
    assert complex_.maximal == ((0, 1, 2),)
    assert repr(complex_) == "OrderedComplex(vertices=[0, 1, 2], maximal=[[0, 1, 2]])"
    # the closure alone decides equality and the hash
    triangle = OrderedComplex([0, 1, 2], [[0, 1, 2]])
    assert complex_ == triangle and hash(complex_) == hash(triangle)


def test_a_complex_loads_in_time_linear_in_its_maximal_simplices():
    # 40,000 distinct maximal edges; testing each for a repeat against a list
    # of the simplices seen so far took about 20 s on a 2-core machine, and
    # a dict of them takes under 1 s
    n = 40_000
    start = time.perf_counter()
    path = OrderedComplex(range(n + 1), [(i, i + 1) for i in range(n)])
    elapsed = time.perf_counter() - start
    assert len(path.maximal) == n and len(path.simplices) == 2 * n + 1
    assert elapsed < 10, elapsed


def test_a_cochain_lives_on_a_complex():
    with pytest.raises(TypeError, match="a cochain lives on an OrderedComplex, not 3"):
        Cochain(3)


def test_the_zero_cochain_formats_as_0():
    assert format_cochain(Cochain(standard_simplex(1))) == "0"
    assert repr(Cochain(standard_simplex(2))) == "Cochain(2, '0')"


def test_coboundary_examples():
    assert coboundary(chi(1, 0)) == -1 * chi(1, 0, 1)
    assert not coboundary(chi(1, 0, 1))
    assert not coboundary(chi(1, 0) + chi(1, 1))


def test_coboundary_squares_to_zero():
    for n in (1, 2, 3):
        for face in standard_simplex(n).simplices:
            assert not coboundary(coboundary(Cochain.basis_element(standard_simplex(n), face)))


def test_elementary_form_examples():
    assert elementary_form((0,), 1) == parse_form("1 + -1 t1", 1)
    assert elementary_form((0, 1), 1) == parse_form("dt1", 1)
    # expanding the three-term sum through the barycentric relations leaves
    # 2 dt1 dt2 on the top face
    assert elementary_form((0, 1, 2), 2) == parse_form("2 dt1 dt2", 2)
    with pytest.raises(ValueError):
        elementary_form((1, 0), 1)


def test_an_elementary_form_needs_a_face():
    with pytest.raises(ValueError, match="face must be nonempty"):
        elementary_form((), 1)


def test_project_f_examples():
    assert project_f(parse_form("t1", 1)) == chi(1, 1)
    assert project_f(parse_form("dt1", 1)) == chi(1, 0, 1)
    assert project_f(Form.one(1)) == chi(1, 0) + chi(1, 1)
    assert project_f(Form.one(1)) == Cochain.unit(standard_simplex(1))


def test_include_g_examples():
    assert include_g(chi(1, 0, 1)) == parse_form("dt1", 1)
    assert include_g(chi(1, 1)) == parse_form("t1", 1)
    assert include_g(chi(1, 0) + chi(1, 1)) == Form.one(1)


def test_f_section_of_g():
    for n in range(5):
        for face in standard_simplex(n).simplices:
            c = Cochain.basis_element(standard_simplex(n), face)
            assert project_f(include_g(c)) == c


def test_chain_maps():
    # f o d = delta o f on monomials, g o delta = d o g on basis cochains
    for n in (1, 2, 3):
        for m in monomial_basis(n, 5):
            assert project_f(differential(m)) == coboundary(project_f(m))
        for face in standard_simplex(n).simplices:
            c = Cochain.basis_element(standard_simplex(n), face)
            assert include_g(coboundary(c)) == differential(include_g(c))


def test_g_natural_under_restriction():
    for n in (1, 2, 3):
        for size in range(1, n + 1):
            for face in combinations(range(n + 1), size):
                for source in standard_simplex(n).simplices:
                    c = Cochain.basis_element(standard_simplex(n), source)
                    lhs = face_restrict(include_g(c), face)
                    rhs = include_g(restrict_cochain(c, face))
                    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(), min_size=1, max_size=5))
def test_interval_closed_form(coeffs):
    # for a polynomial a(t), the projection is a(0)*1 + (a(1) - a(0))*t
    poly = Form(1, {((k,), ()): c for k, c in enumerate(coeffs)})
    a0 = sum((c for k, c in enumerate(coeffs) if k == 0), Fraction(0))
    a1 = sum(coeffs, Fraction(0))
    assert interval_basis_components(project_f(poly)) == (a0, a1 - a0, 0)


def test_interval_basis_round_trip():
    c = Cochain(standard_simplex(1), {(0,): Fraction(2), (1,): Fraction(-1), (0, 1): Fraction(1, 3)})
    assert cochain_from_interval_basis(*interval_basis_components(c)) == c


def test_interval_basis_components_of_zero_and_of_another_complex():
    zero = interval_basis_components(Cochain(standard_simplex(1)))
    assert zero == (0, 0, 0)
    assert all(type(c) is Fraction for c in zero)
    for other in (Cochain(standard_simplex(2)), chi(2, 0, 1)):
        with pytest.raises(ValueError, match="interval basis"):
            interval_basis_components(other)


def test_records_round_trip():
    c = Cochain(standard_simplex(2), {(0, 1): Fraction(3, 2), (2,): Fraction(-1)})
    records = cochain_records(c)
    assert records == [
        {"face": [2], "coeff": "-1"},
        {"face": [0, 1], "coeff": "3/2"},
    ]
    assert cochain_from_records(records, 2) == c
    assert format_cochain(c) == "face=[2] coeff=-1; face=[0,1] coeff=3/2"


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", None, complex(1, 0)])
def test_constructors_reject_inexact_scalars(bad):
    with pytest.raises(TypeError):
        Form(1, {((1,), ()): bad})
    with pytest.raises(TypeError):
        Form.monomial(1, (1,), (), bad)
    with pytest.raises(TypeError):
        bad * Form.one(1)
    with pytest.raises(TypeError):
        Cochain(standard_simplex(1), {(0,): bad})
    with pytest.raises(TypeError):
        bad * Cochain.basis_element(standard_simplex(1), (0,))
    with pytest.raises(TypeError):
        cochain_from_interval_basis(bad, 0, 0)
    letter = ("a", 0)
    with pytest.raises(TypeError):
        SparseVector(None, {(letter,): bad})
    with pytest.raises(TypeError):
        bad * SparseVector(None, {(letter,): 1})
    with pytest.raises(TypeError):
        koszul_apply([(lambda h: [(bad, h)], 0)], (letter,))
    assert Form(1, {((1,), ()): True}) == Form.monomial(1, (1,), ())
