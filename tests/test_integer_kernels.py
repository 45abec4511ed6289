"""The form kernels on integer numerators against their Fraction versions
(tests/fraction_oracle.py): on random forms and cochains on the simplices of
dimension 0 to 3, with coefficients over non-unit denominators, every
kernel's Fraction view equals the oracle's result term for term."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from simplicial_transfer.cochains import Cochain, include_g, project_f, standard_simplex
from simplicial_transfer.contraction import h_operator, s_operator
from simplicial_transfer.forms import Form, differential, wedge

COEFFS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))


def _keys(dim):
    return st.tuples(
        st.tuples(*([st.integers(0, 3)] * dim)),
        st.sets(st.integers(1, dim)).map(lambda s: tuple(sorted(s))) if dim else st.just(()),
    )


def _forms(dim, max_size=5):
    return st.dictionaries(_keys(dim), COEFFS, max_size=max_size).map(lambda t: Form(dim, t))


@st.composite
def form_pairs(draw):
    dim = draw(st.integers(0, 3))
    return draw(_forms(dim)), draw(_forms(dim))


@st.composite
def cochains(draw):
    dim = draw(st.integers(0, 3))
    terms = draw(st.dictionaries(st.sampled_from(standard_simplex(dim).simplices), COEFFS, max_size=6))
    return Cochain(standard_simplex(dim), terms)


def _canonical(vec):
    return vec.den > 0 and 0 not in vec.num.values() and gcd(vec.den, *vec.num.values()) == 1


@settings(max_examples=100, deadline=None)
@given(form_pairs())
def test_form_kernels_equal_the_fraction_oracle(pair):
    a, b = pair
    n = a.dim
    cases = [
        (wedge(a, b), oracle.wedge(a.terms, b.terms)),
        (differential(a), oracle.differential(a.terms)),
        (project_f(a), oracle.project_f(a.terms, n)),
    ]
    cases += [(h_operator(a, i), oracle.h_operator(a.terms, i)) for i in range(n + 1)]
    for result, expected in cases:
        assert dict(result.terms) == expected
        assert _canonical(result)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3).flatmap(lambda dim: _forms(dim, max_size=3)))
def test_s_equals_the_fraction_oracle(a):
    result = s_operator(a)
    assert dict(result.terms) == oracle.s_operator(a.terms, a.dim)
    assert _canonical(result)


@settings(max_examples=60, deadline=None)
@given(cochains())
def test_g_equals_the_fraction_oracle(c):
    result = include_g(c)
    assert dict(result.terms) == oracle.include_g(c.terms, c.dim)
    assert _canonical(result)
