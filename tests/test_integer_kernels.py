"""The form kernels on integer numerators against their Fraction versions
(tests/fraction_oracle.py): on random forms and cochains on the simplices of
dimension 0 to 4, with coefficients over non-unit denominators, every
kernel's Fraction view equals the oracle's result term for term.  The
packed monomial keys round-trip through the public (exponents, dts) view,
and the generators and Whitney elementary forms, built on packed keys, are
the oracle's."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from simplicial_transfer.cochains import (
    Cochain,
    _elementary_form,
    include_g,
    project_f,
    standard_simplex,
)
from simplicial_transfer.contraction import h_operator, s_operator
from simplicial_transfer.forms import Form, _d_into, _pack, _unpack, differential, generator, wedge

from helpers import homogeneous_degree

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
    dim = draw(st.integers(0, 4))
    return draw(_forms(dim)), draw(_forms(dim))


@st.composite
def cochains(draw):
    dim = draw(st.integers(0, 4))
    terms = draw(st.dictionaries(st.sampled_from(standard_simplex(dim).simplices), COEFFS, max_size=6))
    return Cochain(standard_simplex(dim), terms)


def _canonical(vec):
    return vec.den > 0 and 0 not in vec.num.values() and gcd(vec.den, *vec.num.values()) == 1


@st.composite
def packed_monomials(draw):
    dim = draw(st.integers(0, 4))
    exps = draw(st.tuples(*([st.integers(0, 2**15 - 1)] * dim)))
    dts = tuple(sorted(draw(st.sets(st.integers(1, dim))))) if dim else ()
    return dim, exps, dts


@settings(max_examples=200, deadline=None)
@given(packed_monomials(), COEFFS.filter(bool))
def test_packed_keys_round_trip(monomial, coeff):
    dim, exps, dts = monomial
    key = _pack(dim, exps, dts)
    assert _unpack(dim, key) == (exps, dts)
    # a_j in the 16-bit field j - 1, dt_s at mask bit s - 1 above the fields
    fields = sum(e << (16 * j) for j, e in enumerate(exps))
    assert key == fields + sum(1 << (16 * dim + s - 1) for s in dts)
    form = Form.monomial(dim, exps, dts, coeff)
    assert list(form.num) == [key]
    assert dict(form.terms) == {(exps, dts): coeff}
    assert homogeneous_degree(form) == len(dts)


def test_the_packed_generators_are_the_fraction_generators():
    # every t_i and dt_i on the simplices of dimension 0 to 4, key order
    # included, so a kernel that walks a generator meets its terms in the
    # order the checking constructor stored them
    for dim in range(5):
        for kind in ("t", "dt"):
            for index in range(dim + 1):
                terms = oracle.generator(dim, kind, index)
                value = generator(dim, kind, index)
                assert dict(value.terms) == terms, (dim, kind, index)
                assert list(value.num) == list(Form(dim, terms).num), (dim, kind, index)
                assert _canonical(value)


def test_the_elementary_forms_are_the_fraction_elementary_forms():
    for dim in range(4):
        for face in standard_simplex(dim).simplices:
            value = _elementary_form(face, dim)
            assert dict(value.terms) == oracle.elementary_form(face, dim), (dim, face)
            assert _canonical(value)


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


@settings(max_examples=50, deadline=None)
@given(form_pairs())
def test_raw_d_with_scale_zero_adds_nothing(pair):
    # the zero scale returns before the first term: a filled dict, even one
    # that holds keys of d(a), keeps every key and value
    a, b = pair
    n = a.dim
    out = dict(b.num)
    _d_into(out, n, a.num, 1)
    out.setdefault(0, 1)
    before = dict(out)
    _d_into(out, n, a.num, 0)
    assert out == before


@settings(max_examples=100, deadline=None)
@given(form_pairs(), st.integers(-6, 6).filter(bool), st.data())
def test_raw_d_adds_a_scaled_d(pair, scale, data):
    # into an empty dict _d_into gives scale * d(a) over den(a); into a dict
    # that holds the numerators of b and of -scale * d(head) for some terms
    # head of a, the keys of d(head) cancel and drop out, leaving b plus
    # scale * d of the other terms
    a, b = pair
    n = a.dim
    out = {}
    _d_into(out, n, a.num, scale)
    assert 0 not in out.values()
    result = Form._reduced(n, dict(out), a.den)
    assert result == scale * differential(a)
    assert dict(result.terms) == {k: scale * v for k, v in oracle.differential(a.terms).items()}

    cut = data.draw(st.integers(0, len(a.num)))
    head = dict(list(a.num.items())[:cut])
    filled = dict(b.num)
    _d_into(filled, n, head, -scale)
    _d_into(filled, n, a.num, scale)
    assert 0 not in filled.values()
    tail = Form._reduced(n, dict(list(a.num.items())[cut:]), a.den)
    expected = dict(Form._reduced(n, dict(b.num), a.den).terms)
    for key, value in oracle.differential(tail.terms).items():
        oracle._add(expected, key, scale * value)
    assert dict(Form._reduced(n, filled, a.den).terms) == expected
    # and with no b and every term of a in head, every key drops out
    _d_into(out, n, a.num, -scale)
    assert out == {}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4).flatmap(lambda dim: _forms(dim, max_size=3)))
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
