"""The form kernels on integer numerators against their Fraction versions
(tests/fraction_oracle.py): on random forms and cochains on the simplices of
dimension 0 to 4, with coefficients over non-unit denominators, every
kernel's Fraction view equals the oracle's result term for term.  The
packed monomial keys round-trip through the public (exponents, dts) view,
and the generators and Whitney elementary forms, built on packed keys, are
the oracle's.  The per-mask tables of d and of the vertex relabelling
agree with the per-field and per-term loops they replaced (tests/helpers.py)
on whole bases, f's face integrals with a digest of their old values, and
the tables build only the rows they read, even on Δ^40."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from simplicial_transfer import forms
from simplicial_transfer.cochains import (
    Cochain,
    _elementary_form,
    _face_integrals,
    include_g,
    project_f,
    standard_simplex,
)
from simplicial_transfer.contraction import _relabel, check_contraction, h_operator, s_operator
from simplicial_transfer.forms import (
    Form,
    _d_into,
    _exponents,
    _pack,
    _unpack,
    differential,
    generator,
    monomial_basis,
    wedge,
)

from helpers import homogeneous_degree, per_field_d_into, per_term_relabel

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


def _basis_keys(n, bound):
    return [key for m in monomial_basis(n, bound) for key in m.num]


def test_d_reads_its_move_table_as_the_per_field_loop_did():
    # every key of the basis alone, and the whole basis at once with mixed
    # coefficients, where the images of different keys meet and cancel
    for n in range(5):
        keys = _basis_keys(n, 4)
        for key in keys:
            out, expected = {}, {}
            _d_into(out, n, {key: 5}, -3)
            per_field_d_into(expected, n, {key: 5}, -3)
            assert out == expected, (n, key)
        num = {key: (-1) ** p * (p % 7 + 1) for p, key in enumerate(keys)}
        out, expected = {7: 1}, {7: 1}
        _d_into(out, n, num, 2)
        per_field_d_into(expected, n, num, 2)
        assert out == expected and list(out) == list(expected), n


def test_relabel_reads_its_mask_table_as_the_per_term_loop_did():
    for n in range(1, 5):
        keys = _basis_keys(n, 4)
        for targets in permutations(range(1, n + 1)):
            for key in keys:
                assert _relabel(n, key, targets) == per_term_relabel(n, key, targets), (n, targets, key)


def test_the_face_integrals_are_pinned():
    # (dim, key, sorted numerators, denominator) of f on every monomial of
    # polynomial degree <= 5 on the simplices of dimension 0 to 4, hashed
    # as the per-vertex set loop computed them before f read vertex bits
    lines = []
    for n in range(5):
        for key in _basis_keys(n, 5):
            column = _face_integrals(n, key)
            lines.append(repr((n, key, sorted(column.num.items()), column.den)))
    assert len(lines) == 2561
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a7b7ba75de69045053141afe7989d3c12e44e81af32a05091fd885091f450bc9"


def test_monomial_basis_is_the_checked_monomials_in_order():
    # form degree by form degree, dt sets in combinations order, exponent
    # tuples sorted; each a checked monomial with its one key over 1
    for n in range(5):
        for bound in range(1, 5):
            expected = [
                Form.monomial(n, exps, dts)
                for k in range(n + 1)
                for dts in combinations(range(1, n + 1), k)
                for exps in _exponents(n, bound)
            ]
            basis = list(monomial_basis(n, bound))
            assert basis == expected, (n, bound)
            assert [(list(m.num.items()), m.den) for m in basis] == [
                (list(m.num.items()), m.den) for m in expected
            ]
            assert basis == [Form.monomial(n, *_unpack(n, key)) for m in basis for key in m.num]


def test_a_sign_flipped_d_move_row_fails_the_battery(monkeypatch):
    # the row of the mask of dt1 on the 3-simplex moves t2 and t3 past dt1,
    # each with sign -1; with both signs flipped, every record that adds a
    # d fails at the first monomial whose d reads that row
    table = forms._table(forms._d_moves, 3)
    mask = 0b001
    monkeypatch.setitem(table, mask, tuple((at, step, -sign) for at, step, sign in table[mask]))
    assert [(c.name, c.counterexample) for c in check_contraction(3, 2).checks if not c.passed] == [
        ("1 - g o f = ds + sd", "1 t3^2 dt1"),
        *[(f"1 - eval@{i} = d h^{i} + h^{i} d", "1 t3 dt1") for i in range(4)],
    ]


LAZY_TABLES = """
import resource, tracemalloc
# an eager table of 2^40 rows fails here at once, not by exhausting the host
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = 1 << 28 if hard == resource.RLIM_INFINITY else min(1 << 28, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from simplicial_transfer.contraction import _relabel
from simplicial_transfer.forms import Form, differential, generator, wedge

m = Form.monomial(40, (2,) + (0,) * 38 + (1,), (3, 7))
(key,) = m.num
dt5 = generator(40, "dt", 5)
transposition = (2, 1) + tuple(range(3, 41))
for name, run in [
    ("differential", lambda: differential(m)),
    ("wedge", lambda: wedge(m, dt5)),
    ("relabel", lambda: _relabel(40, key, transposition)),
]:
    tracemalloc.start()
    run()
    print(name, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_the_tables_stay_lazy_on_a_40_simplex():
    # a dt mask on the 40-simplex has 2^40 values, so a table that built a
    # row per mask up front could not finish; run in a child process whose
    # address space is capped
    env = {**os.environ, "PYTHONPATH": str(Path(forms.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", LAZY_TABLES], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    peaks = dict(line.split() for line in child.stdout.splitlines())
    assert list(peaks) == ["differential", "wedge", "relabel"]
    assert all(int(peak) < 1 << 20 for peak in peaks.values()), peaks
