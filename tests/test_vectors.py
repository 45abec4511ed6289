"""The linear structure that forms, cochains and sums of words share through
``SparseVector``: one set of vector laws, checked on each, on cochains of a
standard simplex and of a complex, and on a ``SparseVector`` without a
space, as the tests' sums of words are."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer import complexes
from simplicial_transfer.cochains import (
    Cochain,
    OrderedComplex,
    _elementary_form,
    _face_integrals,
    include_g,
    project_f,
    standard_simplex,
)
from simplicial_transfer.complexes import cup
from simplicial_transfer.contraction import _s_monomial, s_operator
from simplicial_transfer.forms import Form, _pack, _unpack
from simplicial_transfer.rationals import SparseVector
from simplicial_transfer.transfer import SimplexContraction, transferred_m

DELTA2 = OrderedComplex([0, 1, 2], [[0, 1, 2]])
BOUNDARY2 = OrderedComplex([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
A, B = ("a", 0), ("b", 1)

# (constructor, two distinct spaces, the terms of a and of b, the message of
# a space mismatch); a sum of words has no space
CASES = {
    "Form": (
        Form, (2, 1),
        {((1, 0), ()): 1, ((0, 2), (1,)): Fraction(1, 2)},
        {((1, 0), ()): -1, ((0, 0), (1, 2)): 3},
        "dimension mismatch",
    ),
    "Cochain": (
        Cochain, (standard_simplex(2), standard_simplex(1)),
        {(0,): 1, (0, 1): Fraction(-2, 3)},
        {(0, 1): Fraction(2, 3), (1, 2): 5},
        "complex mismatch",
    ),
    "CochainOnAComplex": (
        Cochain, (DELTA2, BOUNDARY2),
        {(0,): 1, (0, 1): Fraction(-2, 3)},
        {(0, 1): Fraction(2, 3), (1, 2): 5},
        "complex mismatch",
    ),
    "SparseVector": (
        SparseVector, (None, None),
        {(A, B): 1, ((A,), (B, A)): Fraction(1, 2)},
        {(A, B): -1, (B,): 7},
        None,
    ),
}
ZEROS = (Form(1), Cochain(standard_simplex(1)), SparseVector(None))


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_vector_laws(case):
    make, (space, other_space), a_terms, b_terms, mismatch = case
    a, b = make(space, a_terms), make(space, b_terms)
    zero = make(space)
    assert isinstance(a, SparseVector)

    assert a + b - b == a
    assert a - a == zero and -(-a) == a
    assert 0 * a == zero and not 0 * a
    assert 2 * a == a + a

    same = make(space, dict(reversed(list(a_terms.items()))))
    assert same == a and hash(same) == hash(a)
    assert hash(a + b - b) == hash(a)

    for other in ZEROS:
        if type(other) is not type(zero):
            assert zero != other
            with pytest.raises(TypeError):
                a + other
    if mismatch is not None:
        assert make(other_space) != zero
        with pytest.raises(ValueError, match=mismatch):
            a + make(other_space)
        with pytest.raises(ValueError, match=mismatch):
            a - make(other_space)

    key = next(iter(a_terms))
    with pytest.raises(TypeError):
        make(space, {key: 0.5})
    with pytest.raises(TypeError):
        0.5 * a

    with pytest.raises(AttributeError):
        a.terms = {}
    with pytest.raises(AttributeError):
        a.label = "a"
    assert a == make(space, a_terms)


def _is_canonical(vec):
    return (
        type(vec.den) is int
        and vec.den > 0
        and all(type(n) is int and n for n in vec.num.values())
        and gcd(vec.den, *vec.num.values()) == 1
    )


def _view_key(vec, key):
    """The key of ``terms`` that a stored key stands for: a form stores each
    monomial as one packed int, which ``terms`` unpacks, and a cochain each
    simplex as its position, which ``terms`` reads through ``simplices``."""
    if isinstance(vec, Form):
        return _unpack(vec.dim, key)
    return vec.complex.simplices[key] if isinstance(vec, Cochain) else key


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_vectors_are_stored_in_lowest_terms(case):
    make, (space, _), a_terms, b_terms, _ = case
    a, b = make(space, a_terms), make(space, b_terms)
    for vec in (a, b, a + b, a - b, -a, Fraction(6, 5) * a, 4 * b, a - a, make(space)):
        assert _is_canonical(vec), vec
        assert dict(vec.terms) == {_view_key(vec, k): Fraction(n, vec.den) for k, n in vec.num.items()}
    # the zero vector is unique: no numerators over 1
    for zero in (a - a, 0 * b, make(space), make(space, {k: 0 for k in a_terms})):
        assert (zero.num, zero.den) == ({}, 1)
        assert zero == make(space) and hash(zero) == hash(make(space))


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_a_zero_scalar_adds_nothing(case):
    # an integer combination with a zero scalar stores no zero numerators,
    # so an empty numerator dict still means the zero vector
    make, (space, _), a_terms, b_terms, _ = case
    a, b = make(space, a_terms), make(space, b_terms)
    assert make._sum(space, [(0, a)]).num == {}
    mixed = make._sum(space, [(0, a), (1, b)])
    assert _is_canonical(mixed) and mixed == b


def _cancelling_parts(name):
    """Parts (p, v) of vectors of one case: few keys, so that keys meet
    and cancel, coefficients with mixed denominators and zeros, zero scalars
    and zero vectors, and at times the negated parts appended, whose sum is
    zero."""
    make, (space, _), a_terms, b_terms, _ = CASES[name]
    keys = sorted({*a_terms, *b_terms})
    coeffs = st.integers(-2, 2).map(Fraction) | st.fractions(-2, 2, max_denominator=6)
    vectors = st.dictionaries(st.sampled_from(keys), coeffs, max_size=len(keys)).map(
        lambda terms: make(space, terms)
    )
    parts = st.lists(st.tuples(st.integers(-3, 3), vectors), max_size=5)
    return st.tuples(parts, st.booleans()).map(
        lambda drawn: drawn[0] + [(-p, v) for p, v in drawn[0]] if drawn[1] else drawn[0]
    )


@pytest.mark.parametrize("name", ["Form", "Cochain"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cancels_is_the_zero_test_of_the_sum(name, data):
    # _cancels decides the residual of a sum without reducing it, so it
    # agrees with testing the reduced sum for zero
    make, (space, _), *_ = CASES[name]
    parts = data.draw(_cancelling_parts(name))
    assert make._cancels(parts) == (not make._sum(space, parts))


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_a_lone_unit_part_is_its_own_sum(case):
    make, (space, _), a_terms, _, _ = case
    a = make(space, a_terms)
    assert make._sum(space, [(1, a)]) is a


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_every_other_sum_builds_a_new_reduced_vector(case):
    make, (space, _), a_terms, b_terms, _ = case
    a, b = make(space, a_terms), make(space, b_terms)
    expected = [
        (make._sum(space, [(p, a)]), p * a) for p in (0, -1, 2)
    ] + [
        (make._sum(space, [(1, a)], 3), Fraction(1, 3) * a),
        (make._sum(space, [(1, a), (1, b)]), a + b),
        (make._sum(space, [(1, a), (0, b)]), a),
    ]
    for total, value in expected:
        assert total is not a and total == value and _is_canonical(total)


@pytest.mark.parametrize("name", ["Form", "Cochain"])
def test_every_operator_is_one_sum(name, monkeypatch):
    # _sum is the one place where vectors are combined: each operator hands
    # its operands to it once, and no pairwise path is left beside it
    make, (space, _), a_terms, b_terms, _ = CASES[name]
    a, b = make(space, a_terms), make(space, b_terms)
    general = SparseVector._sum.__func__
    calls = []

    def counted(cls, *args):
        calls.append(cls)
        return general(cls, *args)

    monkeypatch.setattr(SparseVector, "_sum", classmethod(counted))
    operations = {
        "a + b": lambda: a + b,
        "a - b": lambda: a - b,
        "-a": lambda: -a,
        "3 * a": lambda: 3 * a,
        "1/2 * a": lambda: Fraction(1, 2) * a,
    }
    made = {}
    for label, operation in operations.items():
        calls.clear()
        operation()
        made[label] = list(calls)
    assert made == {label: [make] for label in operations}
    assert not hasattr(SparseVector, "_combine")


@pytest.mark.parametrize(
    "make, space, other, terms",
    [
        (Form, 1, 2, {((1,), ()): 1}),
        (Cochain, DELTA2, standard_simplex(2), {(0, 1): Fraction(1, 2)}),
        (Cochain, DELTA2, OrderedComplex([0, 1, 2], [[0, 1, 2]]), {(0, 1): 3}),
    ],
    ids=["form", "cochain", "cochain-on-an-equal-complex"],
)
def test_a_lone_part_of_another_space_object_takes_the_general_path(make, space, other, terms):
    # _sum trusts its parts and checks no space, as the kernels that call it
    # do; a lone part is handed back only on the very space object asked for,
    # so the sum always lives in the given space
    a = make(space, terms)
    total = make._sum(other, [(1, a)])
    assert total is not a and total._space is other
    assert (total.num, total.den) == (a.num, a.den)


def test_the_cached_value_of_a_basis_input_comes_back_as_is(monkeypatch):
    bundle = SimplexContraction(2)
    e0, e01 = (bundle.letter(i) for i in (0, 3))
    assert transferred_m(bundle, (e0, e01)) is bundle._memo_m[(0, 3)]
    assert transferred_m(bundle, (e01,)) is bundle._memo_m[(3,)]
    # a vertex on the left takes no sign, so cup hands on m_2 itself, as
    # memoised in the one bundle that cup builds
    built = []

    class Recorded(complexes.ComplexContraction):
        def __init__(self, complex_):
            super().__init__(complex_)
            built.append(self)

    monkeypatch.setattr(complexes, "ComplexContraction", Recorded)
    product = cup(e0, e01)
    assert len(built) == 1 and built[0].complex is e0.complex
    assert product is built[0]._memo_m[(0, 3)]
    monomial = Form.monomial(2, (1, 0), (2,))
    (key,) = monomial.num
    assert project_f(monomial) is _face_integrals(2, key)
    assert s_operator(monomial) is _s_monomial(2, key)
    assert include_g(e01) is _elementary_form((0, 1), 2)


def test_equal_rationals_give_equal_vectors():
    key = ((1,), ())
    half = Form(1, {key: Fraction(1, 2)})
    assert Form(1, {key: Fraction(2, 4)}) == half
    assert hash(Form(1, {key: Fraction(2, 4)})) == hash(half)
    packed = _pack(1, *key)
    assert (half.num, half.den) == ({packed: 1}, 2)
    # 1/2 + 1/2 = 1 reduces to one over one; 2/3 * 3/4 = 1/2
    assert ((half + half).num, (half + half).den) == ({packed: 1}, 1)
    assert Fraction(3, 4) * Form(1, {key: Fraction(2, 3)}) == half
    # a common factor of all numerators and the denominator is divided out
    pair = Cochain(standard_simplex(1), {(0,): Fraction(2, 6), (1,): Fraction(4, 6)})
    assert (pair.num, pair.den) == ({0: 1, 1: 2}, 3)


def test_terms_is_a_read_only_fraction_view():
    a = Cochain(standard_simplex(1), {(0,): Fraction(1, 2), (0, 1): 3})
    terms = a.terms
    assert terms == {(0,): Fraction(1, 2), (0, 1): Fraction(3)}
    assert all(type(c) is Fraction for c in terms.values())
    with pytest.raises(TypeError):
        terms[(1,)] = Fraction(1)
    assert a == Cochain(standard_simplex(1), terms)


def test_values_hash_by_value_and_keep_no_hash_slot():
    # a vector is its numerators and denominator, and a complex its vertices
    # and closure; hashing reads them every time
    assert SparseVector.__slots__ == ("num", "den")
    assert "_hash" not in OrderedComplex.__slots__
    twin = OrderedComplex([0, 1, 2], [[0, 1, 2]])
    assert twin is not DELTA2 and twin == DELTA2 and hash(twin) == hash(DELTA2)
    # the closure, not the maximal simplices, decides equality
    triangle = OrderedComplex([0, 1, 2], [[0, 1, 2], [0, 1]])
    assert triangle == DELTA2 and hash(triangle) == hash(DELTA2)
    terms = {(0,): Fraction(1, 3), (1, 2): -2}
    pairs = [
        (Form(2, {((1, 0), (2,)): Fraction(2, 4)}), Form(2, {((1, 0), (2,)): Fraction(1, 2)})),
        (Cochain(standard_simplex(2), terms), Cochain(DELTA2, terms)),
        (Cochain(DELTA2, terms), Cochain(twin, terms)),
        (Cochain(DELTA2, terms) + Cochain(DELTA2, terms), 2 * Cochain(twin, terms)),
    ]
    for v, w in pairs:
        assert v == w and hash(v) == hash(w)
        assert not hasattr(v, "_hash")
