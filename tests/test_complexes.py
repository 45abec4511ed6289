import ast
import json
from fractions import Fraction
from hashlib import sha256
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer import cochains, complexes, transfer
from simplicial_transfer.cochains import (
    Cochain,
    ComplexFormatError,
    OrderedComplex,
    coboundary,
    include_g,
    project_f,
    standard_simplex,
)
from simplicial_transfer.complexes import (
    check_whitney_conditions,
    cup,
    cochain_from_records,
    cochain_records,
    load_complex,
    load_cochain,
)
from simplicial_transfer.forms import parse_form, wedge
from simplicial_transfer.rationals import SparseVector, _accumulate, _linear, factorial
from simplicial_transfer.transfer import (
    ComplexContraction,
    _cut_products,
    _join_rule,
    _m,
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    SimplexContraction,
    transferred_m,
    transferred_m_trees,
)

from helpers import (
    basis_cochains,
    flag_complex,
    full_sweep_whitney_conditions,
    pullback,
    relation_value,
    union_first_join_rule,
)
from global_oracle import (
    GlobalForm,
    GlobalFormContraction,
    global_H,
    global_differential,
    global_f,
    global_g,
    global_wedge,
    restrict,
)

DELTA1 = OrderedComplex([0, 1], [[0, 1]])
DELTA2 = OrderedComplex([0, 1, 2], [[0, 1, 2]])
BOUNDARY2 = OrderedComplex([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
PATH = OrderedComplex([0, 1, 2], [[0, 1], [1, 2]])
BOUNDARY3 = OrderedComplex(
    [0, 1, 2, 3], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
)
# antipodal pairs (0,1), (2,3), (4,5); a triangle picks one of each pair
OCTAHEDRON = OrderedComplex(
    range(6),
    [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
)
# the minimal 7-vertex triangulation of the torus
TORUS = OrderedComplex(
    range(7),
    [sorted({i, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    + [sorted({i, (i + 2) % 7, (i + 3) % 7}) for i in range(7)],
)


def chi(complex_, *simplex):
    return Cochain.basis_element(complex_, simplex)


def test_load_complex_examples():
    d1 = load_complex('{"vertices": [0, 1], "simplices": [[0, 1]]}')
    assert d1.simplices == ((0,), (1,), (0, 1))
    b2 = load_complex('{"vertices": [0, 1, 2], "simplices": [[0, 1], [1, 2], [0, 2]]}')
    assert len(b2.simplices) == 6
    with pytest.raises(ComplexFormatError):
        load_complex('{"vertices": [0, 1], "simplices": [[1, 0]]}')
    with pytest.raises(ComplexFormatError):
        load_complex('{"vertices": [0, 1], "simplices": [[0, 2]]}')
    with pytest.raises(ComplexFormatError):
        load_complex('{"vertices": [0, 1], "simplices": [[0, 1], [0, 1]]}')
    with pytest.raises(ComplexFormatError):
        load_complex("not json")


def test_closure_of_triangle():
    assert DELTA2.simplices == (
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    )


def test_global_g_of_vertex_indicator():
    form = global_g(chi(DELTA1, 0))
    assert form.assign[(0, 1)] == parse_form("1 + -1 t1", 1)
    assert form.assign[(0,)] == parse_form("1", 0)
    assert not form.assign[(1,)]
    form.validate()


def test_levelwise_contraction_identities():
    for X in (DELTA2, BOUNDARY2):
        for simplex in X.simplices:
            c = Cochain.basis_element(X, simplex)
            assert global_f(global_g(c)) == c
            assert not global_H(global_g(c))


def test_global_forms_stay_compatible():
    for X in (DELTA2, BOUNDARY2):
        for simplex in X.simplices:
            image = global_g(Cochain.basis_element(X, simplex))
            image.validate()
            global_H(image).validate()
    bad = {s: parse_form("0", len(s) - 1) for s in DELTA1.simplices}
    bad[(0, 1)] = parse_form("t1", 1)
    with pytest.raises(ValueError):
        GlobalForm(DELTA1, bad)


def test_coboundary_matches_star_shape():
    dc = coboundary(chi(BOUNDARY2, 0))
    assert dc.terms == {(0, 1): Fraction(-1), (0, 2): Fraction(-1)}
    assert not coboundary(Cochain.unit(BOUNDARY2))


def test_cup_examples():
    one = Cochain.unit(BOUNDARY2)
    for simplex in BOUNDARY2.simplices:
        b = chi(BOUNDARY2, *simplex)
        assert cup(one, b) == b
        assert cup(b, one) == b
    # the one-dimensional product of the vertex-1 indicator with itself
    assert cup(chi(DELTA1, 1), chi(DELTA1, 1)) == chi(DELTA1, 1)
    # vertices with no common simplex multiply to zero
    assert not cup(chi(PATH, 0), chi(PATH, 2))
    # adjacent distinct vertices also multiply to zero, by integration
    assert not cup(chi(BOUNDARY2, 0), chi(BOUNDARY2, 1))


def test_whitney_conditions():
    for X in (DELTA2, BOUNDARY2):
        report = check_whitney_conditions(X)
        assert report.all_passed, report.to_text()


_SIGNED_M2 = complexes._signed_m2
LEIBNIZ = "coboundary is a signed derivation of the product"


def test_doubled_cup_fails_at_the_first_counterexample(monkeypatch):
    # the product doubled whenever its left letter is an edge; each record
    # counts the pairs up to and including its first failure
    def doubled(bundle, ids):
        value = _SIGNED_M2(bundle, ids)
        return 2 * value if len(bundle._faces[ids[0]]) == 2 else value

    monkeypatch.setattr(complexes, "_signed_m2", doubled)
    report = check_whitney_conditions(DELTA2)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == [
        (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
        ("constant 0-cochain is the identity", 4, "unit law fails on x(0,1)"),
        ("product is graded commutative", 4, "x(0) cup x(0,1) not graded commutative"),
    ]


def _halved_on_two_edges(bundle, ids):
    value = _SIGNED_M2(bundle, ids)
    return Fraction(1, 2) * value if all(bundle._degrees[i] == 0 for i in ids) else value


@pytest.mark.parametrize(
    "signed_m2, complex_, failures",
    [
        (_m, DELTA2, [
            (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
            ("constant 0-cochain is the identity", 4, "unit law fails on x(0,1)"),
            ("product is graded commutative", 4, "x(0) cup x(0,1) not graded commutative"),
        ]),
        (_m, OCTAHEDRON, [
            (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
            ("constant 0-cochain is the identity", 7, "unit law fails on x(0,2)"),
            ("product is graded commutative", 7, "x(0) cup x(0,2) not graded commutative"),
        ]),
        (_halved_on_two_edges, DELTA2, [(LEIBNIZ, 4, "delta(x(0) cup x(0,1)) mismatch")]),
        (_halved_on_two_edges, OCTAHEDRON, [(LEIBNIZ, 7, "delta(x(0) cup x(0,2)) mismatch")]),
        (_halved_on_two_edges, TORUS, [(LEIBNIZ, 8, "delta(x(0) cup x(0,1)) mismatch")]),
    ],
    ids=[
        "unsigned-delta2", "unsigned-octahedron", "halved-delta2", "halved-octahedron", "halved-torus"
    ],
)
def test_a_broken_product_fails_the_leibniz_residual(monkeypatch, signed_m2, complex_, failures):
    # m_2 without its sign (-1)^{deg sigma}, or halved on two edges, which
    # breaks only the Leibniz rule and over denominators 1/6 and 1/12; each
    # record counts the pairs up to and including its first failure
    monkeypatch.setattr(complexes, "_signed_m2", signed_m2)
    report = check_whitney_conditions(complex_)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == failures


def test_a_product_off_the_common_star_fails_locality(monkeypatch):
    # x(0) cup x(0) moved to the edge (1,2), which lies outside the star of
    # vertex 0; the Leibniz record and the unit law, which read the same
    # table, fail too
    def moved(bundle, ids):
        vertex = bundle._ids[(0,)]
        if ids == (vertex, vertex):
            return bundle.letter(bundle._ids[(1, 2)])
        return _SIGNED_M2(bundle, ids)

    monkeypatch.setattr(complexes, "_signed_m2", moved)
    report = check_whitney_conditions(DELTA2)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == [
        ("product is supported on common stars", 1, "x(0) cup x(0) leaves the common star"),
        (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
        ("constant 0-cochain is the identity", 1, "unit law fails on x(0)"),
    ]


def test_a_flipped_coface_sign_fails_the_leibniz_residual(monkeypatch):
    # the residual adds -delta(s cup t) from the coface lists of its terms;
    # flip the sign of the first coface of each simplex there, and only
    # there, and Leibniz fails at its first pair with a nonzero coboundary
    def flipped(out, terms, scale):
        terms = [(p, -c if i == 0 else c) for i, (p, c) in enumerate(terms)]
        _accumulate(out, terms, scale)

    monkeypatch.setattr(complexes, "_accumulate", flipped)
    report = check_whitney_conditions(OCTAHEDRON)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == [
        (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
    ]


@pytest.mark.parametrize("complex_", [OCTAHEDRON, TORUS], ids=["octahedron", "torus"])
def test_the_whitney_check_reads_one_product_table(monkeypatch, complex_):
    # every record reads the table of the signed m_2 on letter ids: no cochain
    # goes through cup or the multilinear expansion, and the coboundary runs
    # only for the letters of the certificate, far fewer than the letter
    # pairs; each name is counted in every module that binds it
    calls = {"cup": 0, "_multilinear": 0, "coboundary": 0}

    def counted(module, name):
        original = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, count)

    for name in calls:
        for module in (cochains, complexes, transfer):
            if hasattr(module, name):
                counted(module, name)
    assert check_whitney_conditions(complex_).all_passed
    assert calls["cup"] == calls["_multilinear"] == 0
    assert calls["coboundary"] < len(complex_.simplices) ** 2


def test_an_equal_complex_built_apart_gets_its_own_bundle():
    product = cup(chi(DELTA2, 0), chi(DELTA2, 0, 1))
    twin = OrderedComplex([0, 1, 2], [[0, 1, 2]])
    twin_product = cup(chi(twin, 0), chi(twin, 0, 1))
    assert product.complex is DELTA2 and twin_product.complex is twin
    assert twin_product == product and product


def test_the_extension_compares_no_complexes_on_its_own_complex(monkeypatch):
    # with the memos warm, cup and transferred_m on cochains of the bundle's
    # own complex object run with OrderedComplex.__eq__ raising
    bundle = ComplexContraction(OCTAHEDRON)
    letters = basis_cochains(bundle)
    pairs = list(product(letters, repeat=2))
    word = (
        chi(OCTAHEDRON, 0, 2) + Fraction(1, 3) * chi(OCTAHEDRON, 0),
        chi(OCTAHEDRON, 2, 4) - 2 * chi(OCTAHEDRON, 0, 2),
        chi(OCTAHEDRON, 0, 4) + chi(OCTAHEDRON, 4),
    )

    def run():
        values = [cup(a, b) for a, b in pairs] + [transferred_m(bundle, word)]
        assert all(v.complex is OCTAHEDRON for v in values)
        return [(v.num, v.den) for v in values]

    expected = run()
    assert expected[-1][0]

    def refuse(self, other):
        raise AssertionError("OrderedComplex.__eq__ called")

    monkeypatch.setattr(OrderedComplex, "__eq__", refuse)
    assert run() == expected


def test_nonassociativity_witness_present():
    report = check_whitney_conditions(DELTA2)
    witness_checks = [
        c for c in report.checks if c.name.startswith("nonassociativity witness")
    ]
    assert witness_checks and witness_checks[0].passed
    # and the product really fails associativity somewhere on the interval
    a = chi(DELTA1, 0)
    e = chi(DELTA1, 0, 1)
    assert cup(cup(a, a), e) != cup(a, cup(a, e))


def test_transferred_global_operations():
    # arity one is the global coboundary, also on a letter of mixed degrees
    bundle = ComplexContraction(BOUNDARY2)
    x0 = chi(BOUNDARY2, 0)
    assert transferred_m(bundle, (x0,)) == coboundary(x0)
    with pytest.raises(ValueError, match="empty word"):
        transferred_m(bundle, ())
    mixed = chi(BOUNDARY2, 0) + chi(BOUNDARY2, 0, 1)
    assert transferred_m(bundle, (mixed,)) == coboundary(mixed)


@pytest.mark.parametrize(
    "complex_, edge", [(BOUNDARY2, (0, 1)), (OCTAHEDRON, (0, 2))], ids=["boundary2", "octahedron"]
)
def test_a_mixed_letter_on_a_complex_is_the_sum_of_its_parts(complex_, edge):
    # every face of x(v) + x(v,w) carries its own degree, on the join rule
    # and on the global-form oracle alike
    bundle = ComplexContraction(complex_)
    oracle = GlobalFormContraction(complex_)
    v, w = edge
    parts = (chi(complex_, v), chi(complex_, v, w))
    mixed = parts[0] + parts[1]
    e = chi(complex_, v, w)
    values = []
    for head, tail in [((), ()), ((), (e,)), ((chi(complex_, w),), (e,)), ((e,), (e, e))]:
        value = transferred_m(bundle, head + (mixed,) + tail)
        left, right = (transferred_m(bundle, head + (part,) + tail) for part in parts)
        assert value == left + right, (head, tail)
        assert value == transferred_m(oracle, head + (mixed,) + tail), (head, tail)
        values.append(value)
    assert all(values[:3])


def test_a_zero_letter_gives_zero():
    bundle = ComplexContraction(BOUNDARY2)
    x0, zero = chi(BOUNDARY2, 0), Cochain(BOUNDARY2)
    for word in ((zero,), (x0, zero), (zero, x0, chi(BOUNDARY2, 0, 1))):
        assert transferred_m(bundle, word) == zero


def test_letters_on_different_complexes_are_rejected():
    # the two complexes share their vertices, so restricting alone would
    # accept the foreign letter
    bundle = ComplexContraction(DELTA2)
    for word in (
        (chi(DELTA2, 0), chi(BOUNDARY2, 0)),
        (chi(DELTA2, 0), chi(DELTA2, 0, 1), chi(BOUNDARY2, 0, 1)),
    ):
        with pytest.raises(ValueError, match="complex mismatch"):
            transferred_m(bundle, word)


def test_cup_of_cochains_on_different_complexes_is_rejected():
    # x(0) names a simplex of both complexes; an equal complex built apart
    # is the same space
    with pytest.raises(ValueError, match="complex mismatch"):
        cup(chi(DELTA2, 0), chi(BOUNDARY2, 0))
    twin = OrderedComplex([0, 1, 2], [[0, 1, 2]])
    assert cup(chi(DELTA2, 0), chi(twin, 0, 1)) == cup(chi(DELTA2, 0), chi(DELTA2, 0, 1))


def test_a_letter_of_another_complex_is_rejected_by_the_bundle():
    # x(0) of the boundary names a simplex of the solid triangle too
    bundle = ComplexContraction(DELTA2)
    foreign = chi(BOUNDARY2, 0)
    for word in [(foreign,), (chi(DELTA2, 0), foreign)]:
        with pytest.raises(ValueError, match="complex mismatch"):
            transferred_m(bundle, word)
    # an equal complex built apart is the same space
    twin = OrderedComplex([0, 1, 2], [[0, 1, 2]])
    assert transferred_m(bundle, (chi(twin, 0),)) == coboundary(chi(DELTA2, 0))


def test_global_m2_restricts_to_the_local_product():
    # on the full triangle the global binary operation restricted to the top
    # simplex agrees with the single-simplex operation
    bundle = GlobalFormContraction(DELTA2)
    local = SimplexContraction(2)
    for a in _basis(DELTA2):
        for b in _basis(DELTA2):
            global_value = transferred_m(bundle, (a, b))
            local_word = tuple(restrict(c, (0, 1, 2)) for c in (a, b))
            local_value = transferred_m(local, local_word)
            assert restrict(global_value, (0, 1, 2)) == local_value


def test_global_homotopy_identity_on_wedges():
    # nontrivial compatible families: products of two elementary-form images
    for X in (DELTA2, BOUNDARY2):
        bundle = GlobalFormContraction(X)
        basis = [Cochain.basis_element(X, s) for s in X.simplices]
        for a in basis:
            for b in basis:
                w = global_wedge(global_g(a), global_g(b))
                lhs = global_g(global_f(w)) - w
                rhs = global_differential(bundle.H(w)) + bundle.H(global_differential(w))
                assert lhs == rhs
                assert not global_f(-1 * bundle.H(w))  # f o s = 0
                assert not bundle.H(bundle.H(w))  # s o s = 0


def test_global_batteries_on_the_triangle():
    bundle = GlobalFormContraction(DELTA2)
    assert check_a_infinity(bundle, 3).all_passed
    assert check_c_infinity(bundle, 3).all_passed
    assert check_unital(bundle, 3).all_passed
    assert check_morphism(bundle, 3).all_passed


def test_global_tree_sum_agrees_with_recursion_on_the_boundary():
    bundle = GlobalFormContraction(BOUNDARY2)
    for word in product(_basis(BOUNDARY2), repeat=3):
        assert transferred_m(bundle, word) == transferred_m_trees(bundle, word)


def test_global_unit_is_the_vertex_sum():
    for X in (DELTA2, BOUNDARY2, PATH):
        assert GlobalFormContraction(X).unit_B() == Cochain.unit(X)


def test_global_batteries_on_the_boundary():
    bundle = GlobalFormContraction(BOUNDARY2)
    assert check_a_infinity(bundle, 2).all_passed


@pytest.mark.parametrize("complex_", [BOUNDARY2, OCTAHEDRON], ids=["boundary2", "octahedron"])
def test_g_is_defined_on_a_standard_simplex_only(complex_):
    for simplex in ((0,), complex_.maximal[0]):
        with pytest.raises(ValueError, match="^g applies to cochains on a standard simplex$"):
            include_g(chi(complex_, *simplex))


def test_cochain_file_round_trip():
    c = Cochain(DELTA2, {(0, 1): Fraction(3, 2), (2,): Fraction(-1)})
    payload = cochain_records(c)
    assert payload == {
        "entries": [
            {"simplex": [2], "coeff": "-1"},
            {"simplex": [0, 1], "coeff": "3/2"},
        ]
    }
    again = cochain_from_records(json.loads(json.dumps(payload)), DELTA2)
    assert again == c
    assert load_cochain(json.dumps(payload), DELTA2) == c
    with pytest.raises(ComplexFormatError):
        load_cochain("[]", DELTA2)
    with pytest.raises(ValueError):
        load_cochain('{"entries": [{"simplex": [5], "coeff": "1"}]}', DELTA2)


@pytest.mark.parametrize("bad", [0.1, "1/2", None])
def test_global_cochain_rejects_inexact_scalars(bad):
    with pytest.raises(TypeError):
        Cochain(DELTA1, {(0,): bad})
    with pytest.raises(TypeError):
        bad * chi(DELTA1, 0)
    assert Cochain(DELTA1, {(0,): 2}) == 2 * chi(DELTA1, 0)


# -- the product from structure constants ----------------------------------


def _cup_by_definition(a, b):
    return global_f(global_wedge(global_g(a), global_g(b)))


def _coboundary_by_definition(c):
    """(delta c)(s) = sum_j (-1)^j c(s without its j-th vertex)."""
    out = {}
    for simplex in c.complex.simplices:
        if len(simplex) > 1:
            out[simplex] = sum(
                (-1) ** j * c.terms.get(simplex[:j] + simplex[j + 1 :], 0)
                for j in range(len(simplex))
            )
    return Cochain(c.complex, out)


def _basis(complex_):
    return [Cochain.basis_element(complex_, s) for s in complex_.simplices]


def test_f_vectors_of_the_inline_surfaces():
    def f_vector(complex_):
        return [sum(len(s) == k for s in complex_.simplices) for k in (1, 2, 3)]

    assert f_vector(OCTAHEDRON) == [6, 12, 8]
    assert f_vector(TORUS) == [7, 21, 14]


@pytest.mark.parametrize(
    "complex_", [OCTAHEDRON, BOUNDARY3, PATH, DELTA2], ids=["octahedron", "boundary3", "path", "delta2"]
)
def test_cup_equals_f_of_wedge_on_every_basis_pair(complex_):
    basis = _basis(complex_)
    for a in basis:
        for b in basis:
            assert cup(a, b) == _cup_by_definition(a, b), (a, b)


def _cochains(complex_):
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.sampled_from(complex_.simplices), coeffs, max_size=6).map(
        lambda d: Cochain(complex_, d)
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cup_equals_f_of_wedge_on_mixed_cochains(data):
    complex_ = data.draw(st.sampled_from([OCTAHEDRON, BOUNDARY3, DELTA2, TORUS]))
    a = data.draw(_cochains(complex_))
    b = data.draw(_cochains(complex_))
    assert cup(a, b) == _cup_by_definition(a, b)


def test_structure_constants_vanish_off_joins():
    # the closed form in the module docstring, against (-1)^p m_2 of the
    # complex bundle on the n-simplex, which lives on the top simplex alone
    def sign(seq):
        inversions = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1 :])
        return -1 if inversions % 2 else 1

    for n in range(5):
        simplex = standard_simplex(n)
        top = tuple(range(n + 1))
        bundle = ComplexContraction(simplex)
        for sigma in simplex.simplices:
            for tau in simplex.simplices:
                if len(sigma) + len(tau) - 2 != n:
                    continue
                value = transferred_m(bundle, (chi(simplex, *sigma), chi(simplex, *tau)))
                assert set(value.terms) <= {top}, (n, sigma, tau)
                shared = set(sigma) & set(tau)
                expected = 0
                if len(shared) == 1 and set(sigma) | set(tau) == set(range(n + 1)):
                    (v,) = shared
                    p, q = len(sigma) - 1, len(tau) - 1
                    epsilon = (-1) ** tau.index(v) * sign(sigma + tuple(x for x in tau if x != v))
                    expected = Fraction(epsilon * factorial(p) * factorial(q), factorial(n + 1))
                constant = (-1) ** (len(sigma) - 1) * value.terms.get(top, 0)
                assert constant == expected, (n, sigma, tau)


@pytest.mark.parametrize(
    "complex_",
    [OCTAHEDRON, BOUNDARY3, PATH, DELTA2, TORUS] + [standard_simplex(n) for n in range(5)],
    ids=["octahedron", "boundary3", "path", "delta2", "torus"]
    + [f"standard-simplex-{n}" for n in range(5)],
)
def test_coboundary_equals_the_alternating_sum(complex_):
    for c in _basis(complex_):
        assert coboundary(c) == _coboundary_by_definition(c), c
        assert not coboundary(coboundary(c))
    unit = Cochain.unit(complex_)
    assert not coboundary(unit)


# -- a letter id is the position of its simplex ------------------------------


def test_the_bundle_has_no_intern():
    assert not hasattr(ComplexContraction, "intern")


def test_a_letter_id_is_the_position_of_its_simplex():
    # the interval's simplices are (0,), (1,), (0, 1), so x(0,1) is letter 2
    # in every bundle of the interval, whatever it met first
    x01 = chi(standard_simplex(1), 0, 1)
    assert x01.num == {2: 1}
    assert SimplexContraction(1).letter(2) == x01


@pytest.mark.parametrize(
    "complex_, edge", [(DELTA2, (0, 1)), (OCTAHEDRON, (0, 2))], ids=["delta2", "octahedron"]
)
def test_a_cochain_is_keyed_by_the_position_of_its_simplex(complex_, edge):
    # (0, 1) joins antipodal vertices of the octahedron, so no edge of it
    c = Cochain(complex_, {edge: 1})
    assert c.num == {complex_.index[edge]: 1}
    assert dict(c.terms) == {edge: 1} and set(c.terms) == {edge}
    assert c == ComplexContraction(complex_).letter(complex_.index[edge])


def test_the_bundle_has_no_coordinates():
    assert not hasattr(ComplexContraction, "coordinates")


class _NoLookup(dict):
    """An index that answers ``in`` and ``get`` but raises on subscription."""

    def __getitem__(self, simplex):
        raise AssertionError(f"index[{simplex!r}]")


def test_the_engine_looks_up_no_simplex():
    # the coface table is built while the index still answers; after that
    # the relations to arity 3 and m_3 of a word of mixed cochains read
    # cochain keys as letter ids, with no subscription of the index
    complex_ = OrderedComplex(OCTAHEDRON.vertices, OCTAHEDRON.maximal)
    complex_.cofaces()
    terms = (
        {(0,): 1, (1,): -2},
        {(0, 2): Fraction(1, 2), (1, 3): 1},
        {(0, 2, 4): 1, (0, 4): 3},
    )
    word = tuple(Cochain(complex_, t) for t in terms)
    expected = transferred_m(
        ComplexContraction(OCTAHEDRON), tuple(Cochain(OCTAHEDRON, t) for t in terms)
    )
    assert expected
    object.__setattr__(complex_, "index", _NoLookup(complex_.index))
    bundle = ComplexContraction(complex_)
    assert check_a_infinity(bundle, 3).all_passed
    assert transferred_m(bundle, word) == expected


def test_the_complex_layer_looks_up_no_simplex():
    # whitney-check, cup and the unit read cochains by letter id too, so
    # they run on a copy of the octahedron whose index raises on
    # subscription; the copy gets a bundle of its own, not that of the equal
    # OCTAHEDRON met earlier
    complex_ = OrderedComplex(OCTAHEDRON.vertices, OCTAHEDRON.maximal)
    complex_.cofaces()
    a, b = chi(complex_, 0, 2), chi(complex_, 2, 4)
    expected = cup(chi(OCTAHEDRON, 0, 2), chi(OCTAHEDRON, 2, 4))
    assert expected
    object.__setattr__(complex_, "index", _NoLookup(complex_.index))
    report = check_whitney_conditions(complex_)
    assert report.all_passed, report.to_text()
    assert cup(a, b) == expected
    assert Cochain.unit(complex_) == Cochain.unit(OCTAHEDRON)


def test_the_engines_look_up_no_simplex(monkeypatch):
    # the join rule maps a word into its simplex through the face table,
    # which is built by ``get``, so no engine's index is ever subscripted
    for n in range(4):
        engine = transfer._engine(n)
        monkeypatch.setattr(engine, "_ids", _NoLookup(engine._ids))
    assert check_a_infinity(ComplexContraction(OCTAHEDRON), 3).all_passed
    report = check_whitney_conditions(TORUS)
    assert report.all_passed, report.to_text()
    assert cup(chi(TORUS, 0), chi(TORUS, 0, 1)) == Fraction(1, 2) * chi(TORUS, 0, 1)


def test_a_cup_builds_only_the_face_table_rows_it_reads(monkeypatch):
    # each cup builds a bundle of its own, whose face table builds a row on
    # its first read: the product of two letters reads the row of their
    # join alone, not the 42 rows of the torus
    rows = []
    face_row = transfer._face_row

    def counted(faces, ids, x):
        if faces is TORUS.simplices:
            rows.append(x)
        return face_row(faces, ids, x)

    monkeypatch.setattr(transfer, "_face_row", counted)
    assert cup(chi(TORUS, 0), chi(TORUS, 0, 1)) == Fraction(1, 2) * chi(TORUS, 0, 1)
    assert rows == [TORUS.index[(0, 1)]]


def test_a_swapped_face_table_entry_fails_the_structure_relations():
    # the join rule reads a word's local letters from the face table, so
    # two edges swapped in the row of the last triangle break m_2 and m_3
    # on it, and the structure relations fail at the first word that reads
    # them; the table is keyed by letter id, the last triangle's is B - 1
    bundle = ComplexContraction(OCTAHEDRON)
    table, last = bundle.face_table, len(OCTAHEDRON.simplices) - 1
    row = list(table[last])
    row[3], row[4] = row[4], row[3]
    table[last] = tuple(row)
    report = check_a_infinity(bundle, 3)
    assert [(c.name, c.basis_size) for c in report.checks if not c.passed] == [
        ("relation at arity 2", 38),
        ("relation at arity 3", 974),
    ]


def test_a_checked_cochain_builds_no_coface_table():
    complex_ = OrderedComplex([0, 1, 2], [[0, 1], [1, 2]])
    assert Cochain(complex_, {(0, 1): 1})
    with pytest.raises(ValueError, match="not in the complex"):
        Cochain(complex_, {(0, 2): 1})
    assert complex_._cofaces is None


def test_the_complex_holds_only_its_simplices_and_coface_table():
    # the complex layer keeps what it computes in its own bundle: it writes
    # no attribute onto a complex, and a product lives on its factors' own
    # complex object, also when an equal complex was built apart
    assert OrderedComplex.__slots__ == ("vertices", "maximal", "simplices", "index", "_cofaces")
    tree = ast.parse(Path(complexes.__file__).read_text(encoding="utf-8"))
    assert not [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]
    first, twin = (OrderedComplex([0, 1, 2], [[0, 1, 2], [0, 1]]) for _ in range(2))
    for complex_ in (first, twin):
        a, b = chi(complex_, 0), chi(complex_, 0, 1)
        assert cup(a, b).complex is a.complex is complex_


def test_the_whitney_check_sums_no_all_zero_residual(monkeypatch):
    # a pair whose residual reads only zero table entries is never visited,
    # and a Leibniz residual with no nonzero part is the coboundary of its
    # product alone, summed without a call to _linear; on the octahedron 150
    # of the 676 products are nonzero, and the check makes 336 residual sums
    # where a sum over every pair made 1,411: 126 Leibniz sums through
    # _linear (222 pairs less the 96 products on the 8 triangles, which have
    # no coface), 209 unit, commutativity and associator residuals and the
    # certificate's structure relation through _cancels
    calls = []

    def counted(kernel):
        def count(*args):
            calls.append(kernel.__name__)
            return kernel(*args)

        return count

    monkeypatch.setattr(complexes, "_linear", counted(_linear))
    monkeypatch.setattr(complexes, "_cancels", counted(transfer._cancels))
    assert check_whitney_conditions(OCTAHEDRON).all_passed
    assert (calls.count("_linear"), calls.count("_cancels")) == (126, 210)


def test_a_warm_whitney_check_sums_only_the_signed_products(monkeypatch):
    # every residual, the certificate's structure relation included, is
    # decided by _cancels on unreduced numerators, so once the engines and
    # mu tables are warm the only vector sums are the negations of
    # _signed_m2: one per swept word whose left factor has an even shifted
    # degree
    check_whitney_conditions(OCTAHEDRON)
    bundle = ComplexContraction(OCTAHEDRON)
    negated = sum(1 for s, _ in bundle.local_sweep(2) if bundle._degrees[s] % 2 == 0)
    calls = []
    kernel = SparseVector._sum.__func__

    def counted(cls, space, parts, den=1):
        calls.append(cls)
        return kernel(cls, space, parts, den)

    monkeypatch.setattr(SparseVector, "_sum", classmethod(counted))
    assert check_whitney_conditions(OCTAHEDRON).all_passed
    assert negated and len(calls) == negated


@pytest.mark.parametrize(
    "complex_, witness, basis_size",
    [
        (DELTA2, ("x(0)", "x(0)", "x(0,1)"), 7**3),
        (OCTAHEDRON, ("x(0)", "x(0)", "x(0,2)"), 26**3),
    ],
    ids=["delta2", "octahedron"],
)
def test_the_certificate_fails_without_the_koszul_signs(monkeypatch, complex_, witness, basis_size):
    # dropping the Koszul sign of the insertion sums breaks the structure
    # relation on the witness, which the certificate reports on the B^3
    # triples; the product records, which have no insertion sum, still pass
    monkeypatch.setattr(ComplexContraction, "koszul_signs", False)
    report = check_whitney_conditions(complex_)
    name = "nonassociativity witness with homotopy certificate (" + ", ".join(witness) + ")"
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == [
        (name, basis_size, f"structure relation fails on the witness {witness}")
    ]
    assert report.to_json_dict() == full_sweep_whitney_conditions(complex_).to_json_dict()


@pytest.mark.parametrize(
    "make",
    [lambda n=n: SimplexContraction(n) for n in range(4)]
    + [lambda: ComplexContraction(OCTAHEDRON)],
    ids=["simplex0", "simplex1", "simplex2", "simplex3", "octahedron"],
)
def test_a_bundle_reads_its_letters_from_its_complex(make):
    bundle = make()
    complex_ = bundle.complex
    assert bundle._faces is complex_.simplices
    assert bundle._ids is complex_.index
    assert complex_.index == {s: i for i, s in enumerate(complex_.simplices)}
    assert bundle._degrees == [len(s) - 2 for s in complex_.simplices]
    assert list(bundle.basis_ids()) == list(range(len(complex_.simplices)))


def test_cofaces_are_the_codimension_one_cofaces_with_signs():
    cofaces = DELTA2.cofaces()
    assert cofaces is DELTA2.cofaces()
    index = DELTA2.index
    assert cofaces[index[(1,)]] == ((index[(0, 1)], 1), (index[(1, 2)], -1))
    assert cofaces[index[(0, 2)]] == ((index[(0, 1, 2)], -1),)
    assert cofaces[index[(0, 1, 2)]] == ()
    simplices = TORUS.simplices
    for simplex, entries in zip(simplices, TORUS.cofaces()):
        for position, _ in entries:
            coface = simplices[position]
            assert set(simplex) < set(coface) and len(coface) == len(simplex) + 1


def test_whitney_conditions_on_the_torus():
    report = check_whitney_conditions(TORUS)
    assert report.all_passed, report.to_text()
    witness = [c for c in report.checks if c.name.startswith("nonassociativity witness with homotopy certificate (")]
    assert len(witness) == 1 and witness[0].passed


# -- the join rule against the global-form oracle ---------------------------


def _assert_bundle_matches_the_oracle(complex_, words):
    bundle = ComplexContraction(complex_)
    oracle = GlobalFormContraction(complex_)
    for word in words:
        assert transferred_m(bundle, word) == transferred_m(oracle, word), word
        assert relation_value(bundle, word) == relation_value(oracle, word), word


@pytest.mark.parametrize("complex_", [DELTA2, BOUNDARY2], ids=["delta2", "boundary2"])
def test_levelwise_matches_the_oracle_to_arity_3(complex_):
    basis = _basis(complex_)
    words = [w for n in (1, 2, 3) for w in product(basis, repeat=n)]
    _assert_bundle_matches_the_oracle(complex_, words)


def test_levelwise_matches_the_oracle_on_the_octahedron():
    basis = _basis(OCTAHEDRON)
    _assert_bundle_matches_the_oracle(OCTAHEDRON, product(basis, repeat=2))


def test_levelwise_matches_the_oracle_around_the_torus_witness():
    # every arity-3 word in a vertex, an edge and a triangle around the
    # whitney-check witness (x(0), x(0), x(0,1))
    letters = [chi(TORUS, *s) for s in ((0,), (1,), (0, 1), (0, 1, 3))]
    x0, _, x01, _ = letters
    assert cup(cup(x0, x0), x01) != cup(x0, cup(x0, x01))
    _assert_bundle_matches_the_oracle(TORUS, product(letters, repeat=3))


# -- the join rule against the single-simplex engine ------------------------


@pytest.mark.parametrize(
    "n, arity", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (1, 8)]
)
def test_join_rule_matches_the_simplex_engine(n, arity):
    # both the complex bundle of the n-simplex and the simplex bundle read
    # m_k by the join rule, which reads a word whose supports span a proper
    # face from a smaller simplex; it must agree with the form route, f of
    # the cut products on the n-simplex, on every basis word
    bundle = ComplexContraction(standard_simplex(n))
    engine = SimplexContraction(n)
    pairs = [(bundle._ids[face], engine._ids[face]) for face in standard_simplex(n).simplices]
    for word in product(pairs, repeat=arity):
        ids = tuple(e for _, e in word)
        expected = engine.f(_cut_products(engine, ids))
        assert _m(engine, ids) == expected, word
        assert _m(bundle, tuple(b for b, _ in word)).terms == expected.terms, word
        if arity == 2:
            a, b = (bundle.letter(i) for i, _ in word)
            x, y = (engine.letter(i) for _, i in word)
            by_forms = project_f(wedge(include_g(x), include_g(y)))
            assert cup(a, b).terms == by_forms.terms, word


@pytest.mark.parametrize(
    "make, max_arity",
    [
        (lambda: SimplexContraction(1), 10),
        (lambda: SimplexContraction(2), 4),
        (lambda: SimplexContraction(3), 3),
        (lambda: ComplexContraction(BOUNDARY3), 3),
        (lambda: ComplexContraction(OCTAHEDRON), 3),
        (lambda: ComplexContraction(TORUS), 2),
        (lambda: ComplexContraction(flag_complex(58, 7)), 3),
        (lambda: ComplexContraction(flag_complex(53, 7)), 3),
        (lambda: ComplexContraction(flag_complex(42, 6)), 3),
    ],
    ids=[
        "simplex1", "simplex2", "simplex3", "boundary3", "octahedron", "torus",
        "flag58", "flag53", "flag42",
    ],
)
def test_the_degree_count_first_is_the_union_first_join_rule(make, max_arity):
    # the join rule reads dim U from the letters' degrees before it builds
    # the union, and maps the word into U through U's face table; on every
    # basis word it gives the cochain that building the union first and
    # reading the positions of the F_j in U gives, zeros included.  The
    # torus (14 triangles) and the flag complexes (6 to 8 maximal simplices
    # on 6 or 7 vertices) have many simplices of the top dimension
    bundle = make()
    basis = bundle.basis_ids()
    for arity in range(2, max_arity + 1):
        for ids in product(basis, repeat=arity):
            value = _join_rule(bundle, ids)
            expected = union_first_join_rule(bundle, ids)
            assert value.complex is expected.complex, ids
            assert (value.num, value.den) == (expected.num, expected.den), ids


# -- the local sweep against the join rule ----------------------------------

DISCRETE = OrderedComplex([0, 1, 2], [[0], [1], [2]])
SWEPT = {
    "delta2": DELTA2,
    "boundary2": BOUNDARY2,
    "path": PATH,
    "boundary3": BOUNDARY3,
    "octahedron": OCTAHEDRON,
    "torus": TORUS,
    "discrete": DISCRETE,
    **{f"flag{seed}": flag_complex(seed, 4 + seed % 4) for seed in range(20)},
}


@pytest.mark.parametrize("complex_", SWEPT.values(), ids=SWEPT.keys())
def test_the_local_sweep_is_the_join_rule_on_every_letter_pair(complex_):
    # the sweep stores mu * e_x for the (d + 1) 2^d words of each d-simplex
    # x, each once; every letter pair that it does not visit is zero by the
    # join rule, and every one it visits has the join rule's value
    swept_bundle = ComplexContraction(complex_)
    swept = swept_bundle.local_sweep(2)
    local_words = sum(len(s) * 2 ** (len(s) - 1) for s in complex_.simplices)
    assert len(set(swept)) == len(swept) == local_words
    values = swept_bundle._memo_m
    assert set(values) == set(swept)
    bundle = ComplexContraction(complex_)
    for word in product(bundle.basis_ids(), repeat=2):
        expected = _m(bundle, word)
        value = values.get(word, swept_bundle._zero)
        assert value.complex is expected.complex is complex_, word
        assert (value.num, value.den) == (expected.num, expected.den), word


@pytest.mark.parametrize(
    "complex_", [DELTA2, BOUNDARY3, OCTAHEDRON], ids=["delta2", "boundary3", "octahedron"]
)
def test_the_local_sweep_is_the_join_rule_at_arity_3(complex_):
    # the mu tables of arity 3 read the same way: every nonzero m_3 of a
    # letter triple is swept once, with the join rule's value
    swept_bundle = ComplexContraction(complex_)
    swept = swept_bundle.local_sweep(3)
    assert len(set(swept)) == len(swept)
    bundle = ComplexContraction(complex_)
    for word in product(bundle.basis_ids(), repeat=3):
        expected = _m(bundle, word)
        value = swept_bundle._memo_m.get(word, swept_bundle._zero)
        assert (value.num, value.den) == (expected.num, expected.den), word


def test_the_swept_words_are_counted_by_the_f_vector():
    # sum_d f_d (d + 1) 2^d: 6 + 12 * 4 + 8 * 12 on the octahedron,
    # 7 + 21 * 4 + 14 * 12 on the torus
    assert len(ComplexContraction(OCTAHEDRON).local_sweep(2)) == 150
    assert len(ComplexContraction(TORUS).local_sweep(2)) == 259


@pytest.mark.parametrize(
    "arity, sizes, pinned",
    [
        (2, [1, 4, 12, 32], "9359d8209ef0bdb3aa52f0030204d261903273b4ea81973b35ff55901a2538b6"),
        (3, [0, 6, 54, 324], "23bc519b519779ba0e0fd1c6b801bd10390d41cad2f8363916ceb9af3148f5a0"),
    ],
    ids=["arity2", "arity3"],
)
def test_the_mu_tables_of_m2_are_pinned(arity, sizes, pinned):
    # the arity-2 digest was recorded from the join rule's values, _join_rule
    # on the engine of dimension d for every spanning word of the right
    # degree, before the tables existed; the arity-3 one while _mu still
    # reduced each mu by a gcd, which the engine's lowest terms make 1
    tables = [transfer._mu_table(d, arity) for d in range(4)]
    assert [len(table) for table in tables] == sizes
    if arity == 2:
        assert sizes == [(d + 1) * 2**d for d in range(4)]
    assert all(num and den > 0 and gcd(num, den) == 1 for table in tables for _, num, den in table)
    assert sha256(repr(tables).encode()).hexdigest() == pinned


def test_a_whitney_check_reads_the_join_rule_for_mu_and_the_certificate(monkeypatch):
    # from cold engines: the mu tables of dimensions 0..2 read their 20
    # pairs in the degree of m_2 on the engines, the 17 spanning ones and
    # the 3 pairs of an edge with itself on the triangle, which the join
    # rule zeroes; the certificate's structure relation makes the other 13
    # calls, at arity 3; every letter pair through the join rule made 450
    # calls
    transfer._engine.cache_clear()
    transfer._mu_table.cache_clear()
    calls = []
    rule = transfer._join_rule

    def counted(bundle, ids):
        calls.append(len(ids))
        return rule(bundle, ids)

    monkeypatch.setattr(transfer, "_join_rule", counted)
    assert check_whitney_conditions(OCTAHEDRON).all_passed
    assert len(calls) == 33 and calls.count(2) == 20


UNIT = "constant 0-cochain is the identity"
COMMUTATIVE = "product is graded commutative"


@pytest.mark.parametrize(
    "dim, complex_, failures",
    [
        (1, DELTA2, [
            (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
            (UNIT, 4, "unit law fails on x(0,1)"),
            (COMMUTATIVE, 4, "x(0) cup x(0,1) not graded commutative"),
        ]),
        (1, OCTAHEDRON, [
            (LEIBNIZ, 1, "delta(x(0) cup x(0)) mismatch"),
            (UNIT, 7, "unit law fails on x(0,2)"),
            (COMMUTATIVE, 7, "x(0) cup x(0,2) not graded commutative"),
        ]),
        (2, DELTA2, [
            (LEIBNIZ, 4, "delta(x(0) cup x(0,1)) mismatch"),
            (UNIT, 7, "unit law fails on x(0,1,2)"),
            (COMMUTATIVE, 7, "x(0) cup x(0,1,2) not graded commutative"),
        ]),
        (2, TORUS, [
            (LEIBNIZ, 8, "delta(x(0) cup x(0,1)) mismatch"),
            (UNIT, 29, "unit law fails on x(0,1,3)"),
            (COMMUTATIVE, 29, "x(0) cup x(0,1,3) not graded commutative"),
        ]),
    ],
    ids=["edge-delta2", "edge-octahedron", "triangle-delta2", "triangle-torus"],
)
def test_a_doubled_mu_fails_a_named_whitney_record(monkeypatch, dim, complex_, failures):
    # the first entry of the mu table of dimension dim doubled on every
    # simplex of that dimension: m_2(e_0, e_01) = 1/2 e_01 on an edge,
    # m_2(e_0, e_012) = 1/3 e_012 on a triangle
    table = transfer._mu_table

    def doubled(d, k):
        rows = table(d, k)
        if d != dim:
            return rows
        (word, num, den), *rest = rows
        return ((word, 2 * num, den), *rest)

    monkeypatch.setattr(transfer, "_mu_table", doubled)
    report = check_whitney_conditions(complex_)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == failures


@pytest.mark.parametrize(
    "complex_, max_arity",
    [(BOUNDARY3, 4), (OCTAHEDRON, 3), (TORUS, 3)],
    ids=["boundary3", "octahedron", "torus"],
)
def test_structure_relations_hold_on_the_complex_bundle(complex_, max_arity):
    bundle = ComplexContraction(complex_)
    report = check_a_infinity(bundle, max_arity)
    assert report.all_passed, report.to_text()
    assert [c.basis_size for c in report.checks] == [
        len(complex_.simplices) ** n for n in range(1, max_arity + 1)
    ]


def test_deeply_nested_json_is_a_format_error():
    deep = "[" * 200_000 + "]" * 200_000
    with pytest.raises(ComplexFormatError, match="nested too deeply"):
        load_complex(deep)
    with pytest.raises(ComplexFormatError, match="nested too deeply"):
        load_complex('{"vertices": [0], "simplices": [' + deep + "]}")
    with pytest.raises(ComplexFormatError, match="nested too deeply"):
        load_cochain(deep, DELTA2)
    with pytest.raises(ComplexFormatError, match="nested too deeply"):
        load_cochain('{"entries": [' + deep + "]}", DELTA2)


def test_overlong_integer_literal_is_a_format_error():
    with pytest.raises(ComplexFormatError, match="invalid JSON"):
        load_complex('{"vertices": [' + "1" * 5000 + '], "simplices": []}')


# -- naturality under degeneracies ----------------------------------------


def _vertex_set_pullback(c, source, vertex_map):
    """A pullback that is not normalized: it reads a degenerate image as the
    simplex on its vertex set."""
    terms = c.terms
    out = {}
    for simplex in source.simplices:
        image = tuple(sorted({vertex_map[v] for v in simplex}))
        if image in terms:
            out[simplex] = terms[image]
    return Cochain(source, out)


def _naturality_failures(source, target, vertex_map, max_arity, pull=pullback):
    """The basis words w of the target, to max_arity, on which
    m_k(f^*w_1, ..., f^*w_k) differs from f^*m_k(w), and the number of words
    on which the left side is nonzero."""
    source_bundle = ComplexContraction(source)
    target_bundle = ComplexContraction(target)
    letters = basis_cochains(target_bundle)
    failures, nonzero = [], 0
    for arity in range(1, max_arity + 1):
        for word in product(letters, repeat=arity):
            lhs = transferred_m(source_bundle, tuple(pull(c, source, vertex_map) for c in word))
            rhs = pull(transferred_m(target_bundle, word), source, vertex_map)
            nonzero += bool(lhs)
            if lhs != rhs:
                failures.append(word)
    return failures, nonzero


@pytest.mark.parametrize(
    "source, target, vertex_map, max_arity",
    [
        (standard_simplex(3), standard_simplex(2), (0, 0, 1, 2), 3),
        (standard_simplex(3), standard_simplex(2), (0, 1, 1, 2), 3),
        (standard_simplex(3), standard_simplex(1), (0, 0, 1, 1), 4),
        (standard_simplex(2), standard_simplex(1), (0, 1, 1), 4),
        # antipodal pair i goes to vertex i, so every triangle onto the top
        (OCTAHEDRON, standard_simplex(2), (0, 0, 1, 1, 2, 2), 3),
    ],
    ids=["delta3-delta2-0012", "delta3-delta2-0112", "delta3-delta1", "delta2-delta1", "octahedron-delta2"],
)
def test_the_normalized_pullback_commutes_with_every_m_k(source, target, vertex_map, max_arity):
    # the canonical structure is natural: f^* of a simplicial map, zero on
    # simplices with a degenerate image, is a strict morphism
    failures, nonzero = _naturality_failures(source, target, vertex_map, max_arity)
    assert not failures, failures[:3]
    assert nonzero


def test_a_pullback_that_keeps_degenerate_images_is_not_natural():
    failures, _ = _naturality_failures(
        standard_simplex(3), standard_simplex(2), (0, 0, 1, 2), 2, pull=_vertex_set_pullback
    )
    assert len(failures) == 26


# -- the records on live words against the full sweep -----------------------


def _mu_mutant(dim, drop=False):
    """The first row of the mu table of dimension dim doubled, or dropped.
    Dropped on edges, m_2(e_0, e_01) is zero while m_2(e_01, e_0) is not, so
    commutativity first fails on a pair that the sweep does not name, reached
    only as the transpose of a swept word."""
    table = transfer._mu_table

    def changed(d, k):
        rows = table(d, k)
        if d != dim:
            return rows
        (word, num, den), *rest = rows
        return tuple(rest) if drop else ((word, 2 * num, den), *rest)

    return "_mu_table", changed


def _doubled_on_edge_paths(bundle, ids):
    # m_2 of two edges (i, j), (j, k) doubled: on a triangle it leaves the
    # Leibniz residual of that swept pair, which has no coface term, intact,
    # and first breaks the residual of (i, (j, k)), a pair that the sweep
    # does not name but a facet of (i, j) reaches
    value = _SIGNED_M2(bundle, ids)
    a, b = (bundle._faces[i] for i in ids)
    return 2 * value if len(a) == len(b) == 2 and a[1] == b[0] else value


PRODUCT_MUTANTS = {
    "intact": None,
    "doubled-mu-edge": _mu_mutant(1),
    "doubled-mu-triangle": _mu_mutant(2),
    "dropped-mu-edge": _mu_mutant(1, drop=True),
    "sign-drop": ("_signed_m2", _m),
    "doubled-edge-path": ("_signed_m2", _doubled_on_edge_paths),
}
EQUIVALENT = {
    "delta2": DELTA2,
    "boundary3": BOUNDARY3,
    "octahedron": OCTAHEDRON,
    "torus": TORUS,
    **{f"flag{seed}": flag_complex(seed, 4 + seed % 4) for seed in range(20)},
}


@pytest.mark.parametrize("mutant", PRODUCT_MUTANTS.values(), ids=PRODUCT_MUTANTS.keys())
@pytest.mark.parametrize("complex_", EQUIVALENT.values(), ids=EQUIVALENT.keys())
def test_the_records_on_live_words_report_what_the_full_sweep_reports(
    monkeypatch, complex_, mutant
):
    # each record walks only the pairs where its residual can be nonzero and
    # reports the rank of its first failure among all B^2 pairs, so its
    # report is that of the sweep over every pair, also for a broken product
    if mutant is not None:
        name, value = mutant
        monkeypatch.setattr(transfer if name == "_mu_table" else complexes, name, value)
    report = check_whitney_conditions(complex_)
    assert report.to_json_dict() == full_sweep_whitney_conditions(complex_).to_json_dict()


MU_MUTANTS = {name: PRODUCT_MUTANTS[name] for name in ("intact", "doubled-mu-edge", "doubled-mu-triangle")}


@pytest.mark.parametrize("mutant", MU_MUTANTS.values(), ids=MU_MUTANTS.keys())
@pytest.mark.parametrize("complex_", EQUIVALENT.values(), ids=EQUIVALENT.keys())
def test_the_leibniz_record_is_the_arity_2_relation(monkeypatch, complex_, mutant):
    # on a bundle whose m memo the local sweep filled, the structure relation
    # at arity 2, m_1 m_2 + m_2 (m_1 x 1 + 1 x m_1) = 0, is the Leibniz rule
    # of the cup product, so both records fail together and at one rank.
    # dropped-mu-edge is left out: the battery reads a word that the sweep
    # dropped through the join rule, so its relation passes where Leibniz
    # fails at rank 1
    if mutant is not None:
        monkeypatch.setattr(transfer, *mutant)
    bundle = ComplexContraction(complex_)
    bundle.local_sweep(2)
    relation = check_a_infinity(bundle, 2).checks[1]
    leibniz = next(c for c in check_whitney_conditions(complex_).checks if c.name == LEIBNIZ)
    assert relation.name == "relation at arity 2"
    assert (relation.passed, relation.basis_size) == (leibniz.passed, leibniz.basis_size)


@pytest.mark.parametrize(
    "complex_, rank, pair",
    [(DELTA2, 6, ((0,), (1, 2))), (OCTAHEDRON, 15, ((0,), (2, 4)))],
    ids=["delta2", "octahedron"],
)
def test_a_leibniz_failure_can_lie_off_the_sweep(monkeypatch, complex_, rank, pair):
    # with m_2 doubled on edge paths, Leibniz first fails on a vertex and
    # the edge opposite it in a triangle: a pair whose product is zero,
    # which the sweep does not name, reached only as a facet neighbour
    monkeypatch.setattr(complexes, "_signed_m2", _doubled_on_edge_paths)
    report = check_whitney_conditions(complex_)
    labels = " cup ".join(transfer._face_label(face) for face in pair)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed][:1] == [
        (LEIBNIZ, rank, f"delta({labels}) mismatch")
    ]
    ids = tuple(complex_.index[face] for face in pair)
    assert ids not in ComplexContraction(complex_).local_sweep(2)


@pytest.mark.parametrize(
    "complex_, counts",
    [(OCTAHEDRON, (150, 222, 150)), (TORUS, (259, 385, 259))],
    ids=["octahedron", "torus"],
)
def test_each_whitney_record_walks_only_its_live_words(monkeypatch, complex_, counts):
    # locality walks the swept words, Leibniz adds their facet neighbours
    # and commutativity their transposes (the same words, as the product is
    # graded commutative); a sweep over every pair would walk 676 or 1,764
    walked = []
    check_pairs = complexes._check_pairs

    def counted(report, name, words, case, letters):
        walked.append((name, len(words)))
        return check_pairs(report, name, words, case, letters)

    monkeypatch.setattr(complexes, "_check_pairs", counted)
    report = check_whitney_conditions(complex_)
    assert report.all_passed
    names = ["product is supported on common stars", LEIBNIZ, COMMUTATIVE]
    assert walked == list(zip(names, counts))
    assert [c.basis_size for c in report.checks if c.name in names] == [len(complex_.simplices) ** 2] * 3
