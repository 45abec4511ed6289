import json
from fractions import Fraction
from itertools import product

import pytest

from simplicial_transfer.complexes import (
    ComplexContraction,
    ComplexFormatError,
    GlobalCochain,
    GlobalForm,
    OrderedComplex,
    check_whitney_conditions,
    cup,
    global_H,
    global_coboundary,
    global_cochain_from_records,
    global_cochain_records,
    global_differential,
    global_f,
    global_g,
    global_wedge,
    load_complex,
    load_global_cochain,
    transferred_global_m,
)
from simplicial_transfer.forms import parse_form
from simplicial_transfer.tensorwords import Homog
from simplicial_transfer.transfer import (
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    transferred_m,
    transferred_m_trees,
)

DELTA1 = OrderedComplex([0, 1], [[0, 1]])
DELTA2 = OrderedComplex([0, 1, 2], [[0, 1, 2]])
BOUNDARY2 = OrderedComplex([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
PATH = OrderedComplex([0, 1, 2], [[0, 1], [1, 2]])


def chi(complex_, *simplex):
    return GlobalCochain.basis_element(complex_, simplex)


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
    assert BOUNDARY2.star({(0,)}) == {(0,), (0, 1), (0, 2)}


def test_global_g_of_vertex_indicator():
    form = global_g(chi(DELTA1, 0))
    assert form.assign[(0, 1)] == parse_form("1 + -1 t1", 1)
    assert form.assign[(0,)] == parse_form("1", 0)
    assert not form.assign[(1,)]
    form.validate()


def test_levelwise_contraction_identities():
    for X in (DELTA2, BOUNDARY2):
        for simplex in X.simplices:
            c = GlobalCochain.basis_element(X, simplex)
            assert global_f(global_g(c)) == c
            assert not global_H(global_g(c))


def test_global_forms_stay_compatible():
    for X in (DELTA2, BOUNDARY2):
        for simplex in X.simplices:
            image = global_g(GlobalCochain.basis_element(X, simplex))
            image.validate()
            global_H(image).validate()
    bad = {s: parse_form("0", len(s) - 1) for s in DELTA1.simplices}
    bad[(0, 1)] = parse_form("t1", 1)
    with pytest.raises(ValueError):
        GlobalForm(DELTA1, bad)


def test_coboundary_matches_star_shape():
    dc = global_coboundary(chi(BOUNDARY2, 0))
    assert dc.coeffs == {(0, 1): Fraction(-1), (0, 2): Fraction(-1)}
    assert not global_coboundary(GlobalCochain.unit(BOUNDARY2))


def test_cup_examples():
    one = GlobalCochain.unit(BOUNDARY2)
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


def test_cup_locality_on_the_path():
    x0, x2 = chi(PATH, 0), chi(PATH, 2)
    star0 = PATH.star(x0.support())
    star2 = PATH.star(x2.support())
    assert not (star0 & star2)


def test_whitney_conditions():
    for X in (DELTA2, BOUNDARY2):
        report = check_whitney_conditions(X)
        assert report.all_passed, report.to_text()


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
    # arity one is the global coboundary
    x0 = chi(BOUNDARY2, 0)
    assert transferred_global_m([x0]) == global_coboundary(x0)
    with pytest.raises(ValueError):
        transferred_global_m([])
    mixed = chi(BOUNDARY2, 0) + chi(BOUNDARY2, 0, 1)
    with pytest.raises(ValueError):
        transferred_global_m([mixed])


def test_global_m2_restricts_to_the_local_product():
    # on the full triangle the global binary operation restricted to the top
    # simplex agrees with the single-simplex operation
    from simplicial_transfer.transfer import SimplexContraction

    bundle = ComplexContraction(DELTA2)
    local = SimplexContraction(2)
    for a in bundle.b_basis():
        for b in bundle.b_basis():
            global_value = transferred_m(bundle, (a, b))
            local_word = tuple(
                Homog(h.carrier.restrict_to((0, 1, 2)), h.degree) for h in (a, b)
            )
            local_value = transferred_m(local, local_word)
            assert global_value.restrict_to((0, 1, 2)) == local_value


def test_global_homotopy_identity_on_wedges():
    # nontrivial compatible families: products of two elementary-form images
    for X in (DELTA2, BOUNDARY2):
        bundle = ComplexContraction(X)
        basis = [GlobalCochain.basis_element(X, s) for s in X.simplices]
        for a in basis:
            for b in basis:
                w = global_wedge(global_g(a), global_g(b))
                lhs = global_g(global_f(w)) - w
                rhs = global_differential(bundle.H(w)) + bundle.H(global_differential(w))
                assert lhs == rhs
                assert not global_f(-1 * bundle.H(w))  # f o s = 0
                assert not bundle.H(bundle.H(w))  # s o s = 0


def test_global_batteries_on_the_triangle():
    bundle = ComplexContraction(DELTA2)
    assert check_a_infinity(bundle, 3).all_passed
    assert check_c_infinity(bundle, 3).all_passed
    assert check_unital(bundle, 3).all_passed
    assert check_morphism(bundle, 3).all_passed


def test_global_tree_sum_agrees_with_recursion_on_the_boundary():
    bundle = ComplexContraction(BOUNDARY2)
    for word in product(bundle.b_basis(), repeat=3):
        assert transferred_m(bundle, word) == transferred_m_trees(bundle, word)


def test_global_unit_is_the_vertex_sum():
    for X in (DELTA2, BOUNDARY2, PATH):
        assert ComplexContraction(X).unit_B() == GlobalCochain.unit(X)


def test_global_batteries_on_the_boundary():
    bundle = ComplexContraction(BOUNDARY2)
    assert check_a_infinity(bundle, 2).all_passed


def test_cochain_file_round_trip():
    c = GlobalCochain(DELTA2, {(0, 1): Fraction(3, 2), (2,): Fraction(-1)})
    payload = global_cochain_records(c)
    assert payload == {
        "entries": [
            {"simplex": [2], "coeff": "-1"},
            {"simplex": [0, 1], "coeff": "3/2"},
        ]
    }
    again = global_cochain_from_records(json.loads(json.dumps(payload)), DELTA2)
    assert again == c
    assert load_global_cochain(json.dumps(payload), DELTA2) == c
    with pytest.raises(ComplexFormatError):
        load_global_cochain("[]", DELTA2)
    with pytest.raises(ValueError):
        load_global_cochain('{"entries": [{"simplex": [5], "coeff": "1"}]}', DELTA2)


@pytest.mark.parametrize("bad", [0.1, "1/2", None])
def test_global_cochain_rejects_inexact_scalars(bad):
    with pytest.raises(TypeError):
        GlobalCochain(DELTA1, {(0,): bad})
    with pytest.raises(TypeError):
        bad * chi(DELTA1, 0)
    assert GlobalCochain(DELTA1, {(0,): 2}) == 2 * chi(DELTA1, 0)
