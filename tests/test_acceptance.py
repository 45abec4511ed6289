"""Acceptance battery: every criterion runs at tolerance zero in rational
arithmetic and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

from fractions import Fraction
from itertools import product

import pytest

from simplicial_transfer.cochains import Cochain, interval_basis_components, standard_simplex
from simplicial_transfer.complexes import OrderedComplex, check_whitney_conditions
from simplicial_transfer.contraction import check_contraction, s_operator
from simplicial_transfer.forms import Form
from simplicial_transfer.rationals import SparseVector, bernoulli_number, factorial
from simplicial_transfer.tensorwords import shuffle
from simplicial_transfer.transfer import (
    SimplexContraction,
    bernoulli_polynomial,
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    interval_product_table,
    p_polynomial_sequence,
    transferred_m,
    transferred_m_trees,
)
from simplicial_transfer.trees import tree_count

from helpers import basis_cochains, deconcatenations, exp_series_ratio, formal_word, letter_degree
from span_oracle import shuffle_span_membership


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def interval_bundle():
    return SimplexContraction(1)


@pytest.fixture(scope="module")
def triangle_bundle():
    return SimplexContraction(2)


def interval_letters():
    return (
        Cochain.basis_element(standard_simplex(1), (1,)),
        Cochain.basis_element(standard_simplex(1), (0, 1)),
    )


def test_criterion_01_contraction_battery():
    failures = []
    for dim, bound in ((1, 6), (2, 4), (3, 3)):
        rep = check_contraction(dim, bound)
        failures.extend(
            f"dim {dim}: {c.name} ({c.counterexample})"
            for c in rep.checks
            if not c.passed
        )
    report(1, not failures, "contraction identities on dimensions 1-3" + (
        "" if not failures else "; " + "; ".join(failures)
    ))


def test_criterion_02_dupont_closed_form():
    t = Form.monomial(1, (1,), ())
    ok = True
    for k in range(11):
        value = s_operator(Form.monomial(1, (k,), (1,)))
        expected = Fraction(1, k + 1) * (Form.monomial(1, (k + 1,), ()) - t)
        if value != expected:
            ok = False
            break
    report(2, ok, "s(t^k dt) = (t^(k+1) - t)/(k+1) for k = 0..10")


def test_criterion_03_tree_combinatorics(interval_bundle):
    counts_ok = [tree_count(n) for n in range(1, 7)] == [1, 1, 3, 11, 45, 197]
    agree_ok = True
    basis = basis_cochains(interval_bundle)
    for n in range(1, 6):
        for word in product(basis, repeat=n):
            if transferred_m(interval_bundle, word) != transferred_m_trees(
                interval_bundle, word
            ):
                agree_ok = False
                break
        if not agree_ok:
            break
    report(
        3,
        counts_ok and agree_ok,
        "tree counts 1,1,3,11,45,197 and tree-sum = recursion on words up to length 5",
    )


def test_criterion_04_structure_relations(interval_bundle, triangle_bundle):
    rep1 = check_a_infinity(interval_bundle, 4)
    rep2 = check_a_infinity(triangle_bundle, 3)
    report(
        4,
        rep1.all_passed and rep2.all_passed,
        "structure relations: arity <= 4 on the interval, <= 3 on the triangle",
    )


def test_criterion_05_morphism_relations(interval_bundle):
    rep = check_morphism(interval_bundle, 3)
    report(5, rep.all_passed, "morphism relations up to arity 3 on the interval")


def test_criterion_06_shuffle_vanishing(interval_bundle, triangle_bundle):
    rep1 = check_c_infinity(interval_bundle, 4)
    rep2 = check_c_infinity(triangle_bundle, 3)
    report(
        6,
        rep1.all_passed and rep2.all_passed,
        "operations and morphism components vanish on shuffles "
        "(arity <= 4 interval, <= 3 triangle)",
    )


def test_criterion_07_unitality(interval_bundle, triangle_bundle):
    rep1 = check_unital(interval_bundle, 4)
    rep2 = check_unital(triangle_bundle, 4)
    report(7, rep1.all_passed and rep2.all_passed, "unit laws up to arity 4 on both bases")


def test_criterion_08_bernoulli_table(interval_bundle):
    table = interval_product_table(7)
    ok = table.all_passed
    detail_parts = []
    # spot values demanded explicitly: 1/12 at n=2 and |B_4|/4! = 1/720 at n=4
    t, dt = interval_letters()
    m3 = interval_basis_components(transferred_m(interval_bundle, (t, dt, dt)))
    m5 = interval_basis_components(
        transferred_m(interval_bundle, (t, dt, dt, dt, dt))
    )
    ok = ok and abs(m3[2]) == Fraction(1, 12) and abs(m5[2]) == Fraction(1, 720)
    for n in (3, 5):
        value = interval_basis_components(
            transferred_m(interval_bundle, (t,) + (dt,) * n)
        )
        ok = ok and value == (0, 0, 0)
    detail_parts.append("magnitudes |B_n|/n! for n <= 6")
    detail_parts.append("vanishing outside the one-t family for words up to length 5")
    detail_parts.append("binomial ratios for n <= 4")
    for finding in table.findings:
        print(f"    finding: {finding}")
    report(8, ok, "interval product table: " + ", ".join(detail_parts))


def test_criterion_09_p_polynomial_oracle():
    seq = p_polynomial_sequence(8)
    series = exp_series_ratio(8)
    series_ok = all(
        series[n] == seq.polys[n - 1] for n in range(1, 9)
    )
    closed_ok = seq.matches_closed_form()
    integrals_ok = seq.integral_identities()
    bern_ok = all(
        seq.closed_forms[n - 1]
        == Fraction(1, factorial(n))
        * (bernoulli_polynomial(n) - bernoulli_number(n) * Form.one(1))
        for n in range(1, 9)
    )
    report(
        9,
        closed_ok and integrals_ok and series_ok and bern_ok,
        "homotopy recursion matches (B_n(t)-B_n)/n!, its integrals, and the "
        "generating series to order 8",
    )


def test_criterion_10_whitney_product():
    triangle = OrderedComplex([0, 1, 2], [[0, 1, 2]])
    boundary = OrderedComplex([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
    rep_triangle = check_whitney_conditions(triangle)
    rep_boundary = check_whitney_conditions(boundary)
    report(
        10,
        rep_triangle.all_passed and rep_boundary.all_passed,
        "product conditions, commutativity, and the nonassociativity witness "
        "with homotopy certificate on the triangle and its boundary",
    )


def test_criterion_11_split_shuffle_membership():
    names = "abcd"
    degrees = (-1, 0, 1)
    ok = True
    checked = 0
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            total = p + q
            if total > 4:
                continue
            for ds in product(degrees, repeat=total):
                u = formal_word(names[:p], ds[:p])
                v = formal_word(names[p : p + q], ds[p:])
                sh = shuffle(u, v, letter_degree)
                for k in range(2, min(3, total) + 1):
                    x = SparseVector(None)
                    for word, coeff in sh.items():
                        x = x + coeff * deconcatenations(word, k)
                    checked += 1
                    if not shuffle_span_membership(x):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    report(
        11,
        ok,
        f"split shuffles stay in the spanned subspace ({checked} instances, "
        "lengths <= 4, degrees in {-1,0,1})",
    )
