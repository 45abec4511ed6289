import json
from fractions import Fraction
from itertools import combinations

import pytest

from simplicial_transfer import contraction
from simplicial_transfer.cochains import Cochain, include_g, project_f, standard_simplex
from simplicial_transfer.contraction import (
    check_contraction,
    h_operator,
    homotopy_H,
    s_operator,
)
from simplicial_transfer.forms import (
    Form,
    differential,
    monomial_basis,
    parse_form,
)

from simplicial_transfer.rationals import SparseVector

from helpers import face_restrict, form_route_contraction


def F1(text):
    return parse_form(text, 1)


def test_h_examples():
    dt = F1("dt1")
    assert h_operator(dt, 0) == F1("t1")
    assert not h_operator(F1("t1^2"), 0)
    assert h_operator(dt, 1) == F1("-1 + t1")


def test_h_reproduces_primitives():
    # On 0-forms a(t), the dilation identity forces h^i(da) = a - a(e_i);
    # with a = t^{k+1}/(k+1) this pins down h^i(t^k dt) exactly.
    for k in range(9):
        tk_dt = Form.monomial(1, (k,), (1,))
        expected0 = Fraction(1, k + 1) * Form.monomial(1, (k + 1,), ())
        expected1 = expected0 - Fraction(1, k + 1) * Form.one(1)
        assert h_operator(tk_dt, 0) == expected0
        assert h_operator(tk_dt, 1) == expected1


def test_h_two_form():
    # hand expansion of the dilation toward vertex 0 on dt1 dt2
    result = h_operator(parse_form("dt1 dt2", 2), 0)
    assert result == parse_form("1/2 t1 dt2 + -1/2 t2 dt1", 2)


def test_h_operators_anticommute():
    # the lemma behind s_n's invariance under vertex permutations, which
    # lets _s_monomial fill one column per orbit
    for n in (1, 2, 3):
        for m in monomial_basis(n, 3):
            for i in range(n + 1):
                assert not h_operator(h_operator(m, i), i)
                for j in range(i + 1, n + 1):
                    lhs = h_operator(h_operator(m, i), j)
                    rhs = h_operator(h_operator(m, j), i)
                    assert lhs == -rhs


def test_h_compatible_with_faces_containing_the_vertex():
    for n in (1, 2):
        for size in range(1, n + 1):
            for face in combinations(range(n + 1), size):
                for local, vertex in enumerate(face):
                    for m in monomial_basis(n, 3):
                        lhs = face_restrict(h_operator(m, vertex), face)
                        rhs = h_operator(face_restrict(m, face), local)
                        assert lhs == rhs


def test_s_closed_form_on_interval():
    t = F1("t1")
    for k in range(11):
        arg = Form.monomial(1, (k,), (1,))
        expected = Fraction(1, k + 1) * (Form.monomial(1, (k + 1,), ()) - t)
        assert s_operator(arg) == expected


def test_s_kills_units_and_elementary_forms():
    for n in range(4):
        assert not s_operator(Form.one(n))
    assert not s_operator(F1("dt1"))
    for n in (1, 2, 3):
        for face in standard_simplex(n).simplices:
            assert not s_operator(include_g(Cochain.basis_element(standard_simplex(n), face)))


def test_homotopy_is_negated_s():
    m = F1("t1 dt1")
    assert homotopy_H(m) == -s_operator(m)
    assert homotopy_H(m) == F1("1/2 t1 + -1/2 t1^2")
    assert not homotopy_H(Form.one(2))


def test_eq_one_with_negated_homotopy():
    # g o f - 1 = dH + Hd
    for n in (1, 2):
        for m in monomial_basis(n, 3):
            lhs = include_g(project_f(m)) - m
            rhs = differential(homotopy_H(m)) + homotopy_H(differential(m))
            assert lhs == rhs


def test_check_contraction_small():
    for n, bound in ((0, 1), (1, 6), (2, 4)):
        report = check_contraction(n, bound)
        assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_report_serialization():
    report = check_contraction(1, 2)
    payload = report.to_json_dict()
    assert payload["all_passed"] is True
    assert payload["dimension"] == 1
    json.dumps(payload)  # serializable
    text = report.to_text()
    assert "f o g = 1" in text and "PASS" in text


def _doubled_s(patch):
    # s doubled where its columns are made, the fused sum of each orbit, so
    # every s column the battery reads is doubled
    s_fused = contraction._s_fused
    patch.setattr(contraction, "_s_fused", lambda n, key: 2 * s_fused(n, key))


def test_doubled_s_fails_the_homotopy_record(cold_caches, monkeypatch):
    # a failing record still reports the size of the whole monomial basis
    _doubled_s(monkeypatch)
    report = check_contraction(2, 2)
    assert [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed] == [
        ("1 - g o f = ds + sd", 24, "1 t2^2"),
    ]


def test_check_contraction_on_the_4_simplex():
    report = check_contraction(4, 2)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]
    assert len(report.checks) == 11
    assert report.checks[1].basis_size == 240


@pytest.fixture
def cold_caches():
    # the tests below count fills or plant wrong columns, so they start and
    # end with empty column caches
    caches = (contraction._s_monomial, contraction._h_monomial)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_unsigned_relabelling_fails_the_battery(cold_caches, monkeypatch):
    relabel = contraction._relabel
    unsigned = lambda n, key, targets: (relabel(n, key, targets)[0], 1)
    monkeypatch.setattr(contraction, "_relabel", unsigned)
    report = check_contraction(3, 2)
    assert "1 - g o f = ds + sd" in [c.name for c in report.checks if not c.passed]


def test_s_columns_are_filled_once_per_orbit(cold_caches, monkeypatch):
    # the keys that check_contraction fills are closed under the
    # permutations of the vertices 1..n, so the fused sum runs once per orbit
    fused = []
    s_fused = contraction._s_fused
    counted = lambda n, key: fused.append(key) or s_fused(n, key)
    monkeypatch.setattr(contraction, "_s_fused", counted)
    assert check_contraction(3, 4).all_passed
    assert contraction._s_monomial.cache_info().currsize == 406
    assert len(fused) == len(set(fused)) == 91


def _records(report):
    return [(c.name, c.basis_size, c.passed, c.counterexample) for c in report.checks]


def _failures(report):
    return [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed]


def _agrees_with_the_form_route(n, bound):
    # the oracle's records are the battery's two-sided ones, to the byte
    oracle = _records(form_route_contraction(n, bound))
    names = {record[0] for record in oracle}
    assert len(oracle) == n + 2
    return [r for r in _records(check_contraction(n, bound)) if r[0] in names] == oracle


@pytest.mark.parametrize("n, bound", [(0, 1), (1, 6), (2, 4), (3, 3), (4, 2)])
def test_residuals_agree_with_the_form_route(n, bound):
    assert _agrees_with_the_form_route(n, bound)


def test_residuals_agree_with_the_form_route_under_mutations(cold_caches, monkeypatch):
    with monkeypatch.context() as patch:
        _doubled_s(patch)
        assert _agrees_with_the_form_route(2, 2)
        assert _agrees_with_the_form_route(3, 2)
    contraction._s_monomial.cache_clear()
    relabel = contraction._relabel
    monkeypatch.setattr(contraction, "_relabel", lambda n, key, targets: (relabel(n, key, targets)[0], 1))
    assert not form_route_contraction(3, 2).all_passed
    assert _agrees_with_the_form_route(3, 2)


def test_negated_h2_fails_the_records_that_read_it(cold_caches, monkeypatch):
    # s is summed from the h columns, so the s records fail with the
    # Poincare record at vertex 2, and no other
    h = contraction._h_monomial
    negated = lambda n, i, key: -h(n, i, key) if i == 2 else h(n, i, key)
    monkeypatch.setattr(contraction, "_h_monomial", negated)
    assert _failures(check_contraction(3, 2)) == [
        ("1 - g o f = ds + sd", 80, "1 t3"),
        ("s o s = 0", 80, "1 dt1 dt2"),
        ("s o g = 0 on the cochain basis", 15, "basis cochain of face (0, 1)"),
        ("1 - eval@2 = d h^2 + h^2 d", 80, "1 t3"),
    ]


def test_the_poincare_residual_reads_eval(cold_caches, monkeypatch):
    # eval_1(m) is f m at the vertex 1, the position 1 of the simplex: drop
    # that entry of every f image, and every record that reads f fails
    def without_vertex_1(a):
        c = project_f(a)
        return Cochain._reduced(c.complex, {p: v for p, v in c.num.items() if p != 1}, c.den)

    monkeypatch.setattr(contraction, "project_f", without_vertex_1)
    assert _failures(check_contraction(3, 2)) == [
        ("f o g = 1 on the cochain basis", 15, "basis cochain of face (1,)"),
        ("1 - g o f = ds + sd", 80, "1"),
        ("1 - eval@1 = d h^1 + h^1 d", 80, "1"),
    ]
    assert _agrees_with_the_form_route(3, 2)


def test_the_battery_builds_no_form_per_side(cold_caches, monkeypatch):
    # each identity is one integer residual: no two sides are compared as
    # Forms and no h^i image is reduced to one; f o g compares Cochains
    def refuse(*args):
        raise AssertionError("a Form per side")

    monkeypatch.setattr(Form, "__eq__", refuse)
    monkeypatch.setattr(contraction, "h_operator", refuse)
    report = check_contraction(3, 2)
    assert len(report.checks) == 10 and report.all_passed


def test_the_battery_hands_the_kernel_no_zero(monkeypatch):
    # a zero face-integral column of f and a zero s column are no part of
    # their sums (in check_contraction(3, 4) f handed _sum 895 zero columns
    # and s 294 while every column was a part); f o s = 0 and s o s = 0 hand
    # _cancels the nonzero f and s columns of the keys of s m only
    general, cancels = SparseVector._sum.__func__, SparseVector._cancels.__func__
    zeros, tests = [], []

    def counted(cls, space, parts, den=1):
        zeros.extend(v for _, v in parts if not v)
        return general(cls, space, parts, den)

    def counted_cancels(cls, parts):
        tests.append(cls)
        zeros.extend(v for _, v in parts if not v)
        return cancels(cls, parts)

    monkeypatch.setattr(SparseVector, "_sum", classmethod(counted))
    monkeypatch.setattr(SparseVector, "_cancels", classmethod(counted_cancels))
    report = check_contraction(3, 4)
    assert report.all_passed
    assert len(zeros) == 0
    size = report.checks[2].basis_size
    assert tests == [Cochain] * size + [Form] * size


def test_d_builds_a_form_only_for_each_row(monkeypatch):
    # d s m and d h^i m are added into their residuals from the numerators
    # of the cached columns, so differential runs once per basis monomial,
    # for its own d m
    calls = []
    monkeypatch.setattr(contraction, "differential", lambda a: calls.append(a) or differential(a))
    report = check_contraction(3, 2)
    assert report.all_passed and report.checks[1].basis_size == 80
    assert len(calls) == 80 and all(len(a.num) == 1 for a in calls)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: h_operator(Form.zero(2), 3), "vertex index 3 out of range for dimension 2"),
        (lambda: h_operator(Form.zero(2), -1), "vertex index -1 out of range for dimension 2"),
        (lambda: check_contraction(-1, 4), "need n >= 0 and max_poly_degree >= 1"),
        (lambda: check_contraction(1, 0), "need n >= 0 and max_poly_degree >= 1"),
    ],
    ids=["h-above", "h-below", "negative-dimension", "zero-degree"],
)
def test_range_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
