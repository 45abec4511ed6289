import io
import sys
from fractions import Fraction
from itertools import product

import pytest
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from simplicial_transfer.cochains import (
    Cochain,
    format_cochain,
    interval_basis_components,
    standard_simplex,
)
from simplicial_transfer.complexes import OrderedComplex, check_whitney_conditions
from simplicial_transfer.forms import Form, parse_form
from simplicial_transfer.rationals import SparseVector, bernoulli_number, factorial
from simplicial_transfer import complexes, transfer
from simplicial_transfer.tensorwords import shuffle
from simplicial_transfer.transfer import (
    ComplexContraction,
    SimplexContraction,
    _G,
    _insertion_parts,
    _m,
    _multilinear,
    _sum,
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    interval_product_table,
    morphism_G,
    p_polynomial_sequence,
    transferred_m,
    transferred_m_trees,
)
from simplicial_transfer.trees import enumerate_trees, evaluate_tree_m, path_trees

from global_oracle import GlobalFormContraction
from helpers import (
    basis_cochains,
    evaluate_tree_G,
    homogeneous_degree,
    poly,
    relation_value,
    tree_ids,
)


def interval_letters():
    t = Cochain.basis_element(standard_simplex(1), (1,))
    dt = Cochain.basis_element(standard_simplex(1), (0, 1))
    return t, dt


def dt_coefficient(cochain):
    one, t, dt = interval_basis_components(cochain)
    assert one == 0 and t == 0
    return dt


def test_arity_one_is_the_coboundary():
    bundle = SimplexContraction(1)
    x0 = Cochain.basis_element(standard_simplex(1), (0,))
    assert transferred_m(bundle, (x0,)) == -1 * Cochain.basis_element(standard_simplex(1), (0, 1))


def test_a_letter_of_another_dimension_is_rejected():
    bundle = SimplexContraction(2)
    x0 = Cochain.basis_element(standard_simplex(1), (0,))
    for word in [(x0,), (Cochain.basis_element(standard_simplex(2), (0,)), x0)]:
        for op in (transferred_m, morphism_G, relation_value):
            with pytest.raises(ValueError, match="complex mismatch"):
                op(bundle, word)


@pytest.mark.parametrize(
    "op", [transferred_m, morphism_G, transferred_m_trees], ids=["m", "G", "trees"]
)
def test_a_mixed_letter_is_the_sum_of_its_homogeneous_parts(op):
    # an operation is linear in each letter: every face of a mixed cochain
    # carries its own degree
    simplex = standard_simplex(2)

    def x(*face):
        return Cochain.basis_element(simplex, face)

    mixed = x(0) + x(0, 1)
    parts = (x(0), x(0, 1))
    for head, tail in [((), (x(1, 2),)), ((x(2),), (x(1, 2),))]:
        left, right = (op(SimplexContraction(2), head + (part,) + tail) for part in parts)
        assert op(SimplexContraction(2), head + (mixed,) + tail) == left + right, (head, tail)


def test_binary_product_on_interval():
    bundle = SimplexContraction(1)
    t, dt = interval_letters()
    assert transferred_m(bundle, (t, t)) == Cochain.basis_element(standard_simplex(1), (1,))
    assert dt_coefficient(transferred_m(bundle, (t, dt))) == Fraction(1, 2)
    assert dt_coefficient(transferred_m(bundle, (dt, t))) == Fraction(-1, 2)


def test_ternary_product_reproduces_b2():
    bundle = SimplexContraction(1)
    t, dt = interval_letters()
    assert dt_coefficient(transferred_m(bundle, (t, dt, dt))) == Fraction(1, 12)
    assert not transferred_m(bundle, (t, t, dt))
    assert not transferred_m(bundle, (t, dt, dt, dt))


def test_morphism_components():
    bundle = SimplexContraction(1)
    t, dt = interval_letters()
    assert morphism_G(bundle, (dt,)) == parse_form("dt1", 1)
    assert not morphism_G(bundle, (t, t))
    assert morphism_G(bundle, (t, dt)) == parse_form("1/2 t1 + -1/2 t1^2", 1)


def test_tree_sum_agrees_with_recursion():
    bundle = SimplexContraction(1)
    basis = basis_cochains(bundle)
    for n in range(1, 5):
        for word in product(basis, repeat=n):
            assert transferred_m(bundle, word) == transferred_m_trees(bundle, word)


def test_tree_sum_agrees_with_recursion_on_the_triangle():
    bundle = SimplexContraction(2)
    basis = basis_cochains(bundle)
    for n in range(1, 4):
        for word in product(basis, repeat=n):
            assert transferred_m(bundle, word) == transferred_m_trees(bundle, word)


@pytest.mark.parametrize("dim, max_arity", [(1, 4), (2, 3)])
def test_morphism_components_equal_the_H_rooted_tree_sum(dim, max_arity):
    bundle = SimplexContraction(dim)
    basis = basis_cochains(bundle)
    for n in range(2, max_arity + 1):
        for word in product(basis, repeat=n):
            ids = tree_ids(bundle, word)
            total = bundle.zero_A()
            for tree in enumerate_trees(n):
                total = total + evaluate_tree_G(tree, ids, bundle)
            assert morphism_G(bundle, word) == total


def test_single_vertex_tree_matches_morphism_component():
    bundle = SimplexContraction(1)
    (two_leaf,) = enumerate_trees(2)
    t, dt = interval_letters()
    assert not evaluate_tree_G(two_leaf, tree_ids(bundle, (t, t)), bundle)
    assert evaluate_tree_G(two_leaf, tree_ids(bundle, (t, dt)), bundle) == parse_form(
        "1/2 t1 + -1/2 t1^2", 1
    )
    for a in basis_cochains(bundle):
        for b in basis_cochains(bundle):
            assert evaluate_tree_G(two_leaf, tree_ids(bundle, (a, b)), bundle) == morphism_G(
                bundle, (a, b)
            )


def test_path_trees_carry_the_product():
    # on words dt^i, t, dt^(n-i) every contributing binary tree is a path
    # tree and contributes (-1)^i times the value on (t, dt, ..., dt)
    bundle = SimplexContraction(1)
    t, dt = interval_letters()
    for n in (1, 2, 4):
        base = transferred_m(bundle, (t,) + (dt,) * n)
        for i in range(n + 1):
            word = (dt,) * i + (t,) + (dt,) * (n - i)
            expected_sign = -1 if i % 2 else 1
            total = bundle._zero
            for tree in path_trees(n + 1, i + 1):
                contribution = evaluate_tree_m(tree, tree_ids(bundle, word), bundle)
                assert contribution == expected_sign * base
                total = total + contribution
            assert total == transferred_m(bundle, word)


def test_structure_relations_interval():
    report = check_a_infinity(SimplexContraction(1), 4)
    assert report.all_passed, report.to_text()


def test_structure_relations_triangle():
    report = check_a_infinity(SimplexContraction(2), 3)
    assert report.all_passed, report.to_text()


def test_morphism_relations_interval():
    report = check_morphism(SimplexContraction(1), 3)
    assert report.all_passed, report.to_text()


def test_shuffle_vanishing_interval():
    report = check_c_infinity(SimplexContraction(1), 3)
    assert report.all_passed, report.to_text()


def test_unitality_interval():
    report = check_unital(SimplexContraction(1), 3)
    assert report.all_passed, report.to_text()
    bundle = SimplexContraction(1)
    assert bundle.unit_B() == Cochain.unit(standard_simplex(1))


@pytest.mark.parametrize(
    "make_bundle",
    [
        lambda: SimplexContraction(2),
        lambda: GlobalFormContraction(OrderedComplex([0, 1, 2], [[0, 1], [1, 2]])),
    ],
    ids=["simplex", "complex"],
)
def test_wrong_unit_fails_the_unit_record(make_bundle):
    bundle = make_bundle()
    assert check_unital(bundle, 2).all_passed
    bundle.unit_B = lambda: 2 * Cochain.unit(bundle.complex)
    (record,) = [
        c
        for c in check_unital(bundle, 2).checks
        if c.name == "unit is the sum of vertex indicators"
    ]
    assert not record.passed
    assert record.counterexample.startswith("f(1) = ")


def _unit_failures(unit: str, letters: int):
    return [
        ("unit is the sum of vertex indicators", 1, f"f(1) = {unit}"),
        (
            "binary unit laws",
            letters,
            "letter x(0): e*b=face=[0] coeff=2, signed b*e=face=[0] coeff=2",
        ),
        ("morphism sends unit to 1", 1, "g does not send the unit to 1"),
    ]


@pytest.mark.parametrize(
    "dim, expected",
    [
        (0, _unit_failures("face=[0] coeff=2", 1)),
        (1, _unit_failures("face=[0] coeff=2; face=[1] coeff=2", 3)),
        (2, _unit_failures("face=[0] coeff=2; face=[1] coeff=2; face=[2] coeff=2", 7)),
    ],
)
def test_a_doubled_unit_fails_with_these_counterexamples(dim, expected):
    # the unit enters every word linearly, so the arity >= 3 records still
    # vanish on twice the unit; the f(1), binary and g(e) records do not
    bundle = SimplexContraction(dim)
    bundle.unit_B = lambda: 2 * Cochain.unit(bundle.complex)
    assert _failing(check_unital(bundle, 3)) == expected


def test_broken_signs_fail_with_counterexample():
    report = check_a_infinity(SimplexContraction(1, koszul_signs=False), 2)
    assert not report.all_passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].counterexample


@pytest.mark.parametrize("dim, max_arity", [(1, 5), (2, 3)])
def test_the_sign_flag_changes_no_operation_or_component(dim, max_arity):
    # koszul_signs reaches only the insertion sums of the batteries: the
    # blocks of m_n and G_n have even parity, so they carry no slotwise sign
    signed, unsigned = SimplexContraction(dim), SimplexContraction(dim, koszul_signs=False)
    basis = signed.basis_ids()
    assert unsigned.basis_ids() == basis
    for n in range(1, max_arity + 1):
        for word in product(basis, repeat=n):
            assert _m(unsigned, word) == _m(signed, word), word
            assert _G(unsigned, word) == _G(signed, word), word


def _failing(report):
    return [(c.name, c.basis_size, c.counterexample) for c in report.checks if not c.passed]


def _doubled_on(op, bundle, faces):
    """op, doubled on the one basis word of ``bundle`` with these faces."""

    def doubled(b, ids):
        value = op(b, ids)
        if b is bundle and tuple(b._faces[i] for i in ids) == faces:
            return value + value
        return value

    return doubled


def _records(report):
    return [(c.name, c.basis_size, c.passed, c.counterexample) for c in report.checks]


def test_a_doubled_value_fails_at_the_first_shuffle_counterexample(monkeypatch):
    # m_2 is doubled on one word and G_3 on another, so exactly their two
    # records fail; a failing record counts the shuffle pairs up to and
    # including its first failure, as the shuffle sweep names it, and a
    # passing one all (n - 1) 3^n pairs
    bundle = SimplexContraction(1)
    monkeypatch.setattr(transfer, "_m", _doubled_on(transfer._m, bundle, ((0,), (0, 1))))
    monkeypatch.setattr(transfer, "_G", _doubled_on(transfer._G, bundle, ((0,), (0, 1), (0, 1))))
    assert _records(check_c_infinity(bundle, 3)) == [
        (
            "operation vanishes on shuffles, arity 2",
            3,
            False,
            "(x(0)) shuffle (x(0,1)) gives face=[0,1] coeff=1/2",
        ),
        ("morphism vanishes on shuffles, arity 2", 9, True, None),
        ("operation vanishes on shuffles, arity 3", 54, True, None),
        (
            "morphism vanishes on shuffles, arity 3",
            9,
            False,
            "(x(0)) shuffle (x(0,1), x(0,1)) gives -1/12 t1 + 1/4 t1^2 + -1/6 t1^3",
        ),
    ]


def test_a_failing_shuffle_record_sums_only_its_failing_pair(monkeypatch):
    # the shuffle sweep of a failing record decides each pair by _cancels
    # and sums the parts of its first failing pair alone, for the text
    bundle = SimplexContraction(1)
    monkeypatch.setattr(transfer, "_m", _doubled_on(transfer._m, bundle, ((0,), (0, 1))))
    monkeypatch.setattr(transfer, "_G", _doubled_on(transfer._G, bundle, ((0,), (0, 1), (0, 1))))
    check_c_infinity(bundle, 3)
    calls = []
    sweep = transfer._shuffle_cases.__code__

    def counted(zero, parts, den=1):
        if sys._getframe(1).f_code is sweep:
            calls.append(len(parts))
        return _sum(zero, parts, den)

    monkeypatch.setattr(transfer, "_sum", counted)
    report = check_c_infinity(bundle, 3)
    assert len(calls) == sum(not c.passed for c in report.checks) == 2


def test_a_doubled_G_value_fails_the_morphism_record_with_its_text(monkeypatch):
    # a word is one residual, and only a failing word forms lhs and rhs: the
    # first word whose insertion sum reads the doubled G_3 fails the arity-3
    # record with the text recorded while each word compared two forms
    bundle = SimplexContraction(1)
    monkeypatch.setattr(transfer, "_G", _doubled_on(transfer._G, bundle, ((0,), (0, 1), (0, 1))))
    assert _records(check_morphism(bundle, 3)) == [
        ("morphism relation at arity 1", 3, True, None),
        ("morphism relation at arity 2", 9, True, None),
        (
            "morphism relation at arity 3",
            3,
            False,
            "word=(x(0), x(0), x(0,1)) lhs=-1/2 t1 + 1 t1^2 + -1/2 t1^3 "
            "rhs=-7/12 t1 + 5/4 t1^2 + -2/3 t1^3",
        ),
    ]


def test_a_failure_is_never_reported_as_a_pass(monkeypatch):
    # with every shuffle emptied the shuffle sums all vanish; the record
    # still fails, on the word where theta^T phi != n phi, after all 9 pairs
    bundle = SimplexContraction(1)
    monkeypatch.setattr(transfer, "_m", _doubled_on(transfer._m, bundle, ((0,), (0, 1))))
    monkeypatch.setattr(transfer, "shuffle", lambda u, v, degree_of: {})
    assert _failing(check_c_infinity(bundle, 2)) == [
        (
            "operation vanishes on shuffles, arity 2",
            10,
            "word=(x(0), x(0,1)) theta^T phi - 2 phi = face=[0,1] coeff=-1/2",
        )
    ]


def test_a_passing_record_forms_no_shuffle(monkeypatch):
    # the (n - 1) B^n shuffle sums run only to name a failure
    calls = []

    def counted(u, v, degree_of):
        calls.append((u, v))
        return shuffle(u, v, degree_of)

    monkeypatch.setattr(transfer, "shuffle", counted)
    assert check_c_infinity(SimplexContraction(2), 3).all_passed
    assert calls == []
    bundle = SimplexContraction(2)
    monkeypatch.setattr(transfer, "_m", _doubled_on(transfer._m, bundle, ((0,), (0, 1, 2))))
    assert not check_c_infinity(bundle, 3).all_passed
    assert calls


def test_every_battery_reads_its_words_from_the_sweep(monkeypatch):
    # transfer._words is the one place that lists basis words, so each
    # battery asks it for the arity of every record it writes: a unit-slot
    # word of arity n is a slot and a word of arity n - 1, and the binary
    # unit laws sweep arity 1.  whitney-check reads its letter pairs from
    # the local sweep of m_2 instead and asks _words for the triples only
    asked = []
    words = transfer._words

    def recorded(bundle, n):
        asked.append(n)
        return words(bundle, n)

    monkeypatch.setattr(transfer, "_words", recorded)
    monkeypatch.setattr(complexes, "_words", recorded)
    bundle = SimplexContraction(1)
    for battery, arities in (
        (check_a_infinity, {1, 2, 3}),
        (check_morphism, {1, 2, 3}),
        (check_c_infinity, {2, 3}),
        (check_unital, {1, 2}),
    ):
        asked.clear()
        assert battery(bundle, 3).all_passed
        assert set(asked) == arities, battery.__name__
    asked.clear()
    sweep = ComplexContraction.local_sweep
    swept = []

    def recorded_sweep(bundle, k):
        swept.append(k)
        return sweep(bundle, k)

    monkeypatch.setattr(ComplexContraction, "local_sweep", recorded_sweep)
    assert check_whitney_conditions(standard_simplex(2)).all_passed
    assert set(asked) == {3}
    assert swept == [2]
    # a failing shuffle record names its pair from the sweep too: the Dynkin
    # sweeps of m and G at arity 2, and between them the shuffle sums of m
    failing = SimplexContraction(1)
    monkeypatch.setattr(transfer, "_m", _doubled_on(transfer._m, failing, ((0,), (0, 1))))
    asked.clear()
    assert not check_c_infinity(failing, 2).all_passed
    assert asked == [2, 2, 2]


def _bracketing_rows(degrees, n):
    """theta^T - n, as rows {word: coefficient} indexed by word."""
    rows = {w: {w: -n} for w in product(range(len(degrees)), repeat=n)}
    for w in rows:
        for target, sign in transfer._bracketing(w, degrees):
            row = rows[target]
            row[w] = row.get(w, 0) + sign
    return list(rows.values())


def _shuffle_rows(degrees, n):
    letters = range(len(degrees))
    return [
        shuffle(u, v, degrees.__getitem__)
        for p in range(1, n)
        for u in product(letters, repeat=p)
        for v in product(letters, repeat=n - p)
    ]


def _rank(rows, n_letters, n):
    columns = {w: j for j, w in enumerate(product(range(n_letters), repeat=n))}
    # the sparse rank takes no empty row, such as that of a sh a for an odd a
    rows = [{columns[w]: QQ(c) for w, c in row.items() if c} for row in rows]
    rows = [row for row in rows if row]
    return DomainMatrix(dict(enumerate(rows)), (len(rows), len(columns)), QQ).rank()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("degrees", [(0, 0), (0, 1), (1, 1), (1, 0, 1), (0, 0, 1, 1)])
def test_dynkin_equations_have_the_solutions_of_the_shuffle_equations(degrees, n):
    # Ree and Dynkin-Specht-Wever: phi kills every shuffle iff theta^T phi =
    # n phi.  Equal ranks of both systems and of the two stacked mean equal
    # solution spaces, over Q, for the bracketing the battery expands
    shuffles = _shuffle_rows(degrees, n)
    dynkin = _bracketing_rows(degrees, n)
    ranks = [_rank(rows, len(degrees), n) for rows in (shuffles, dynkin, shuffles + dynkin)]
    assert ranks[0] == ranks[1] == ranks[2], ranks
    # a solution is a Lie superalgebra element: 3 of them on 2 even letters
    # at arity 4 (Witt's formula), 20 on {1, 0, 1} and 64 on {0, 0, 1, 1}
    expected = {((0, 0), 4): 16 - 3, ((1, 0, 1), 4): 61, ((0, 0, 1, 1), 4): 192}
    assert ranks[0] == expected.get((degrees, n), ranks[0])


@pytest.mark.parametrize("dim", [1, 2])
def test_the_shuffle_sums_vanish_to_arity_4(dim):
    # the definition itself, as a cross-check of the Dynkin sweep
    bundle = SimplexContraction(dim)
    for n in range(2, 5):
        for op, zero, render in (
            (_m, bundle._zero, format_cochain),
            (_G, bundle.zero_A(), bundle.render_A),
        ):
            assert transfer._dynkin_failure(bundle, n, op, zero) is None
            assert not any(transfer._shuffle_cases(bundle, n, op, zero, render))


def test_a_doubled_value_fails_both_sweeps():
    bundle = SimplexContraction(2)
    words = list(product(bundle.basis_ids(), repeat=3))
    for op, zero, render in (
        (_m, bundle._zero, format_cochain),
        (_G, bundle.zero_A(), bundle.render_A),
    ):
        word = next(w for w in words if op(bundle, w))
        doubled = _doubled_on(op, bundle, tuple(bundle._faces[i] for i in word))
        assert transfer._dynkin_failure(bundle, 3, doubled, zero) is not None
        assert any(transfer._shuffle_cases(bundle, 3, doubled, zero, render))


def _patch_m_off_by_the_first_letter(monkeypatch):
    # summed over the vertices of the unit in the first slot, the extra
    # letters add up to the unit
    m = transfer._m

    def off_by_the_first_letter(bundle, ids):
        value = m(bundle, ids)
        return value + bundle.letter(ids[0]) if len(ids) == 3 else value

    monkeypatch.setattr(transfer, "_m", off_by_the_first_letter)


def test_unit_word_counterexample_names_its_letters(monkeypatch):
    _patch_m_off_by_the_first_letter(monkeypatch)
    unit = "face=[0] coeff=1; face=[1] coeff=1"
    assert _failing(check_unital(SimplexContraction(1), 3)) == [
        (
            "operations of arity 3 vanish on the unit",
            1,
            f"word=(Cochain(1, '{unit}'), x(0), x(0)) gives {unit}",
        ),
    ]


def test_a_unit_that_is_one_basis_letter_is_named_by_it(monkeypatch):
    # on the 0-simplex f(1) is x(0) itself
    _patch_m_off_by_the_first_letter(monkeypatch)
    assert _failing(check_unital(SimplexContraction(0), 3)) == [
        (
            "operations of arity 3 vanish on the unit",
            1,
            "word=(x(0), x(0), x(0)) gives face=[0] coeff=1",
        ),
    ]


@pytest.mark.parametrize("max_arity", range(2, 7))
def test_the_interval_text_is_what_write_text_writes(max_arity):
    # the table's text, read twice, is the streamed text: the header, one
    # line per word of arity 2..max_arity, then the records
    table = interval_product_table(max_arity)
    stream = io.StringIO()
    table.write_text(stream.write)
    text = table.to_text()
    assert text == stream.getvalue() == table.to_text()
    assert text.startswith(table.header + "\n")
    assert text.count("\n  m(") == sum(2**n for n in range(2, max_arity + 1))


def test_interval_table_reports_a_failing_bernoulli_check(monkeypatch):
    m = transfer._m

    def tripled(bundle, ids):
        value = m(bundle, ids)
        return 3 * value if len(ids) == 3 else value

    monkeypatch.setattr(transfer, "_m", tripled)
    table = interval_product_table(5)
    assert not table.all_passed
    assert _failing(table) == [
        (
            "dt coefficient of m(t,dt,...,dt) has magnitude |B_n|/n!",
            2,
            "m(t,dt,dt) = 1/4 dt, expected magnitude 1/12",
        ),
    ]


def test_interval_table_reports_a_word_outside_the_one_t_family(monkeypatch):
    # dt added to m of every arity-3 word with two t's; the nested calls, on
    # shorter words or on the engine of a vertex, pass unchanged
    m = transfer._m

    def with_dt(bundle, ids):
        value = m(bundle, ids)
        faces = [bundle._faces[i] for i in ids]
        if len(ids) == 3 and faces.count((1,)) == 2:
            return value + bundle.letter(bundle._ids[(0, 1)])
        return value

    monkeypatch.setattr(transfer, "_m", with_dt)
    assert _failing(interval_product_table(4)) == [
        ("all words outside the one-t family vanish", 3, "m(t,t,dt) = 1 dt"),
    ]


def test_a_component_string_names_each_nonzero_component():
    assert transfer._component_string((Fraction(-1, 2), 0, 0)) == "-1/2"
    assert transfer._component_string((2, 1, Fraction(3, 4))) == "2 + 1 t + 3/4 dt"
    assert transfer._component_string((0, 0, 0)) == "0"


def test_interval_table():
    table = interval_product_table(5)
    assert table.all_passed, table.to_text()
    lookup = dict(table.entries)
    assert lookup["t,t"] == "1 t"
    assert lookup["t,dt,dt"] == "1/12 dt"
    assert lookup["t,t,dt"] == "0"
    assert lookup["t,dt,dt,dt"] == "0"
    assert len(table.findings) == 2
    with pytest.raises(ValueError):
        interval_product_table(1)


def test_interval_table_sends_only_the_counted_words_to_the_engine(monkeypatch):
    # the table's own calls are the outermost ones; the join rule's calls on
    # the standard-simplex engines nest inside them
    m = transfer._m
    top_level = []
    depth = [0]

    def traced(bundle, ids):
        if not depth[0]:
            top_level.append((bundle, ids))
        depth[0] += 1
        try:
            return m(bundle, ids)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(transfer, "_m", traced)
    table = interval_product_table(12)
    (bundle,) = {id(b): b for b, _ in top_level}.values()
    words = [ids for _, ids in top_level]
    degrees = bundle._degrees
    assert not any(bundle.vanishes_in_degree(sum(degrees[i] for i in ids) + 2) for ids in words)
    # one or two t's among n letters, n = 2..12
    assert len(words) == len(set(words)) == 363
    # the rows are generated on each read, as often as they are read
    assert sum(1 for _ in table.entries) == sum(1 for _ in table.entries) == 8188
    assert [rec.basis_size for rec in table.checks] == [1, 11, 8110, 10]
    assert table.all_passed


@pytest.mark.parametrize(
    "max_arity, sizes",
    [(2, [1, 1, 1, 2]), (5, [1, 4, 45, 10]), (8, [1, 7, 472, 10]), (12, [1, 11, 8110, 10])],
)
def test_interval_table_skip_agrees_with_the_full_route(max_arity, sizes):
    # every word, the count-zeroed ones too, through _m as the table
    # evaluated it before it asked the count
    bundle = SimplexContraction(1)
    t, dt = bundle._ids[(1,)], bundle._ids[(0, 1)]
    expected = [
        (
            ",".join("t" if i == t else "dt" for i in ids),
            transfer._component_string(interval_basis_components(transfer._m(bundle, ids))),
        )
        for n in range(2, max_arity + 1)
        for ids in product((t, dt), repeat=n)
    ]
    table = interval_product_table(max_arity)
    assert table.entries.names == ("word", "value")
    assert list(table.entries) == expected
    assert [rec.basis_size for rec in table.checks] == sizes


def test_interval_table_asks_the_count_once_per_class(monkeypatch):
    # the table's own vanishes_in_degree calls are those outside _m: at most
    # n + 1 per arity n, 88 to arity 12, against one per basis word
    m, vanishes_in_degree = transfer._m, ComplexContraction.vanishes_in_degree
    depth = [0]
    calls = [0]

    def traced(bundle, ids):
        depth[0] += 1
        try:
            return m(bundle, ids)
        finally:
            depth[0] -= 1

    def counted(bundle, degree):
        if not depth[0]:
            calls[0] += 1
        return vanishes_in_degree(bundle, degree)

    monkeypatch.setattr(transfer, "_m", traced)
    monkeypatch.setattr(ComplexContraction, "vanishes_in_degree", counted)
    assert interval_product_table(12).all_passed
    assert 0 < calls[0] <= 88


@pytest.mark.parametrize(
    "word, max_arity",
    [(("dt", "dt", "t", "dt", "t", "dt"), 8), (("dt", "dt", "dt", "t", "dt", "dt", "t"), 7)],
)
def test_the_outside_record_agrees_with_the_full_sweep(monkeypatch, word, max_arity):
    # dt is added to m of one late two-t word of the interval; every other
    # call, the engines' included, passes unchanged.  The oracle is the
    # sweep over every word in product order, each through _m, counting the
    # outside words up to the first nonzero one
    m = transfer._m
    faces = tuple((1,) if letter == "t" else (0, 1) for letter in word)

    def planted(bundle, ids):
        value = m(bundle, ids)
        if tuple(bundle._faces[i] for i in ids) == faces:
            return value + bundle.letter(bundle._ids[(0, 1)])
        return value

    monkeypatch.setattr(transfer, "_m", planted)
    name = "all words outside the one-t family vanish"
    bundle = SimplexContraction(1)
    t, dt = bundle._ids[(1,)], bundle._ids[(0, 1)]

    def sweep():
        size = 0
        for n in range(2, max_arity + 1):
            for ids in product((t, dt), repeat=n):
                if ids == (t, t) or ids.count(t) == 1:
                    continue
                size += 1
                if value := transfer._m(bundle, ids):
                    components = interval_basis_components(value)
                    label = ",".join("t" if i == t else "dt" for i in ids)
                    return name, size, f"m({label}) = {transfer._component_string(components)}"
        return name, size, None

    expected = sweep()
    assert expected[2] == f"m({','.join(word)}) = 1 dt"
    (record,) = [rec for rec in interval_product_table(max_arity).checks if rec.name == name]
    assert (record.name, record.basis_size, record.counterexample) == expected


def test_p_polynomials():
    seq = p_polynomial_sequence(8)
    assert seq.polys[0] == poly(0, 1)
    assert seq.polys[1] == poly(0, Fraction(-1, 2), Fraction(1, 2))
    assert seq.matches_closed_form()
    assert seq.integral_identities()
    # b_2 = -(the raw integral of p_2) = 1/12 = B_2/2!
    assert seq.integrals[1] == Fraction(1, 12)
    assert seq.integrals[1] == bernoulli_number(2) / factorial(2)


def test_the_p_sequence_starts_at_one():
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        p_polynomial_sequence(0)


def test_memoization_is_shared_within_a_bundle():
    bundle = SimplexContraction(1)
    t, dt = interval_letters()
    before = len(bundle._memo_G)
    transferred_m(bundle, (t, dt, dt, dt, dt))
    mid = len(bundle._memo_G)
    transferred_m(bundle, (t, dt, dt, dt, dt))
    assert mid > before
    assert len(bundle._memo_G) == mid


# antipodal pairs (0,1), (2,3), (4,5); a triangle picks one of each pair
OCTAHEDRON = OrderedComplex(
    range(6), [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
)


def test_a_word_zeroed_by_the_count_is_not_memoised():
    # the degree count zeroes a word before the memo of m is read, and
    # nothing is stored for it.  On the interval m_3(dt, dt, dt) would be a
    # 2-cochain and m_3(t, t, t) a (-1)-cochain; on the octahedron m_3 of
    # three vertices would be a (-1)-cochain and m_2 of two triangles a
    # 4-cochain
    cases = [
        (SimplexContraction(1), [(1,), (0, 1), (0, 1)], [[(0, 1)] * 3, [(1,)] * 3]),
        (
            ComplexContraction(OCTAHEDRON),
            [(0,), (0, 2)],
            [[(0,), (2,), (4,)], [(0, 2, 4), (1, 3, 5)]],
        ),
    ]
    for bundle, word, zeroed in cases:
        letters = {face: Cochain.basis_element(bundle.complex, face) for face in bundle._faces}
        assert transferred_m(bundle, tuple(map(letters.__getitem__, word)))
        before = dict(bundle._memo_m)
        assert before
        for faces in zeroed:
            assert not transferred_m(bundle, tuple(map(letters.__getitem__, faces)))
            assert bundle._memo_m == before


@pytest.mark.parametrize(
    "dim, max_arity, words, vanishing",
    [(1, 5, 363, 328), (2, 4, 2800, 1206), (3, 3, 3615, 676)],
)
def test_the_count_zeroes_G_or_fixes_its_form_degree(dim, max_arity, words, vanishing):
    # G_n has degree 0 on shifted degrees, so G_n(w) is a form of degree
    # sum_j (dim F_j - 1) + 1: zero when that lies outside 0..dim, and zero
    # or homogeneous of that degree otherwise
    bundle = SimplexContraction(dim)
    degrees = bundle._degrees
    seen = zeroed = 0
    for n in range(1, max_arity + 1):
        for word in product(bundle.basis_ids(), repeat=n):
            degree = sum(degrees[i] for i in word) + 1
            value = _G(bundle, word)
            seen += 1
            if not 0 <= degree <= dim:
                zeroed += 1
                assert not value, word
            elif value:
                assert homogeneous_degree(value) == degree, word
    assert (seen, zeroed) == (words, vanishing)


def test_the_memos_hold_no_word_the_count_zeroes():
    # G_n, n >= 2, is answered with zero and not stored where its form
    # degree sum + 1 or its cut products' form degree sum + 2 lies outside
    # 0..N, and so are the cut products of degree sum + 2 outside it.  The
    # G memo sizes are those after the four batteries; storing every G word
    # of degree sum + 1 in 0..N gives 1,594 and 2,939
    for dim, max_arity, g_words in ((2, 4, 1336), (3, 3, 2419)):
        bundle = SimplexContraction(dim)
        for battery in (check_a_infinity, check_morphism, check_c_infinity, check_unital):
            assert battery(bundle, max_arity).all_passed
        degrees = bundle._degrees
        assert len(bundle._memo_G) == g_words
        for key in bundle._memo_G:
            total = sum(degrees[i] for i in key)
            assert len(key) == 1 or 0 <= total + 1 and total + 2 <= dim, key
        assert bundle._memo_cut
        for key in bundle._memo_cut:
            assert 0 <= sum(degrees[i] for i in key) + 2 <= dim, key


def test_memo_holds_only_basis_words():
    # the batteries put no one-off letter into the memos: every key is a
    # word of basis ids, one-letter words included, so each memo holds at
    # most 7 + 7^2 + 7^3 = 399 words
    bundle = SimplexContraction(2)
    for battery in (check_a_infinity, check_morphism, check_c_infinity, check_unital):
        assert battery(bundle, 3).all_passed
    basis = set(bundle.basis_ids())
    assert len(basis) == 7
    for memo in (bundle._memo_G, bundle._memo_m, bundle._memo_cut):
        assert 0 < len(memo) <= 399
        for key in memo:
            assert 1 <= len(key) <= 3 and set(key) <= basis, key


# -- the insertion sum on letters, as before the basis expansion ------------


def _trees_G_on_ids(bundle, ids):
    if len(ids) == 1:
        return bundle.g(bundle.letter(ids[0]))
    total = bundle.zero_A()
    for tree in enumerate_trees(len(ids)):
        total = total + evaluate_tree_G(tree, ids, bundle)
    return total


def _trees_G(bundle, word):
    """G_n on a word of cochains as the sum over H-rooted trees, expanded in
    the basis like ``transferred_m_trees``."""
    return _multilinear(bundle, word, _trees_G_on_ids, bundle.zero_A())


def _insertions_by_letters(bundle, word, outer, zero):
    """sum_{k,j} +- outer(b_1..b_j, m_k(b_{j+1}..b_{j+k}), ..., b_n) with
    m_k(...) inserted as one cochain; tree sums stand for m and G, so no
    memo of the engine is read."""
    n = len(word)
    degrees = [homogeneous_degree(c) - 1 for c in word]
    total = zero
    for k in range(1, n + 1):
        for j in range(0, n - k + 1):
            inner = transferred_m_trees(bundle, word[j : j + k])
            if not inner:
                continue
            term = outer(bundle, word[:j] + (inner,) + word[j + k :])
            if bundle.koszul_signs and sum(degrees[:j]) % 2:
                term = -term
            total = total + term
    return total


@pytest.mark.parametrize("koszul_signs", [True, False], ids=["signs", "no-signs"])
@pytest.mark.parametrize("dim, max_arity", [(1, 4), (2, 3)])
def test_insertions_match_the_sum_over_letters(dim, max_arity, koszul_signs):
    bundle = SimplexContraction(dim, koszul_signs=koszul_signs)
    oracle = SimplexContraction(dim, koszul_signs=koszul_signs)
    letters = basis_cochains(bundle)
    ids = bundle.basis_ids()
    for n in range(1, max_arity + 1):
        for picks in product(range(len(ids)), repeat=n):
            word = tuple(letters[p] for p in picks)
            id_word = tuple(ids[p] for p in picks)
            assert relation_value(bundle, word) == _insertions_by_letters(
                oracle, word, transferred_m_trees, oracle._zero
            ), word
            assert _sum(bundle.zero_A(), *_insertion_parts(bundle, id_word, _G)) == (
                _insertions_by_letters(oracle, word, _trees_G, oracle.zero_A())
            ), word


def test_the_insertion_sums_hand_the_kernel_no_zero(monkeypatch):
    # a zero image is no part of an insertion sum or a unit word, a cut
    # product that cancels and a zero s column are no part either, and a
    # morphism word is one residual of its nonzero parts; so no battery
    # hands Cochain._sum or Form._sum a zero part (on the triangle the unit
    # laws alone handed them 405 and 321 while every image was a part); the
    # residual test _cancels is handed no zero part either
    general, cancels = SparseVector._sum.__func__, SparseVector._cancels.__func__
    calls, tests, zeros = {}, {}, {}

    def counted(cls, space, parts, den=1):
        calls[cls] = calls.get(cls, 0) + 1
        zeros[cls] = zeros.get(cls, 0) + sum(1 for _, v in parts if not v)
        return general(cls, space, parts, den)

    def counted_cancels(cls, parts):
        tests[cls] = tests.get(cls, 0) + 1
        zeros[cls] = zeros.get(cls, 0) + sum(1 for _, v in parts if not v)
        return cancels(cls, parts)

    monkeypatch.setattr(SparseVector, "_sum", classmethod(counted))
    monkeypatch.setattr(SparseVector, "_cancels", classmethod(counted_cancels))
    for dim in (2, 3):
        bundle = SimplexContraction(dim)
        for battery in (check_a_infinity, check_morphism, check_c_infinity, check_unital):
            assert battery(bundle, 3).all_passed
            assert zeros == {cls: 0 for cls in zeros}, (dim, battery.__name__)
        assert calls.pop(Cochain, 0) and calls.pop(Form, 0)
        assert tests.pop(Cochain, 0) and tests.pop(Form, 0)
        # the algebra zero is stored once, as the cochain zero is
        assert bundle.zero_A() is bundle.zero_A()


def test_the_batteries_negate_no_vector(monkeypatch):
    # a sign rides in a part's coefficient: H sums the negated s columns and
    # each cut product carries the sign of its m_2, so no value is built
    # only to be negated
    negations = []
    neg = SparseVector.__neg__
    monkeypatch.setattr(SparseVector, "__neg__", lambda v: negations.append(v) or neg(v))
    bundle = SimplexContraction(2)
    assert check_a_infinity(bundle, 3).all_passed and check_morphism(bundle, 3).all_passed
    assert len(negations) == 0


def _live_words(bundle, max_arity, offset):
    """The words of arity 1..max_arity whose degree, offset plus the sum of
    the letters' shifted degrees, lies in 0..dim, read from the degree
    table alone."""
    degrees = bundle._degrees
    return [
        word
        for n in range(1, max_arity + 1)
        for word in product(bundle.basis_ids(), repeat=n)
        if 0 <= sum(degrees[i] for i in word) + offset <= bundle.dim
    ]


@pytest.mark.parametrize(
    "dim, words, structure, morphism, shortcut",
    [(2, 399, 246, 318, 99), (3, 3615, 1958, 2722, 828)],
)
def test_a_relation_reaches_a_residual_only_on_words_of_a_live_degree(
    monkeypatch, dim, words, structure, morphism, shortcut
):
    # every term of the structure relation on w has degree Sigma(w) + 3 and
    # every term of the morphism relation Sigma(w) + 2, so a battery asks
    # the zero rule once per word and builds a residual only where that
    # degree lies in 0..N; where the morphism relation's Sigma(w) + 3 lies
    # above N, every outer G of arity >= 2 is zero, and the insertion sum is
    # g(m_n(w)), read without a slice sweep
    residuals, sweeps = [], []
    cancels, insertion_parts = SparseVector._cancels.__func__, transfer._insertion_parts

    def counted_cancels(cls, parts):
        residuals.append(cls)
        return cancels(cls, parts)

    def counted_parts(bundle, ids, outer):
        sweeps.append(ids)
        return insertion_parts(bundle, ids, outer)

    monkeypatch.setattr(SparseVector, "_cancels", classmethod(counted_cancels))
    monkeypatch.setattr(transfer, "_insertion_parts", counted_parts)
    bundle = SimplexContraction(dim)
    live = {offset: _live_words(bundle, 3, offset) for offset in (2, 3)}
    swept = set(live[3])
    assert len(live[3]) == structure
    assert len(live[2]) == morphism
    assert len(set(live[2]) - swept) == shortcut
    report = check_a_infinity(bundle, 3)
    assert report.all_passed and sum(rec.basis_size for rec in report.checks) == words
    assert residuals == [Cochain] * structure and sweeps == live[3]
    residuals.clear()
    sweeps.clear()
    report = check_morphism(bundle, 3)
    assert report.all_passed and sum(rec.basis_size for rec in report.checks) == words
    assert residuals == [Form] * morphism
    assert sweeps == [word for word in live[2] if word in swept]


class _NoZeroRule(SimplexContraction):
    """The simplex bundle with a zero rule that zeroes nothing: every word
    of every battery reaches its residual, and every value is built."""

    def vanishes_in_degree(self, degree: int) -> bool:
        return False


@pytest.mark.parametrize("koszul_signs", [True, False], ids=["signs", "no-signs"])
@pytest.mark.parametrize("dim, max_arity", [(1, 5), (2, 3)])
def test_the_zero_rule_moves_no_record(dim, max_arity, koszul_signs):
    # a word the zero rule passes would pass its residual too: each record
    # has the same name, basis size, verdict and counterexample with the
    # rule switched off, the failing ones of the unsigned insertion sums
    # included
    verdicts = []
    for battery in (check_a_infinity, check_morphism, check_c_infinity, check_unital):
        ruled = battery(SimplexContraction(dim, koszul_signs=koszul_signs), max_arity)
        unruled = battery(_NoZeroRule(dim, koszul_signs=koszul_signs), max_arity)
        assert _records(ruled) == _records(unruled), battery.__name__
        verdicts.append(ruled.all_passed)
    assert all(verdicts) == koszul_signs


def test_a_warm_battery_reduces_nothing(monkeypatch):
    # once the memos are filled, a passing word is decided by _cancels alone:
    # a second run of the four batteries builds no sum.  The unit f(1) is
    # the bundle's own map f, one project_f, so it is taken from the first
    # run
    bundle = SimplexContraction(2)
    batteries = (check_a_infinity, check_morphism, check_c_infinity, check_unital)
    first = [battery(bundle, 3).to_json_dict() for battery in batteries]
    unit = bundle.unit_B()
    monkeypatch.setattr(bundle, "unit_B", lambda: unit)
    general = SparseVector._sum.__func__
    calls = []

    def counted(cls, space, parts, den=1):
        calls.append(cls)
        return general(cls, space, parts, den)

    monkeypatch.setattr(SparseVector, "_sum", classmethod(counted))
    for battery, report in zip(batteries, first):
        assert battery(bundle, 3).to_json_dict() == report
        assert calls == [], battery.__name__
