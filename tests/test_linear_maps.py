"""The cached tables behind f and g against their uncached definitions, and
the invariants of the trusted Form construction the kernels use."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer.cochains import (
    Cochain,
    basis_faces,
    elementary_form,
    include_g,
    project_f,
)
from simplicial_transfer.forms import (
    Form,
    differential,
    generator,
    integrate_face,
    monomial_basis,
    wedge,
)
from simplicial_transfer.rationals import factorial


def test_cached_f_matches_face_integration():
    for dim, max_degree in ((0, 4), (1, 4), (2, 4), (3, 4), (4, 3)):
        for m in monomial_basis(dim, max_degree):
            oracle = Cochain(dim, {F: integrate_face(m, F) for F in basis_faces(dim)})
            assert project_f(m) == oracle, m
            # a second call reads the table
            assert project_f(m) == oracle, m


def test_cached_maps_drop_cancelled_terms():
    # dt1 and 2 t1 dt1 both integrate to 1 over the interval
    a = Form(1, {((0,), (1,)): 1, ((1,), (1,)): -2, ((1,), ()): 1})
    assert project_f(a).coeffs == {(1,): 1}
    # g(x(0)) = 1 - t1 and g(x(1)) = t1
    assert include_g(Cochain(1, {(0,): 1, (1,): 1})).terms == {((0,), ()): 1}


def _wedge_built_elementary_form(face, dim):
    k = len(face) - 1
    total = Form.zero(dim)
    for j, vertex in enumerate(face):
        term = generator(dim, "t", vertex)
        for other in face[:j] + face[j + 1 :]:
            term = wedge(term, generator(dim, "dt", other))
        total = total + (-1) ** j * factorial(k) * term
    return total


def test_cached_g_matches_wedge_built_form():
    for dim in range(5):
        for face in basis_faces(dim):
            expected = _wedge_built_elementary_form(face, dim)
            assert elementary_form(face, dim) == expected, face
            assert elementary_form(list(face), dim) == expected, face
            assert include_g(Cochain.basis_element(dim, face)) == expected, face


def test_cached_forms_are_never_mutated():
    face, dim = (0, 2), 2
    cached = elementary_form(face, dim)
    before = dict(cached.terms)
    other = generator(dim, "t", 1)
    results = [
        cached + other,
        other + cached,
        cached - other,
        -cached,
        Fraction(3, 2) * cached,
        2 * cached,
        wedge(cached, other),
        wedge(other, cached),
        include_g(Cochain(dim, {face: 5, (1,): 1})),
    ]
    for result in results:
        assert result.terms is not cached.terms
    assert cached.terms == before
    assert elementary_form(face, dim).terms == before


def _forms(dim):
    keys = st.tuples(
        st.tuples(*([st.integers(0, 2)] * dim)),
        st.sets(st.integers(1, dim)).map(lambda s: tuple(sorted(s))),
    )
    coeffs = st.integers(-3, 3).map(Fraction) | st.fractions(max_denominator=4)
    return st.dictionaries(keys, coeffs, max_size=4).map(lambda t: Form(dim, t))


def _is_clean(form):
    return all(
        type(key) is tuple
        and type(key[0]) is tuple
        and type(key[1]) is tuple
        and type(coeff) is Fraction
        and coeff != 0
        for key, coeff in form.terms.items()
    )


@settings(max_examples=80, deadline=None)
@given(_forms(2), _forms(2))
def test_kernel_outputs_are_clean(a, b):
    for result in (wedge(a, b), differential(a), a + b, a - a, -b, Fraction(2, 3) * a):
        assert _is_clean(result)
        assert result == Form(result.dim, result.terms)
    assert not a - a
