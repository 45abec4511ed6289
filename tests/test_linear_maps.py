"""The cached tables behind f, g, h^i and s against their uncached
definitions, and the invariants of the trusted Form construction the kernels
use."""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer.cochains import (
    Cochain,
    elementary_form,
    include_g,
    project_f,
    standard_simplex,
)
from simplicial_transfer.contraction import _h_monomial, h_operator, s_operator
from simplicial_transfer.forms import (
    Form,
    differential,
    generator,
    monomial_basis,
    wedge,
)
from simplicial_transfer.rationals import factorial

from helpers import integrate_face


def test_cached_f_matches_face_integration():
    for dim, max_degree in ((0, 4), (1, 4), (2, 4), (3, 4), (4, 3)):
        for m in monomial_basis(dim, max_degree):
            oracle = Cochain(standard_simplex(dim), {F: integrate_face(m, F) for F in standard_simplex(dim).simplices})
            assert project_f(m) == oracle, m
            # a second call reads the table
            assert project_f(m) == oracle, m


def test_cached_maps_drop_cancelled_terms():
    # dt1 and 2 t1 dt1 both integrate to 1 over the interval
    a = Form(1, {((0,), (1,)): 1, ((1,), (1,)): -2, ((1,), ()): 1})
    assert project_f(a).terms == {(1,): 1}
    # g(x(0)) = 1 - t1 and g(x(1)) = t1
    assert include_g(Cochain(standard_simplex(1), {(0,): 1, (1,): 1})).terms == {((0,), ()): 1}


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
        for face in standard_simplex(dim).simplices:
            expected = _wedge_built_elementary_form(face, dim)
            assert elementary_form(face, dim) == expected, face
            assert elementary_form(list(face), dim) == expected, face
            assert include_g(Cochain.basis_element(standard_simplex(dim), face)) == expected, face


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
        include_g(Cochain(standard_simplex(dim), {face: 5, (1,): 1})),
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
    kernels = (wedge(a, b), differential(a), a + b, a - a, -b, Fraction(2, 3) * a)
    homotopies = (h_operator(a, 0), h_operator(b, 2), s_operator(a), s_operator(a - a))
    for result in kernels + homotopies:
        assert _is_clean(result)
        assert result == Form(result.dim, result.terms)
    assert not a - a


def _dilation_images(n, i):
    """Images of t_1..t_n, dt_1..dt_n under the dilation toward vertex i, in
    the algebra of the (n+1)-simplex whose last index plays (u, du)."""
    ext = n + 1

    def var(*indices):
        return tuple(indices.count(j) for j in range(1, ext + 1))

    zero, u = var(), var(ext)
    t_img, dt_img = {}, {}
    for j in range(1, n + 1):
        tj, tj_u = var(j), var(j, ext)
        # t_j -> (1-u) t_j + delta_ij u,  dt_j -> (1-u) dt_j + (delta_ij - t_j) du
        t_terms = {(tj, ()): 1, (tj_u, ()): -1}
        dt_terms = {(zero, (j,)): 1, (u, (j,)): -1, (tj, (ext,)): -1}
        if j == i:
            t_terms[(u, ())] = 1
            dt_terms[(zero, (ext,))] = 1
        t_img[j], dt_img[j] = Form(ext, t_terms), Form(ext, dt_terms)
    return t_img, dt_img


def _pullback_h(n, i, exps, dts):
    """h^i of one monomial by pulling it back along the dilation with wedges,
    keeping the du-linear part and integrating u over [0, 1]."""
    t_img, dt_img = _dilation_images(n, i)
    ext = n + 1
    acc = Form.one(ext)
    for pos, e in enumerate(exps):
        for _ in range(e):
            acc = wedge(acc, t_img[pos + 1])
    for s in dts:
        acc = wedge(acc, dt_img[s])
    out = {}
    for (ext_exps, ext_dts), coeff in acc.terms.items():
        if ext not in ext_dts:
            continue
        rest = ext_dts[:-1]  # du carries the largest index, so it sits last
        # move du to the front, integrate u, and apply the global sign -1
        sign = 1 if len(rest) % 2 else -1
        key = (ext_exps[:-1], rest)
        out[key] = out.get(key, 0) + sign * coeff / (ext_exps[-1] + 1)
    return Form(n, out)


def test_closed_form_h_matches_the_pullback():
    cases = 0
    for dim, max_degree in ((0, 4), (1, 4), (2, 4), (3, 4), (4, 2)):
        for m in monomial_basis(dim, max_degree):
            ((exps, dts),) = m.terms
            for i in range(dim + 1):
                (key,) = m.num
                assert _h_monomial(dim, i, key) == _pullback_h(dim, i, exps, dts), (m, i)
                cases += 1
    assert cases == 2521


def _chain_by_chain_s(a):
    """s_n(a) = sum_k (-1)^k sum_{i_0<...<i_k} w_{i_0..i_k} h^{i_k}...h^{i_0}(a),
    every chain evaluated from a itself."""
    n = a.dim
    total = Form.zero(n)
    for k in range(n):
        for face in combinations(range(n + 1), k + 1):
            chain = a
            for vertex in face:
                chain = h_operator(chain, vertex)
            total = total + (-1) ** k * wedge(elementary_form(face, n), chain)
    return total


def test_prefix_shared_s_matches_chain_by_chain():
    # on Δ³ and Δ⁴ most columns are relabelled from their orbit's
    # representative, so this also checks the relabelling and its sign
    for dim, max_degree in ((0, 4), (1, 4), (2, 4), (3, 3), (4, 2)):
        for m in monomial_basis(dim, max_degree):
            assert s_operator(m) == _chain_by_chain_s(m), m
    mixed = Form(3, {((1, 0, 2), (1, 3)): 2, ((0, 1, 0), (2,)): Fraction(-1, 3)})
    assert s_operator(mixed) == _chain_by_chain_s(mixed)
