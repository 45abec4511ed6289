"""Helpers that only the tests use: face restriction and integration of
forms, cochain restriction, the interval basis and the record format of
single-simplex cochains, the degree of a homogeneous form or cochain,
the basis cochains of a bundle and their letter ids for tree evaluation,
the H-rooted tree composite behind G_n, formal words, their
deconcatenations and the Koszul sign of slotwise application, the
polynomials of the interval as 0-forms and the generating-function
oracle for the interval recursion on them, the left side of the
structure relation on a word of cochains, the join rule in its
union-first order, the normalized pullback of cochains along a
simplicial map, seeded flag complexes, the two-sided route of the
contraction battery, d and the vertex relabelling of packed keys by their
per-field and per-term loops, and the whitney-check records swept over
every letter pair.
They go through the package's public constructors, apart from the
relation, the join rule, the contraction route, the tree composite and
the whitney-check sweep, which read the engines they check."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Sequence

from simplicial_transfer import complexes, contraction
from simplicial_transfer.cochains import Cochain, OrderedComplex, include_g, standard_simplex
from simplicial_transfer.forms import (
    FIELD,
    _LOW,
    Form,
    _check_face,
    differential,
    format_form,
    generator,
    monomial_basis,
    wedge,
)
from simplicial_transfer.rationals import (
    SparseVector,
    _accumulate,
    _linear,
    exact,
    factorial,
    parse_rational,
    rational_str,
)
from simplicial_transfer.reporting import Report
from simplicial_transfer.transfer import (
    ComplexContraction,
    SimplexContraction,
    _cancels,
    _cut_products,
    _engine,
    _face_label,
    _family_report,
    _insertion_parts,
    _m,
    _multilinear,
    _sum,
    _words,
)
from simplicial_transfer.trees import _check_inputs, _eval_vertex


@lru_cache(maxsize=None)
def _restriction_images(dim: int, face: tuple[int, ...]):
    """Images of the stored generators t_1..t_n, dt_1..dt_n of the dim-simplex
    under pullback along the face inclusion, as forms on the face simplex."""
    k = len(face) - 1
    t_img: dict[int, Form] = {}
    dt_img: dict[int, Form] = {}
    for local, vertex in enumerate(face):
        if vertex == 0:
            continue
        t_img[vertex] = generator(k, "t", local)
        dt_img[vertex] = generator(k, "dt", local)
    return t_img, dt_img


def face_restrict(a: Form, face) -> Form:
    """Pull back along the inclusion of the face (i_0 < ... < i_k).

    Vertex i_j becomes local vertex j; generators at vertices missing from
    the face are sent to zero and the result is renormalized on the face.
    """
    face = _check_face(face, a.dim)
    k = len(face) - 1
    t_img, dt_img = _restriction_images(a.dim, face)
    in_face = set(face)
    out = Form.zero(k)
    for (exps, dts), coeff in a.terms.items():
        if any(exps[j - 1] > 0 and j not in in_face for j in range(1, a.dim + 1)):
            continue
        if any(s not in in_face for s in dts):
            continue
        acc = coeff * Form.one(k)
        for pos, e in enumerate(exps):
            j = pos + 1
            if e == 0:
                continue
            img = t_img[j]
            for _ in range(e):
                acc = wedge(acc, img)
            if not acc:
                break
        for s in dts:
            if not acc:
                break
            acc = wedge(acc, dt_img[s])
        out = out + acc
    return out


def integrate_top(a: Form) -> Fraction:
    """Integral over the whole simplex, by the Dirichlet formula

        I(t_1^{a_1}...t_n^{a_n} dt_1...dt_n) = a_1!...a_n!/(a_1+...+a_n+n)!

    Monomials that do not carry every dt factor integrate to zero.  On the
    0-simplex this is evaluation of the constant.  It reads the public
    terms, so it is an oracle for f that bypasses f's column table."""
    full = tuple(range(1, a.dim + 1))
    total = Fraction(0)
    for (exps, dts), coeff in a.terms.items():
        if dts == full:
            total += coeff * Fraction(prod(map(factorial, exps)), factorial(sum(exps) + a.dim))
    return total


def integrate_face(a: Form, face) -> Fraction:
    """Integral over the geometric face (i_0 < ... < i_k)."""
    return integrate_top(face_restrict(a, face))


def restrict_cochain(c: Cochain, face) -> Cochain:
    """Pull back along the face inclusion: local face J -> global face(J)."""
    face = _check_face(face, c.dim)
    terms = c.terms
    out = {}
    for local in standard_simplex(len(face) - 1).simplices:
        coeff = terms.get(tuple(face[j] for j in local))
        if coeff is not None:
            out[local] = coeff
    return Cochain(standard_simplex(len(face) - 1), out)


def cochain_from_interval_basis(c_one, c_t, c_dt) -> Cochain:
    """The interval cochain c_one * 1 + c_t * t + c_dt * dt, under
    1 = x(0)+x(1), t = x(1), dt = x(01)."""
    c_one, c_t, c_dt = exact(c_one), exact(c_t), exact(c_dt)
    return Cochain(standard_simplex(1), {(0,): c_one, (1,): c_one + c_t, (0, 1): c_dt})


def cochain_records(c: Cochain) -> list[dict]:
    return [
        {"face": list(face), "coeff": rational_str(coeff)}
        for face, coeff in sorted(c.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def cochain_from_records(records, dim: int) -> Cochain:
    return Cochain(standard_simplex(dim), [(tuple(r["face"]), parse_rational(r["coeff"])) for r in records])


def formal_word(names: str | Sequence[str], degrees: Sequence[int]) -> tuple:
    """Build a word of formal letters (name, degree), e.g.
    formal_word("ab", (0, 1)) == (("a", 0), ("b", 1))."""
    if len(names) != len(degrees):
        raise ValueError("one degree per letter")
    return tuple(zip(names, degrees))


def letter_degree(letter: tuple) -> int:
    """The degree of a formal letter (name, degree)."""
    return letter[1]


def koszul_sign(parities: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign for slotwise application: (-1)^(sum_{i<j} parity_j * degree_i)."""
    exponent = 0
    for i in range(len(degrees)):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, len(parities)):
            exponent += parities[j]
    return -1 if exponent % 2 else 1


def basis_cochains(bundle) -> list[Cochain]:
    """The basis cochains of a bundle, in the order of its faces."""
    return [bundle.letter(i) for i in bundle.basis_ids()]


def homogeneous_degree(v: Form | Cochain) -> int | None:
    """The degree that every term of a form or a cochain shares, read off
    its public key: the dt count of a monomial, the dimension of a simplex;
    None for zero or a mixed vector."""
    degrees = {len(key[1]) if isinstance(v, Form) else len(key) - 1 for key in v.terms}
    return degrees.pop() if len(degrees) == 1 else None


def evaluate_tree_G(tree, ids: tuple[int, ...], bundle):
    """The composite of a tree with H at the root, on a word of basis letter
    ids of the bundle; returns an algebra-side value.  Summed over the trees
    of one arity, it is the oracle for the morphism component G_n."""
    _check_inputs(tree, ids)
    _, value = _eval_vertex(tree, ids, bundle)
    return bundle.H(value)


def tree_ids(bundle, word) -> tuple[int, ...]:
    """A word of basis cochains as the word of the bundle's basis letter ids
    that tree evaluation reads; each id carries its face's shifted degree,
    len(face) - 2."""
    ids = []
    for c in word:
        ((letter_id, one),) = c.num.items()
        if (one, c.den) != (1, 1):
            raise ValueError(f"{c!r} is not a basis cochain")
        ids.append(letter_id)
    return tuple(ids)


def deconcatenations(word: tuple, k: int) -> SparseVector:
    """Sum of all splittings of a word into k nonempty blocks; no signs."""
    n = len(word)
    if not 1 <= k <= n:
        raise ValueError(f"cannot split a word of length {n} into {k} blocks")
    return SparseVector(
        None,
        {
            tuple(word[a:b] for a, b in zip((0,) + cuts, cuts + (n,))): 1
            for cuts in combinations(range(1, n), k - 1)
        },
    )


def poly(*coeffs) -> Form:
    """The 0-form sum_k coeffs[k] t^k on the 1-simplex, t = t_1."""
    return Form(1, {((k,), ()): c for k, c in enumerate(coeffs)})


def exp_series_ratio(max_order: int) -> list[Form]:
    """Coefficients in z of z*(e^{zt} - 1)/(e^z - 1), up to z^max_order.

    Entry n is a polynomial in t, a 0-form on the 1-simplex, obtained by
    formal division of truncated exponential series.  These polynomials
    equal (B_n(t) - B_n)/n!, which is how they serve as an independent
    oracle for the homotopy recursion that produces the same sequence.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    # z*(e^{zt}-1)/(e^z-1) = N(z)/Q(z) with N_n = t^n/n! (n >= 1) and
    # Q_m = 1/(m+1)!, after cancelling one factor of z.
    numer = [Form.zero(1)] + [
        Form.monomial(1, (n,), (), Fraction(1, factorial(n))) for n in range(1, max_order + 1)
    ]
    q = [Fraction(1, factorial(m + 1)) for m in range(max_order + 1)]
    out: list[Form] = []
    for k in range(max_order + 1):
        acc = numer[k]
        for j in range(k):
            acc = acc - q[k - j] * out[j]
        out.append(acc)  # q[0] == 1, no division needed
    return out


def _relation(bundle, ids: tuple[int, ...]) -> Cochain:
    """Left side of the structure relation on a basis word: the insertion
    sum with m as the outer operation, summed and reduced."""
    return _sum(bundle._zero, *_insertion_parts(bundle, ids, _m))


def relation_value(bundle, word: tuple[Cochain, ...]) -> Cochain:
    """Left side of the structure relation at the word's arity, extended
    multilinearly to a word of cochains."""
    return _multilinear(bundle, word, _relation, bundle._zero)


def _positions(sub: tuple[int, ...], ambient: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ambient.index(v) for v in sub)


def union_first_join_rule(bundle, ids: tuple[int, ...]) -> Cochain:
    """The join rule in the order it was first written: build the faces and
    their union U, then compare dim U with sum_j dim F_j + 2 - k."""
    faces = [bundle._faces[i] for i in ids]
    union = tuple(sorted(set().union(*faces)))
    n = len(union) - 1
    zero = bundle._zero
    if n != sum(len(face) - 1 for face in faces) + 2 - len(ids):
        return zero
    if union not in bundle.complex.index:
        return zero
    if n == bundle.dim and isinstance(bundle, SimplexContraction):
        return bundle.f(_cut_products(bundle, ids))
    engine = _engine(n)
    local = tuple(engine._ids[_positions(face, union)] for face in faces)
    value = _m(engine, local)
    mu = value.num.get(len(engine._faces) - 1)
    if not mu:
        return zero
    return Cochain._reduced(bundle.complex, {bundle.complex.index[union]: mu}, value.den)


def pullback(c: Cochain, source, vertex_map) -> Cochain:
    """The normalized pullback f^*c along the order-preserving simplicial
    map f from the complex ``source`` to c's complex that sends vertex index
    i to ``vertex_map[i]``: (f^*c)(s) = c(f(s)), and 0 on a simplex s whose
    image f(s) repeats a vertex, so is degenerate."""
    terms = c.terms
    out = {}
    for simplex in source.simplices:
        image = tuple(vertex_map[v] for v in simplex)
        if len(set(image)) == len(image) and image in terms:
            out[simplex] = terms[image]
    return Cochain(source, out)


def flag_complex(seed: int, vertices: int = 7) -> OrderedComplex:
    """The flag complex of a seeded random graph on 1 to 7 vertices: the
    edge probability and the edges are drawn from ``random.Random(seed)``,
    and every clique of the graph is a simplex.  The same seed gives the
    same complex on every run and Python version."""
    if not 1 <= vertices <= 7:
        raise ValueError("a flag complex here has 1 to 7 vertices")
    rng = random.Random(seed)
    vertices = range(vertices)
    density = rng.random()
    edges = {pair for pair in combinations(vertices, 2) if rng.random() < density}
    cliques = [
        clique
        for size in range(1, len(vertices) + 1)
        for clique in combinations(vertices, size)
        if all(pair in edges for pair in combinations(clique, 2))
    ]
    return OrderedComplex(vertices, cliques)


def form_route_contraction(n: int, bound: int) -> Report:
    """The two-sided identities of check_contraction, each side reduced to a
    Form and the sides compared by ==: 1 - g o f = ds + sd, and
    1 - eval@i = d h^i + h^i d at each vertex, under the battery's record
    names and over its basis.  The columns, s, h^i and f are read through
    the contraction module, and the evaluation at vertex i is f's entry at
    the 0-face (i,), as in the battery; so a test that patches one of them
    patches both routes."""
    report = Report(f"form route on the {n}-simplex")
    rows = [(m, key, differential(m)) for m in monomial_basis(n, bound) for key in m.num]

    def homotopy_cases():
        for m, key, dm in rows:
            lhs = m - include_g(contraction.project_f(m))
            rhs = differential(contraction._s_monomial(n, key)) + contraction.s_operator(dm)
            yield None if lhs == rhs else format_form(m)

    def poincare_cases(i):
        for m, key, dm in rows:
            lhs = m - contraction.project_f(m).terms.get((i,), 0) * Form.one(n)
            rhs = differential(contraction._h_monomial(n, i, key)) + contraction.h_operator(dm, i)
            yield None if lhs == rhs else format_form(m)

    report.check("1 - g o f = ds + sd", homotopy_cases(), len(rows))
    for i in range(n + 1):
        report.check(f"1 - eval@{i} = d h^{i} + h^{i} d", poincare_cases(i), len(rows))
    return report


def per_field_d_into(out: dict, dim: int, num: dict, scale: int) -> None:
    """``forms._d_into`` as it was written before its per-mask move table:
    every field of every key is read, and the sign of each move is a
    popcount of the mask bits below it."""
    if not scale:
        return
    shift = FIELD * dim
    for key, coeff in num.items():
        mask = key >> shift
        coeff *= scale
        for j in range(dim):  # the field and mask bit of t_{j+1}
            e = (key >> (FIELD * j)) & _LOW
            if not e or mask >> j & 1:
                continue
            # dt_{j+1} moves into ascending position past the smaller indices
            value = e * coeff
            if (mask & ((1 << j) - 1)).bit_count() % 2:
                value = -value
            new = key - (1 << (FIELD * j)) + (1 << (shift + j))
            held = out.get(new)
            if held is not None:
                value += held
                if not value:
                    del out[new]
                    continue
            out[new] = value


def per_term_relabel(n: int, key: int, targets: tuple[int, ...]) -> tuple[int, int]:
    """``contraction._relabel`` as it was written before its per-mask table:
    the key with vertex j + 1 renamed targets[j], and the sign of sorting
    the renamed dt factors, one field and one mask bit at a time."""
    shift = FIELD * n
    out = 0
    moved = []
    for j, v in enumerate(targets):
        out |= (key >> (FIELD * j) & _LOW) << (FIELD * (v - 1))
        if key >> (shift + j) & 1:
            out |= 1 << (shift + v - 1)
            moved.append(v)
    return out, -1 if sum(a > b for a, b in combinations(moved, 2)) % 2 else 1


def full_sweep_whitney_conditions(complex_: OrderedComplex) -> Report:
    """``check_whitney_conditions`` as it was written before its records
    walked only the words where they can fail: a product table over all B^2
    letter pairs, zero where the local sweep names no product, and the
    locality, Leibniz and commutativity records each swept over every pair.
    The signed m_2 is read through ``complexes._signed_m2`` at call time,
    so a test that patches it patches both checks."""
    bundle = ComplexContraction(complex_)
    simplices = complex_.simplices
    ids = bundle.basis_ids()
    dims = [len(s) - 1 for s in simplices]
    labels = [_face_label(s) for s in simplices]
    basis_text = f"{len(ids)} basis cochains on {len(simplices)} simplices"
    report = _family_report("cup product conditions", 2, 3, basis_text)
    zero = bundle._zero
    products = dict.fromkeys(_words(bundle, 2), zero)
    for word in bundle.local_sweep(2):
        products[word] = complexes._signed_m2(bundle, word)

    vertex_sets = [frozenset(s) for s in simplices]
    report.check(
        "product is supported on common stars",
        (
            None
            if all(vertex_sets[s] | vertex_sets[t] <= vertex_sets[p] for p in products[s, t].num)
            else f"{labels[s]} cup {labels[t]} leaves the common star"
            for s, t in _words(bundle, 2)
        ),
    )

    cofaces = complex_.cofaces()

    def leibniz_cases():
        for s, t in _words(bundle, 2):
            value = products[s, t]
            sign = -1 if dims[s] % 2 else 1
            parts = [(x * value.den, v) for p, x in cofaces[s] if (v := products[p, t])]
            parts += [(sign * y * value.den, v) for p, y in cofaces[t] if (v := products[s, p])]
            if not parts and not value:
                yield None
                continue
            out, common = _linear(parts)
            for p, c in value.num.items():
                _accumulate(out, cofaces[p], -c * common)
            yield f"delta({labels[s]} cup {labels[t]}) mismatch" if out else None

    report.check("coboundary is a signed derivation of the product", leibniz_cases())

    vertices = [v for v in ids if dims[v] == 0]

    def unit_cases():
        for s in ids:
            letter = (-1, bundle.letter(s))
            left = [(1, products[v, s]) for v in vertices] + [letter]
            right = [(1, products[s, v]) for v in vertices] + [letter]
            holds = _cancels(zero, left) and _cancels(zero, right)
            yield None if holds else f"unit law fails on {labels[s]}"

    report.check("constant 0-cochain is the identity", unit_cases())

    def commutativity_cases():
        for s, t in _words(bundle, 2):
            left, right = products[s, t], products[t, s]
            sign = -1 if dims[s] * dims[t] % 2 else 1
            yield (
                f"{labels[s]} cup {labels[t]} not graded commutative"
                if (left or right) and not _cancels(zero, [(1, left), (-sign, right)])
                else None
            )

    report.check("product is graded commutative", commutativity_cases())

    def associator(r, s, t):
        left, right = products[r, s], products[s, t]
        parts = [(c * right.den, products[p, t]) for p, c in left.num.items()]
        parts += [(-c * left.den, products[r, p]) for p, c in right.num.items()]
        return not _cancels(zero, parts)

    name = "nonassociativity witness with homotopy certificate"
    witness = next((word for word in _words(bundle, 3) if associator(*word)), None)
    if witness is None:
        has_edge = any(dim >= 1 for dim in dims)
        failure = "no nonassociative triple found" if has_edge else None
    else:
        witness_labels = tuple(labels[i] for i in witness)
        name += " (" + ", ".join(witness_labels) + ")"
        residual = _relation(bundle, witness)
        failure = f"structure relation fails on the witness {witness_labels}" if residual else None
    report.check(name, [failure], len(ids) ** 3)
    return report
