"""Finite ordered simplicial complexes as input: the JSON formats of a
complex (``load_complex``) and of a cochain on it (read by ``load_cochain``
and ``cochain_from_records``, written by ``cochain_records``), the cup-like
product, and the classical product conditions.

Complexes and their cochains are those of ``cochains``.  Forms, g, f and
Dupont's homotopy H are levelwise and natural for face inclusions (Dupont
1976; Cheng-Getzler, section 3), so no form on the whole complex is needed:
for k >= 2, m_k on basis cochains e_{F_1}, ..., e_{F_k} is mu * e_U on the
union U of their supports, zero unless U is a simplex of the right
dimension, with mu read from the standard simplex of dimension dim U
through U's face table (the join rule of ``transfer``).  ``cup`` and the
product conditions each build one ``ComplexContraction`` of their complex,
which memoises m_k per word, and read cochains and key tables by letter id
as the engine does; the transferred operations on any word of cochains are
``transfer.transferred_m`` on ``ComplexContraction(K)``, and a caller who
multiplies many cochains on one complex calls it on one bundle, whose memo
then serves every product.

The product conditions read m_2 by a local sweep, not pair by pair.  The
mu table of a dimension d lists, once per process, the (d + 1) 2^d pairs
of faces of the standard d-simplex that span it in the degree of m_2, each
with its nonzero mu.  The bundle's face table gives, for each simplex x,
the letter ids of its faces in that simplex's letter order, so the sweep
maps each simplex's mu table to words of the complex and stores mu * e_x
for each: sum_d f_d (d + 1) 2^d words, every nonzero product exactly once
(150 of the 676 letter pairs on the octahedron).  Every other pair is zero
by the join rule, so locality skips it, commutativity too unless its
transpose is swept, and Leibniz unless it is a swept word with one factor
cut to a facet (``check_whitney_conditions``); unit law and witness do not.

The product f(ga ^ gb) = (-1)^{deg a} m_2(a, b) is the arity-2 case, summed
by bilinearity; on basis cochains it is the Whitney structure constant

    c_n(sigma, tau) = integral over the n-simplex of w_sigma ^ w_tau,
    (a cup b)(s) = sum of a(sigma) b(tau) c_{dim s}(sigma, tau)

over faces sigma, tau of s with deg sigma + deg tau = dim s, read in local
positions of s.  The constant is nonzero exactly when sigma and tau share
one vertex v and together span s, and then

    c_n(sigma, tau) = (-1)^j sgn(sigma, tau - v) p! q! / (n + 1)!,

with p = deg sigma, q = deg tau, j the position of v in tau, and sgn the
sign of the permutation that sorts sigma followed by tau without v.  So the
product of two indicator cochains lives on at most one simplex, their join.
It is graded commutative, local (supported on common stars), satisfies the
Leibniz rule, and has the constant 0-cochain as identity, but it is not
associative; the ternary transferred operation is the correcting homotopy,
which the battery checks through the structure relation at arity three.
"""

from __future__ import annotations

import json

from .cochains import Cochain, ComplexFormatError, OrderedComplex
from .rationals import _accumulate, _linear, parse_rational, rational_str
from .reporting import Report
from .transfer import (
    ComplexContraction,
    _cancels,
    _face_label,
    _family_report,
    _insertion_parts,
    _m,
    _multilinear,
    _words,
)

__all__ = [
    "load_complex",
    "complex_from_data",
    "cup",
    "check_whitney_conditions",
    "cochain_records",
    "cochain_from_records",
    "load_cochain",
]


def complex_from_data(data: dict) -> OrderedComplex:
    if not isinstance(data, dict) or "vertices" not in data or "simplices" not in data:
        raise ComplexFormatError('expected {"vertices": [...], "simplices": [[...]]}')
    vertices, simplices = data["vertices"], data["simplices"]
    if not isinstance(vertices, list) or any(isinstance(v, (list, dict)) for v in vertices):
        raise ComplexFormatError('"vertices" must be a list of vertex labels')
    if not isinstance(simplices, list):
        raise ComplexFormatError('"simplices" must be a list of vertex index lists')
    for simplex in simplices:
        _check_simplex(simplex)
    return OrderedComplex(vertices, simplices)


def _check_simplex(value) -> None:
    if not isinstance(value, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in value
    ):
        raise ComplexFormatError(f"simplex {value!r} must be a list of vertex indices")


def _load_json(text: str, build):
    """build(json.loads(text)), with every failure to parse as
    ComplexFormatError: malformed JSON, an integer literal too long to
    convert, and nesting deeper than the recursion limit, which both the
    decoder and the repr of a bad value in an error message can hit."""
    try:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ComplexFormatError(f"invalid JSON: {exc}") from exc
        return build(data)
    except RecursionError:
        raise ComplexFormatError("JSON nested too deeply") from None


def load_complex(text: str) -> OrderedComplex:
    """Parse the JSON complex format {"vertices": [...], "simplices": [[...]]}."""
    return _load_json(text, complex_from_data)


def cup(a: Cochain, b: Cochain) -> Cochain:
    """The product f(ga ^ gb), expanded bilinearly through the signed m_2
    on letter ids; by the join rule each pair of simplices contributes at
    most to their join (see the module docstring).  Each call builds one
    bundle of the complex, and of its face table only the rows it reads,
    and shares nothing with other calls: to multiply many cochains on one
    complex, call ``transfer.transferred_m`` on one ``ComplexContraction``
    (m_2 there is unsigned, cup = (-1)^{deg a} m_2 for a of one degree)."""
    bundle = ComplexContraction(a.complex)
    return _multilinear(bundle, (a, b), _signed_m2, bundle._zero)


def _signed_m2(bundle, ids: tuple[int, int]) -> Cochain:
    """(-1)^{deg sigma} m_2(e_sigma, e_tau) on the letter ids of sigma, tau."""
    value = _m(bundle, ids)
    return value if not value or bundle._degrees[ids[0]] % 2 else -value


def check_whitney_conditions(complex_: OrderedComplex) -> Report:
    """The classical product conditions for a ⊔ b = f(ga ^ gb), checked over
    every pair of basis cochains, plus the homotopy certificate for its
    failure of associativity.  The products are read once into one sparse
    table, the signed m_2 of the words that the bundle's local sweep names
    (module docstring), and every other pair reads zero.  The unit law,
    graded commutativity and the associativity test are integer
    combinations of its entries decided by ``_cancels``, and Leibniz adds
    the coboundary of an entry from the coface lists of the complex.

    A residual on (s, t) reads (s, t), for commutativity also (t, s), for
    Leibniz also (p, t) and (s, p) for the cofaces p of s and of t: it is
    zero unless one of these was swept.  So each record walks in product
    order only the swept words, commutativity also their transposes, and
    Leibniz also (f, b) and (a, f) for each swept (a, b) and facet f of a
    or of b (a face-table entry one degree below its simplex).  It reports
    all B^2 pairs if it passes, else the rank s B + t + 1 of its first
    failing pair (s, t) in ``_words(bundle, 2)``, where a full sweep stops.

    A nonassociative triple is demanded exactly when the complex has an
    edge; on a discrete complex the product is honestly associative.  The
    certificate, the structure relation on the first such triple over B^3
    triples, decides its insertion parts by ``_cancels`` and sums nothing.
    """
    bundle = ComplexContraction(complex_)
    simplices = complex_.simplices
    ids = bundle.basis_ids()
    dims = [len(s) - 1 for s in simplices]
    labels = [_face_label(s) for s in simplices]
    basis_text = f"{len(ids)} basis cochains on {len(simplices)} simplices"
    report = _family_report("cup product conditions", 2, 3, basis_text)
    zero = bundle._zero
    swept = bundle.local_sweep(2)
    products = {word: _signed_m2(bundle, word) for word in swept}
    get = products.get

    # locality: the product lives in the star of both supports, that is on
    # simplices that contain the vertices of both
    vertex_sets = [frozenset(s) for s in simplices]

    def locality_case(s, t):
        star = vertex_sets[s] | vertex_sets[t]
        holds = all(star <= vertex_sets[p] for p in get((s, t), zero).num)
        return None if holds else f"{labels[s]} cup {labels[t]} leaves the common star"

    _check_pairs(report, "product is supported on common stars", swept, locality_case, len(ids))

    # Leibniz with the sign of the left degree, as one unreduced integer
    # residual rhs - lhs per pair over den(s cup t): the coboundary of a
    # basis cochain is its coface list, the nonzero products are read from
    # the table, and -delta(s cup t) is added from the coface lists of its
    # terms; with no nonzero part that is the whole residual
    cofaces = complex_.cofaces()
    facets = [[f for f in bundle.face_table[x] if dims[f] == dims[x] - 1] for x in ids]
    near = [[(f, b) for f in facets[a]] + [(a, f) for f in facets[b]] for a, b in swept]
    leibniz_words = set(swept).union(*near)

    def leibniz_case(s, t):
        value = get((s, t), zero)
        sign = -1 if dims[s] % 2 else 1
        parts = [(x * value.den, v) for p, x in cofaces[s] if (v := get((p, t)))]
        parts += [(sign * y * value.den, v) for p, y in cofaces[t] if (v := get((s, p)))]
        out, common = _linear(parts) if parts else ({}, 1)
        for p, c in value.num.items():
            _accumulate(out, cofaces[p], -c * common)
        return f"delta({labels[s]} cup {labels[t]}) mismatch" if out else None

    name = "coboundary is a signed derivation of the product"
    _check_pairs(report, name, leibniz_words, leibniz_case, len(ids))

    # the unit is the sum of the vertices: sum_v v cup b - b and its mirror
    vertices = [v for v in ids if dims[v] == 0]

    def unit_cases():
        for s in ids:
            letter = (-1, bundle.letter(s))
            left = [(1, get((v, s), zero)) for v in vertices] + [letter]
            right = [(1, get((s, v), zero)) for v in vertices] + [letter]
            holds = _cancels(zero, left) and _cancels(zero, right)
            yield None if holds else f"unit law fails on {labels[s]}"

    report.check("constant 0-cochain is the identity", unit_cases())

    # graded commutativity (unshifted degrees)
    def commutativity_case(s, t):
        left, right = get((s, t), zero), get((t, s), zero)
        sign = -1 if dims[s] * dims[t] % 2 else 1
        holds = _cancels(zero, [(1, left), (-sign, right)])
        return None if holds else f"{labels[s]} cup {labels[t]} not graded commutative"

    words = {(t, s) for s, t in swept}.union(swept)
    _check_pairs(report, "product is graded commutative", words, commutativity_case, len(ids))

    # nonassociativity witness plus its homotopy certificate: (r cup s) cup t
    # and r cup (s cup t) expanded through the table
    def associator(r, s, t):
        left, right = get((r, s), zero), get((s, t), zero)
        parts = [(c * right.den, get((p, t), zero)) for p, c in left.num.items()]
        parts += [(-c * left.den, get((r, p), zero)) for p, c in right.num.items()]
        return not _cancels(zero, parts)

    name = "nonassociativity witness with homotopy certificate"
    witness = next((word for word in _words(bundle, 3) if associator(*word)), None)
    if witness is None:
        has_edge = any(dim >= 1 for dim in dims)
        failure = "no nonassociative triple found" if has_edge else None
    else:
        witness_labels = tuple(labels[i] for i in witness)
        name += " (" + ", ".join(witness_labels) + ")"
        parts, _ = _insertion_parts(bundle, witness, _m)
        holds = _cancels(zero, parts)
        failure = None if holds else f"structure relation fails on the witness {witness_labels}"
    report.check(name, [failure], len(ids) ** 3)
    return report


def _check_pairs(report: Report, name: str, words, case, letters: int) -> None:
    """Record ``case`` on ``words`` in product order, by the rank rule above."""
    for s, t in sorted(words):
        failure = case(s, t)
        if failure is not None:
            report.check(name, [failure], s * letters + t + 1)
            return
    report.check(name, (), letters * letters)


# -- cochain files ---------------------------------------------------------


def cochain_records(c: Cochain) -> dict:
    return {
        "entries": [
            {"simplex": list(s), "coeff": rational_str(coeff)}
            for s, coeff in c.terms.items()
        ]
    }


def cochain_from_records(data: dict, complex_: OrderedComplex) -> Cochain:
    shape = 'expected {"entries": [{"simplex": [...], "coeff": "p/q"}]}'
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ComplexFormatError(shape)
    pairs = {}
    for entry in data["entries"]:
        if not isinstance(entry, dict) or "simplex" not in entry or "coeff" not in entry:
            raise ComplexFormatError(f"{shape}, got entry {entry!r}")
        _check_simplex(entry["simplex"])
        simplex = tuple(entry["simplex"])
        if simplex in pairs:
            raise ComplexFormatError(f"duplicate simplex {entry['simplex']}")
        pairs[simplex] = parse_rational(entry["coeff"])
    return Cochain(complex_, pairs)


def load_cochain(text: str, complex_: OrderedComplex) -> Cochain:
    return _load_json(text, lambda data: cochain_from_records(data, complex_))
