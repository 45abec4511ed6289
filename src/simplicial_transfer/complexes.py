"""Finite ordered simplicial complexes: global cochains, the cup-like
product, and the transferred operations read off single simplices.

A complex is given by totally ordered vertices and maximal simplices; the
closure stores every face.  Forms, g, f and Dupont's homotopy H are
levelwise and natural for face inclusions (Dupont 1976; Cheng-Getzler,
section 3), so no form on the whole complex is needed: for k >= 2, m_k on
basis cochains e_{F_1}, ..., e_{F_k} is mu * e_U on the union U of their
supports, zero unless U is a simplex of the right dimension, with mu read
from the standard simplex of dimension dim U (the join rule of
``transfer``, which the single-simplex bundle reads too).

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
from itertools import combinations

from .rationals import SparseVector, _accumulate, parse_rational, rational_str
from .reporting import VerificationReport
from .tensorwords import Homog
from .transfer import Contraction, _join_rule, _m, _relation_value, transferred_m

__all__ = [
    "OrderedComplex",
    "GlobalCochain",
    "ComplexContraction",
    "ComplexFormatError",
    "load_complex",
    "complex_from_data",
    "global_coboundary",
    "cup",
    "transferred_global_m",
    "check_whitney_conditions",
    "global_cochain_records",
    "global_cochain_from_records",
    "load_global_cochain",
]

Simplex = tuple[int, ...]


class ComplexFormatError(ValueError):
    pass


class OrderedComplex:
    """Finite simplicial complex with totally ordered vertices.

    Vertices are arbitrary labels; simplices are stored as strictly
    increasing tuples of vertex indices, and the closure contains every
    nonempty face of every maximal simplex.
    """

    __slots__ = ("vertices", "maximal", "simplices", "_hash", "_cofaces", "_contraction")

    def __init__(self, vertices, maximal):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ComplexFormatError("duplicate vertex labels")
        closure: set[Simplex] = set()
        maximal_clean: list[Simplex] = []
        for simplex in maximal:
            simplex = tuple(simplex)
            if any(simplex[i] >= simplex[i + 1] for i in range(len(simplex) - 1)):
                raise ComplexFormatError(f"simplex {list(simplex)} is not increasing")
            if not simplex:
                raise ComplexFormatError("empty simplex")
            if simplex[0] < 0 or simplex[-1] >= len(vertices):
                raise ComplexFormatError(f"simplex {list(simplex)} has unknown vertex")
            if simplex in maximal_clean:
                raise ComplexFormatError(f"duplicate simplex {list(simplex)}")
            maximal_clean.append(simplex)
            for k in range(1, len(simplex) + 1):
                closure.update(combinations(simplex, k))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "maximal", tuple(maximal_clean))
        object.__setattr__(
            self, "simplices", tuple(sorted(closure, key=lambda s: (len(s), s)))
        )
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cofaces", None)
        object.__setattr__(self, "_contraction", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrderedComplex is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrderedComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vertices, self.simplices))
            object.__setattr__(self, "_hash", h)
        return h

    def cofaces(self) -> dict[Simplex, tuple[tuple[Simplex, int], ...]]:
        """Every simplex of the closure mapped to its codimension-one cofaces,
        each with the sign (-1)^j of the vertex position j it adds; built on
        first use."""
        table = self._cofaces
        if table is None:
            lists: dict[Simplex, list] = {s: [] for s in self.simplices}
            for simplex in self.simplices:
                if len(simplex) < 2:
                    continue
                for j in range(len(simplex)):
                    face = simplex[:j] + simplex[j + 1 :]
                    lists[face].append((simplex, -1 if j % 2 else 1))
            table = {s: tuple(c) for s, c in lists.items()}
            object.__setattr__(self, "_cofaces", table)
        return table

    def contraction(self) -> "ComplexContraction":
        """The cochain-side bundle of the complex, built on first use."""
        bundle = self._contraction
        if bundle is None:
            bundle = ComplexContraction(self)
            object.__setattr__(self, "_contraction", bundle)
        return bundle

    def star(self, simplices) -> set[Simplex]:
        """All simplices having some member of the given set as a face,
        found by walking up the coface table."""
        cofaces = self.cofaces()
        found = {tuple(s) for s in simplices} & cofaces.keys()
        frontier = list(found)
        while frontier:
            for coface, _ in cofaces[frontier.pop()]:
                if coface not in found:
                    found.add(coface)
                    frontier.append(coface)
        return found

    def __repr__(self) -> str:
        return f"OrderedComplex(vertices={list(self.vertices)}, maximal={[list(m) for m in self.maximal]})"


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


class GlobalCochain(SparseVector, space="complex", mismatch="complex mismatch"):
    """Rational coefficients on the simplices of a complex."""

    __slots__ = ("complex",)

    @staticmethod
    def _check_key(complex_: OrderedComplex, simplex) -> Simplex:
        simplex = tuple(simplex)
        if simplex not in complex_.cofaces():  # keyed by every simplex
            raise ValueError(f"simplex {list(simplex)} not in the complex")
        return simplex

    @staticmethod
    def _degree(simplex: Simplex) -> int:
        return len(simplex) - 1

    @classmethod
    def unit(cls, complex_: OrderedComplex) -> "GlobalCochain":
        return cls(complex_, {s: 1 for s in complex_.simplices if len(s) == 1})

    def support(self) -> set[Simplex]:
        return set(self.num)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{list(s)}: {rational_str(c)}"
            for s, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )
        return f"GlobalCochain({{{entries}}})"


def global_coboundary(c: GlobalCochain) -> GlobalCochain:
    """(delta c)(v_0...v_k) = sum_j (-1)^j c(v_0...omit j...v_k), computed
    by pushing each coefficient of c to the cofaces of its simplex."""
    cofaces = c.complex.cofaces()
    out: dict[Simplex, int] = {}
    for simplex, coeff in c.num.items():
        _accumulate(out, cofaces[simplex], coeff)
    return GlobalCochain._reduced(c.complex, out, c.den)


class ComplexContraction(Contraction):
    """The cochain side of the transfer on a complex: the basis of
    simplices, the coboundary as m_1, and m_k for k >= 2 by the join rule,
    every union read from the process's standard-simplex engines."""

    top_dim = None  # no simplex of a complex is computed through forms

    def __init__(self, complex_: OrderedComplex):
        super().__init__(complex_)
        self.complex = complex_
        self._zero = GlobalCochain(complex_)

    def d_B(self, c: GlobalCochain) -> GlobalCochain:
        return global_coboundary(c)

    def zero_B(self) -> GlobalCochain:
        return self._zero

    def faces(self):
        return self.complex.simplices

    def basis_element(self, simplex) -> GlobalCochain:
        return GlobalCochain.basis_element(self.complex, simplex)

    render_B = staticmethod(repr)

    def m_word(self, ids: tuple[int, ...]) -> GlobalCochain:
        return _join_rule(self, ids)

    def has_simplex(self, simplex) -> bool:
        return simplex in self.complex.cofaces()  # keyed by every simplex


def cup(a: GlobalCochain, b: GlobalCochain) -> GlobalCochain:
    """The product f(ga ^ gb) = (-1)^{deg sigma} m_2(e_sigma, e_tau) on basis
    cochains, summed by bilinearity; by the join rule each pair of simplices
    contributes at most to their join (see the module docstring)."""
    if a.complex != b.complex:
        raise ValueError("complex mismatch")
    bundle = a.complex.contraction()
    parts = []
    for sigma, x in a.num.items():
        left = bundle.intern(sigma, len(sigma) - 2)
        x = x if len(sigma) % 2 else -x
        for tau, y in b.num.items():
            parts.append((x * y, _m(bundle, (left, bundle.intern(tau, len(tau) - 2)))))
    return GlobalCochain._sum(a.complex, parts, a.den * b.den)


def transferred_global_m(cochains) -> GlobalCochain:
    """The transferred operation on a word of homogeneous global cochains,
    through the complex's bundle; a word holding a zero cochain gives zero,
    by multilinearity."""
    cochains = tuple(cochains)
    if not cochains:
        raise ValueError("empty word")
    complex_ = cochains[0].complex
    if any(c.complex != complex_ for c in cochains):
        raise ValueError("complex mismatch")
    if not all(cochains):
        return GlobalCochain(complex_)
    word = []
    for c in cochains:
        degree = c.homogeneous_degree()
        if degree is None:
            raise ValueError("inputs must be homogeneous (or zero)")
        word.append(Homog(c, degree - 1))
    return transferred_m(complex_.contraction(), tuple(word))


def check_whitney_conditions(complex_: OrderedComplex) -> VerificationReport:
    """The classical product conditions for a ⊔ b = f(ga ^ gb), checked over
    every pair of basis cochains, plus the homotopy certificate for its
    failure of associativity.  The products of all pairs of basis cochains
    are computed once and every check reads them from that table.

    A nonassociative triple is demanded exactly when the complex has an
    edge; on a discrete complex the product is honestly associative.
    """
    basis = [GlobalCochain.basis_element(complex_, s) for s in complex_.simplices]
    report = VerificationReport(
        family="cup product conditions",
        arity_range=(2, 3),
        basis=f"{len(basis)} basis cochains on {len(complex_.simplices)} simplices",
    )
    products = {(a, b): cup(a, b) for a in basis for b in basis}

    def label(c: GlobalCochain) -> str:
        (simplex,) = c.support()
        return "x(" + ",".join(map(str, simplex)) + ")"

    # locality: the product lives in the star of both supports
    stars = {c: complex_.star(c.support()) for c in basis}
    report.check(
        "product is supported on common stars",
        (
            None
            if products[a, b].support() <= stars[a] & stars[b]
            else f"{label(a)} cup {label(b)} leaves the common star"
            for a in basis
            for b in basis
        ),
    )

    # Leibniz with the sign of the left degree; the coboundaries of the
    # basis are computed once, integral, and their products read from the
    # table
    of = dict(zip(complex_.simplices, basis))
    delta = {c: global_coboundary(c).num.items() for c in basis}

    def leibniz_cases():
        for a in basis:
            sign = -1 if a.homogeneous_degree() % 2 else 1
            for b in basis:
                parts = [(x, products[of[s], b]) for s, x in delta[a]]
                parts += [(sign * y, products[a, of[s]]) for s, y in delta[b]]
                rhs = GlobalCochain._sum(complex_, parts)
                lhs = global_coboundary(products[a, b])
                yield None if lhs == rhs else f"delta({label(a)} cup {label(b)}) mismatch"

    report.check("coboundary is a signed derivation of the product", leibniz_cases())

    one = GlobalCochain.unit(complex_)
    report.check(
        "constant 0-cochain is the identity",
        (
            None if cup(one, b) == b and cup(b, one) == b else f"unit law fails on {label(b)}"
            for b in basis
        ),
    )

    # graded commutativity (unshifted degrees)
    def commutativity_cases():
        for a in basis:
            i = a.homogeneous_degree()
            for b in basis:
                sign = -1 if (i * b.homogeneous_degree()) % 2 else 1
                yield (
                    None
                    if products[a, b] == sign * products[b, a]
                    else f"{label(a)} cup {label(b)} not graded commutative"
                )

    report.check("product is graded commutative", commutativity_cases())

    # nonassociativity witness plus its homotopy certificate
    name = "nonassociativity witness with homotopy certificate"
    witness = next(
        (
            (a, b, c)
            for a in basis
            for b in basis
            for c in basis
            if cup(products[a, b], c) != cup(a, products[b, c])
        ),
        None,
    )
    if witness is None:
        has_edge = any(len(s) >= 2 for s in complex_.simplices)
        failure = "no nonassociative triple found" if has_edge else None
    else:
        name += " (" + ", ".join(map(label, witness)) + ")"
        word = tuple(Homog(x, x.homogeneous_degree() - 1) for x in witness)
        residual = _relation_value(complex_.contraction(), word)
        failure = (
            f"structure relation fails on the witness {tuple(map(label, witness))}"
            if residual
            else None
        )
    report.check(name, [failure], len(basis) ** 3)
    return report


# -- cochain files ---------------------------------------------------------


def global_cochain_records(c: GlobalCochain) -> dict:
    return {
        "entries": [
            {"simplex": list(s), "coeff": rational_str(coeff)}
            for s, coeff in sorted(c.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
    }


def global_cochain_from_records(data: dict, complex_: OrderedComplex) -> GlobalCochain:
    shape = 'expected {"entries": [{"simplex": [...], "coeff": "p/q"}]}'
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ComplexFormatError(shape)
    pairs = []
    for entry in data["entries"]:
        if not isinstance(entry, dict) or "simplex" not in entry or "coeff" not in entry:
            raise ComplexFormatError(f"{shape}, got entry {entry!r}")
        _check_simplex(entry["simplex"])
        pairs.append((tuple(entry["simplex"]), parse_rational(entry["coeff"])))
    return GlobalCochain(complex_, pairs)


def load_global_cochain(text: str, complex_: OrderedComplex) -> GlobalCochain:
    return _load_json(text, lambda data: global_cochain_from_records(data, complex_))
