"""Finite ordered simplicial complexes: global cochains, the cup-like
product, and the transferred operations assembled from single simplices.

A complex is given by totally ordered vertices and maximal simplices; the
closure stores every face.  Forms, Whitney's inclusion g, integration f and
Dupont's homotopy H are levelwise on a complex and natural for face
inclusions (Dupont 1976; Cheng-Getzler, section 3), so every transferred
operation commutes with restriction to a simplex.  Its value on a simplex s
of dimension n is read off the standard n-simplex,

    m_k(c_1, ..., c_k)(s) = m_k^n(c_1|s, ..., c_k|s)(0 1 ... n),

where c|s is the cochain that c induces on s in local vertex positions and
m_k^n is the operation of the single-simplex engine.  The left side of each
structure relation is assembled the same way; no form on the whole complex
is ever built.

The product of two cochains is f(ga ^ gb).  f reads only the top-degree part
of the form on each simplex, so the product is bilinear in the Whitney
structure constants of one n-simplex,

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
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cochains import Cochain, _elementary_form
from .forms import integrate_top, wedge
from .rationals import SparseVector, _accumulate, parse_rational, rational_str
from .reporting import VerificationReport
from .tensorwords import Homog
from .transfer import SimplexContraction, transferred_m, _relation_value

__all__ = [
    "OrderedComplex",
    "GlobalCochain",
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

    __slots__ = ("vertices", "maximal", "simplices", "_hash", "_cofaces")

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

    def cofaces(self) -> dict[Simplex, tuple[tuple[Simplex, Fraction], ...]]:
        """Every simplex of the closure mapped to its codimension-one cofaces,
        each with the sign (-1)^j of the vertex position j it adds, as a
        Fraction; built on first use."""
        table = self._cofaces
        if table is None:
            lists: dict[Simplex, list] = {s: [] for s in self.simplices}
            for simplex in self.simplices:
                if len(simplex) < 2:
                    continue
                for j in range(len(simplex)):
                    face = simplex[:j] + simplex[j + 1 :]
                    lists[face].append((simplex, Fraction(-1 if j % 2 else 1)))
            table = {s: tuple(c) for s, c in lists.items()}
            object.__setattr__(self, "_cofaces", table)
        return table

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


def _positions(sub: Simplex, ambient: Simplex) -> Simplex:
    return tuple(ambient.index(v) for v in sub)


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
        return cls(
            complex_, {s: Fraction(1) for s in complex_.simplices if len(s) == 1}
        )

    def support(self) -> set[Simplex]:
        return set(self.terms)

    def restrict_to(self, simplex: Simplex) -> Cochain:
        """The local cochain induced on one simplex of the closure."""
        vertices = set(simplex)
        out = {}
        for face, coeff in self.terms.items():
            if vertices.issuperset(face):
                out[_positions(face, simplex)] = coeff
        # positions of a face of an increasing simplex increase, and the
        # coefficients are already clean
        return Cochain._trusted(len(simplex) - 1, out)

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
    out: dict[Simplex, Fraction] = {}
    for simplex, coeff in c.terms.items():
        _accumulate(out, cofaces[simplex], coeff)
    return GlobalCochain._trusted(c.complex, out)


@lru_cache(maxsize=None)
def _cup_constant(n: int, sigma: Simplex, tau: Simplex) -> Fraction:
    """The Whitney structure constant: the integral of w_sigma ^ w_tau over
    the n-simplex, for faces sigma, tau with deg sigma + deg tau = n."""
    return integrate_top(wedge(_elementary_form(sigma, n), _elementary_form(tau, n)))


def cup(a: GlobalCochain, b: GlobalCochain) -> GlobalCochain:
    """The product f(ga ^ gb), by bilinearity from the structure constants:

        (a cup b)(s) = sum a(sigma) b(tau) c_{dim s}(pos sigma, pos tau)

    over faces sigma, tau of s with deg sigma + deg tau = dim s.  The
    constant is nonzero only when sigma and tau share exactly one vertex and
    s is their union (see the module docstring), so each pair of simplices
    contributes at most to their join, and only if it is in the complex."""
    if a.complex != b.complex:
        raise ValueError("complex mismatch")
    known = a.complex.cofaces()  # keyed by every simplex of the closure
    out: dict[Simplex, Fraction] = {}
    for sigma, x in a.terms.items():
        for tau, y in b.terms.items():
            union = set(sigma).union(tau)
            if len(union) != len(sigma) + len(tau) - 1:
                continue
            simplex = tuple(sorted(union))
            if simplex not in known:
                continue
            value = _cup_constant(
                len(simplex) - 1, _positions(sigma, simplex), _positions(tau, simplex)
            )
            new = out.get(simplex, 0) + x * y * value
            if new:
                out[simplex] = new
            else:
                del out[simplex]
    return GlobalCochain._trusted(a.complex, out)


def _levelwise(complex_: OrderedComplex, word, op) -> GlobalCochain:
    """op(word) on the complex, assembled simplex by simplex by naturality:
    the value on s is the top-face coefficient of op on the restricted word
    over the standard simplex of dimension dim s.  op is transferred_m or
    _relation_value; both are multilinear, and a letter restricts to zero
    off the star of its support, so only the common star of the letters is
    visited, and a simplex on which some letter restricts to zero is
    skipped.  One single-simplex bundle per dimension serves the whole call,
    so its memo is shared across simplices."""
    common = set(complex_.simplices)
    for letter in word:
        common &= complex_.star(letter.carrier.support())
    bundles: dict[int, SimplexContraction] = {}
    out = {}
    for simplex in complex_.simplices:
        if simplex not in common:
            continue
        local = []
        for letter in word:
            restricted = letter.carrier.restrict_to(simplex)
            if not restricted:
                break
            local.append(Homog(restricted, letter.degree))
        else:
            n = len(simplex) - 1
            bundle = bundles.get(n)
            if bundle is None:
                bundle = bundles[n] = SimplexContraction(n)
            value = op(bundle, tuple(local)).terms.get(tuple(range(n + 1)))
            if value:
                out[simplex] = value
    return GlobalCochain._trusted(complex_, out)


def transferred_global_m(cochains) -> GlobalCochain:
    """The transferred operation on a word of homogeneous global cochains;
    a word holding a zero cochain gives zero, by multilinearity."""
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
    return _levelwise(complex_, tuple(word), transferred_m)


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

    # Leibniz with the sign of the left degree
    def leibniz_cases():
        for a in basis:
            sign = -1 if a.homogeneous_degree() % 2 else 1
            for b in basis:
                lhs = global_coboundary(products[a, b])
                rhs = cup(global_coboundary(a), b) + sign * cup(a, global_coboundary(b))
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
        residual = _levelwise(complex_, word, _relation_value)
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
