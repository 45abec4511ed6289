"""The transfer on a complex through families of forms over the whole
closure: the reference that the join rule of ``complexes`` is tested
against.

A global form assigns a polynomial form to every simplex of the closure,
compatibly with face restriction.  g, f, H, the wedge and d act simplex by
simplex, and H revalidates the compatibility of its output on every call.
``GlobalFormContraction`` adds these maps to the complex bundle and reads
m_n through them, so every battery runs on a complex exactly as on one
simplex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from simplicial_transfer.cochains import Cochain, OrderedComplex, include_g, standard_simplex
from simplicial_transfer.contraction import homotopy_H
from simplicial_transfer.forms import Form, differential, format_form, wedge
from simplicial_transfer.transfer import (
    ComplexContraction,
    SimplexContraction,
    _cut_products,
)

from helpers import face_restrict, integrate_top


def _positions(sub: tuple[int, ...], ambient: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ambient.index(v) for v in sub)


class GlobalForm:
    """A polynomial form on every simplex of the closure, compatible with
    face restriction; the invariant is checked on construction unless the
    caller knows it holds."""

    def __init__(self, complex_: OrderedComplex, assign, validate: bool = True):
        self.complex = complex_
        self.assign = {}
        for simplex in complex_.simplices:
            form = assign.get(simplex)
            if form is None:
                form = Form.zero(len(simplex) - 1)
            if form.dim != len(simplex) - 1:
                raise ValueError(f"form on {list(simplex)} has wrong dimension")
            self.assign[simplex] = form
        if validate:
            self.validate()

    def validate(self) -> None:
        """Restricting the form on a simplex to any face gives the form
        stored on the face."""
        for simplex in self.complex.simplices:
            for k in range(1, len(simplex)):
                for face in combinations(simplex, k):
                    restricted = face_restrict(
                        self.assign[simplex], _positions(face, simplex)
                    )
                    if restricted != self.assign[face]:
                        raise ValueError(
                            f"incompatible family: {list(simplex)} -> {list(face)}"
                        )

    def _map(self, op) -> "GlobalForm":
        return GlobalForm(
            self.complex, {s: op(x) for s, x in self.assign.items()}, validate=False
        )

    def __add__(self, other: "GlobalForm") -> "GlobalForm":
        if self.complex != other.complex:
            raise ValueError("complex mismatch")
        return GlobalForm(
            self.complex,
            {s: x + other.assign[s] for s, x in self.assign.items()},
            validate=False,
        )

    def __neg__(self) -> "GlobalForm":
        return self._map(lambda x: -x)

    def __sub__(self, other: "GlobalForm") -> "GlobalForm":
        return self + (-other)

    def __rmul__(self, scalar) -> "GlobalForm":
        return self._map(lambda x: scalar * x)

    def __bool__(self) -> bool:
        return any(self.assign.values())

    @property
    def _space(self):
        return self.complex

    @classmethod
    def _sum(cls, complex_: OrderedComplex, parts, den: int = 1) -> "GlobalForm":
        """(sum of p * v over the pairs (p, v)) / den, the linear
        combination the transfer engine forms of algebra-side values."""
        total = GlobalForm(complex_, {}, validate=False)
        for p, v in parts:
            total = total + Fraction(p, den) * v
        return total

    @classmethod
    def _cancels(cls, parts) -> bool:
        """Whether the sum of p * v over the pairs (p, v) is zero, the
        residual test the transfer engine applies to algebra-side values."""
        return not parts or not cls._sum(parts[0][1].complex, parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GlobalForm)
            and self.complex == other.complex
            and self.assign == other.assign
        )

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{list(s)}: {format_form(x)}" for s, x in self.assign.items() if x
        )
        return f"GlobalForm({{{entries}}})"


def restrict(c: Cochain, simplex) -> Cochain:
    """The local cochain that c induces on one simplex of the closure, in
    vertex positions of that simplex."""
    vertices = set(simplex)
    # positions of a face of an increasing simplex increase
    return Cochain(
        standard_simplex(len(simplex) - 1),
        {_positions(face, simplex): x for face, x in c.terms.items() if vertices.issuperset(face)},
    )


def global_g(c: Cochain) -> GlobalForm:
    """Whitney's inclusion on each simplex."""
    return GlobalForm(
        c.complex,
        {s: include_g(restrict(c, s)) for s in c.complex.simplices},
        validate=False,
    )


def global_f(a: GlobalForm) -> Cochain:
    """The integral of the form on each simplex over that simplex."""
    return Cochain(
        a.complex, {s: integrate_top(x) for s, x in a.assign.items()}
    )


def global_H(a: GlobalForm) -> GlobalForm:
    """Dupont's homotopy on each simplex; the output family is revalidated."""
    out = a._map(homotopy_H)
    out.validate()
    return out


def global_wedge(a: GlobalForm, b: GlobalForm) -> GlobalForm:
    if a.complex != b.complex:
        raise ValueError("complex mismatch")
    return GlobalForm(
        a.complex,
        {s: wedge(x, b.assign[s]) for s, x in a.assign.items()},
        validate=False,
    )


def global_differential(a: GlobalForm) -> GlobalForm:
    return a._map(differential)


class GlobalFormContraction(ComplexContraction):
    """The levelwise contraction on a complex as the complex bundle plus
    global-form maps, with m_n read by the form route, f of the cut
    products, on every word; the basis letters are the indicator cochains
    of the closure.  The tree vertex and the unit are the simplex bundle's."""

    m_A = SimplexContraction.m_A
    unit_B = SimplexContraction.unit_B

    def __init__(self, complex_: OrderedComplex):
        super().__init__(complex_)
        self._memo_G: dict = {}
        self._memo_cut: dict = {}

    def m_word(self, ids: tuple[int, ...]) -> Cochain:
        return self.f(_cut_products(self, ids))

    def vanishes_in_degree(self, degree: int) -> bool:
        # the reference computes every m_k, G and cut product
        return False

    def d_A(self, x: GlobalForm) -> GlobalForm:
        return global_differential(x)

    def wedge_A(self, x: GlobalForm, y: GlobalForm) -> GlobalForm:
        return global_wedge(x, y)

    def one_A(self) -> GlobalForm:
        return GlobalForm(
            self.complex,
            {s: Form.one(len(s) - 1) for s in self.complex.simplices},
            validate=False,
        )

    def zero_A(self) -> GlobalForm:
        return GlobalForm(self.complex, {}, validate=False)

    def f(self, x: GlobalForm) -> Cochain:
        return global_f(x)

    def g(self, c: Cochain) -> GlobalForm:
        return global_g(c)

    def H(self, x: GlobalForm) -> GlobalForm:
        return global_H(x)

    def render_A(self, value) -> str:
        return repr(value)
