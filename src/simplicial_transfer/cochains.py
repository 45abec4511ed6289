"""Normalized simplicial cochains on the n-simplex and the maps that tie
them to polynomial forms.

A cochain assigns a rational to each nondegenerate face (strictly increasing
vertex sequence) of the simplex.  The coboundary is the Stokes dual of the
de Rham differential, so that integration over faces is a chain map; the
elementary forms give the section g with f o g = 1.

f and g are linear maps on finite bases and are applied through cached
tables: f by the face integrals of each monomial, g by the elementary form
of each face.  Both tables hold vectors of integer numerators over one
denominator, and f, g and the coboundary work on those numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .forms import Form, _check_dim, _check_face, generator, wedge
from .rationals import SparseVector, factorial, rational_str

__all__ = [
    "Cochain",
    "basis_faces",
    "coboundary",
    "elementary_form",
    "project_f",
    "include_g",
    "unit_cochain",
    "interval_basis_components",
    "format_cochain",
]

Face = tuple[int, ...]


@lru_cache(maxsize=None)
def basis_faces(dim: int) -> tuple[Face, ...]:
    """All nondegenerate faces of the dim-simplex, sorted by (size, lex)."""
    out: list[Face] = []
    for k in range(dim + 1):
        out.extend(combinations(range(dim + 1), k + 1))
    return tuple(out)


class Cochain(SparseVector, space="dim", mismatch="dimension mismatch"):
    """Rational coefficients on nondegenerate faces; zeros never stored."""

    __slots__ = ("dim",)
    _check_space = staticmethod(_check_dim)

    @staticmethod
    def _check_key(dim: int, face) -> Face:
        return _check_face(face, dim)

    @staticmethod
    def _degree(face: Face) -> int:
        return len(face) - 1

    def __repr__(self) -> str:
        return f"Cochain({self.dim}, {format_cochain(self)!r})"


def coboundary(c: Cochain) -> Cochain:
    """(delta c)(i_0...i_k) = sum_j (-1)^j c(i_0...omit j...i_k)."""
    num = c.num
    out: dict[Face, int] = {}
    for face in basis_faces(c.dim):
        if len(face) < 2:
            continue
        acc = 0
        for j in range(len(face)):
            coeff = num.get(face[:j] + face[j + 1 :])
            if coeff is not None:
                acc += -coeff if j % 2 else coeff
        if acc:
            out[face] = acc
    return Cochain._reduced(c.dim, out, c.den)


def elementary_form(face, dim: int) -> Form:
    """Whitney elementary form of a face:

        k! sum_j (-1)^j t_{i_j} dt_{i_0} ... omit dt_{i_j} ... dt_{i_k}
    """
    return _elementary_form(_check_face(face, dim), dim)


@lru_cache(maxsize=None)
def _elementary_form(face: Face, dim: int) -> Form:
    k = len(face) - 1
    total = Form.zero(dim)
    for j, vertex in enumerate(face):
        term = generator(dim, "t", vertex)
        for l, other in enumerate(face):
            if l == j:
                continue
            term = wedge(term, generator(dim, "dt", other))
        total = total + ((-1 if j % 2 else 1) * term)
    return factorial(k) * total


@lru_cache(maxsize=None)
def _face_integrals(dim: int, exps: tuple[int, ...], dts: tuple[int, ...]) -> Cochain:
    """f(t^exps dt_dts): the integrals over the faces of the simplex.

    A face F = (i_0 < ... < i_k) contributes only when F holds every t_j
    with a positive exponent and every dt_s, and dts is F minus exactly one
    vertex i_m.  On F, dt_{F - i_m} = (-1)^m dt_{i_1} ... dt_{i_k}, and the
    Dirichlet integral of the barycentric monomial gives

        (-1)^m a_1! ... a_n! / (|a| + k)!
    """
    k = len(dts)
    support = set(dts).union(j for j, e in enumerate(exps, 1) if e)
    out: dict[Face, int] = {}
    if len(support) > k + 1:
        return Cochain._trusted(dim, out)
    numer = 1
    for e in exps:
        numer *= factorial(e)
    for vertex in range(dim + 1):
        if vertex in dts or not support <= set(dts) | {vertex}:
            continue
        face = tuple(sorted(dts + (vertex,)))
        out[face] = -numer if face.index(vertex) % 2 else numer
    return Cochain._reduced(dim, out, factorial(sum(exps) + k))


def project_f(a: Form) -> Cochain:
    """Integrate over every face: the cochain side of the contraction."""
    dim = a.dim
    return Cochain._sum(
        dim,
        [(coeff, _face_integrals(dim, exps, dts)) for (exps, dts), coeff in a.num.items()],
        a.den,
    )


def include_g(c: Cochain) -> Form:
    """Linear extension of face -> elementary form."""
    dim = c.dim
    return Form._sum(
        dim, [(coeff, _elementary_form(face, dim)) for face, coeff in c.num.items()], c.den
    )


def unit_cochain(dim: int) -> Cochain:
    """The 0-cochain with value 1 at every vertex; equals f(1)."""
    return Cochain(dim, {(i,): 1 for i in range(dim + 1)})


# -- interval identification N_1 = span{1, t, dt} ------------------------


def interval_basis_components(c: Cochain) -> tuple[Fraction, Fraction, Fraction]:
    """Components of an interval cochain in the basis {1, t, dt}, under
    1 = x(0)+x(1), t = x(1), dt = x(01)."""
    if c.dim != 1:
        raise ValueError("interval basis applies to dimension 1")
    a, b, e = (Fraction(c.num.get(face, 0), c.den) for face in ((0,), (1,), (0, 1)))
    return a, b - a, e


# -- rendering -----------------------------------------------------------


def format_cochain(c: Cochain) -> str:
    if not c:
        return "0"
    entries = []
    for face, coeff in sorted(c.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        entries.append(f"face=[{','.join(map(str, face))}] coeff={rational_str(coeff)}")
    return "; ".join(entries)
