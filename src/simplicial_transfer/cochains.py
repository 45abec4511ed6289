"""Simplicial cochains on finite ordered complexes, and the maps that tie
the cochains of the standard n-simplex to polynomial forms.

A complex is given by totally ordered vertices and maximal simplices; its
closure stores every nonempty face.  The standard n-simplex is the complex
on the vertices 0..n with one maximal simplex, built once per dimension by
``standard_simplex``, so a cochain on a simplex and a cochain on a complex
are one type: rational coefficients on the simplices of a complex, and a
cochain is keyed by the position of its simplex in ``simplices``.  The
coboundary pushes each coefficient to the codimension-one cofaces of its
simplex with the sign of the vertex that the coface adds; it is the Stokes
dual of the de Rham differential, so integration over faces is a chain map.

f and g act on the standard simplex only: f integrates a form over every
face, and g sends a face to its Whitney elementary form, so that f o g = 1.
f is the package's one integral: f at a vertex face is evaluation at that
vertex, and f at the top face is the integral over the simplex.
Both are linear maps on finite bases and are applied through cached tables:
f by the face integrals of each monomial, g by the elementary form of each
face.  Both tables hold vectors of integer numerators over one denominator,
and f, g and the coboundary work on those numerators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .forms import FIELD, _LOW, Form, _check_dim, _check_face, generator, wedge
from .rationals import SparseVector, _accumulate, factorial, rational_str

__all__ = [
    "ComplexFormatError",
    "OrderedComplex",
    "standard_simplex",
    "Cochain",
    "coboundary",
    "elementary_form",
    "project_f",
    "include_g",
    "interval_basis_components",
    "format_cochain",
]

Simplex = tuple[int, ...]


class ComplexFormatError(ValueError):
    pass


class OrderedComplex:
    """Finite simplicial complex with totally ordered vertices.

    Vertices are arbitrary labels; simplices are stored as strictly
    increasing tuples of vertex indices, and the closure contains every
    nonempty face of every listed simplex, sorted by dimension and then
    lexicographically.  ``index`` maps each simplex to its position there.
    ``maximal`` keeps the listed simplices that are no face of another, in
    the order they were listed.  Its one cache is the coface table.
    """

    __slots__ = ("vertices", "maximal", "simplices", "index", "_cofaces")

    def __init__(self, vertices, maximal):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise ComplexFormatError("duplicate vertex labels")
        faces: set[Simplex] = set()  # the proper faces of the listed simplices
        listed: dict[Simplex, None] = {}
        for simplex in maximal:
            simplex = tuple(simplex)
            if any(simplex[i] >= simplex[i + 1] for i in range(len(simplex) - 1)):
                raise ComplexFormatError(f"simplex {list(simplex)} is not increasing")
            if not simplex:
                raise ComplexFormatError("empty simplex")
            if simplex[0] < 0 or simplex[-1] >= len(vertices):
                raise ComplexFormatError(f"simplex {list(simplex)} has unknown vertex")
            if simplex in listed:
                raise ComplexFormatError(f"duplicate simplex {list(simplex)}")
            listed[simplex] = None
            for k in range(1, len(simplex)):
                faces.update(combinations(simplex, k))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "maximal", tuple(s for s in listed if s not in faces))
        simplices = tuple(sorted(faces.union(listed), key=lambda s: (len(s), s)))
        object.__setattr__(self, "simplices", simplices)
        object.__setattr__(self, "index", {s: i for i, s in enumerate(simplices)})
        object.__setattr__(self, "_cofaces", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrderedComplex is immutable")

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, OrderedComplex)
            and self.vertices == other.vertices
            and self.simplices == other.simplices
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.simplices))

    def cofaces(self) -> list[tuple[tuple[int, int], ...]]:
        """The codimension-one cofaces of the simplex at each position, as
        pairs (coface position, sign (-1)^j of the vertex position j it adds);
        a cochain is keyed by the position of its simplex, so the coboundary
        reads this table as it stands.  Built on first use."""
        table = self._cofaces
        if table is None:
            lists: list[list] = [[] for _ in self.simplices]
            for position, simplex in enumerate(self.simplices):
                if len(simplex) < 2:
                    continue
                for j in range(len(simplex)):
                    face = simplex[:j] + simplex[j + 1 :]
                    lists[self.index[face]].append((position, -1 if j % 2 else 1))
            table = [tuple(c) for c in lists]
            object.__setattr__(self, "_cofaces", table)
        return table

    def __repr__(self) -> str:
        return f"OrderedComplex(vertices={list(self.vertices)}, maximal={[list(m) for m in self.maximal]})"


@lru_cache(maxsize=None)
def standard_simplex(n: int) -> OrderedComplex:
    """The n-simplex on the vertices 0..n, one complex per dimension."""
    _check_dim(n)
    return OrderedComplex(range(n + 1), [range(n + 1)])


class Cochain(SparseVector, space="complex", mismatch="complex mismatch"):
    """Exact rational coefficients on the simplices of a complex; zeros
    never stored.  A cochain is keyed by the position of its simplex in
    ``complex.simplices``, which is the letter id the transfer engine reads;
    ``terms`` and the rendering give simplices back."""

    __slots__ = ("complex",)

    @staticmethod
    def _check_space(complex_) -> None:
        if not isinstance(complex_, OrderedComplex):
            raise TypeError(f"a cochain lives on an OrderedComplex, not {complex_!r}")

    @staticmethod
    def _check_key(complex_: OrderedComplex, simplex) -> int:
        simplex = tuple(simplex)
        if simplex not in complex_.index:
            raise ValueError(f"simplex {list(simplex)} not in the complex")
        return complex_.index[simplex]

    @classmethod
    def unit(cls, complex_: OrderedComplex) -> "Cochain":
        """The 0-cochain with value 1 at every vertex; equals f(1) on a
        simplex."""
        simplices = complex_.simplices
        return cls._trusted(complex_, {p: 1 for p, s in enumerate(simplices) if len(s) == 1})

    @property
    def terms(self):
        """The coordinates as a read-only mapping from simplex to Fraction,
        in position order: by dimension, then lexicographically."""
        faces, den = self.complex.simplices, self.den
        return MappingProxyType({faces[p]: Fraction(n, den) for p, n in sorted(self.num.items())})

    @property
    def dim(self) -> int:
        """The top dimension of the complex, -1 when it is empty."""
        simplices = self.complex.simplices
        return len(simplices[-1]) - 1 if simplices else -1

    def __repr__(self) -> str:
        return f"Cochain({self.dim}, {format_cochain(self)!r})"


def coboundary(c: Cochain) -> Cochain:
    """(delta c)(v_0...v_k) = sum_j (-1)^j c(v_0...omit j...v_k), computed
    by pushing each coefficient of c to the cofaces of its simplex."""
    cofaces = c.complex.cofaces()
    out: dict[int, int] = {}
    for simplex, coeff in c.num.items():
        _accumulate(out, cofaces[simplex], coeff)
    return Cochain._reduced(c.complex, out, c.den)


def elementary_form(face, dim: int) -> Form:
    """Whitney elementary form of a face:

        k! sum_j (-1)^j t_{i_j} dt_{i_0} ... omit dt_{i_j} ... dt_{i_k}
    """
    return _elementary_form(_check_face(face, dim), dim)


@lru_cache(maxsize=None)
def _elementary_form(face: Simplex, dim: int) -> Form:
    scale = factorial(len(face) - 1)
    parts = []
    for j, vertex in enumerate(face):
        term = generator(dim, "t", vertex)
        for l, other in enumerate(face):
            if l == j:
                continue
            term = wedge(term, generator(dim, "dt", other))
        parts.append((-scale if j % 2 else scale, term))
    return Form._sum(dim, parts)


@lru_cache(maxsize=None)
def _face_integrals(dim: int, key: int) -> Cochain:
    """f(t^exps dt_dts), for the packed key of the monomial: the integrals
    over the faces of the simplex.

    A face F = (i_0 < ... < i_k) contributes only when F holds every t_j
    with a positive exponent and every dt_s, and dts is F minus exactly one
    vertex i_m.  On F, dt_{F - i_m} = (-1)^m dt_{i_1} ... dt_{i_k}, and the
    Dirichlet integral of the barycentric monomial gives

        (-1)^m a_1! ... a_n! / (|a| + k)!

    The key is read as vertex bits (vertex v at bit v): the support is the
    dt mask shifted up by one plus a bit per positive exponent, i_m is its
    one bit outside dts or, with none, any vertex outside dts, and m counts
    the dts bits below i_m.
    """
    simplex = standard_simplex(dim)
    dts = key >> (FIELD * dim) << 1
    support, numer, total = dts, 1, 0
    for j in range(dim):
        e = key >> (FIELD * j) & _LOW
        if e:
            support |= 2 << j
            numer *= factorial(e)
            total += e
    free = support & ~dts  # the vertices of the support that carry no dt
    if free & (free - 1):
        return Cochain._trusted(simplex, {})
    out: dict[int, int] = {}
    for bit in [free] if free else [1 << v for v in range(dim + 1) if not dts >> v & 1]:
        face = dts | bit
        position = simplex.index[tuple(v for v in range(dim + 1) if face >> v & 1)]
        out[position] = -numer if (dts & (bit - 1)).bit_count() % 2 else numer
    return Cochain._reduced(simplex, out, factorial(total + dts.bit_count()))


def project_f(a: Form) -> Cochain:
    """Integrate over every face: the cochain side of the contraction,
    summed from the nonzero face-integral columns."""
    dim = a.dim
    columns = ((coeff, _face_integrals(dim, key)) for key, coeff in a.num.items())
    return Cochain._sum(
        standard_simplex(dim), [(c, column) for c, column in columns if column], a.den
    )


def include_g(c: Cochain) -> Form:
    """Linear extension of face -> elementary form, on a cochain of a
    standard simplex."""
    dim = c.dim
    if dim < 0 or c.complex != standard_simplex(dim):
        raise ValueError("g applies to cochains on a standard simplex")
    faces = c.complex.simplices
    return Form._sum(
        dim, [(coeff, _elementary_form(faces[p], dim)) for p, coeff in c.num.items()], c.den
    )


# -- interval identification N_1 = span{1, t, dt} ------------------------


def interval_basis_components(c: Cochain) -> tuple[Fraction, Fraction, Fraction]:
    """Components of an interval cochain in the basis {1, t, dt}, under
    1 = x(0)+x(1), t = x(1), dt = x(01) at the positions 0, 1, 2; only zero
    gives an all-zero triple."""
    if c.complex != standard_simplex(1):
        raise ValueError("interval basis applies to dimension 1")
    a, b, e = (Fraction(c.num.get(p, 0), c.den) for p in range(3))
    return a, b - a, e


# -- rendering -----------------------------------------------------------


def format_cochain(c: Cochain) -> str:
    if not c:
        return "0"
    entries = []
    for face, coeff in c.terms.items():
        entries.append(f"face=[{','.join(map(str, face))}] coeff={rational_str(coeff)}")
    return "; ".join(entries)
