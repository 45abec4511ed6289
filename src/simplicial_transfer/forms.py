"""Differential forms with polynomial coefficients on the standard simplex.

The algebra on the n-simplex is generated by t_0..t_n (degree 0) and
dt_0..dt_n (degree 1) subject to

    t_0 + ... + t_n = 1        and        dt_0 + ... + dt_n = 0,

with differential d(t_i) = dt_i, d(dt_i) = 0.  Elements are stored in the
normal form that eliminates the 0-indexed generators, so a monomial is

    t_1^{a_1} ... t_n^{a_n} dt_{s_1} ... dt_{s_m},    s_1 < ... < s_m,

keyed by the pair (exponent tuple, dt index tuple).  Coefficients are exact
rationals, stored as integer numerators over one denominator per form in
lowest terms (``SparseVector``), so wedge and d multiply ints and reduce
once; zero terms are never stored, and reordering of dt factors is
resolved into a sign at construction time; equality of forms is therefore
literal equality of numerator maps and denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
import re

from .rationals import SparseVector, factorial, rational_str

__all__ = [
    "Form",
    "generator",
    "wedge",
    "differential",
    "vertex_evaluate",
    "integrate_top",
    "monomial_basis",
    "format_form",
    "parse_form",
]

Monomial = tuple[tuple[int, ...], tuple[int, ...]]


def _merge_dts(s: tuple[int, ...], t: tuple[int, ...]):
    """Merge two ascending dt index tuples; returns (sign, merged) or None
    when an index repeats (the product is zero)."""
    if not s:
        return 1, t
    if not t:
        return 1, s
    inversions = 0
    merged = []
    i = j = 0
    while i < len(s) and j < len(t):
        if s[i] == t[j]:
            return None
        if s[i] < t[j]:
            merged.append(s[i])
            i += 1
        else:
            # t[j] moves past the remaining factors of s
            inversions += len(s) - i
            merged.append(t[j])
            j += 1
    merged.extend(s[i:])
    merged.extend(t[j:])
    return (-1 if inversions % 2 else 1), tuple(merged)


def _check_dim(dim: int) -> None:
    if dim < 0:
        raise ValueError("dimension must be >= 0")


class Form(SparseVector, space="dim", mismatch="dimension mismatch"):
    """Sparse rational combination of simplex monomials; may mix form degrees."""

    __slots__ = ("dim",)
    _check_space = staticmethod(_check_dim)

    @staticmethod
    def _check_key(dim: int, key) -> Monomial:
        exps, dts = key
        return tuple(exps), tuple(dts)

    @staticmethod
    def _degree(key: Monomial) -> int:
        return len(key[1])

    @classmethod
    def one(cls, dim: int) -> "Form":
        _check_dim(dim)
        return cls._trusted(dim, {((0,) * dim, ()): 1})

    @classmethod
    def monomial(cls, dim: int, exps, dts, coeff=1) -> "Form":
        return cls(dim, {(tuple(exps), tuple(dts)): coeff})

    def __repr__(self) -> str:
        return f"Form({self.dim}, {format_form(self)!r})"


def generator(dim: int, kind: str, index: int) -> Form:
    """Normal form of the generator t_index or dt_index on the dim-simplex.

    Index 0 is rewritten through the barycentric relations
    t_0 = 1 - (t_1 + ... + t_n) and dt_0 = -(dt_1 + ... + dt_n).
    """
    if not 0 <= index <= dim:
        raise ValueError(f"vertex index {index} out of range for dimension {dim}")
    n = dim
    if kind == "t":
        if index == 0:
            terms = {((0,) * n, ()): Fraction(1)}
            for j in range(1, n + 1):
                exps = tuple(1 if i == j else 0 for i in range(1, n + 1))
                terms[(exps, ())] = Fraction(-1)
            return Form(n, terms)
        exps = tuple(1 if i == index else 0 for i in range(1, n + 1))
        return Form(n, {(exps, ()): Fraction(1)})
    if kind == "dt":
        zero_exps = (0,) * n
        if index == 0:
            return Form(n, {(zero_exps, (j,)): Fraction(-1) for j in range(1, n + 1)})
        return Form(n, {(zero_exps, (index,)): Fraction(1)})
    raise ValueError(f"unknown generator kind {kind!r}")


def wedge(a: Form, b: Form) -> Form:
    """Graded commutative product; dt factors anticommute and square to zero.
    Numerators multiply over the product of the two denominators."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out: dict[Monomial, int] = {}
    b_terms = b.num.items()
    for (ae, ad), ac in a.num.items():
        for (be, bd), bc in b_terms:
            merged = _merge_dts(ad, bd)
            if merged is None:
                continue
            sign, dts = merged
            key = (tuple(map(add, ae, be)), dts)
            new = out.get(key, 0) + sign * ac * bc
            if new:
                out[key] = new
            else:
                del out[key]
    return Form._reduced(a.dim, out, a.den * b.den)


def differential(a: Form) -> Form:
    """Graded Leibniz extension of d(t_i) = dt_i, d(dt_i) = 0."""
    out: dict[Monomial, int] = {}
    for (exps, dts), coeff in a.num.items():
        for pos, e in enumerate(exps):
            if e == 0:
                continue
            j = pos + 1
            if j in dts:
                continue
            # dt_j moves into ascending position past the smaller indices
            below = sum(1 for s in dts if s < j)
            sign = -1 if below % 2 else 1
            new_exps = exps[:pos] + (e - 1,) + exps[pos + 1 :]
            new_dts = tuple(sorted(dts + (j,)))
            key = (new_exps, new_dts)
            new = out.get(key, 0) + sign * e * coeff
            if new:
                out[key] = new
            else:
                del out[key]
    return Form._reduced(a.dim, out, a.den)


def vertex_evaluate(a: Form, index: int) -> Fraction:
    """Evaluate at vertex e_index: t_index -> 1, other t -> 0, dt -> 0."""
    if not 0 <= index <= a.dim:
        raise ValueError(f"vertex index {index} out of range for dimension {a.dim}")
    total = 0
    for (exps, dts), coeff in a.num.items():
        if dts:
            continue
        if all(e == 0 for pos, e in enumerate(exps) if pos + 1 != index):
            total += coeff
    return Fraction(total, a.den)


def _check_face(face: tuple[int, ...], dim: int) -> tuple[int, ...]:
    face = tuple(face)
    if not face:
        raise ValueError("face must be nonempty")
    if any(face[i] >= face[i + 1] for i in range(len(face) - 1)):
        raise ValueError(f"face {face} is not strictly increasing")
    if face[0] < 0 or face[-1] > dim:
        raise ValueError(f"face {face} out of range for dimension {dim}")
    return face


def integrate_top(a: Form) -> Fraction:
    """Integral over the whole simplex:

        I(t_1^{a_1}...t_n^{a_n} dt_1...dt_n) = a_1!...a_n!/(a_1+...+a_n+n)!

    Monomials that do not carry every dt factor integrate to zero.  On the
    0-simplex this is evaluation of the constant.
    """
    n = a.dim
    full = tuple(range(1, n + 1))
    total = Fraction(0)
    for (exps, dts), coeff in a.num.items():
        if dts != full:
            continue
        numer = 1
        for e in exps:
            numer *= factorial(e)
        total += Fraction(coeff * numer, factorial(sum(exps) + n))
    return total / a.den


def monomial_basis(dim: int, max_poly_degree: int, form_degree: int | None = None):
    """Yield every monomial Form on the dim-simplex with polynomial degree up
    to the bound, optionally restricted to one form degree."""
    degrees = range(dim + 1) if form_degree is None else (form_degree,)
    exps_list = _exponents(dim, max_poly_degree)
    for k in degrees:
        for dts in combinations(range(1, dim + 1), k):
            for exps in exps_list:
                yield Form.monomial(dim, exps, dts)


@lru_cache(maxsize=None)
def _exponents(dim: int, bound: int) -> tuple[tuple[int, ...], ...]:
    if dim == 0:
        return ((),)
    out = []
    for head in range(bound + 1):
        for tail in _exponents(dim - 1, bound - head):
            out.append((head,) + tail)
    return tuple(sorted(out))


# -- text syntax --------------------------------------------------------

_T_TOKEN = re.compile(r"^t(\d+)(?:\^(\d+))?$")
_DT_TOKEN = re.compile(r"^dt(\d+)$")


def format_form(a: Form) -> str:
    """Render as '+'-separated terms like "3/2 t1^2 t2 dt1 dt3"."""
    if not a:
        return "0"
    parts = []
    for (exps, dts), coeff in sorted(a.terms.items()):
        factors = [rational_str(coeff)]
        for pos, e in enumerate(exps):
            if e == 0:
                continue
            factors.append(f"t{pos + 1}" + (f"^{e}" if e > 1 else ""))
        factors.extend(f"dt{s}" for s in dts)
        parts.append(" ".join(factors))
    return " + ".join(parts)


def parse_form(text: str, dim: int) -> Form:
    """Parse the textual syntax produced by :func:`format_form`.

    dt factors may appear in any order (a sign is tracked); a repeated dt
    index makes the term vanish.
    """
    text = text.strip()
    if text in ("0", ""):
        return Form.zero(dim)
    result = Form.zero(dim)
    for raw_term in text.split("+"):
        raw_term = raw_term.strip()
        if not raw_term:
            continue
        coeff = Fraction(1)
        exps = [0] * dim
        dts: list[int] = []
        saw_coeff = False
        for token in raw_term.split():
            m = _T_TOKEN.match(token)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= dim:
                    raise ValueError(f"generator {token!r} out of range")
                exps[idx - 1] += int(m.group(2) or 1)
                continue
            m = _DT_TOKEN.match(token)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= dim:
                    raise ValueError(f"generator {token!r} out of range")
                dts.append(idx)
                continue
            if saw_coeff:
                raise ValueError(f"unrecognized token {token!r}")
            coeff = Fraction(token)
            saw_coeff = True
        if len(set(dts)) != len(dts):
            continue
        inversions = sum(
            1 for i in range(len(dts)) for j in range(i + 1, len(dts)) if dts[i] > dts[j]
        )
        if inversions % 2:
            coeff = -coeff
        result = result + Form.monomial(dim, tuple(exps), tuple(sorted(dts)), coeff)
    return result
