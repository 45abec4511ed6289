"""Differential forms with polynomial coefficients on the standard simplex.

The algebra on the n-simplex is generated by t_0..t_n (degree 0) and
dt_0..dt_n (degree 1) subject to

    t_0 + ... + t_n = 1        and        dt_0 + ... + dt_n = 0,

with differential d(t_i) = dt_i, d(dt_i) = 0.  Elements are stored in the
normal form that eliminates the 0-indexed generators, so a monomial is

    t_1^{a_1} ... t_n^{a_n} dt_{s_1} ... dt_{s_m},    s_1 < ... < s_m.

Each monomial is keyed by one packed int.  Exponent a_j sits in the
field j - 1, bits 16(j-1) .. 16(j-1)+15 (the width is the module constant
``FIELD``), and the set S = {s_1..s_m} is a bitmask above the n fields,
dt_s at bit 16n + s - 1.  The top bit of every field is a guard that a
stored key never sets, so an exponent is at most 2^15 - 1: a larger one
raises ``OverflowError`` at construction, and so does a sum of exponents
that reaches a guard bit in wedge or h^i.  A key never wraps.  wedge of
two monomials is then one mask test (a shared dt factor gives zero), one
int add and the sign of merging the two masks, read per pair of masks from
a table (``_Rows``) that fills a row on first use; d reads a row of moves
per dt mask from such a table, each move one unit from a field to a clear
mask bit with the parity of the mask bits below it as its sign.  A complex
bundle's face table (``transfer``) is a ``_Rows`` too, keyed by simplex.

Coefficients are exact rationals, stored as integer numerators over one
denominator per form in lowest terms (``SparseVector``), so wedge and d
multiply ints and reduce once.  Both are raw kernels, ``_wedge_into`` and
``_d_into``, that add a scaled result into a dict of numerators, so a
residual can take a product or a d without building it as a Form;
``wedge`` and ``differential`` wrap them for one Form.  Zero terms are
never stored, and reordering of dt factors is resolved into a sign at
construction time; equality of forms is therefore literal equality of
numerator maps and denominators.
The checking constructor takes keys as pairs (exponent tuple, ascending dt
index tuple) and packs them, and ``Form.terms`` unpacks, so the public view
and every rendering keep the pair form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from types import MappingProxyType
import re

from .rationals import SparseVector, parse_rational, rational_str

__all__ = [
    "Form",
    "generator",
    "wedge",
    "differential",
    "monomial_basis",
    "format_form",
    "parse_form",
]

FIELD = 16  # bits per exponent field
_TOP = 1 << (FIELD - 1)  # the guard bit of field 0; exponents stay below it
_LOW = (1 << FIELD) - 1  # field 0


def _pack(dim: int, exps: tuple[int, ...], dts: tuple[int, ...]) -> int:
    """The key of t^exps dt_dts on the dim-simplex (module docstring)."""
    if len(exps) != dim:
        raise ValueError(f"{len(exps)} exponents on the {dim}-simplex")
    key = 0
    for j, e in enumerate(exps):
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if e >= _TOP:
            raise OverflowError(f"exponent {e} exceeds {_TOP - 1}, the largest a monomial holds")
        key |= e << (FIELD * j)
    shift = FIELD * dim
    previous = 0
    for s in dts:
        if not previous < s <= dim:
            raise ValueError(f"dt indices {dts} are not increasing within 1..{dim}")
        key |= 1 << (shift + s - 1)
        previous = s
    return key


def _unpack(dim: int, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (exponent tuple, dt index tuple) of a key."""
    mask = key >> (FIELD * dim)
    return (
        tuple((key >> (FIELD * j)) & _LOW for j in range(dim)),
        tuple(s for s in range(1, dim + 1) if mask >> (s - 1) & 1),
    )


@lru_cache(maxsize=None)
def _guard(dim: int) -> int:
    """The guard bits of the dim exponent fields."""
    return _TOP * (((1 << (FIELD * dim)) - 1) // _LOW)


_OVERFLOW = f"an exponent exceeds {_TOP - 1}, the largest a monomial holds"


class _Rows(dict):
    """A table keyed by int whose row for a key is fill(key), built on its
    first read and kept, so a table keyed by dt masks holds only the masks
    read, though a mask on Δ^40 has 2^40 values, and a face table only the
    rows of the simplices read."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key: int):
        row = self[key] = self.fill(key)
        return row


@lru_cache(maxsize=None)
def _table(fill, *args) -> _Rows:
    """The table of the rows fill(*args, key), one per args."""
    return _Rows(partial(fill, *args))


def _merge_sign(dim: int, pair: int) -> int:
    """(-1)^inversions of dt_S dt_T -> dt_{S u T}, for the masks
    pair = (m_S << dim) | m_T of disjoint S and T."""
    ma, mb = pair >> dim, pair & ((1 << dim) - 1)
    inversions = 0
    while mb:
        low = mb & -mb
        # every factor of S above dt_t moves past it
        inversions += (ma & -low).bit_count()
        mb ^= low
    return -1 if inversions % 2 else 1


def _d_moves(dim: int, mask: int) -> tuple[tuple[int, int, int], ...]:
    """The moves of d on a monomial with the dt mask, one per j whose mask bit
    is clear: (the shift of field j, the key step from one unit of field j to
    mask bit j, the sign of moving dt_{j+1} past the mask bits below j)."""
    shift = FIELD * dim
    return tuple(
        (FIELD * j, (1 << (shift + j)) - (1 << (FIELD * j)), -1 if (mask & ((1 << j) - 1)).bit_count() % 2 else 1)
        for j in range(dim)
        if not mask >> j & 1
    )


def _sort_sign(indices) -> int:
    """(-1)^inversions of distinct dt indices: the sign of sorting their dt
    factors into ascending order."""
    return -1 if sum(a > b for a, b in combinations(indices, 2)) % 2 else 1


def _check_dim(dim: int) -> None:
    if dim < 0:
        raise ValueError("dimension must be >= 0")


class Form(SparseVector, space="dim", mismatch="dimension mismatch"):
    """Sparse rational combination of simplex monomials; may mix form degrees."""

    __slots__ = ("dim",)
    _check_space = staticmethod(_check_dim)

    @staticmethod
    def _check_key(dim: int, key) -> int:
        exps, dts = key
        return _pack(dim, tuple(exps), tuple(dts))

    @property
    def terms(self):
        """The coordinates as a read-only mapping from (exponent tuple, dt
        index tuple) to Fraction."""
        dim, den = self.dim, self.den
        return MappingProxyType(
            {_unpack(dim, key): Fraction(n, den) for key, n in self.num.items()}
        )

    @classmethod
    def one(cls, dim: int) -> "Form":
        _check_dim(dim)
        return cls._trusted(dim, {0: 1})

    @classmethod
    def monomial(cls, dim: int, exps, dts, coeff=1) -> "Form":
        return cls(dim, {(tuple(exps), tuple(dts)): coeff})

    def __repr__(self) -> str:
        return f"Form({self.dim}, {format_form(self)!r})"


def generator(dim: int, kind: str, index: int) -> Form:
    """Normal form of the generator t_index or dt_index on the dim-simplex,
    on packed keys: t_i is field i - 1 at exponent 1, dt_i mask bit i - 1.

    Index 0 is rewritten through the barycentric relations
    t_0 = 1 - (t_1 + ... + t_n) and dt_0 = -(dt_1 + ... + dt_n).
    """
    if not 0 <= index <= dim:
        raise ValueError(f"vertex index {index} out of range for dimension {dim}")
    if kind == "t":
        keys, constant = [1 << (FIELD * j) for j in range(dim)], {0: 1}
    elif kind == "dt":
        keys, constant = [1 << (FIELD * dim + j) for j in range(dim)], {}
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    num = {keys[index - 1]: 1} if index else {**constant, **dict.fromkeys(keys, -1)}
    return Form._trusted(dim, num)


def wedge(a: Form, b: Form) -> Form:
    """Graded commutative product; dt factors anticommute and square to zero.
    Numerators multiply over the product of the two denominators."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    out: dict[int, int] = {}
    _wedge_into(out, a.dim, a.num, b.num, 1)
    return Form._reduced(a.dim, out, a.den * b.den)


def _wedge_into(out: dict, dim: int, a_num: dict, b_num: dict, scale: int) -> None:
    """Add scale * (a ^ b) into out, for the numerator maps of two forms on
    the dim-simplex, dropping keys whose sum cancels to zero."""
    shift = FIELD * dim
    guard = _guard(dim)
    signs = _table(_merge_sign, dim)
    b_terms = [(kb, kb >> shift, scale * cb) for kb, cb in b_num.items()]
    for ka, ca in a_num.items():
        ma = ka >> shift
        high = ma << dim
        for kb, mb, cb in b_terms:
            if ma & mb:
                continue
            key = ka + kb
            if key & guard:
                raise OverflowError(_OVERFLOW)
            value = ca * cb if signs[high | mb] > 0 else -ca * cb
            held = out.get(key)
            if held is not None:
                value += held
                if not value:
                    del out[key]
                    continue
            out[key] = value


def differential(a: Form) -> Form:
    """Graded Leibniz extension of d(t_i) = dt_i, d(dt_i) = 0."""
    out: dict[int, int] = {}
    _d_into(out, a.dim, a.num, 1)
    return Form._reduced(a.dim, out, a.den)


def _d_into(out: dict, dim: int, num: dict, scale: int) -> None:
    """Add scale * d(num) into out, for the numerator map of a form on the
    dim-simplex, dropping keys whose sum cancels to zero; a zero scale adds
    nothing."""
    if not scale:
        return
    shift = FIELD * dim
    moves = _table(_d_moves, dim)
    for key, coeff in num.items():
        coeff *= scale
        for at, step, sign in moves[key >> shift]:
            e = key >> at & _LOW
            if not e:
                continue
            value = sign * e * coeff
            new = key + step
            held = out.get(new)
            if held is not None:
                value += held
                if not value:
                    del out[new]
                    continue
            out[new] = value


def _check_face(face: tuple[int, ...], dim: int) -> tuple[int, ...]:
    face = tuple(face)
    if not face:
        raise ValueError("face must be nonempty")
    if any(face[i] >= face[i + 1] for i in range(len(face) - 1)):
        raise ValueError(f"face {face} is not strictly increasing")
    if face[0] < 0 or face[-1] > dim:
        raise ValueError(f"face {face} out of range for dimension {dim}")
    return face


def monomial_basis(dim: int, max_poly_degree: int):
    """Yield every monomial Form on the dim-simplex with polynomial degree up
    to the bound, form degree by form degree."""
    if dim and max_poly_degree >= _TOP:  # fail before building ~bound^dim exponent tuples
        _pack(dim, (_TOP,) * dim, ())  # raises: the basis holds t_1^_TOP
    fields = [_pack(dim, exps, ()) for exps in _exponents(dim, max_poly_degree)]
    for k in range(dim + 1):
        for dts in combinations(range(FIELD * dim, FIELD * dim + dim), k):
            mask = sum(1 << bit for bit in dts)
            for key in fields:
                yield Form._trusted(dim, {key | mask: 1})


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
    index makes the term vanish.  A coefficient is read by
    ``parse_rational``, so it is ``p/q`` or ``p``.
    """
    _check_dim(dim)
    text = text.strip()
    if text in ("0", ""):
        return Form.zero(dim)
    terms = []
    for raw_term in text.split("+"):
        raw_term = raw_term.strip()
        if not raw_term:
            raise ValueError(f"empty term in {text!r}")
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
            coeff = parse_rational(token)
            saw_coeff = True
        if len(set(dts)) != len(dts):
            continue
        terms.append(((tuple(exps), tuple(sorted(dts))), _sort_sign(dts) * coeff))
    return Form(dim, terms)
