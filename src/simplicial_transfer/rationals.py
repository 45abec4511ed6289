"""Exact scalar arithmetic: rationals, sparse rational vectors and
Bernoulli numbers.

Scalars at the boundary (coefficients handed to a constructor, values
read back for reports, Bernoulli numbers) are ``fractions.Fraction``s or
ints; a float is a ``TypeError`` (see ``exact``).  Forms, cochains and
tensor words are all finite sparse vectors over Q and share the linear
structure of ``SparseVector``, which stores integer numerators over one
positive denominator in lowest terms, so the kernels on them run in int
arithmetic and normalise each result by one gcd pass.  The Bernoulli
polynomials of the interval recursion are 0-forms on the 1-simplex, built
in ``transfer``.  The Bernoulli convention
throughout is B_n = B_n(0), so B_1 = -1/2; the higher interval products
computed by the transfer engine are compared against B_n/n! under this
convention.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial as _int_factorial, gcd, lcm
from types import MappingProxyType
import re

__all__ = [
    "rational_str",
    "parse_rational",
    "exact",
    "SparseVector",
    "factorial",
    "binomial",
    "bernoulli_number",
]


def rational_str(x: Fraction | int) -> str:
    """Render ``p/q``, or just ``p`` when the denominator is one."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or ``p`` (decimal digits, optional sign, surrounding
    whitespace ignored).  Anything else raises ``ValueError``: a JSON number,
    a zero denominator, and the decimal, exponent and underscore forms that
    ``Fraction`` would accept, since ``"1e1000000"`` expands to a
    3.3-million-bit integer."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text.strip()):
        raise ValueError(f"rational {text!r} must be a string such as \"1/2\"")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def exact(x) -> Fraction:
    """``x`` as a Fraction.  Only ints and Fractions are exact scalars, so a
    float, string or anything else raises ``TypeError``."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"coefficient {x!r} is not exact; use int or Fraction")
    return Fraction(x)


def _accumulate(out: dict, terms, scale: int) -> None:
    """Add scale * coeff into out[key] for each (key, coeff) in terms, all
    ints, dropping keys whose sum cancels; a zero scale adds nothing."""
    if not scale:
        return
    unit = scale == 1
    for key, coeff in terms:
        value = coeff if unit else scale * coeff
        held = out.get(key)
        if held is not None:
            value += held
            if not value:
                del out[key]
                continue
        out[key] = value


def _linear(parts) -> tuple[dict, int]:
    """(sum of p * v) as numerators over the least common multiple of the
    denominators of the vectors v, for a list of pairs (p, v) of an int p
    and a vector v; not reduced."""
    common = lcm(*[v.den for _, v in parts])
    out: dict = {}
    for p, v in parts:
        _accumulate(out, v.num.items(), p * (common // v.den))
    return out, common


_set = object.__setattr__


class SparseVector:
    """A finite sparse vector over Q, stored as integer numerators over one
    shared denominator: ``num`` maps keys to nonzero ints and ``den`` is a
    positive int with gcd(den, every numerator) = 1.  That form is unique,
    so equality and hashing compare plain ints, and the zero vector is the
    empty dict over 1.  A form is keyed by its packed monomial, and a
    cochain is keyed by the position of its simplex; ``terms`` is the
    read-only view of the coordinates as Fractions under the keys a user
    writes, for rendering and reports.  A vector lives in a space that only
    vectors of the same space may be added to.  Instances are immutable and
    hash by value: the hash is computed from the space, the denominator and
    the numerators on each call, and no instance caches it.

    A subclass names the slot that holds its space with the class keyword
    ``space`` (none for a vector without one) and the message of a space
    mismatch with ``mismatch``.  It may override ``_check_space`` and
    ``_check_key``, which the checking constructor applies to the space and
    to every key.  ``_trusted`` wraps numerators already in that form;
    ``_reduced`` first divides out their common factor with the
    denominator, and ``_sum`` forms an integer combination of vectors in
    one pass.  The kernels build results through these three, in int
    arithmetic; ``_cancels`` only decides whether a combination is zero.
    ``+``, ``-``, negation and a scalar multiple are one ``_sum`` each,
    after the type and space check of ``+`` and ``-``, so no other path
    combines vectors."""

    __slots__ = ("num", "den")
    _space = None  # the space slot's descriptor, so self._space reads it
    _mismatch = "space mismatch"

    def __init_subclass__(cls, space=None, mismatch=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if space is not None:
            cls._space = cls.__dict__[space]
        if mismatch is not None:
            cls._mismatch = mismatch

    def __init__(self, space, terms=None):
        self._check_space(space)
        num: dict = {}
        den = 1
        if terms:
            check = self._check_key
            pairs = terms.items() if isinstance(terms, Mapping) else terms
            pairs = [(check(space, key), exact(coeff)) for key, coeff in pairs]
            den = lcm(*(coeff.denominator for _, coeff in pairs))
            _accumulate(
                num,
                ((key, c.numerator * (den // c.denominator)) for key, c in pairs if c),
                1,
            )
        self._fill(space, *_lowest(num, den))

    def _fill(self, space, num: dict, den: int) -> None:
        slot = type(self)._space
        if slot is not None:
            slot.__set__(self, space)
        _set(self, "num", num)
        _set(self, "den", den)

    @classmethod
    def _trusted(cls, space, num: dict, den: int = 1):
        """Wrap numerators in lowest terms over ``den``: checked keys,
        nonzero ints, a dict owned by the new vector alone."""
        vec = object.__new__(cls)
        vec._fill(space, num, den)
        return vec

    @classmethod
    def _reduced(cls, space, num: dict, den: int):
        """num / den, with nonzero int numerators, brought to lowest terms by
        one gcd over the denominator and every numerator."""
        return cls._trusted(space, *_lowest(num, den))

    @classmethod
    def _sum(cls, space, parts, den: int = 1):
        """(sum of p * v) / den over the pairs (p, v) of an int p and a
        vector v, a list: each v is brought to the least common multiple
        of their denominators, and the result is reduced once.  A lone
        part (1, v) over 1, v of this class on this very space object, is
        its own sum: v comes back uncopied, safe as vectors are immutable
        and every kernel hands ``_reduced`` a fresh dict, never a ``num``.
        The caller's duty: every v is a vector of ``cls`` on ``space``.
        ``_sum`` does not check it: ``+`` and ``-`` check first, and every
        kernel passes parts of one space, so a check here would run twice."""
        if den == 1 and len(parts) == 1:
            p, v = parts[0]
            if p == 1 and type(v) is cls and v._space is space:
                return v
        out, common = _linear(parts)
        return cls._reduced(space, out, den * common)

    @classmethod
    def _cancels(cls, parts) -> bool:
        """Whether (sum of p * v) over the pairs (p, v) is zero: the
        numerators of ``_linear`` tested for emptiness, never reduced, so a
        residual that passes builds no vector.  The caller's duty is that
        of ``_sum``."""
        return not _linear(parts)[0]

    @staticmethod
    def _check_space(space) -> None:
        pass

    @staticmethod
    def _check_key(space, key):
        return key

    @classmethod
    def zero(cls, space):
        cls._check_space(space)
        return cls._trusted(space, {})

    @classmethod
    def basis_element(cls, space, key):
        return cls(space, [(key, 1)])

    @property
    def terms(self):
        """The coordinates as a read-only mapping from key to Fraction."""
        den = self.den
        return MappingProxyType({key: Fraction(n, den) for key, n in self.num.items()})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _shared_space(self, other):
        """The space that self shares with other, a vector of its own type."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        space = self._space
        if space is not other._space and space != other._space:
            raise ValueError(self._mismatch)
        return space

    def __add__(self, other):
        return self._sum(self._shared_space(other), [(1, self), (1, other)])

    def __sub__(self, other):
        return self._sum(self._shared_space(other), [(1, self), (-1, other)])

    def __neg__(self):
        return self._sum(self._space, [(-1, self)])

    def __rmul__(self, scalar):
        scalar = exact(scalar)
        return self._sum(self._space, [(scalar.numerator, self)], scalar.denominator)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._space == other._space
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self._space, self.den, frozenset(self.num.items())))


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """Divide the common factor of den and the numerators out of both, in
    place; the empty dict goes over 1."""
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            for key, n in num.items():
                num[key] = n // g
            den //= g
    return num, den


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial requires n >= 0")
    return _int_factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside the range 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k=0}^{n} C(n+1, k) B_k = 0."""
    if n < 0:
        raise ValueError("bernoulli_number requires n >= 0")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += binomial(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)
