"""Exact scalar arithmetic: rationals, sparse rational vectors, Bernoulli
numbers and polynomials.

Every scalar in this package is a ``fractions.Fraction``, which already
guarantees the canonical-form invariants we rely on (lowest terms, positive
denominator, zero stored as 0/1).  Forms, cochains and tensor words are all
finite sparse vectors over Q and share the linear structure of
``SparseVector``, whose checking constructor accepts only ints and Fractions
(see ``exact``).  The Bernoulli
convention throughout is B_n = B_n(0), so B_1 = -1/2; the higher interval
products computed by the transfer engine are compared against B_n/n! under
this convention.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial as _int_factorial
import re

__all__ = [
    "Rational",
    "rational_str",
    "parse_rational",
    "exact",
    "SparseVector",
    "factorial",
    "binomial",
    "bernoulli_number",
    "bernoulli_polynomial",
    "UniPoly",
    "exp_series_ratio",
]

Rational = Fraction


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


def _accumulate(out: dict, terms, scale) -> None:
    """Add scale * coeff into out[key] for each (key, coeff) in terms,
    dropping keys whose sum cancels to zero.  With nonzero Fraction
    coefficients the result is a clean term dict for ``_trusted``."""
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


_set = object.__setattr__


class SparseVector:
    """A finite sparse vector over Q: a dict ``terms`` from keys to nonzero
    Fractions, in a space that only vectors of the same space may be added
    to.  Instances are immutable and hash by value.

    A subclass names the slot that holds its space with the class keyword
    ``space`` (none for a vector without one) and the message of a space
    mismatch with ``mismatch``.  It may override ``_check_space`` and
    ``_check_key``, which the checking constructor applies to the space and
    to every key, and ``_degree``, the degree of a key.  ``_trusted`` wraps
    a dict that is already clean."""

    __slots__ = ("terms", "_hash")
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
        clean: dict = {}
        if terms:
            check = self._check_key
            pairs = terms.items() if isinstance(terms, dict) else terms
            pairs = ((check(space, key), exact(coeff)) for key, coeff in pairs)
            _accumulate(clean, ((key, coeff) for key, coeff in pairs if coeff), 1)
        self._fill(space, clean)

    def _fill(self, space, terms: dict) -> None:
        slot = type(self)._space
        if slot is not None:
            slot.__set__(self, space)
        _set(self, "terms", terms)
        _set(self, "_hash", None)

    @classmethod
    def _trusted(cls, space, terms: dict):
        """Wrap a dict that is already clean: checked keys, nonzero Fraction
        values, owned by the new vector alone."""
        vec = object.__new__(cls)
        vec._fill(space, terms)
        return vec

    @staticmethod
    def _check_space(space) -> None:
        pass

    @staticmethod
    def _check_key(space, key):
        return key

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def basis_element(cls, space, key):
        return cls(space, [(key, 1)])

    def homogeneous_degree(self) -> int | None:
        """The degree that every term shares, read off its key by the
        subclass's ``_degree``; None for zero or a mixed vector."""
        degrees = {self._degree(key) for key in self.terms}
        return degrees.pop() if len(degrees) == 1 else None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _combine(self, other, scale):
        """self + scale * other, for two vectors of one type and space."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        space = self._space
        if space is not other._space and space != other._space:
            raise ValueError(self._mismatch)
        out = dict(self.terms)
        _accumulate(out, other.terms.items(), scale)
        return self._trusted(space, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._trusted(self._space, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        scalar = exact(scalar)
        if not scalar:
            return self._trusted(self._space, {})
        return self._trusted(self._space, {k: scalar * c for k, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._space == other._space
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._space, frozenset(self.terms.items())))
            _set(self, "_hash", h)
        return h


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


class UniPoly:
    """Dense univariate polynomial over the rationals.

    Coefficients are indexed by power of the variable; trailing zeros are
    trimmed so equality of polynomials is equality of coefficient tuples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "UniPoly":
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        return UniPoly([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def integral_01(self) -> Fraction:
        """Definite integral over the unit interval."""
        return sum((c / (k + 1) for k, c in enumerate(self.coeffs)), Fraction(0))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(rational_str(c))
            elif k == 1:
                parts.append(f"{rational_str(c)}*t")
            else:
                parts.append(f"{rational_str(c)}*t^{k}")
        return "UniPoly(" + " + ".join(parts) + ")"


def bernoulli_polynomial(n: int) -> UniPoly:
    """B_n(t) = sum_k C(n, k) B_k t^{n-k}."""
    if n < 0:
        raise ValueError("bernoulli_polynomial requires n >= 0")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] += binomial(n, k) * bernoulli_number(k)
    return UniPoly(coeffs)


def exp_series_ratio(max_order: int) -> list[UniPoly]:
    """Coefficients in z of z*(e^{zt} - 1)/(e^z - 1), up to z^max_order.

    Entry n is a polynomial in t, obtained by formal division of truncated
    exponential series.  These polynomials equal (B_n(t) - B_n)/n!, which is
    how they serve as an independent oracle for the homotopy recursion that
    produces the same sequence.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    # z*(e^{zt}-1)/(e^z-1) = N(z)/Q(z) with N_n = t^n/n! (n >= 1) and
    # Q_m = 1/(m+1)!, after cancelling one factor of z.
    numer = [UniPoly()] + [
        UniPoly.monomial(n, Fraction(1, factorial(n))) for n in range(1, max_order + 1)
    ]
    q = [Fraction(1, factorial(m + 1)) for m in range(max_order + 1)]
    out: list[UniPoly] = []
    for k in range(max_order + 1):
        acc = numer[k]
        for j in range(k):
            acc = acc - q[k - j] * out[j]
        out.append(acc)  # q[0] == 1, no division needed
    return out
