"""Exact scalar arithmetic: rationals, Bernoulli numbers and polynomials.

Every scalar in this package is a ``fractions.Fraction``, which already
guarantees the canonical-form invariants we rely on (lowest terms, positive
denominator, zero stored as 0/1).  The checking constructors of forms and
cochains accept only ints and Fractions (see ``exact``).  The Bernoulli
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
