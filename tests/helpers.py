"""Helpers that only the tests use: cochain restriction, the interval
basis and the record format of single-simplex cochains, and the
generating-function oracle for the interval recursion.  They go through
the package's public constructors only."""

from __future__ import annotations

from fractions import Fraction

from simplicial_transfer.cochains import Cochain, basis_faces
from simplicial_transfer.forms import _check_face
from simplicial_transfer.rationals import UniPoly, exact, factorial, parse_rational, rational_str


def restrict_cochain(c: Cochain, face) -> Cochain:
    """Pull back along the face inclusion: local face J -> global face(J)."""
    face = _check_face(face, c.dim)
    terms = c.terms
    out = {}
    for local in basis_faces(len(face) - 1):
        coeff = terms.get(tuple(face[j] for j in local))
        if coeff is not None:
            out[local] = coeff
    return Cochain(len(face) - 1, out)


def cochain_from_interval_basis(c_one, c_t, c_dt) -> Cochain:
    """The interval cochain c_one * 1 + c_t * t + c_dt * dt, under
    1 = x(0)+x(1), t = x(1), dt = x(01)."""
    c_one, c_t, c_dt = exact(c_one), exact(c_t), exact(c_dt)
    return Cochain(1, {(0,): c_one, (1,): c_one + c_t, (0, 1): c_dt})


def cochain_records(c: Cochain) -> list[dict]:
    return [
        {"face": list(face), "coeff": rational_str(coeff)}
        for face, coeff in sorted(c.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def cochain_from_records(records, dim: int) -> Cochain:
    return Cochain(dim, [(tuple(r["face"]), parse_rational(r["coeff"])) for r in records])


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
