"""Dupont's explicit simplicial contraction of polynomial forms onto cochains.

The building block is the dilation toward vertex e_i,

    phi_i(u, t_0..t_n) = ((1-u)t_0, ..., (1-u)t_i + u, ..., (1-u)t_n),

whose pullback is computed in an internal extension of the form algebra by
the auxiliary pair (u, du); the operator h^i extracts the du-linear part and
integrates u over [0, 1].  The bare fiber integration (du written in front,
plus sign) satisfies the Poincare identity only up to a global -1, because
no orientation for the fiber is canonical; the shipped h^i includes the
compensating sign so that

    1 - (evaluation at e_i) = d h^i + h^i d

holds on the nose.  That normalization is asserted by the identity battery.

The degree-lowering operator assembles dilations weighted by elementary
forms,

    s_n = sum_{k=0}^{n-1} (-1)^k sum_{i_0<...<i_k} w_{i_0..i_k} h^{i_k}...h^{i_0},

where h^{i_0} acts first.  The (-1)^k is the orientation bookkeeping for
iterated fiber integrations; both normalizations here are pinned down by the
identity battery, not chosen freely.  The chain homotopy used by the
transfer engine is H = -s.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .cochains import (
    Cochain,
    basis_faces,
    elementary_form,
    include_g,
    project_f,
)
from .forms import (
    Form,
    differential,
    format_form,
    monomial_basis,
    vertex_evaluate,
    wedge,
)
from .reporting import CheckRecord, ContractionReport

__all__ = [
    "h_operator",
    "s_operator",
    "homotopy_H",
    "check_contraction",
]


@lru_cache(maxsize=None)
def _dilation_images(n: int, i: int):
    """Pullback images of the stored generators under the dilation toward
    vertex i, inside the extended algebra where index n+1 plays (u, du)."""
    ext = n + 1
    u_exp = tuple(1 if j == ext else 0 for j in range(1, ext + 1))
    zero = (0,) * ext

    def var(j: int) -> tuple[int, ...]:
        return tuple(1 if l == j else 0 for l in range(1, ext + 1))

    t_img: dict[int, Form] = {}
    dt_img: dict[int, Form] = {}
    for j in range(1, n + 1):
        tj = var(j)
        tj_u = tuple(a + b for a, b in zip(tj, u_exp))
        if j == i:
            # t_i -> (1-u) t_i + u,  dt_i -> (1-u) dt_i + (1 - t_i) du
            t_img[j] = Form(
                ext, {(tj, ()): Fraction(1), (tj_u, ()): Fraction(-1), (u_exp, ()): Fraction(1)}
            )
            dt_img[j] = Form(
                ext,
                {
                    (zero, (j,)): Fraction(1),
                    (u_exp, (j,)): Fraction(-1),
                    (zero, (ext,)): Fraction(1),
                    (tj, (ext,)): Fraction(-1),
                },
            )
        else:
            # t_j -> (1-u) t_j,  dt_j -> (1-u) dt_j - t_j du
            t_img[j] = Form(ext, {(tj, ()): Fraction(1), (tj_u, ()): Fraction(-1)})
            dt_img[j] = Form(
                ext,
                {
                    (zero, (j,)): Fraction(1),
                    (u_exp, (j,)): Fraction(-1),
                    (tj, (ext,)): Fraction(-1),
                },
            )
    return t_img, dt_img


@lru_cache(maxsize=None)
def _h_monomial(n: int, i: int, exps: tuple[int, ...], dts: tuple[int, ...]) -> Form:
    if not dts:
        # a 0-form acquires no du part under the dilation
        return Form.zero(n)
    t_img, dt_img = _dilation_images(n, i)
    ext = n + 1
    acc = Form.one(ext)
    for pos, e in enumerate(exps):
        img = t_img[pos + 1]
        for _ in range(e):
            acc = wedge(acc, img)
    for s in dts:
        acc = wedge(acc, dt_img[s])
        if not acc:
            break
    out: dict = {}
    for (ext_exps, ext_dts), coeff in acc.terms.items():
        if ext not in ext_dts:
            continue
        u_power = ext_exps[-1]
        rest = ext_dts[:-1]  # du carries the largest index, so it sits last
        # rewrite dt_{rest} du = (-1)^{len(rest)} du dt_{rest}, integrate u,
        # and apply the global orientation sign
        sign = 1 if len(rest) % 2 else -1
        key = (ext_exps[:-1], rest)
        new = out.get(key, Fraction(0)) + sign * coeff / (u_power + 1)
        if new == 0:
            out.pop(key, None)
        else:
            out[key] = new
    return Form(n, out)


def h_operator(a: Form, i: int) -> Form:
    """Dilation homotopy toward vertex i; lowers form degree by one."""
    if not 0 <= i <= a.dim:
        raise ValueError(f"vertex index {i} out of range for dimension {a.dim}")
    total = Form.zero(a.dim)
    for (exps, dts), coeff in a.terms.items():
        total = total + coeff * _h_monomial(a.dim, i, exps, dts)
    return total


@lru_cache(maxsize=None)
def _s_monomial(n: int, exps: tuple[int, ...], dts: tuple[int, ...]) -> Form:
    total = Form.zero(n)
    base = Form.monomial(n, exps, dts)
    for k in range(n):
        # The (-1)^k weight normalizes the orientation of the iterated
        # dilations: without it the homotopy identity and s o s = 0 fail on
        # chains of length >= 2.  Distinct h^i anticommute, so this is
        # equivalent to reversing each chain and weighting by the parity of
        # the reversal.
        sign = -1 if k % 2 else 1
        for face in combinations(range(n + 1), k + 1):
            chain = base
            for vertex in face:  # h^{i_0} acts first
                chain = h_operator(chain, vertex)
                if not chain:
                    break
            if not chain:
                continue
            total = total + sign * wedge(elementary_form(face, n), chain)
    return total


def s_operator(a: Form) -> Form:
    """Dupont's degree-lowering operator s_n; s_0 = 0."""
    total = Form.zero(a.dim)
    for (exps, dts), coeff in a.terms.items():
        total = total + coeff * _s_monomial(a.dim, exps, dts)
    return total


def homotopy_H(a: Form) -> Form:
    """The contraction homotopy, H = -s."""
    return -s_operator(a)


def _vertex_projection(a: Form, i: int) -> Form:
    return vertex_evaluate(a, i) * Form.one(a.dim)


def check_contraction(n: int, max_poly_degree: int) -> ContractionReport:
    """Evaluate the full contraction identity battery on the n-simplex over
    every monomial of polynomial degree up to the bound.

    Failures are recorded with a counterexample, never raised.
    """
    if n < 0 or max_poly_degree < 1:
        raise ValueError("need n >= 0 and max_poly_degree >= 1")
    report = ContractionReport(dimension=n, poly_degree_bound=max_poly_degree)
    monomials = list(monomial_basis(n, max_poly_degree))
    faces = basis_faces(n)

    def run(name: str, size: int, failures) -> None:
        first = next(iter(failures), None)
        report.checks.append(
            CheckRecord(name=name, basis_size=size, passed=first is None, counterexample=first)
        )

    def face_failures(predicate):
        for face in faces:
            if not predicate(Cochain.basis_element(n, face)):
                yield f"basis cochain of face {face}"

    run(
        "f o g = 1 on the cochain basis",
        len(faces),
        face_failures(lambda c: project_f(include_g(c)) == c),
    )

    def homotopy_failures():
        for m in monomials:
            lhs = m - include_g(project_f(m))
            rhs = differential(s_operator(m)) + s_operator(differential(m))
            if lhs != rhs:
                yield format_form(m)

    run("1 - g o f = ds + sd", len(monomials), homotopy_failures())

    def zero_failures(op):
        for m in monomials:
            if op(m):
                yield format_form(m)

    run("f o s = 0", len(monomials), zero_failures(lambda m: bool(project_f(s_operator(m)))))
    run("s o s = 0", len(monomials), zero_failures(lambda m: bool(s_operator(s_operator(m)))))
    run(
        "s o g = 0 on the cochain basis",
        len(faces),
        face_failures(lambda c: not s_operator(include_g(c))),
    )
    run(
        "s(1) = 0",
        1,
        iter(() if not s_operator(Form.one(n)) else ("the constant form 1",)),
    )

    for i in range(n + 1):
        def poincare_failures(vertex=i):
            for m in monomials:
                lhs = m - _vertex_projection(m, vertex)
                rhs = differential(h_operator(m, vertex)) + h_operator(differential(m), vertex)
                if lhs != rhs:
                    yield format_form(m)

        run(f"1 - eval@{i} = d h^{i} + h^{i} d", len(monomials), poincare_failures())

    return report
