"""Dupont's explicit simplicial contraction of polynomial forms onto cochains.

The building block is the dilation toward vertex e_i,

    phi_i(u, t_0..t_n) = ((1-u)t_0, ..., (1-u)t_i + u, ..., (1-u)t_n),

whose pullback sends t_j to (1-u)t_j + delta_{ij} u and dt_j to
(1-u)dt_j + (delta_{ij} - t_j) du.  The operator h^i takes the du-linear
part of the pullback and integrates u over [0, 1].  The bare fiber
integration (du written in front, plus sign) satisfies the Poincare identity
only up to a global -1, because no orientation for the fiber is canonical;
the shipped h^i includes the compensating sign so that

    1 - (evaluation at e_i) = d h^i + h^i d

holds on the nose.  That normalization is asserted by the identity battery.

Carried out on one monomial t^a dt_S with S = (s_1 < ... < s_k), k >= 1,
this is a closed form.  Put a_i := 0 when i = 0, and
B(p, q) = int_0^1 (1-u)^p u^q du = p! q! / (p+q+1)!.  Then

    h^i(t^a dt_S) = sum_{r=1}^{k} (-1)^r sum_{m=0}^{a_i} C(a_i, m)
                      B(|a| - a_i + m + k - 1, a_i - m)
                      t^{a with a_i -> m} (delta_{i,s_r} - t_{s_r}) dt_{S - s_r},

where the r-th dt factor supplies the du, the binomial sum expands
((1-u)t_i + u)^{a_i}, and (-1)^r moves du to the front with the global
sign.  h^i of a 0-form is 0.  Every beta value in the sum shares the
denominator (|a| + k)!, so the image is built in int numerators over it.
The tests keep the pullback itself as the oracle.

The degree-lowering operator assembles dilations weighted by elementary
forms,

    s_n = sum_{k=0}^{n-1} (-1)^k sum_{i_0<...<i_k} w_{i_0..i_k} h^{i_k}...h^{i_0},

where h^{i_0} acts first.  The (-1)^k is the orientation bookkeeping for
iterated fiber integrations; both normalizations here are pinned down by the
identity battery, not chosen freely.  A chain is h^{i_k} of the chain of its
prefix face (i_0 < ... < i_{k-1}), so each face costs one application of h.

s_n of one monomial is fused into one sum.  h^i, wedge and s_n run on the
same raw kernels: a form given as numerators keyed by packed monomials over
one denominator.  Each chain stays raw, h^i of it summed from the cached
images of its monomials over their common denominator and not reduced;
every part w_I ^ chain is then added, in numerators over the least common
multiple of all the parts' denominators, into one dict, and one Form is
built and reduced at the end.  h_operator and wedge wrap the same kernels
for a single Form.  The chain homotopy used by the transfer engine is
H = -s.

The permutations sigma of the vertices 1..n fix vertex 0, so they act on
the normal form by permuting exponent fields and dt bits, with the sign of
re-sorting the dt factors, both read per dt mask from a table of sigma.
By naturality sigma h^i sigma^-1 = h^sigma(i) and sigma w_I = w_sigma(I);
the h^i anticommute and w_I alternates, so sigma s sigma^-1 = s.  Hence s
columns are filled once per orbit: the fused sum runs only on a canonical
key, and any other key relabels its representative's column over the same
denominator.

The battery checks every monomial of the basis, and computes d m and f m
of each monomial once for all of its sweeps.  The homotopy record and the
n + 1 Poincare records check one identity, 1 - pi = dK + Kd, for the pairs
(pi, K) = (g f, s) and (eval_i, h^i), and one loop decides them all.  Each
identity on a monomial is one integer residual, its parts summed
unreduced over a common denominator and tested for emptiness, so no side
of it is built as a reduced Form: K m and K d m are read from the cached K
columns of the key of m and of the keys of d m, pi m off f m (g f m from
the elementary forms of the faces of f m, eval_i(m) as the entry of f m at
the vertex i), f s m and s s m from the f and s columns of the keys of s m,
and d K m is added into the residual by the raw kernel ``forms._d_into``
from the numerators of the cached K column.  So d builds a Form only for
each monomial's own d m.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations
from math import lcm

from .cochains import (
    Cochain,
    _elementary_form,
    _face_integrals,
    include_g,
    project_f,
    standard_simplex,
)
from .forms import (
    FIELD,
    _LOW,
    _OVERFLOW,
    Form,
    _d_into,
    _guard,
    _sort_sign,
    _table,
    _wedge_into,
    differential,
    format_form,
    monomial_basis,
)
from .rationals import _linear, binomial, factorial
from .reporting import Report

__all__ = [
    "h_operator",
    "s_operator",
    "homotopy_H",
    "check_contraction",
]


@lru_cache(maxsize=None)
def _weights(a_i: int, rest: int) -> tuple[int, ...]:
    """C(a_i, m) B(rest + m, a_i - m) (rest + a_i + 1)! for m = 0..a_i: the
    weights of h^i's closed form over its denominator, B(p, q) = p! q! / (p + q + 1)!."""
    return tuple(binomial(a_i, m) * factorial(rest + m) * factorial(a_i - m) for m in range(a_i + 1))


@lru_cache(maxsize=None)
def _h_monomial(n: int, i: int, key: int) -> Form:
    """h^i(t^a dt_S) by the closed form of the module docstring, on the
    packed key of the monomial."""
    shift = FIELD * n
    mask = key >> shift
    if not mask:
        # a 0-form acquires no du part under the dilation
        return Form.zero(n)
    a_i = key >> (FIELD * (i - 1)) & _LOW if i else 0
    dts = [j for j in range(n) if mask >> j & 1]  # dt_{j+1}, field j
    if (key + sum(1 << (FIELD * j) for j in dts)) & _guard(n):
        raise OverflowError(_OVERFLOW)
    rest = sum(key >> (FIELD * j) & _LOW for j in range(n)) - a_i + len(dts) - 1
    # per dt_s at position r: (-1)^r, the step from t^a dt_S to t_s dt_{S - s},
    # and to dt_{S - s} when s = i, the two terms of (delta_{i,s} - t_s) dt_{S - s}
    steps = [
        (r % 2, (1 << (FIELD * j)) - (1 << (shift + j)), j == i - 1 and -(1 << (shift + j)))
        for r, j in enumerate(dts, 1)
    ]
    out: dict = {}
    for m, weight in enumerate(_weights(a_i, rest)):
        base = key - ((a_i - m) << (FIELD * (i - 1))) if i else key
        for odd, raised, others in steps:
            signed = -weight if odd else weight
            # raised terms have distinct keys, but for s = i the raised term
            # of m - 1 is t_i^m dt_{S - i}, which the others term adds to
            out[base + raised] = -signed
            if others:
                value = out.pop(base + others, 0) + signed
                if value:
                    out[base + others] = value
    return Form._reduced(n, out, factorial(rest + a_i + 1))


def _h_raw(n: int, i: int, num: dict, den: int) -> tuple[dict, int]:
    """h^i of the form num / den, as numerators over a denominator, not
    reduced."""
    out, common = _linear([(coeff, _h_monomial(n, i, key)) for key, coeff in num.items()])
    return out, den * common


def h_operator(a: Form, i: int) -> Form:
    """Dilation homotopy toward vertex i; lowers form degree by one."""
    n = a.dim
    if not 0 <= i <= n:
        raise ValueError(f"vertex index {i} out of range for dimension {n}")
    return Form._reduced(n, *_h_raw(n, i, a.num, a.den))


def _renamed_mask(n: int, targets: tuple[int, ...], mask: int) -> tuple[int, int, tuple[int, ...]]:
    """The dt bits of the mask with vertex j + 1 renamed targets[j], in place
    above the n fields, the sign of sorting the renamed dt factors, and the
    shift that takes each exponent field to its renamed place."""
    moved = [v for j, v in enumerate(targets) if mask >> j & 1]
    shifts = tuple(FIELD * (v - 1) for v in targets)
    return sum(1 << (FIELD * n + v - 1) for v in moved), _sort_sign(moved), shifts


def _relabel(n: int, key: int, targets: tuple[int, ...]) -> tuple[int, int]:
    """The key with vertex j + 1 renamed targets[j] for j < n, and the sign
    of sorting its renamed dt factors into ascending order, read from a
    table per renaming keyed by the dt mask."""
    out, sign, shifts = _table(_renamed_mask, n, targets)[key >> (FIELD * n)]
    for to in shifts:
        out |= (key & _LOW) << to
        key >>= FIELD
    return out, sign


@lru_cache(maxsize=None)
def _s_monomial(n: int, key: int) -> Form:
    """s_n of one monomial.  The fused sum runs on the canonical key of its
    orbit (the vertices 1..n sorted by exponent, then dt bit); any other key
    relabels its representative's column (module docstring)."""
    if n > 1:
        shift = FIELD * n
        order = sorted(range(n), key=lambda j: (key >> (FIELD * j) & _LOW, key >> (shift + j) & 1))
        # key relabelled by the inverse of order is sign * rep, so rep
        # relabelled by order is sign * key
        rep, sign = _relabel(n, key, tuple(order.index(j) + 1 for j in range(n)))
        if rep != key:
            targets = tuple(j + 1 for j in order)
            column = _s_monomial(n, rep)
            num = {}
            for k, c in column.num.items():
                image, flip = _relabel(n, k, targets)
                num[image] = c if flip == sign else -c
            return Form._trusted(n, num, column.den)
    return _s_fused(n, key)


def _s_fused(n: int, key: int) -> Form:
    """s_n of one monomial, fused: the chains stay raw numerators over a
    denominator, and every w_I ^ chain adds into one dict, reduced once."""
    parts = []  # (sign, w_I, numerators, denominator) per nonzero chain
    # chains[face] = h^{i_k}...h^{i_0}(m) for face = (i_0 < ... < i_k), kept
    # only when nonzero; each longer chain is one h applied to its prefix's
    chains = {(): ({key: 1}, 1)}
    for k in range(n):
        # The (-1)^k weight normalizes the orientation of the iterated
        # dilations: without it the homotopy identity and s o s = 0 fail on
        # chains of length >= 2.  Distinct h^i anticommute, so this is
        # equivalent to reversing each chain and weighting by the parity of
        # the reversal.
        sign = -1 if k % 2 else 1
        longer = {}
        for face in combinations(range(n + 1), k + 1):
            prefix = chains.get(face[:-1])
            if prefix is None:
                continue
            num, den = chain = _h_raw(n, face[-1], *prefix)
            if num:
                longer[face] = chain
                parts.append((sign, _elementary_form(face, n), num, den))
        chains = longer
        if not chains:
            break
    common = lcm(*[w.den * den for _, w, _, den in parts])
    out: dict = {}
    for sign, w, num, den in parts:
        _wedge_into(out, n, w.num, num, sign * (common // (w.den * den)))
    return Form._reduced(n, out, common)


def _s_sum(a: Form, sign: int) -> Form:
    """sign * s_n(a), summed from the nonzero s columns."""
    n = a.dim
    columns = ((sign * coeff, _s_monomial(n, key)) for key, coeff in a.num.items())
    return Form._sum(n, [(c, column) for c, column in columns if column], a.den)


def s_operator(a: Form) -> Form:
    """Dupont's degree-lowering operator s_n; s_0 = 0."""
    return _s_sum(a, 1)


def homotopy_H(a: Form) -> Form:
    """The contraction homotopy, H = -s."""
    return _s_sum(a, -1)


def check_contraction(n: int, max_poly_degree: int) -> Report:
    """Evaluate the full contraction identity battery on the n-simplex over
    every monomial of polynomial degree up to the bound.

    Failures are recorded with a counterexample, never raised.
    """
    if n < 0 or max_poly_degree < 1:
        raise ValueError("need n >= 0 and max_poly_degree >= 1")
    report = Report(
        f"contraction identities on the {n}-simplex, polynomial degree <= {max_poly_degree}",
        dimension=n,
        poly_degree_bound=max_poly_degree,
    )
    monomials = list(monomial_basis(n, max_poly_degree))
    # per monomial, once for every sweep: its key, d m and f m
    rows = [(m, key, differential(m), project_f(m)) for m in monomials for key in m.num]
    simplex = standard_simplex(n)
    faces = simplex.simplices
    one = Form.one(n)

    def face_cases(predicate):
        for position, face in enumerate(faces):
            cochain = Cochain._trusted(simplex, {position: 1})
            yield None if predicate(cochain) else f"basis cochain of face {face}"

    # 1 - pi = dK + Kd (module docstring) as one residual per row,
    # (1 - pi - dK - Kd) m times den(f m) den(d m), failed exactly when a
    # numerator survives.  A row is a basis monomial (one key, coefficient 1
    # over 1), so every scalar is an int; pi(f m) is pi m times den(f m).
    def homotopy_cases(pi, column):
        for m, key, dm, fm in rows:
            scale, km = fm.den * dm.den, column(key)
            parts = [(scale, m)] + [(-c * dm.den, v) for c, v in pi(fm)]
            parts += [(-c * fm.den, column(k)) for k, c in dm.num.items()]
            out, common = _linear([(p * km.den, v) for p, v in parts])
            _d_into(out, n, km.num, -scale * common)
            yield format_form(m) if out else None

    def g_f(fm):
        return [(c, _elementary_form(faces[p], n)) for p, c in fm.num.items()]

    def evaluation(vertex):
        # eval_i(m) is the entry of f m at the vertex i, the position i of
        # the simplex
        return lambda fm: [(fm.num.get(vertex, 0), one)]

    # f s m and s s m: the nonzero f and s columns of the keys of s m, summed
    # unreduced by _cancels of the vector type of the column
    def zero_cases(kind, column):
        for m, key, _, _ in rows:
            parts = [(c, v) for k, c in _s_monomial(n, key).num.items() if (v := column(n, k))]
            yield None if kind._cancels(parts) else format_form(m)

    report.check(
        "f o g = 1 on the cochain basis",
        face_cases(lambda c: project_f(include_g(c)) == c),
        len(faces),
    )
    report.check("1 - g o f = ds + sd", homotopy_cases(g_f, partial(_s_monomial, n)), len(monomials))
    report.check("f o s = 0", zero_cases(Cochain, _face_integrals), len(monomials))
    report.check("s o s = 0", zero_cases(Form, _s_monomial), len(monomials))
    report.check(
        "s o g = 0 on the cochain basis",
        face_cases(lambda c: not s_operator(include_g(c))),
        len(faces),
    )
    report.check("s(1) = 0", ["the constant form 1" if s_operator(one) else None])
    for i in range(n + 1):
        cases = homotopy_cases(evaluation(i), partial(_h_monomial, n, i))
        report.check(f"1 - eval@{i} = d h^{i} + h^{i} d", cases, len(monomials))

    return report
