"""The form kernels in Fraction arithmetic, as an oracle for the package's
integer-numerator kernels.

Each function takes and returns plain term dicts, keyed as a vector's
``terms`` view keys them (a form by (exponent tuple, dt index tuple), a
cochain by face), with nonzero Fraction values; ``terms`` is such a dict.
The code is the package's Fraction code from before forms stored one
denominator per vector, on tuple keys (``_merge_dts`` included), from before
monomials were packed into ints; the tests require equal results term for
term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from simplicial_transfer.rationals import binomial, factorial


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


def _add(out: dict, key, value) -> None:
    new = out.get(key, Fraction(0)) + value
    if new == 0:
        out.pop(key, None)
    else:
        out[key] = new


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ae, ad), ac in a.items():
        for (be, bd), bc in b.items():
            merged = _merge_dts(ad, bd)
            if merged is None:
                continue
            sign, dts = merged
            _add(out, (tuple(x + y for x, y in zip(ae, be)), dts), sign * ac * bc)
    return out


def differential(a: dict) -> dict:
    out: dict = {}
    for (exps, dts), coeff in a.items():
        for pos, e in enumerate(exps):
            if e == 0:
                continue
            j = pos + 1
            if j in dts:
                continue
            below = sum(1 for s in dts if s < j)
            sign = -1 if below % 2 else 1
            new_exps = exps[:pos] + (e - 1,) + exps[pos + 1 :]
            _add(out, (new_exps, tuple(sorted(dts + (j,)))), sign * e * coeff)
    return out


def h_monomial(i: int, exps: tuple[int, ...], dts: tuple[int, ...]) -> dict:
    """h^i(t^exps dt_dts) by the closed form of Dupont's homotopy."""
    out: dict = {}
    if not dts:
        return out
    a_i = exps[i - 1] if i else 0
    rest = sum(exps) - a_i + len(dts) - 1
    for m in range(a_i + 1):
        p, q = rest + m, a_i - m
        weight = binomial(a_i, m) * Fraction(factorial(p) * factorial(q), factorial(p + q + 1))
        base = exps[: i - 1] + (m,) + exps[i:] if i else exps
        for r, s in enumerate(dts, 1):
            signed = -weight if r % 2 else weight
            others = dts[: r - 1] + dts[r:]
            _add(out, (base[: s - 1] + (base[s - 1] + 1,) + base[s:], others), -signed)
            if s == i:
                _add(out, (base, others), signed)
    return out


def h_operator(a: dict, i: int) -> dict:
    out: dict = {}
    for (exps, dts), coeff in a.items():
        for key, value in h_monomial(i, exps, dts).items():
            _add(out, key, coeff * value)
    return out


def s_operator(a: dict, dim: int) -> dict:
    """Dupont's s_n: sum over k and faces (i_0 < ... < i_k) of
    (-1)^k w_{i_0..i_k} h^{i_k} ... h^{i_0}."""
    out: dict = {}
    for k in range(dim):
        for face in combinations(range(dim + 1), k + 1):
            chain = a
            for i in face:
                chain = h_operator(chain, i)
            for key, value in wedge(elementary_form(face, dim), chain).items():
                _add(out, key, (-1) ** k * value)
    return out


def project_f(a: dict, dim: int) -> dict:
    """Integrate over every face of the dim-simplex."""
    out: dict = {}
    for (exps, dts), coeff in a.items():
        k = len(dts)
        support = set(dts).union(j for j, e in enumerate(exps, 1) if e)
        if len(support) > k + 1:
            continue
        numer = 1
        for e in exps:
            numer *= factorial(e)
        value = Fraction(numer, factorial(sum(exps) + k))
        for vertex in range(dim + 1):
            if vertex in dts or not support <= set(dts) | {vertex}:
                continue
            face = tuple(sorted(dts + (vertex,)))
            _add(out, face, coeff * (-value if face.index(vertex) % 2 else value))
    return out


def generator(dim: int, kind: str, index: int) -> dict:
    """t_index or dt_index on the dim-simplex, index 0 rewritten through
    t_0 = 1 - (t_1 + ... + t_n) and dt_0 = -(dt_1 + ... + dt_n)."""
    zero_exps = (0,) * dim
    if kind == "t":
        if index == 0:
            terms = {(zero_exps, ()): Fraction(1)}
            for j in range(1, dim + 1):
                exps = tuple(1 if i == j else 0 for i in range(1, dim + 1))
                terms[(exps, ())] = Fraction(-1)
            return terms
        exps = tuple(1 if i == index else 0 for i in range(1, dim + 1))
        return {(exps, ()): Fraction(1)}
    if index == 0:
        return {(zero_exps, (j,)): Fraction(-1) for j in range(1, dim + 1)}
    return {(zero_exps, (index,)): Fraction(1)}


def elementary_form(face: tuple[int, ...], dim: int) -> dict:
    total: dict = {}
    for j, vertex in enumerate(face):
        term = generator(dim, "t", vertex)
        for l, other in enumerate(face):
            if l != j:
                term = wedge(term, generator(dim, "dt", other))
        for key, value in term.items():
            _add(total, key, (-1 if j % 2 else 1) * factorial(len(face) - 1) * value)
    return total


def include_g(c: dict, dim: int) -> dict:
    out: dict = {}
    for face, coeff in c.items():
        for key, value in elementary_form(face, dim).items():
            _add(out, key, coeff * value)
    return out
