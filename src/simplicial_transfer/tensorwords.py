"""Words of graded letters and the sign machinery.

A word is a tuple of letters, and a caller says how to read each letter's
degree; the degree that drives signs is the shifted one, form or cochain
degree minus one.  The transfer engine's letters are the interned ids of
basis faces, whose degrees the bundle holds.

The Koszul rule is the single source of signs: moving an odd operator past
an element of degree d costs (-1)^d.  The shuffle product is built on it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable, Sequence

from .rationals import _accumulate

__all__ = ["koszul_sign", "shuffle"]


def koszul_sign(parities: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign for slotwise application: (-1)^(sum_{i<j} parity_j * degree_i)."""
    exponent = 0
    for i in range(len(degrees)):
        if degrees[i] % 2 == 0:
            continue
        for j in range(i + 1, len(parities)):
            exponent += parities[j]
    return -1 if exponent % 2 else 1


def _interleavings(p: int, q: int):
    return combinations(range(p + q), p)


def _shuffle_terms(u: Sequence, v: Sequence, degree_of: Callable[[Any], int]):
    """Yield (merged tuple, sign) over all order-preserving interleavings."""
    p, q = len(u), len(v)
    vdeg = [degree_of(x) for x in v]
    udeg = [degree_of(x) for x in u]
    for upos in _interleavings(p, q):
        upos_set = set(upos)
        merged: list = []
        exponent = 0
        ui = vi = 0
        seen_v_degree = 0
        for slot in range(p + q):
            if slot in upos_set:
                exponent += udeg[ui] * seen_v_degree
                merged.append(u[ui])
                ui += 1
            else:
                seen_v_degree += vdeg[vi]
                merged.append(v[vi])
                vi += 1
        yield tuple(merged), -1 if exponent % 2 else 1


def shuffle(u: tuple, v: tuple, degree_of: Callable[[Any], int]) -> dict[tuple, int]:
    """Shuffle product of two words as {word: integer coefficient}; the sign
    counts inversions weighted by the letter degrees, which ``degree_of``
    reads off a letter."""
    out: dict[tuple, int] = {}
    _accumulate(out, _shuffle_terms(u, v, degree_of), 1)
    return out
