"""Words of graded letters and their shuffle product.

A word is a tuple of letters, and a caller says how to read each letter's
degree; the degree that drives signs is the shifted one, form or cochain
degree minus one.  A transfer engine's letter is the position of its
simplex in the complex, and the bundle holds the letters' degrees.

A shuffle's sign is the Koszul rule for its interleaving: moving a letter
of degree d past one of degree e costs (-1)^(de).
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable, Sequence

from .rationals import _accumulate

__all__ = ["shuffle"]


def _shuffle_terms(u: Sequence, v: Sequence, degree_of: Callable[[Any], int]):
    """Yield (merged tuple, sign) over all order-preserving interleavings."""
    p, q = len(u), len(v)
    vdeg = [degree_of(x) for x in v]
    udeg = [degree_of(x) for x in u]
    for upos in combinations(range(p + q), p):
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
