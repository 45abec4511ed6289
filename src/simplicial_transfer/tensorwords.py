"""Formal tensor words over a graded vector space and the sign machinery.

Letters carry the degree used in every sign computation; for concrete
carriers (forms, cochains) that is the shifted degree, form or cochain
degree minus one.  Words are tuples of letters, and formal sums of words
(or of tuples of words, for split tensors) live in :class:`TensorSum`.

The Koszul rule is the single source of signs: moving an odd operator past
an element of degree d costs (-1)^d.  The shuffle product and the splitting
maps are built on words.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Callable, Sequence

from .rationals import SparseVector, _accumulate

__all__ = [
    "Homog",
    "TensorSum",
    "koszul_sign",
    "shuffle",
    "compositions",
    "split_word",
]


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class Homog:
    """A homogeneous letter: a carrier plus the degree that drives signs."""

    __slots__ = ("carrier", "degree")

    def __init__(self, carrier: Any, degree: int):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "degree", degree)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other) -> bool:
        return other.__class__ is Homog and (
            (self.carrier, self.degree) == (other.carrier, other.degree)
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self.degree))

    def __repr__(self) -> str:
        return f"{self.carrier}:{self.degree}"


Word = tuple  # tuple[Homog, ...]


class TensorSum(SparseVector):
    """Sparse rational combination of hashable keys (words or word tuples)."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(None, terms)

    def __repr__(self) -> str:
        if not self:
            return "TensorSum(0)"
        return "TensorSum(" + " + ".join(f"{c}*{k}" for k, c in self.terms.items()) + ")"


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


def _homog_degree(h: Homog) -> int:
    return h.degree


def shuffle(u: Word, v: Word, degree_of: Callable[[Any], int] = _homog_degree) -> TensorSum:
    """Shuffle product of two words; the sign counts inversions weighted by
    the letter degrees, which ``degree_of`` reads off a letter."""
    out: dict[Word, int] = {}
    _accumulate(out, _shuffle_terms(u, v, degree_of), 1)
    return TensorSum._trusted(None, out)


def compositions(n: int, k: int):
    """Ordered tuples of k positive integers summing to n."""
    if k < 1 or k > n:
        return
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def split_word(word: Word, sizes: Sequence[int]) -> tuple[Word, ...]:
    """Cut a word into consecutive blocks of the given sizes."""
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(word[start : start + size])
        start += size
    return tuple(blocks)
