"""The span-membership oracle for split shuffles, and the slotwise Koszul
application of operators to words: test-only tools over formal words.

The membership oracle is the finite linear-algebra instance of the
statement that splitting a shuffle yields outer shuffles of groupings plus
terms with a shuffle inside one slot.  Acceptance criterion 11 asks it on
every split shuffle of short words.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Any, Callable, Sequence

from simplicial_transfer.rationals import SparseVector, exact
from simplicial_transfer.tensorwords import shuffle

from helpers import koszul_sign, letter_degree


def koszul_apply(
    operators: Sequence[tuple[Callable[[tuple], Any], int]], word: tuple
) -> SparseVector:
    """Apply one operator per letter (name, degree) with the Koszul sign.

    Each operator is a pair (fn, parity); fn maps a letter to a letter or to
    a list of (coefficient, letter) pairs.
    """
    if len(operators) != len(word):
        raise ValueError("arity mismatch: one operator per letter")
    sign = koszul_sign([p for _, p in operators], [letter_degree(a) for a in word])
    slots: list[list[tuple[Fraction, tuple]]] = []
    for (fn, _), letter in zip(operators, word):
        image = fn(letter)
        if isinstance(image, list):
            slots.append([(exact(c), h) for c, h in image])
        else:
            slots.append([(Fraction(1), image)])
    terms = []
    for combo in product(*slots):
        coeff = Fraction(sign)
        for c, _ in combo:
            coeff *= c
        terms.append((tuple(h for _, h in combo), coeff))
    return SparseVector(None, terms)


def word_degree(word: tuple) -> int:
    return sum(map(letter_degree, word))


def outer_shuffle(xs: Sequence[tuple], ys: Sequence[tuple]) -> SparseVector:
    """Shuffle two tuples of words as words-of-words; each inner word acts as
    a single letter whose degree is the sum of its letters' degrees."""
    return SparseVector(None, shuffle(tuple(xs), tuple(ys), word_degree))


# -- span membership for split shuffles ----------------------------------


def _multiset_splits(letters: tuple, parts: int):
    """All ways to distribute distinct letters into `parts` nonempty ordered
    groups (as tuples of sub-multisets, order inside a group not yet fixed)."""
    for assignment in product(range(parts), repeat=len(letters)):
        groups = [[] for _ in range(parts)]
        for letter, slot in zip(letters, assignment):
            groups[slot].append(letter)
        if all(groups):
            yield tuple(tuple(g) for g in groups)


def _arrangements(letters: tuple):
    return sorted(set(permutations(letters)), key=repr)


def _span_generators(letters: tuple, k: int) -> list[dict]:
    """Spanning set of the target subspace inside k-fold split tensors over
    the given letters: outer shuffles of groupings, plus split tensors with a
    shuffle in one slot."""
    gens: list[dict] = []
    # (a) outer shuffles of a p-block and a q-block grouping, p + q = k
    for p in range(1, k):
        q = k - p
        for assignment in product(range(2), repeat=len(letters)):
            left = tuple(l for l, a in zip(letters, assignment) if a == 0)
            right = tuple(l for l, a in zip(letters, assignment) if a == 1)
            if len(left) < p or len(right) < q:
                continue
            for lgroups in _multiset_splits(left, p):
                for rgroups in _multiset_splits(right, q):
                    for lwords in product(*(_arrangements(g) for g in lgroups)):
                        for rwords in product(*(_arrangements(g) for g in rgroups)):
                            vec = dict(outer_shuffle(lwords, rwords).terms)
                            if vec:
                                gens.append(vec)
    # (b) split tensors with one slot an inner shuffle
    for groups in _multiset_splits(letters, k):
        for j in range(k):
            slot = groups[j]
            if len(slot) < 2:
                continue
            for cut in product(range(2), repeat=len(slot)):
                u = tuple(l for l, a in zip(slot, cut) if a == 0)
                v = tuple(l for l, a in zip(slot, cut) if a == 1)
                if not u or not v:
                    continue
                for uw in _arrangements(u):
                    for vw in _arrangements(v):
                        inner = shuffle(uw, vw, letter_degree)
                        for others in product(
                            *(
                                _arrangements(g) if i != j else ((),)
                                for i, g in enumerate(groups)
                            )
                        ):
                            vec: dict = {}
                            for word, coeff in inner.items():
                                grouped = tuple(
                                    word if i == j else others[i] for i in range(k)
                                )
                                vec[grouped] = vec.get(grouped, Fraction(0)) + coeff
                            vec = {kk: c for kk, c in vec.items() if c}
                            if vec:
                                gens.append(vec)
    return gens


def _reduce(vec: dict, pivots: dict) -> dict:
    vec = {k: c for k, c in vec.items() if c}
    while True:
        hit = None
        for key in vec:
            if key in pivots:
                if hit is None or key > hit:
                    hit = key
        if hit is None:
            return vec
        coeff = vec[hit]
        for key, c in pivots[hit].items():
            new = vec.get(key, Fraction(0)) - coeff * c
            if new == 0:
                vec.pop(key, None)
            else:
                vec[key] = new


def _echelon_insert(vec: dict, pivots: dict) -> None:
    vec = _reduce(vec, pivots)
    if not vec:
        return
    pivot = max(vec)
    inv = 1 / vec[pivot]
    pivots[pivot] = {k: c * inv for k, c in vec.items()}


def shuffle_span_membership(x: SparseVector, max_letters: int = 5) -> bool:
    """Decide whether a sum of k-fold split words lies in the span of outer
    shuffles of groupings plus split words with a shuffled slot.

    Works over formal letters (name, degree).  All terms must share one
    block count k and one letter multiset; at most ``max_letters`` letters.
    """
    if not x:
        return True
    keys = list(x.num)
    k = len(keys[0])
    if any(len(key) != k for key in keys):
        raise ValueError("terms must share the block count")
    letters = tuple(sorted(h for w in keys[0] for h in w))
    if len(letters) > max_letters:
        raise ValueError(f"instance too large: more than {max_letters} letters")
    for key in keys:
        flat = tuple(sorted(h for w in key for h in w))
        if flat != letters:
            raise ValueError("terms must share the letter multiset")
    return not _reduce(dict(x.terms), _span_pivots(letters, k))


@lru_cache(maxsize=256)
def _span_pivots(letters: tuple, k: int) -> dict:
    """Echelon pivots of the span generators for one letter multiset and
    block count; shared by every call on the same pattern, so read only."""
    pivots: dict = {}
    for gen in _span_generators(letters, k):
        _echelon_insert(gen, pivots)
    return pivots
