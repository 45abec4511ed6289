"""Rooted planar trees with all vertices of arity >= 2, and their evaluation
as operations.

A tree with n leaves encodes an n-ary operation: leaves receive the
inclusion g, each internal vertex of arity k receives the k-ary product of
the algebra side, each interior edge receives the homotopy H, and the root
receives either the projection f (product operations) or H (morphism
operations).  Reading from the leaves to the root yields the operation; no
slotwise application costs a Koszul sign, since a vertex and H are both odd
and so every H-capped subtree is even.  A tree is evaluated on a word
of the basis letter ids of a transfer bundle: a leaf takes g of the basis
cochain of its face, and the degree that drives its signs is the face's
shifted degree; a letter is the position of its simplex in the complex.

Trees are stored as nested children tuples; ``tree_to_text`` writes a
canonical text, unique per planar isomorphism class.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

__all__ = [
    "PlanarTree",
    "LEAF",
    "compositions",
    "enumerate_trees",
    "tree_count",
    "path_trees",
    "tree_to_text",
    "evaluate_tree_m",
]


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


class PlanarTree:
    __slots__ = ("children",)

    def __init__(self, children: tuple[PlanarTree, ...] = ()):
        if len(children) == 1:
            raise ValueError("internal vertices need arity >= 2")
        object.__setattr__(self, "children", children)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other) -> bool:
        return other.__class__ is PlanarTree and self.children == other.children

    def __hash__(self) -> int:
        return hash(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return sum(child.n_leaves for child in self.children)

    def __repr__(self) -> str:
        return f"PlanarTree({tree_to_text(self)!r})"


LEAF = PlanarTree()


def compositions(n: int, k: int):
    """Ordered tuples of k positive integers summing to n."""
    if k < 1 or k > n:
        return
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[PlanarTree, ...]:
    """All planar trees with n leaves and every vertex of arity >= 2, in a
    deterministic order without duplicates."""
    if n < 1:
        raise ValueError("need at least one leaf")
    if n == 1:
        return (LEAF,)
    out: list[PlanarTree] = []
    for k in range(2, n + 1):
        for comp in compositions(n, k):
            for kids in product(*(enumerate_trees(m) for m in comp)):
                out.append(PlanarTree(kids))
    return tuple(out)


def tree_count(n: int) -> int:
    """The number of planar trees with n leaves, counted without building
    one: the little Schröder number a(n - 1) (OEIS A001003), where a(0) =
    a(1) = 1 and (k + 1) a(k) = 3 (2k - 1) a(k - 1) - (k - 2) a(k - 2)."""
    if n < 1:
        raise ValueError("need at least one leaf")
    before, count = 1, 1  # a(k - 2), a(k - 1)
    for k in range(2, n):
        before, count = count, (3 * (2 * k - 1) * count - (k - 2) * before) // (k + 1)
    return count


def path_trees(n_plus_1: int, position: int) -> tuple[PlanarTree, ...]:
    """Binary trees with n_plus_1 leaves whose path from the given leaf
    (1-indexed) to the root passes through every internal vertex.

    Such trees correspond to words of length n in {left, right} with
    position-1 "right" steps: walking from the distinguished leaf down to the
    root, each vertex hangs one extra leaf on the other side.
    """
    if not 1 <= position <= n_plus_1:
        raise ValueError("leaf position out of range")
    n = n_plus_1 - 1
    if n == 0:
        return (LEAF,)
    i = position - 1
    out = []
    for right_steps in combinations(range(n), i):
        rset = set(right_steps)
        tree = LEAF
        for step in range(n):
            tree = PlanarTree((LEAF, tree)) if step in rset else PlanarTree((tree, LEAF))
        out.append(tree)
    return tuple(out)


def tree_to_text(tree: PlanarTree) -> str:
    if tree.is_leaf:
        return "*"
    return "(" + " ".join(tree_to_text(c) for c in tree.children) + ")"


# -- evaluation ----------------------------------------------------------


def _eval_vertex(tree: PlanarTree, ids: tuple[int, ...], bundle):
    """Value of the subtree composite up to (not including) the map attached
    to the outgoing edge; returns (degree, value)."""
    degrees = bundle._degrees
    out_degrees: list[int] = []
    values = []
    start = 0
    for child in tree.children:
        block = ids[start : start + child.n_leaves]
        start += len(block)
        if child.is_leaf:
            out_degrees.append(degrees[block[0]])
            values.append(bundle.g(bundle.letter(block[0])))
        else:
            # interior edge: H caps the child vertex
            child_degree, child_value = _eval_vertex(child, block, bundle)
            out_degrees.append(child_degree - 1)
            values.append(bundle.H(child_value))
    return sum(out_degrees) + 1, bundle.m_A(out_degrees, values)


def _check_inputs(tree: PlanarTree, ids) -> None:
    if len(ids) != tree.n_leaves:
        raise ValueError("arity mismatch: word length must equal the leaf count")
    if tree.is_leaf:
        raise ValueError("a single leaf carries no vertex operation")


def evaluate_tree_m(tree: PlanarTree, ids: tuple[int, ...], bundle):
    """The operation of a tree with f at the root, on a word of basis letter
    ids of the bundle; returns a cochain.  A leaf's sign degree is the
    shifted degree of its face, and its value is g of the face's basis
    cochain."""
    _check_inputs(tree, ids)
    _, value = _eval_vertex(tree, ids, bundle)
    return bundle.f(value)
