#!/usr/bin/env python3
"""Planar trees as higher operations: the sum over trees and the recursion.

Every planar tree with n leaves and vertices of arity at least two encodes a
composite of inclusions, products, and homotopies; summing over all of them
gives the transferred n-ary operation.  Grouping the trees at the root turns
the sum into a recursion, and the two evaluations agree exactly.
"""

from itertools import product

from simplicial_transfer import (
    SimplexContraction,
    enumerate_trees,
    evaluate_tree_m,
    path_trees,
    transferred_m,
    transferred_m_trees,
    tree_count,
    tree_to_text,
)

print("Tree counts follow the super-Catalan sequence:")
print(" ", [tree_count(n) for n in range(1, 7)])
print()

print("The three trees with three leaves:")
for tree in enumerate_trees(3):
    print(" ", tree_to_text(tree))
print()

bundle = SimplexContraction(1)
# tree evaluation runs on words of basis letter ids; a letter id is the
# position of its face F in the complex, and its signs read dim F - 1
t_id, dt_id = bundle.complex.index[(1,)], bundle.complex.index[(0, 1)]
t, dt = bundle.letter(t_id), bundle.letter(dt_id)
letter = {t: t_id, dt: dt_id}

print("Sum over trees versus the root-grouped recursion, on every word of")
print("interval basis cochains of length up to 4:")
basis = [bundle.letter(i) for i in bundle.basis_ids()]
agree = all(
    transferred_m(bundle, word) == transferred_m_trees(bundle, word)
    for n in range(1, 5)
    for word in product(basis, repeat=n)
)
print("  agreement:", agree)
print()

print("Only binary trees whose path from the t-leaf to the root visits every")
print("vertex contribute to m_3(dt, t, dt); each contributes with sign (-1)^i:")
base = transferred_m(bundle, (t, dt, dt))
for i in range(3):
    word = (dt,) * i + (t,) + (dt,) * (2 - i)
    trees = path_trees(3, i + 1)
    letters = tuple(map(letter.get, word))
    contributions = [evaluate_tree_m(tree, letters, bundle) for tree in trees]
    print(
        f"  t in slot {i + 1}: {len(trees)} path trees "
        f"{[tree_to_text(tr) for tr in trees]}, "
        f"each equal to {'+' if i % 2 == 0 else '-'}m_3(t,dt,dt): "
        f"{all(c == (base if i % 2 == 0 else -1 * base) for c in contributions)}"
    )
