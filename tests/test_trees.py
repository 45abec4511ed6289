import pytest

from simplicial_transfer.trees import (
    LEAF,
    PlanarTree,
    compositions,
    enumerate_trees,
    evaluate_tree_m,
    path_trees,
    tree_count,
    tree_to_text,
)

from helpers import evaluate_tree_G


def test_compositions():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(4, 1)) == [(4,)]
    assert list(compositions(2, 3)) == []


def test_counts_match_recurrence():
    # the little Schroeder numbers, OEIS A001003, for 1..11 leaves
    assert [tree_count(n) for n in range(1, 12)] == [
        1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859
    ]


def test_count_by_recurrence_matches_the_enumeration():
    # tree_count runs the recurrence and builds no tree; the enumeration is
    # its independent check
    for n in range(1, 10):
        assert tree_count(n) == len(enumerate_trees(n))
    with pytest.raises(ValueError):
        tree_count(0)


def test_encodings_unique():
    for n in range(1, 7):
        trees = enumerate_trees(n)
        encodings = {tree_to_text(t) for t in trees}
        assert len(encodings) == len(trees)
        assert all(t.n_leaves == n for t in trees)


def test_no_unary_vertices():
    with pytest.raises(ValueError):
        PlanarTree((LEAF,))


def test_text_round_trip():
    assert tree_to_text(LEAF) == "*"
    two = enumerate_trees(2)[0]
    assert tree_to_text(two) == "(* *)"
    nested = PlanarTree((LEAF, PlanarTree((LEAF, LEAF, LEAF, LEAF)), LEAF))
    text = tree_to_text(nested)
    assert text == "(* (* * * *) *)"
    # trees are immutable values: equal trees built apart are equal and
    # hash equal
    apart = PlanarTree((PlanarTree(()), PlanarTree((LEAF,) * 4), PlanarTree(())))
    assert apart is not nested and apart == nested and hash(apart) == hash(nested)
    assert nested != LEAF and LEAF != ()
    with pytest.raises(AttributeError):
        nested.children = (LEAF, LEAF)
    assert tree_to_text(nested) == text
    # the text determines the tree: reading it back through the inverse
    # table gives every tree again
    for n in range(1, 6):
        trees = enumerate_trees(n)
        by_text = {tree_to_text(t): t for t in trees}
        assert [by_text[tree_to_text(t)] for t in trees] == list(trees)


def _is_binary(tree):
    if tree.is_leaf:
        return True
    return len(tree.children) == 2 and all(_is_binary(c) for c in tree.children)


def _path_hits_all_vertices(tree, leaf_index):
    """Filter oracle: walk to the distinguished leaf, counting vertices on
    the way; the path property holds when that count equals all of them."""

    def count_vertices(t):
        if t.is_leaf:
            return 0
        return 1 + sum(count_vertices(c) for c in t.children)

    def depth_to_leaf(t, target):
        if t.is_leaf:
            return (0, 0 == target, 1)
        seen = 0
        vertices_on_path = None
        for child in t.children:
            sub_vertices, found, leaves = depth_to_leaf(child, target - seen)
            if found:
                vertices_on_path = sub_vertices
            seen += leaves
        if vertices_on_path is None:
            return (0, False, seen)
        return (1 + vertices_on_path, True, seen)

    on_path, found, _ = depth_to_leaf(tree, leaf_index)
    assert found
    return on_path == count_vertices(tree)


def test_path_trees_against_filter_oracle():
    for n_plus_1 in range(2, 6):
        for position in range(1, n_plus_1 + 1):
            direct = set(path_trees(n_plus_1, position))
            filtered = {
                t
                for t in enumerate_trees(n_plus_1)
                if _is_binary(t) and _path_hits_all_vertices(t, position - 1)
            }
            assert direct == filtered


def test_path_tree_counts_are_binomial():
    from simplicial_transfer.rationals import binomial

    for n in range(1, 5):
        for i in range(n + 1):
            assert len(path_trees(n + 1, i + 1)) == binomial(n, i)


def test_path_trees_examples():
    assert len(path_trees(2, 1)) == 1
    (comb,) = path_trees(3, 1)
    assert comb == PlanarTree((PlanarTree((LEAF, LEAF)), LEAF))
    with pytest.raises(ValueError):
        path_trees(3, 4)


class _Token(str):
    """String-valued algebra element for structural evaluation tests."""

    def __rmul__(self, scalar):
        if scalar == 1:
            return self
        return _Token(f"{scalar}*{self}")

    def __neg__(self):
        return _Token(f"-{self}")

    def __bool__(self):
        return True


class _TracingBundle:
    """Records the composite an evaluation performs instead of computing.
    Its basis letters are named b1, b2, ..., of degree zero, and the letter
    of an id is its name."""

    def __init__(self, n_letters):
        self._names = [f"b{i}" for i in range(1, n_letters + 1)]
        self._degrees = [0] * n_letters

    def letter(self, letter_id):
        return self._names[letter_id]

    def g(self, letter):
        return _Token(f"g({letter})")

    def H(self, value):
        return _Token(f"H({value})")

    def f(self, value):
        return _Token(f"f({value})")

    def m_A(self, degrees, values):
        return _Token(f"m{len(values)}({', '.join(values)})")


def test_tree_evaluation_composition_pattern():
    # the 6-leaf tree with a 4-ary vertex feeding the middle slot of a
    # ternary root reads f o m3 o (g, H o m4 o (g,g,g,g), g)
    tree = PlanarTree((LEAF, PlanarTree((LEAF,) * 4), LEAF))
    ids = tuple(range(6))
    out = evaluate_tree_m(tree, ids, _TracingBundle(6))
    assert out == "f(m3(g(b1), H(m4(g(b2), g(b3), g(b4), g(b5))), g(b6)))"
    out = evaluate_tree_G(tree, ids, _TracingBundle(6))
    assert out == "H(m3(g(b1), H(m4(g(b2), g(b3), g(b4), g(b5))), g(b6)))"


def test_tree_evaluation_input_validation():
    tree = enumerate_trees(2)[0]
    ids = (0,)
    with pytest.raises(ValueError):
        evaluate_tree_m(tree, ids, _TracingBundle(1))
    with pytest.raises(ValueError):
        evaluate_tree_m(LEAF, ids, _TracingBundle(1))


def test_higher_vertices_vanish_over_binary_algebras():
    from simplicial_transfer.transfer import SimplexContraction

    bundle = SimplexContraction(1)
    ternary = PlanarTree((LEAF, LEAF, LEAF))
    ids = (bundle._ids[(0, 1)],) * 3
    assert not evaluate_tree_m(ternary, ids, bundle)


def test_a_tree_repr_shows_its_text():
    assert repr(LEAF) == "PlanarTree('*')"
    assert [repr(t) for t in enumerate_trees(3)] == [
        "PlanarTree('(* (* *))')",
        "PlanarTree('((* *) *)')",
        "PlanarTree('(* * *)')",
    ]


def test_one_leaf_has_one_path_tree():
    assert path_trees(1, 1) == (LEAF,)


def test_a_tree_needs_a_leaf():
    with pytest.raises(ValueError, match="need at least one leaf"):
        enumerate_trees(0)
