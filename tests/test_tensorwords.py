from fractions import Fraction
from itertools import product

import pytest

from simplicial_transfer.rationals import SparseVector
from simplicial_transfer.tensorwords import shuffle

from helpers import deconcatenations, formal_word, koszul_sign, letter_degree
from span_oracle import koszul_apply, shuffle_span_membership


def word_names(word):
    return tuple(name for name, _ in word)


def shuffled(u, v):
    """u sh v as a vector, to add and scale."""
    return SparseVector(None, shuffle(u, v, letter_degree))


def test_koszul_sign_basics():
    assert koszul_sign([0, 0, 0], [1, 1, 1]) == 1
    # one odd operator in the second slot passing one odd element
    assert koszul_sign([0, 1], [1, 0]) == -1
    assert koszul_sign([1, 0], [0, 1]) == 1


def test_koszul_apply_examples():
    a = ("a", 1)
    b = ("b", 0)
    ident = lambda h: h
    cap = lambda h: (f"H{h[0]}", h[1] - 1)
    # parity-0 operators never produce a sign
    out = koszul_apply([(ident, 0), (ident, 0)], (a, b))
    assert out == SparseVector(None, {(a, b): Fraction(1)})
    # an odd operator in the second slot passes the odd letter a
    out = koszul_apply([(ident, 0), (cap, 1)], (a, b))
    assert out == SparseVector(None, {(a, ("Hb", -1)): Fraction(-1)})
    # an odd operator in the first slot passes nothing
    out = koszul_apply([(cap, 1), (ident, 0)], (a, b))
    assert out == SparseVector(None, {(("Ha", 0), b): Fraction(1)})
    with pytest.raises(ValueError):
        koszul_apply([(ident, 0)], (a, b))


def test_koszul_apply_composes():
    # slotwise application of composites equals the two applications in
    # sequence, up to the interchange sign (-1)^{sum_{i<j} |phi_j||psi_i|};
    # each operator's degree shift must agree with its parity mod 2
    letters = formal_word("abc", (1, 2, 0))
    for p_phi, p_psi in product((0, 1), repeat=2):
        phi = lambda h, s=p_phi: (f"P{h[0]}", h[1] + s)
        psi = lambda h, s=p_psi: (f"Q{h[0]}", h[1] + s - 2)
        once = koszul_apply(
            [(lambda h: phi(psi(h)), (p_phi + p_psi) % 2)] * 3, letters
        )
        first = koszul_apply([(psi, p_psi)] * 3, letters)
        total = SparseVector(None)
        for word, coeff in first.terms.items():
            total = total + coeff * koszul_apply([(phi, p_phi)] * 3, word)
        interchange = koszul_sign([p_phi] * 3, [p_psi] * 3)
        assert once == interchange * total


def test_shuffle_two_letters():
    for da, db in product((-1, 0, 1), repeat=2):
        u = formal_word("a", (da,))
        v = formal_word("b", (db,))
        out = shuffle(u, v, letter_degree)
        sign = -1 if (da * db) % 2 else 1
        assert out == {(u[0], v[0]): 1, (v[0], u[0]): sign}


def test_shuffle_displayed_example():
    # a1 a2 sh a3 = a1a2a3 + (-1)^{|a2||a3|} a1a3a2 + (-1)^{(|a1|+|a2|)|a3|} a3a1a2
    d = {"a": 1, "b": 1, "c": 1}
    u = formal_word("ab", (d["a"], d["b"]))
    v = formal_word("c", (d["c"],))
    out = shuffle(u, v, letter_degree)
    a, b = u
    (c,) = v
    assert out == {(a, b, c): 1, (a, c, b): -1, (c, a, b): 1}


def test_shuffle_term_count():
    u = formal_word("ab", (0, 0))
    v = formal_word("cd", (0, 0))
    assert len(shuffle(u, v, letter_degree)) == 6


def test_shuffle_graded_commutative_and_associative():
    degrees = (-1, 0, 1)
    for d in product(degrees, repeat=3):
        a = formal_word("a", d[:1])
        b = formal_word("b", d[1:2])
        c = formal_word("c", d[2:])
        ab = shuffled(a, b)
        # commutativity on single letters and on a pair against a letter
        sign = -1 if (d[0] * d[1]) % 2 else 1
        assert ab == sign * shuffled(b, a)
        pair = formal_word("ab", d[:2])
        pair_sign = -1 if ((d[0] + d[1]) * d[2]) % 2 else 1
        assert shuffled(pair, c) == pair_sign * shuffled(c, pair)
        # associativity: shuffle of shuffles agree termwise
        left = SparseVector(None)
        for w, coeff in ab.terms.items():
            left = left + coeff * shuffled(w, c)
        right = SparseVector(None)
        for w, coeff in shuffled(b, c).terms.items():
            right = right + coeff * shuffled(a, w)
        assert left == right


def test_deconcatenations():
    w = formal_word("ab", (0, 1))
    out = deconcatenations(w, 2)
    assert set(out.terms) == {((w[0],), (w[1],))}
    w3 = formal_word("abc", (0, 0, 0))
    out = deconcatenations(w3, 2)
    assert {tuple(map(word_names, key)) for key in out.terms} == {
        (("a",), ("b", "c")),
        (("a", "b"), ("c",)),
    }
    out = deconcatenations(w3, 3)
    assert {tuple(map(word_names, key)) for key in out.terms} == {
        (("a",), ("b",), ("c",))
    }
    with pytest.raises(ValueError):
        deconcatenations(w, 3)


def nabla_of_shuffle(u, v, k):
    total = SparseVector(None)
    for word, coeff in shuffle(u, v, letter_degree).items():
        if len(word) >= k:
            total = total + coeff * deconcatenations(word, k)
    return total


def test_membership_examples():
    a = formal_word("a", (0,))
    b = formal_word("b", (1,))
    assert shuffle_span_membership(nabla_of_shuffle(a, b, 2))
    ab = formal_word("ab", (0, 1))
    c = formal_word("c", (-1,))
    assert shuffle_span_membership(nabla_of_shuffle(ab, c, 2))
    generic = SparseVector(None, {(a, b): Fraction(1)})
    assert not shuffle_span_membership(generic)


def test_membership_rejects_oversize():
    letters = formal_word("abcdef", (0,) * 6)
    bad = SparseVector(None, {(letters[:3], letters[3:]): Fraction(1)})
    with pytest.raises(ValueError):
        shuffle_span_membership(bad)


def test_membership_small_sweep():
    # shuffles of two short words always split into the spanned subspace
    shapes = [(1, 1), (1, 2), (2, 1)]
    degrees = (-1, 0, 1)
    names = "abcd"
    for p, q in shapes:
        total = p + q
        for ds in product(degrees, repeat=total):
            u = formal_word(names[:p], ds[:p])
            v = formal_word(names[p : p + q], ds[p:])
            for k in range(2, min(3, total) + 1):
                assert shuffle_span_membership(nabla_of_shuffle(u, v, k))
