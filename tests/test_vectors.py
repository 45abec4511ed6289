"""The linear structure that forms, cochains, global cochains and tensor sums
share through ``SparseVector``: one set of vector laws, checked on each."""

from fractions import Fraction

import pytest

from simplicial_transfer.cochains import Cochain
from simplicial_transfer.complexes import GlobalCochain, OrderedComplex
from simplicial_transfer.forms import Form
from simplicial_transfer.rationals import SparseVector
from simplicial_transfer.tensorwords import Homog, TensorSum

DELTA2 = OrderedComplex([0, 1, 2], [[0, 1, 2]])
BOUNDARY2 = OrderedComplex([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
A, B = Homog("a", 0), Homog("b", 1)

# (constructor, two distinct spaces, the terms of a and of b, the message of
# a space mismatch); a tensor sum has no space
CASES = {
    "Form": (
        Form, (2, 1),
        {((1, 0), ()): 1, ((0, 2), (1,)): Fraction(1, 2)},
        {((1, 0), ()): -1, ((0, 0), (1, 2)): 3},
        "dimension mismatch",
    ),
    "Cochain": (
        Cochain, (2, 1),
        {(0,): 1, (0, 1): Fraction(-2, 3)},
        {(0, 1): Fraction(2, 3), (1, 2): 5},
        "dimension mismatch",
    ),
    "GlobalCochain": (
        GlobalCochain, (DELTA2, BOUNDARY2),
        {(0,): 1, (0, 1): Fraction(-2, 3)},
        {(0, 1): Fraction(2, 3), (1, 2): 5},
        "complex mismatch",
    ),
    "TensorSum": (
        lambda space, terms=None: TensorSum(terms), (None, None),
        {(A, B): 1, ((A,), (B, A)): Fraction(1, 2)},
        {(A, B): -1, (B,): 7},
        None,
    ),
}
ZEROS = (Form(1), Cochain(1), GlobalCochain(DELTA2), TensorSum())


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_vector_laws(case):
    make, (space, other_space), a_terms, b_terms, mismatch = case
    a, b = make(space, a_terms), make(space, b_terms)
    zero = make(space)
    assert isinstance(a, SparseVector)

    assert a + b - b == a
    assert a - a == zero and -(-a) == a
    assert 0 * a == zero and not 0 * a
    assert 2 * a == a + a

    same = make(space, dict(reversed(list(a_terms.items()))))
    assert same == a and hash(same) == hash(a)
    assert hash(a + b - b) == hash(a)

    for other in ZEROS:
        if type(other) is not type(zero):
            assert zero != other
            with pytest.raises(TypeError):
                a + other
    if mismatch is not None:
        assert make(other_space) != zero
        with pytest.raises(ValueError, match=mismatch):
            a + make(other_space)
        with pytest.raises(ValueError, match=mismatch):
            a - make(other_space)

    key = next(iter(a_terms))
    with pytest.raises(TypeError):
        make(space, {key: 0.5})
    with pytest.raises(TypeError):
        0.5 * a

    with pytest.raises(AttributeError):
        a.terms = {}
    with pytest.raises(AttributeError):
        a.label = "a"
    assert a == make(space, a_terms)
