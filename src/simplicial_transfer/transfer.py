"""Homotopy transfer of the product structure from polynomial forms onto
cochains, by the sum over planar trees and its inductive reformulation.

The algebra side is a differential graded commutative algebra, so the only
nonzero products are the differential and the binary product; on the shifted
grading (degree = form degree - 1) the binary operation is

    m_2(x, y) = (-1)^{|x|+1} x ^ y,

an operation of degree +1, and all operations of arity >= 3 vanish.  The
transferred n-ary cochain operations are

    m_n = sum over trees with n leaves of the tree operation.

Only trees with binary vertices contribute, so grouping them at the root
cuts the word once:

    m_n = f(sum_{i=1}^{n-1} m_2(G_i(b_1..b_i), G_{n-i}(b_{i+1}..b_n))),
    G_n = H(sum_{i=1}^{n-1} m_2(G_i(b_1..b_i), G_{n-i}(b_{i+1}..b_n))),

with G_1 = g and m_1 the cochain coboundary.  Both routes are implemented;
their agreement is itself one of the checked identities.  The blocks G_i
have even parity and degree zero, so no slot signs arise in the recursion
itself; all other slotwise applications are Koszul-signed.

Dupont's contraction is natural for face inclusions (Dupont 1976;
Cheng-Getzler, section 3), so for k >= 2 and basis cochains e_{F_1}, ...,
e_{F_k} (the join rule)

    m_k(e_{F_1}, ..., e_{F_k}) = mu * e_U,    U = F_1 u ... u F_k,

zero unless U is a simplex with dim U = sum_j dim F_j + 2 - k, where mu is
the top-face coefficient of m_k on the standard simplex of dimension dim U
at the positions of the F_j in U.

One rule zeroes a value before it is built.  f and g keep the degree, H
lowers it by one, and forms on the N-simplex and cochains on an
N-dimensional complex live in degrees 0..N.  So the bundle's one hook
``vanishes_in_degree`` zeroes a word whose degree lies outside 0..N: 2 plus
the sum of the letters' shifted degrees for m_k (dim U) and the cut
products, 1 plus it for G_n.  Such a word builds no face, union or form,
and no memo stores it.  ``ComplexContraction``, the bundle of a complex,
reads m_k this way from one standard-simplex engine per dimension, built
once per process.  The standard n-simplex is a complex too, and
``SimplexContraction`` is its complex bundle plus the form side: it runs
f(cut products) only on words that span its own top simplex.

Both m_n and G_n are multilinear, so they are fixed by their values on words
of basis cochains.  A letter is the position of its simplex in the complex,
a small int of the face's degree, so a word of ids names the same faces in
every bundle of one complex, and a cochain is keyed by the position of its
simplex, so its keys are letters.  A bundle memoises m_n and G_n per word
of ids, so a memo key hashes in C and the memos hold basis words only.
Everything else is expanded in the basis, key by key with each face's own
degree: a cochain handed to ``transferred_m`` or ``morphism_G``, which may
mix degrees, the unit f(1) that the unit laws plug into a word, and the
inner m_k that the insertion sums of the batteries plug into an outer
operation.  Each becomes a sum of numerator times the memoised value on a
basis word.

The identity batteries here are the arbiter for every sign convention in the
package: associativity-up-to-homotopy, the morphism relations, vanishing on
shuffles, and unitality are checked exactly on complete word bases.

Vanishing on shuffles is decided without forming a shuffle.  By Ree's
theorem (R. Ree, Ann. of Math. 68, 1958) and Dynkin-Specht-Wever (C.
Reutenauer, Free Lie Algebras, 1993, ch. 1 and 3), an arity-n operation phi
kills every shuffle u sh v of nonempty words iff theta^T phi = n phi, where
theta is the left-normed graded bracketing [...[[b_1, b_2], b_3], ..., b_n].
theta of a word expands into 2^(n-1) signed words, so one sweep of the B^n
basis words decides a record, against the (n - 1) B^n shuffle sums of the
definition.  Those sums run only on a failing record, to name its first
failing pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations, product
from math import lcm, prod

from .cochains import (
    Cochain,
    OrderedComplex,
    coboundary,
    format_cochain,
    include_g,
    interval_basis_components,
    project_f,
    standard_simplex,
)
from .contraction import homotopy_H, s_operator
from .forms import Form, differential, format_form, wedge
from .rationals import bernoulli_number, binomial, factorial, rational_str
from .reporting import Report
from .tensorwords import shuffle
from .trees import enumerate_trees, evaluate_tree_m

__all__ = [
    "ComplexContraction",
    "SimplexContraction",
    "transferred_m",
    "transferred_m_trees",
    "morphism_G",
    "check_a_infinity",
    "check_morphism",
    "check_c_infinity",
    "check_unital",
    "interval_product_table",
    "IntervalTable",
    "p_polynomial_sequence",
    "PPolynomials",
    "bernoulli_polynomial",
]


def _face_label(face) -> str:
    """The name x(v_0,...,v_k) of the basis cochain of a face."""
    return "x(" + ",".join(map(str, face)) + ")"


class ComplexContraction:
    """The contraction data of a complex packaged for the transfer engine: the
    basis of simplices, the coboundary as m_1, and m_k for k >= 2 by the
    join rule, every union read from the process's standard-simplex
    engines.

    The cochain side is that of the complex, and the engine reads it
    directly: ``coboundary``, the stored zero ``_zero``, the unit
    ``Cochain.unit`` that f(1) must equal, the simplices of the complex and
    ``format_cochain``.  A cochain is keyed by the position of its simplex,
    so its keys are letter ids; one hook, ``letter``, gives the basis
    cochain of a letter id.  For the batteries and G_n the engine reads the
    algebra side (``d_A``, ``wedge_A``, ``one_A``, ``zero_A``), the
    contraction (``f``, ``g``, ``H``) and ``render_A``, which
    ``SimplexContraction`` adds with the forms of the standard simplex.
    Values on both sides offer the integer linear combination ``_sum`` of
    ``SparseVector``, and the engine reads the numerators of cochains.

    A letter is the position of its simplex in the complex: ``_faces`` and
    ``_ids`` are the complex's own ``simplices`` and ``index``, and
    ``_degrees`` holds each letter's shifted degree, which drives signs.
    G_n, m_n and the cut products are memoised per word of ids.  The hook
    ``m_word`` gives m_n for n >= 2, here by the join rule (module
    docstring), and ``vanishes_in_degree`` is the zero rule (module
    docstring), with ``dim`` the top dimension of the complex.

    ``koszul_signs = False`` drops the Koszul sign with which the insertion
    sums of the batteries slide an inner m_k past the letters before it.
    No m_k, G_k or tree value reads it: their blocks have even parity, so
    they carry no slotwise sign.  Only ``SimplexContraction`` sets it, so
    the verification commands can demonstrate a failing battery.
    """

    koszul_signs = True
    top_dim = None  # no simplex of a complex is computed through forms

    def __init__(self, complex_: OrderedComplex):
        self.complex = complex_
        self._zero = Cochain(complex_)
        self.dim = self._zero.dim
        self._faces = complex_.simplices
        self._ids = complex_.index
        self._degrees = [len(face) - 2 for face in self._faces]
        self._memo_G: dict = {}
        self._memo_m: dict = {}
        self._memo_cut: dict = {}

    def m_A(self, degrees, values):
        """The algebra-side operation of a tree vertex, of arity >= 2: the
        signed product, and zero from arity 3 on."""
        if len(values) == 2:
            prod = self.wedge_A(values[0], values[1])
            return prod if degrees[0] % 2 else -prod
        return self.zero_A()

    def unit_B(self):
        return self.f(self.one_A())

    def m_word(self, ids: tuple[int, ...]) -> Cochain:
        """m_n on a basis word of n >= 2 ids, by the join rule."""
        return _join_rule(self, ids)

    def vanishes_in_degree(self, degree: int) -> bool:
        """Whether every value of this degree is zero: it lies outside
        0..dim (module docstring)."""
        return not 0 <= degree <= self.dim

    def basis_ids(self) -> range:
        return range(len(self._faces))

    def letter(self, letter_id: int) -> Cochain:
        """The basis cochain of a letter id."""
        return Cochain._trusted(self.complex, {letter_id: 1})


class SimplexContraction(ComplexContraction):
    """The complex bundle of the standard simplex of a fixed dimension plus
    its form side.  m_n reads the join rule: f(cut products) on words that
    span the simplex, the engine of a face's dimension on all others."""

    def __init__(self, dim: int, koszul_signs: bool = True):
        super().__init__(standard_simplex(dim))
        self.koszul_signs = koszul_signs
        self.top_dim = dim

    # algebra side
    def d_A(self, x: Form) -> Form:
        return differential(x)

    def wedge_A(self, x: Form, y: Form) -> Form:
        return wedge(x, y)

    def one_A(self) -> Form:
        return Form.one(self.top_dim)

    def zero_A(self) -> Form:
        return Form.zero(self.top_dim)

    # contraction maps
    def f(self, x: Form) -> Cochain:
        return project_f(x)

    def g(self, c: Cochain) -> Form:
        return include_g(c)

    def H(self, x: Form) -> Form:
        return homotopy_H(x)

    def render_A(self, value) -> str:
        return format_form(value)


# -- the engine on words of basis letter ids --------------------------------


def _cut_products(bundle, ids: tuple[int, ...]):
    """sum_{i=1}^{n-1} m_2(G(ids[:i]), G(ids[i:])), the sum over all trees
    of the value just below the root: only binary vertices contribute, so
    the root cuts the word once.  The right block is evaluated only where
    the left one is nonzero.  Each m_2(x, y) = (-1)^{|x|+1} x ^ y, for the
    shifted degree |x| of the left block, is a part whose coefficient is
    that sign, and the parts are summed by one ``_sum``.  m_n, G_n and the
    morphism battery share it.  A word that the zero rule (module docstring)
    zeroes at their own degree is answered with zero and stored nowhere.
    The degree of G_n, one less, does not serve: on the interval G(t, t) is
    zero, while its cut product is t^2."""
    if ids in bundle._memo_cut:
        return bundle._memo_cut[ids]
    degrees = bundle._degrees
    if bundle.vanishes_in_degree(sum(map(degrees.__getitem__, ids)) + 2):
        return bundle.zero_A()
    left_degree = 0
    parts = []
    for cut in range(1, len(ids)):
        left_degree += degrees[ids[cut - 1]]
        left = _G(bundle, ids[:cut])
        if not left:
            continue
        right = _G(bundle, ids[cut:])
        if right:
            parts.append((1 if left_degree % 2 else -1, bundle.wedge_A(left, right)))
    total = bundle._memo_cut[ids] = _sum(bundle.zero_A(), parts)
    return total


def _G(bundle, ids: tuple[int, ...]):
    """G_1 = g and G_n = H(cut products), memoised per basis word; a word of
    arity n >= 2 that the zero rule (module docstring) zeroes is answered
    with zero and stored nowhere."""
    value = bundle._memo_G.get(ids)
    if value is None:
        if len(ids) == 1:
            value = bundle.g(bundle.letter(ids[0]))
        elif bundle.vanishes_in_degree(sum(map(bundle._degrees.__getitem__, ids)) + 1):
            return bundle.zero_A()
        else:
            value = bundle.H(_cut_products(bundle, ids))
        bundle._memo_G[ids] = value
    return value


def _m(bundle, ids: tuple[int, ...]):
    """m_1 = the coboundary and m_n = ``bundle.m_word``, memoised per basis
    word; a word of arity n >= 2 that the zero rule (module docstring)
    zeroes is answered with zero and stored nowhere."""
    value = bundle._memo_m.get(ids)
    if value is None:
        if len(ids) == 1:
            value = coboundary(bundle.letter(ids[0]))
        elif bundle.vanishes_in_degree(sum(map(bundle._degrees.__getitem__, ids)) + 2):
            return bundle._zero
        else:
            value = bundle.m_word(ids)
        bundle._memo_m[ids] = value
    return value


@lru_cache(maxsize=None)
def _engine(n: int) -> SimplexContraction:
    """The standard n-simplex bundle that the join rule reads m_k from, one
    per dimension and process; its memos fill on first use."""
    return SimplexContraction(n)


def _positions(sub: tuple[int, ...], ambient: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ambient.index(v) for v in sub)


def _join_rule(bundle, ids: tuple[int, ...]) -> Cochain:
    """m_k, k >= 2, on a basis word by the join rule (module docstring): zero
    unless the union U of the supports is a simplex of the bundle's complex
    of the right dimension; f(cut products) when U is the bundle's own top
    simplex; otherwise mu * e_U with mu read from the engine of dimension
    dim U.

    The dimension U must have, sum_j dim F_j + 2 - k, is the degree that
    ``_m`` hands to ``vanishes_in_degree`` first, so a word that the zero
    rule (module docstring) zeroes never gets here.  U is formed and
    rejected unless it has count + 1 vertices: the same test as forming U
    first."""
    zero = bundle._zero
    n = sum(map(bundle._degrees.__getitem__, ids)) + 2  # dim U
    faces = [bundle._faces[i] for i in ids]
    union = tuple(sorted(set().union(*faces)))
    position = bundle._ids.get(union) if len(union) == n + 1 else None
    if position is None:
        return zero
    if n == bundle.top_dim:
        return bundle.f(_cut_products(bundle, ids))
    engine = _engine(n)
    local = tuple(engine._ids[_positions(face, union)] for face in faces)
    value = _m(engine, local)
    mu = value.num.get(len(engine._faces) - 1)  # the top simplex is last
    if not mu:
        return zero
    return Cochain._reduced(bundle.complex, {position: mu}, value.den)


def _sum(zero, parts, den: int = 1):
    """(sum of p * v over the pairs (p, v)) / den, in the space of zero."""
    return type(zero)._sum(zero._space, parts, den)


def _insertions(bundle, ids: tuple[int, ...], outer, zero):
    """sum_{k,j} +- outer(b_1..b_j, m_k(b_{j+1}..b_{j+k}), ..., b_n), with
    ``outer`` either _m or _G and ``zero`` its zero.  Each inner m_k is
    expanded in the cochain basis, whose keys are letter ids, so ``outer``
    only sees basis words, and its numerators are brought to the common
    denominator of all inner m_k; the Koszul sign slides the odd m_k past b_1..b_j."""
    degrees = bundle._degrees
    n = len(ids)
    inner = []  # (sign, j, end, m_k)
    head_degree = 0
    for j in range(n):
        sign = -1 if bundle.koszul_signs and head_degree % 2 else 1
        for end in range(j + 1, n + 1):
            value = _m(bundle, ids[j:end])
            if value:
                inner.append((sign, j, end, value))
        head_degree += degrees[ids[j]]
    den = lcm(*(value.den for *_, value in inner))
    parts = [
        (sign * coeff * (den // value.den), outer(bundle, ids[:j] + (letter,) + ids[end:]))
        for sign, j, end, value in inner
        for letter, coeff in value.num.items()
    ]
    return _sum(zero, parts, den)


def _relation(bundle, ids: tuple[int, ...]):
    """Left side of the structure relation on a basis word."""
    return _insertions(bundle, ids, _m, bundle._zero)


def _multilinear(bundle, word: tuple[Cochain, ...], op, zero):
    """op, given on words of basis ids, extended multilinearly to a word of
    cochains of the bundle's complex, whose keys are letter ids.  A cochain
    on that very complex object passes the mismatch test without comparing
    complexes, and a word of basis letters gets op's value itself back."""
    if not word:
        raise ValueError("empty word")
    complex_ = bundle.complex
    for c in word:
        if c._space is not complex_ and c._space != complex_:
            raise ValueError(c._mismatch)
    parts = []
    for combo in product(*[c.num.items() for c in word]):
        ids, coeffs = zip(*combo)
        parts.append((prod(coeffs), op(bundle, ids)))
    return _sum(zero, parts, prod([c.den for c in word]))


# -- the operations on words of cochains ------------------------------------


def morphism_G(bundle, word: tuple[Cochain, ...]) -> "Form":
    """The morphism component on a word of cochains; G_1 = g and G_n =
    H(cut products)."""
    return _multilinear(bundle, word, _G, bundle.zero_A())


def transferred_m(bundle, word: tuple[Cochain, ...]):
    """The transferred n-ary operation on a word of cochains; arity 1 is
    the cochain differential and m_n = f(cut products) above, which the
    simplex and complex bundles read by the join rule."""
    return _multilinear(bundle, word, _m, bundle._zero)


def transferred_m_trees(bundle, word: tuple[Cochain, ...]):
    """The same operation as a direct sum over planar trees, expanded in the
    basis like ``transferred_m``, so each face carries its own degree."""
    return _multilinear(bundle, word, _m_trees, bundle._zero)


def _m_trees(bundle, ids: tuple[int, ...]):
    """m_n on a basis word as the sum over planar trees; not memoised, so
    it shares nothing with ``_m``."""
    if len(ids) == 1:
        return coboundary(bundle.letter(ids[0]))
    return _sum(
        bundle._zero, [(1, evaluate_tree_m(tree, ids, bundle)) for tree in enumerate_trees(len(ids))]
    )


def _word_label(bundle, ids) -> str:
    return "(" + ", ".join(_face_label(bundle._faces[i]) for i in ids) + ")"


def _words(bundle, n: int):
    """The B^n basis words of arity n over the bundle's B letter ids, in
    product order: the one sweep that every battery reads its words from."""
    return product(bundle.basis_ids(), repeat=n)


def _family_report(family: str, first_arity: int, max_arity: int, basis: str) -> Report:
    """A report named, in its header and its fields, by family and range."""
    return Report(
        f"{family} for arity {first_arity}..{max_arity} over {basis}",
        family=family,
        arity_range=[first_arity, max_arity],
        basis=basis,
    )


def _letter_report(family: str, first_arity: int, max_arity: int, bundle) -> Report:
    letters = f"{len(bundle.basis_ids())} basis letters"
    return _family_report(family, first_arity, max_arity, letters)


def _arity_records(report: Report, name: str, first_arity: int, max_arity: int, cases) -> None:
    """One record over ``cases(n)`` per arity n, named by ``name`` with n put in."""
    for n in range(first_arity, max_arity + 1):
        report.check(name.format(n), cases(n))


def check_a_infinity(bundle, max_arity: int) -> Report:
    """Structure relations: the signed sum of nested transferred operations
    vanishes on every basis word of each arity."""
    report = _letter_report("structure relations", 1, max_arity, bundle)

    def cases(n):
        for word in _words(bundle, n):
            value = _relation(bundle, word)
            yield (
                f"word={_word_label(bundle, word)} residual={format_cochain(value)}"
                if value
                else None
            )

    _arity_records(report, "relation at arity {}", 1, max_arity, cases)
    return report


def check_morphism(bundle, max_arity: int) -> Report:
    """Morphism relations: the algebra-side combination of G components
    equals the G image of the cochain-side operations, word by word."""
    report = _letter_report("morphism relations", 1, max_arity, bundle)

    def cases(n):
        for word in _words(bundle, n):
            lhs = bundle.d_A(_G(bundle, word)) + _cut_products(bundle, word)
            rhs = _insertions(bundle, word, _G, bundle.zero_A())
            yield None if lhs == rhs else (
                f"word={_word_label(bundle, word)} "
                f"lhs={bundle.render_A(lhs)} rhs={bundle.render_A(rhs)}"
            )

    _arity_records(report, "morphism relation at arity {}", 1, max_arity, cases)
    return report


def _bracketing(ids: tuple[int, ...], degrees) -> list:
    """The left-normed graded bracketing [...[[b_1, b_2], b_3], ..., b_n] of a
    word as its 2^(n-1) pairs (word, sign): each later letter x goes to the
    right end with sign +, or to the left end with sign -(-1)^(|p| |x|),
    where p is the prefix bracketed so far, [p, x] = p x - (-1)^(|p| |x|) x p."""
    terms = [(ids[:1], 1)]
    prefix = degrees[ids[0]]
    for x in ids[1:]:
        degree = degrees[x]
        flip = 1 if prefix * degree % 2 else -1
        terms = [(word + (x,), sign) for word, sign in terms] + [
            ((x,) + word, flip * sign) for word, sign in terms
        ]
        prefix += degree
    return terms


def _dynkin_failure(bundle, n: int, op, zero):
    """The first basis word v of arity n where theta^T phi(v) - n phi(v) is
    nonzero, with that residual, or None: phi = op on words of n basis ids
    and theta the bracketing.  One sweep adds -n phi(w) and phi(w) times
    each term of theta(w) into the accumulators of their words."""
    degrees = bundle._degrees
    parts: dict = {}
    for word in _words(bundle, n):
        value = op(bundle, word)
        if value:
            parts.setdefault(word, []).append((-n, value))
            for target, sign in _bracketing(word, degrees):
                parts.setdefault(target, []).append((sign, value))
    for word, terms in parts.items():
        residual = _sum(zero, terms)
        if residual:
            return word, residual
    return None


def _shuffle_cases(bundle, n: int, op, zero, render):
    """op summed over each shuffle u sh v of nonempty words, for |u| = 1, ...,
    n - 1 in turn u v running over the arity-n sweep cut after |u| letters:
    None where the sum vanishes, the counterexample text where it does not."""
    degree_of = bundle._degrees.__getitem__
    for p in range(1, n):
        for word in _words(bundle, n):
            u, v = word[:p], word[p:]
            total = _sum(zero, [(c, op(bundle, w)) for w, c in shuffle(u, v, degree_of).items()])
            yield (
                f"{_word_label(bundle, u)} shuffle {_word_label(bundle, v)} "
                f"gives {render(total)}"
                if total
                else None
            )


def check_c_infinity(bundle, max_arity: int) -> Report:
    """Shuffle vanishing: every transferred operation and every morphism
    component kills the shuffles u sh v of nonempty words, one record per
    operation and arity over the (n - 1) B^n pairs (u, v) of B basis letters.

    A record is decided by the Dynkin criterion.  By Ree's theorem (R. Ree,
    Ann. of Math. 68, 1958) a multilinear phi of arity n kills every shuffle
    iff it is a Lie element of the dual, and by Dynkin-Specht-Wever (C.
    Reutenauer, Free Lie Algebras, 1993, ch. 1 and 3) that holds iff
    theta^T phi = n phi, theta the left-normed graded bracketing.  theta(w)
    expands into 2^(n-1) signed words (``_bracketing``), so one sweep of the
    B^n words decides the record.  Only a failing record runs the shuffle
    sums, in their order, to name its first failing pair; should they all
    vanish, the record still fails on the word where theta^T phi != n phi."""
    report = _letter_report("shuffle vanishing", 2, max_arity, bundle)
    for n in range(2, max_arity + 1):
        for kind, op, zero, render in (
            ("operation", _m, bundle._zero, format_cochain),
            ("morphism", _G, bundle.zero_A(), bundle.render_A),
        ):
            name = f"{kind} vanishes on shuffles, arity {n}"
            failure = _dynkin_failure(bundle, n, op, zero)
            if failure is None:
                report.check(name, (), (n - 1) * len(bundle.basis_ids()) ** n)
                continue
            word, residual = failure
            dynkin = f"word={_word_label(bundle, word)} theta^T phi - {n} phi = {render(residual)}"
            report.check(name, chain(_shuffle_cases(bundle, n, op, zero, render), [dynkin]))
    return report


def check_unital(bundle, max_arity: int) -> Report:
    """Unit laws for the transferred structure, with unit e = f(1).  e
    enters a word through its keys, which are letter ids, so each unit word
    is a sum of numerator times the value on a basis word: a unit slot in
    a word of the arity-(n - 1) sweep, and the binary laws sweep arity 1."""
    e = bundle.unit_B()
    unit = e.num.items()
    e_label = _face_label(*e.terms) if e.den == 1 and list(e.num.values()) == [1] else repr(e)
    report = _letter_report("unitality", 1, max_arity, bundle)

    def on_unit(op, zero, head=(), tail=()):
        return _sum(zero, [(n, op(bundle, head + (u,) + tail)) for u, n in unit], e.den)

    def binary_cases():
        zero = bundle._zero
        for (b,) in _words(bundle, 1):
            left = on_unit(_m, zero, tail=(b,))
            right = on_unit(_m, zero, head=(b,))
            right = right if bundle._degrees[b] % 2 else -right
            cochain = bundle.letter(b)
            yield None if left == cochain and right == cochain else (
                f"letter {_face_label(bundle._faces[b])}: e*b={format_cochain(left)}, "
                f"signed b*e={format_cochain(right)}"
            )

    def on_unit_cases(op, zero, render, n):
        for slot in range(n):
            for rest in _words(bundle, n - 1):
                value = on_unit(op, zero, rest[:slot], rest[slot:])
                if value:
                    labels = [_face_label(bundle._faces[i]) for i in rest]
                    labels.insert(slot, e_label)
                    yield f"word=({', '.join(labels)}) gives {render(value)}"
                else:
                    yield None

    report.check(
        "unit is the sum of vertex indicators",
        [None if e == Cochain.unit(bundle.complex) else f"f(1) = {format_cochain(e)}"],
    )
    report.check(
        "unit is closed",
        ["differential of the unit is nonzero" if on_unit(_m, bundle._zero) else None],
    )
    report.check("binary unit laws", binary_cases(), len(bundle.basis_ids()))
    cases = partial(on_unit_cases, _m, bundle._zero, format_cochain)
    _arity_records(report, "operations of arity {} vanish on the unit", 3, max_arity, cases)
    report.check(
        "morphism sends unit to 1",
        [
            None
            if on_unit(_G, bundle.zero_A()) == bundle.one_A()
            else "g does not send the unit to 1"
        ],
    )
    cases = partial(on_unit_cases, _G, bundle.zero_A(), bundle.render_A)
    name = "morphism components of arity {} vanish on the unit"
    _arity_records(report, name, 2, max_arity, cases)
    return report


# -- the interval product table ------------------------------------------


class IntervalTable(Report):
    """Products of the interval cochains t and dt, reported in the basis
    {1, t, dt}, together with the derived Bernoulli comparisons; its text
    lays the entries out before the checks and the findings after them."""

    def __init__(self, max_arity: int):
        self.entries: list[dict] = []
        self.findings: list[str] = []
        super().__init__(
            f"products of t and dt up to arity {max_arity} (basis 1, t, dt)",
            max_arity=max_arity,
            entries=self.entries,
            findings=self.findings,
        )

    def to_text(self) -> str:
        lines = [self.header]
        width = max(len(e["word"]) for e in self.entries) if self.entries else 0
        for e in self.entries:
            lines.append(f"  m({e['word']:<{width}}) = {e['value']}")
        lines.append("")
        lines.extend(rec.to_text() for rec in self.checks)
        if self.findings:
            lines.append("")
            lines.append("findings (reported, not asserted):")
            lines.extend(f"  - {finding}" for finding in self.findings)
        return "\n".join(lines)


def _component_string(components) -> str:
    return " + ".join(
        rational_str(c) + name for c, name in zip(components, ("", " t", " dt")) if c
    ) or "0"


def interval_product_table(max_arity: int) -> IntervalTable:
    """Evaluate every product of t and dt on the interval up to the given
    arity, and compare against the Bernoulli predictions.

    Asserted comparisons: m_2(t,t) = t; the dt coefficient of
    m_{n+1}(t, dt, ..., dt) has absolute value |B_n|/n!; all words outside
    the single-t family (and m_2(t,t)) vanish; and the one-t family scales
    by binomial coefficients in absolute value.  The literal sign pattern is
    emitted under findings instead of being asserted, because the two
    printed sign conventions for it contradict each other at arity 2; the
    computed products are the ground truth here.

    The entries of arity n follow product(("t", "dt"), repeat=n): the word
    at index i has dt exactly where i has a one bit, the most significant
    bit first.  Every entry starts as "0".  The degree of m_n depends only
    on the number k of t's, so the zero rule is asked once per class, of
    degree 2 + k deg(t) + (n - k) deg(dt), and only the words of the
    classes it leaves nonzero (one or two t's) are visited, in product
    order, sent to the engine and patched.  The outside-family record reads
    the stored nonzero values only.  When it passes, its basis size is the
    number of outside words, sum_n (2^n - n) - 1 over n = 2..max_arity;
    when it fails, it names the first failing word in (arity, product)
    order, and its basis size is that word's rank among the outside words.
    """
    if max_arity < 2:
        raise ValueError("max_arity must be >= 2")
    bundle = SimplexContraction(1)
    # t = x(1) and dt = x(0,1) are basis letters, so each word is a word of ids
    t, dt = bundle._ids[(1,)], bundle._ids[(0, 1)]
    degrees = bundle._degrees
    letter = {"0": t, "1": dt}
    name = {t: "t", dt: "dt"}

    def label(ids):
        return ",".join(map(name.__getitem__, ids))

    table = IntervalTable(max_arity)
    # the nonzero words only; an absent word is zero
    values: dict[tuple[int, ...], tuple[Fraction, Fraction, Fraction]] = {}
    for n in range(2, max_arity + 1):
        entries = [{"word": ",".join(w), "value": "0"} for w in product(("t", "dt"), repeat=n)]
        dt_counts = [
            n - k
            for k in range(n + 1)
            if not bundle.vanishes_in_degree(2 + k * degrees[t] + (n - k) * degrees[dt])
        ]
        visits = sorted(
            sum(1 << (n - 1 - p) for p in dts)
            for j in dt_counts
            for dts in combinations(range(n), j)
        )
        for i in visits:
            ids = tuple(map(letter.__getitem__, f"{i:0{n}b}"))
            if cochain := _m(bundle, ids):
                values[ids] = interval_basis_components(cochain)
                entries[i]["value"] = _component_string(values[ids])
        table.entries.extend(entries)

    def components(ids):
        return values.get(ids, (0, 0, 0))

    def one_t(n, i):
        return (dt,) * i + (t,) + (dt,) * (n - i)

    def magnitude_case(ids, expected):
        c1, ct, cdt = components(ids)
        if c1 or ct or abs(cdt) != expected:
            return (
                f"m({label(ids)}) = {_component_string(components(ids))}, "
                f"expected magnitude {rational_str(expected)}"
            )
        return None

    def outside(ids):
        return ids != (t, t) and ids.count(t) != 1

    def outside_cases():
        # the full sweep, run only to rank a failing word
        for n in range(2, max_arity + 1):
            for ids in filter(outside, product((t, dt), repeat=n)):
                value = values.get(ids)
                yield f"m({label(ids)}) = {_component_string(value)}" if value else None

    family = {n: components(one_t(n, 0))[2] for n in range(1, max_arity)}
    scaled = [n for n in range(1, min(4, max_arity - 1) + 1) if family[n]]
    tt = components((t, t))
    table.check("m(t,t) = t", [None if tt == (0, 1, 0) else f"m(t,t) = {_component_string(tt)}"])
    table.check(
        "dt coefficient of m(t,dt,...,dt) has magnitude |B_n|/n!",
        (
            magnitude_case(one_t(n, 0), abs(bernoulli_number(n)) / factorial(n))
            for n in range(1, max_arity)
        ),
    )
    outside_name = "all words outside the one-t family vanish"
    if any(map(outside, values)):
        table.check(outside_name, outside_cases())
    else:
        table.check(outside_name, (), sum(2**n - n for n in range(2, max_arity + 1)) - 1)
    table.check(
        "one-t family scales by binomial coefficients",
        (
            magnitude_case(one_t(n, i), binomial(n, i) * abs(family[n]))
            for n in scaled
            for i in range(n + 1)
        ),
    )

    # findings: the literal sign patterns, computed exactly
    signed = []
    for n in sorted(family):
        bn = bernoulli_number(n) / factorial(n)
        if family[n] == 0:
            signed.append(f"n={n}: zero")
        elif family[n] == bn:
            signed.append(f"n={n}: equals B_n/n!")
        elif family[n] == -bn:
            signed.append(f"n={n}: equals -B_n/n!")
    table.findings.append(
        "dt coefficient of m(t,dt^n) versus B_n/n!: "
        + "; ".join(signed)
        + " (the computed values follow (-1)^n B_n/n!)"
    )
    ratio_notes = []
    for n in scaled:
        pattern = [
            f"i={i}: {rational_str(components(one_t(n, i))[2] / family[n])}" for i in range(n + 1)
        ]
        ratio_notes.append(f"n={n} [{', '.join(pattern)}]")
    table.findings.append(
        "ratio m(dt^i,t,dt^(n-i)) / m(t,dt^n): "
        + "; ".join(ratio_notes)
        + " (the computed pattern is (-1)^i C(n,i); an exponent n-i instead of i "
        "contradicts the computed arity-2 products)"
    )
    return table


# -- the polynomial recursion behind the table ----------------------------


class PPolynomials:
    """The polynomials p_n produced by the homotopy recursion on the
    interval, with their closed forms (B_n(t) - B_n)/n! and their integrals;
    each polynomial is a 0-form on the 1-simplex, in t = t_1."""

    def __init__(self, polys: list[Form], closed_forms: list[Form], integrals: list[Fraction]):
        self.polys = polys
        self.closed_forms = closed_forms
        self.integrals = integrals  # b_n = (-1)^{n-1} integral of p_n

    def matches_closed_form(self) -> bool:
        return self.polys == self.closed_forms

    def integral_identities(self) -> bool:
        return all(
            b == (bernoulli_number(n) / factorial(n)) * (1 if n % 2 == 0 else -1)
            for n, b in enumerate(self.integrals, start=1)
        )


def bernoulli_polynomial(n: int) -> Form:
    """B_n(t) = sum_k C(n, k) B_k t^{n-k}, a 0-form on the 1-simplex."""
    if n < 0:
        raise ValueError("bernoulli_polynomial requires n >= 0")
    return Form(1, {((n - k,), ()): binomial(n, k) * bernoulli_number(k) for k in range(n + 1)})


def p_polynomial_sequence(n_max: int) -> PPolynomials:
    """p_1 = t and p_n = s(p_{n-1} dt), compared with (B_n(t) - B_n)/n! and
    integrated exactly over the interval."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dt = Form.monomial(1, (0,), (1,))
    polys = [Form.monomial(1, (1,), ())]
    while len(polys) < n_max:
        polys.append(s_operator(wedge(polys[-1], dt)))
    closed = [
        Fraction(1, factorial(n)) * (bernoulli_polynomial(n) - bernoulli_number(n) * Form.one(1))
        for n in range(1, n_max + 1)
    ]
    integrals = []
    for n, p in enumerate(polys, start=1):
        raw = project_f(wedge(p, dt)).terms.get((0, 1), Fraction(0))
        integrals.append(raw if n % 2 == 1 else -raw)
    return PPolynomials(polys=polys, closed_forms=closed, integrals=integrals)
