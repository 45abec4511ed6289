"""``reporting.dumps`` writes every JSON report; it must agree byte for byte
with ``json.dumps(indent=2)``, whose output the pinned report digests fix,
and its calls must not grow with the rows of a record list."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer import reporting
from simplicial_transfer.reporting import dumps
from simplicial_transfer.transfer import interval_product_table

# quotes, backslashes, control characters, non-ASCII and astral text
_TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\\x00\x1f\x7f\n\t/é→𝔽'),
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


# a key with a % must not reach the row template unescaped
_KEYS = st.one_of(_TEXT, st.sampled_from(["%", "%s", "%%d"]))


@st.composite
def _record_lists(draw):
    """1–6 dicts that share one key set and insertion order, or such a list
    with one row permuted, one row with a key missing or added, or one item
    that is no dict."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    # cells come from a few drawn values, so a column can mix types cheaply
    cells = st.sampled_from(draw(st.lists(_VALUES, min_size=1, max_size=3)))
    rows = [{key: draw(cells) for key in keys} for _ in range(draw(st.integers(1, 6)))]
    at = draw(st.integers(0, len(rows) - 1))
    variant = draw(st.sampled_from(["shared", "permuted", "reshaped", "no dict"]))
    if variant == "permuted":
        rows[at] = {key: rows[at][key] for key in draw(st.permutations(keys))}
    elif variant == "reshaped" and draw(st.booleans()):
        rows[at].pop(keys[0])
    elif variant == "reshaped":
        rows[at][draw(_KEYS.filter(lambda key: key not in keys))] = draw(cells)
    elif variant == "no dict":
        rows[at] = draw(st.one_of(_SCALARS, st.lists(cells, max_size=2)))
    return draw(st.sampled_from([list, tuple]))(rows)


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.booleans())
def test_dumps_is_json_dumps_with_indent_2(value, sort_keys):
    assert dumps(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@settings(max_examples=40, deadline=None)
@given(_record_lists())
def test_a_record_list_is_written_as_json_dumps_writes_it(rows):
    for sort_keys in (False, True):
        assert dumps(rows, sort_keys) == json.dumps(rows, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize(
    "value",
    [
        [{}, {}],
        [{"%s": "%d"}],
        [{"a": 1}, {"a": 1, "b": 2}],
        # one key set in two insertion orders: two shapes under sort_keys=False
        [{"b": 1, "a": 2}, {"a": 3, "b": 4}],
    ],
)
def test_record_list_edge_cases(value):
    for sort_keys in (False, True):
        assert dumps(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


def test_the_writer_makes_as_many_calls_at_arity_8_as_at_12(monkeypatch):
    # the recursion reads dumps from the module's globals, so rebinding it
    # there counts every call; the entries grow 16-fold, the calls must not
    calls = []

    def counted(*args):
        calls.append(args)
        return dumps(*args)

    monkeypatch.setattr(reporting, "dumps", counted)
    counts = []
    for arity in (8, 12):
        calls.clear()
        payload = interval_product_table(arity).to_json_dict()
        assert counted(payload, True) == json.dumps(payload, indent=2, sort_keys=True)
        counts.append(len(calls))
    assert counts[0] == counts[1] < 50


@pytest.mark.parametrize("value", [{}, [], (), {"a": []}, [{}, [[]], ""], {"b": 1, "a": {}}])
def test_empty_containers(value):
    for sort_keys in (False, True):
        assert dumps(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@pytest.mark.parametrize("key", [1, None, 1.5, True, ("a",)])
def test_a_key_that_is_no_str_raises(key):
    for sort_keys in (False, True):
        with pytest.raises(TypeError):
            dumps({key: 0}, sort_keys)
        with pytest.raises(TypeError):
            dumps([{"a": {key: "x"}}], sort_keys)
        with pytest.raises(TypeError):
            dumps([{"a": 1}, {key: 2}], sort_keys)
        with pytest.raises(TypeError):
            dumps([{"a": 0}, {"a": {key: "x"}}], sort_keys)
