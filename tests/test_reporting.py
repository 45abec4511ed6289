"""``reporting.dump`` writes every JSON report, and ``dumps`` is the join of
what it writes; they must agree byte for byte with ``json.dumps(indent=2)``,
whose output the pinned report digests fix, write a list one batch of rows
at a time, and make no more calls as the rows of a record list grow."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer import reporting
from simplicial_transfer.reporting import _BATCH, Records, dump, dumps
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


def _listed(payload: dict) -> dict:
    """The interval payload with its generated entries as a list of dicts,
    which ``json.dumps`` can write."""
    entries = payload["entries"]
    return {**payload, "entries": [dict(zip(entries.names, row)) for row in entries]}


def test_the_writer_makes_as_many_calls_at_arity_8_as_at_12(monkeypatch):
    # the recursion reads dump and dumps from the module's globals, so
    # rebinding them there counts every call; the entries grow 16-fold and
    # from one batch to eight, the calls must not
    calls = []

    def counted(writer):
        def call(*args):
            calls.append(args)
            return writer(*args)

        return call

    monkeypatch.setattr(reporting, "dump", counted(dump))
    monkeypatch.setattr(reporting, "dumps", counted(dumps))
    counts = []
    for arity in (8, 12):
        calls.clear()
        payload = interval_product_table(arity).to_json_dict()
        assert reporting.dumps(payload, True) == json.dumps(
            _listed(payload), indent=2, sort_keys=True
        )
        counts.append(len(calls))
    assert counts[0] == counts[1] < 50


def _rows(count: int) -> list[dict]:
    # a string column, an int column and a nested one, the order unsorted
    return [{"w": f"%{i}", "n": i, "v": [i, {"b": None, "a": "x"}]} for i in range(count)]


@pytest.mark.parametrize(
    "count", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1], ids=lambda c: f"rows{c}"
)
def test_dump_writes_json_dumps_in_batches(count):
    rows = _rows(count)
    for sort_keys in (False, True):
        expected = json.dumps(rows, indent=2, sort_keys=sort_keys)
        for value in (rows, tuple(rows), iter(rows), (row for row in rows)):
            parts = []
            dump(value, parts.append, sort_keys)
            assert "".join(parts) == expected
            # one write per batch of rows, the first with the opening
            # bracket, and one for the closing bracket
            assert len(parts) == 1 + -(-count // _BATCH)
        records = Records(("w", "n", "v"), lambda: (tuple(row.values()) for row in rows))
        assert dumps(records, sort_keys) == expected
        nested = json.dumps({"rows": rows}, indent=2, sort_keys=sort_keys)
        assert dumps({"rows": records}, sort_keys) == nested


def test_a_batch_of_other_shapes_is_written_item_by_item():
    # the template comes from the first item; a later batch that breaks its
    # shape, or holds an item that is no dict, is written as one column
    rows = _rows(_BATCH + 2)
    rows[_BATCH] = {"n": 0, "w": "permuted", "v": []}
    rows[-1] = ["no", "dict"]
    for sort_keys in (False, True):
        expected = json.dumps(rows, indent=2, sort_keys=sort_keys)
        assert dumps(iter(rows), sort_keys) == expected


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
