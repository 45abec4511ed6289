"""``reporting.dump`` writes every JSON report; what it writes must agree
byte for byte with ``json.dumps(indent=2)``, whose output the pinned report
digests fix, a ``Records`` must be written one batch of rows at a time, and
the calls must not grow with its rows."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer import reporting
from simplicial_transfer.reporting import _BATCH, Records, dump
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


def _written(obj, sort_keys: bool) -> str:
    """The join of what ``dump`` writes."""
    parts: list[str] = []
    dump(obj, parts.append, sort_keys)
    return "".join(parts)


def _plain(value):
    """``value`` with each ``Records`` in it, at the top or in a dict, as
    its list of dicts, which ``json.dumps`` can write."""
    if isinstance(value, Records):
        return [dict(zip(value.names, row)) for row in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _agrees(value) -> None:
    for sort_keys in (False, True):
        expected = json.dumps(_plain(value), indent=2, sort_keys=sort_keys)
        assert _written(value, sort_keys) == expected


@st.composite
def _records(draw):
    """A ``Records`` of 0–6 rows under 1–4 keys."""
    keys = tuple(draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True)))
    # cells come from a few drawn values, so a column can mix types cheaply
    cells = st.sampled_from(draw(st.lists(_VALUES, min_size=1, max_size=3)))
    rows = draw(st.lists(st.tuples(*[cells] * len(keys)), max_size=6))
    return Records(keys, lambda: iter(rows))


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.booleans())
def test_dump_is_json_dumps_with_indent_2(value, sort_keys):
    assert _written(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


@settings(max_examples=40, deadline=None)
@given(_records())
def test_a_record_list_is_written_as_json_dumps_writes_it(records):
    _agrees(records)
    _agrees({"b": [records.names], "rows": records})


@pytest.mark.parametrize(
    "value",
    [
        [{}, {}],
        [{"%s": "%d"}],
        [{"a": 1}, {"a": 1, "b": 2}],
        # one key set in two insertion orders
        [{"b": 1, "a": 2}, {"a": 3, "b": 4}],
        # a row permuted, and an item that is no dict
        [{"w": "%0", "n": 0, "v": []}, {"n": 1, "w": "permuted", "v": []}],
        [{"w": "%0", "n": 0}, ["no", "dict"]],
        Records(("%s", "b"), lambda: [("%d", {"b": None, "a": "x"}), ("%%", [])]),
        Records(("a",), lambda: []),
    ],
)
def test_record_list_edge_cases(value):
    _agrees(value)


def test_the_writer_makes_as_many_calls_at_arity_8_as_at_12(monkeypatch):
    # the walk reads dump and json.dumps from the module's globals, so
    # rebinding them there counts every call; the entries grow 16-fold and
    # from one batch to eight, the calls must not
    calls = []

    def counted(writer):
        def call(*args, **kwargs):
            calls.append(args)
            return writer(*args, **kwargs)

        return call

    monkeypatch.setattr(reporting, "dump", counted(dump))
    monkeypatch.setattr(reporting, "_json_dumps", counted(json.dumps))
    counts = []
    for arity in (8, 12):
        payload = interval_product_table(arity).to_json_dict()
        calls.clear()
        written = _written(payload, True)
        counts.append(len(calls))
        assert written == json.dumps(_plain(payload), indent=2, sort_keys=True)
    assert counts[0] == counts[1] < 50


def _rows(count: int) -> list[dict]:
    # a string column, an int column and a nested one, the order unsorted
    return [{"w": f"%{i}", "n": i, "v": [i, {"b": None, "a": "x"}]} for i in range(count)]


@pytest.mark.parametrize(
    "count", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1], ids=lambda c: f"rows{c}"
)
def test_dump_writes_json_dumps_in_batches(count):
    rows = _rows(count)
    records = Records(("w", "n", "v"), lambda: (tuple(row.values()) for row in rows))
    batches = -(-count // _BATCH)
    for sort_keys in (False, True):
        expected = json.dumps(rows, indent=2, sort_keys=sort_keys)
        for value in (rows, tuple(rows)):
            assert _written(value, sort_keys) == expected
        # one write per batch of rows, the first with the opening bracket,
        # and one for the closing bracket
        parts = []
        dump(records, parts.append, sort_keys)
        assert "".join(parts) == expected
        assert len(parts) == 1 + batches
        # and inside a dict, one write more for the key and one for the brace
        parts = []
        dump({"rows": records}, parts.append, sort_keys)
        assert "".join(parts) == json.dumps({"rows": rows}, indent=2, sort_keys=sort_keys)
        assert len(parts) == 3 + batches


@pytest.mark.parametrize("value", [{}, [], (), {"a": []}, [{}, [[]], ""], {"b": 1, "a": {}}])
def test_empty_containers(value):
    _agrees(value)


@pytest.mark.parametrize("key", [1, None, 1.5, True, ("a",)])
def test_a_key_that_is_no_str_raises(key):
    # on the dict path, at the top and in the dict that holds a Records
    records = Records(("a",), lambda: [(1,)])
    for sort_keys in (False, True):
        for value in ({key: 0}, {key: records}, {"a": {key: records}}):
            with pytest.raises(TypeError):
                _written(value, sort_keys)
    # inside a list, json.dumps writes it or raises
    for value in ([{"a": {key: "x"}}], [{"a": 1}, {key: 2}], [{"a": 0}, {"a": {key: "x"}}]):
        for sort_keys in (False, True):
            try:
                expected = json.dumps(value, indent=2, sort_keys=sort_keys)
            except TypeError:
                with pytest.raises(TypeError):
                    _written(value, sort_keys)
            else:
                assert _written(value, sort_keys) == expected
