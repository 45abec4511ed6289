"""``reporting.dumps`` writes every JSON report; it must agree byte for byte
with ``json.dumps(indent=2)``, whose output the pinned report digests fix."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_transfer.reporting import dumps

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


@settings(max_examples=300, deadline=None)
@given(_VALUES, st.booleans())
def test_dumps_is_json_dumps_with_indent_2(value, sort_keys):
    assert dumps(value, sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


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
