"""Report containers shared by the identity-check batteries.

Every battery evaluates a named identity over a complete enumerated basis
and records pass/fail with the first counterexample through ``Report.check``;
one ``Report`` class serves every battery, which gives it a header line and
its JSON fields, and reports render to JSON (rationals as strings) and to
aligned text.  Every JSON report is written by ``dump``, which pays per
record shape, not per record, and holds one batch of items at a time: a
list is written ``_BATCH`` items per ``write``, a record list column by
column, and either may be generated rather than held.  The interval table's
thousands of entries are such a list, a ``Records`` of value tuples under
one key tuple.  ``dumps`` is the join of what ``dump`` writes.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice, repeat
from json import dumps as _scalar
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter

# the items of a list that one write holds
_BATCH = 1024


class Records:
    """A record list generated afresh on each read: ``rows()`` gives its
    rows as tuples of values, one per key of ``names`` and in their order,
    so that no dict per record and no list of them is built."""

    def __init__(self, names: tuple[str, ...], rows):
        self.names = names
        self._rows = rows

    def __iter__(self):
        return iter(self._rows())


def _batches(items):
    """The items in lists of ``_BATCH``."""
    items = iter(items)
    while batch := list(islice(items, _BATCH)):
        yield batch


def dumps(obj, sort_keys: bool = False, _indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)`` byte for byte: the
    join of what ``dump`` writes."""
    parts: list[str] = []
    dump(obj, parts.append, sort_keys, _indent)
    return "".join(parts)


def dump(obj, write, sort_keys: bool = False, _indent: str = "\n") -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=sort_keys)`` through
    ``write``, piece by piece; an iterator is written as the list of its
    items, and a ``Records`` as its list of dicts.

    With an indent set, ``json.dumps`` runs its pure-Python encoder, one
    generator step per token.  This walk writes a dict key by key, and a
    list, tuple or iterator in batches of ``_BATCH`` items, one ``write``
    each.  A batch of a record list (dicts with the first item's key set
    and, under ``sort_keys=False``, its insertion order, as each dict is
    written in its own; or the tuples of a ``Records``) is one ``%`` on
    copies of a row template, a ``%s`` per key and a ``%`` in a key
    doubled, with its cells encoded column by column: a column of strings
    is one pass of the C string encoder, any other one ``dumps`` call per
    value, so the calls grow with the shapes and the batches, not with the
    rows.  Any other batch is one column.  Dict keys must be ``str``: the C
    string encoder raises ``TypeError`` on any other."""
    if isinstance(obj, str):
        write(_string(obj))
    elif isinstance(obj, dict):
        inner = _indent + "  "
        lead = "{" + inner
        for key in sorted(obj) if sort_keys else obj:
            write(lead + _string(key) + ": ")
            dump(obj[key], write, sort_keys, inner)
            lead = "," + inner
        write(_indent + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple, Iterator, Records)):
        inner = _indent + "  "
        lead = "[" + inner
        texts = None
        for batch in _batches(obj):
            texts = texts or _item_texts(obj, batch[0], sort_keys, inner)
            write(lead + texts(batch))
            lead = "," + inner
        write(_indent + "]" if texts else "[]")
    else:
        write(_scalar(obj))


def _item_texts(obj, first, sort_keys: bool, indent: str):
    """The writer of the text of a batch of the items of ``obj`` at one
    indent, as a record list if ``obj`` is a ``Records`` or its first item a
    nonempty dict; ``first`` is that item."""
    separator = "," + indent
    if isinstance(obj, Records):
        keys = obj.names
    elif isinstance(first, dict) and first:
        keys = tuple(first)
    else:
        return lambda batch: separator.join(_column(batch, sort_keys, indent))
    order = sorted(range(len(keys)), key=keys.__getitem__) if sort_keys else range(len(keys))
    inner = indent + "  "
    fields = ("," + inner).join(_string(keys[i]).replace("%", "%%") + ": %s" for i in order)
    template = "{" + inner + fields + indent + "}"

    def texts(batch):
        if isinstance(obj, Records):
            columns = list(zip(*batch))
            columns = [columns[i] for i in order]
        elif _shaped_like(first, batch, sort_keys):
            columns = [list(map(itemgetter(keys[i]), batch)) for i in order]
        else:
            return separator.join(_column(batch, sort_keys, indent))
        # one % for the batch: its templates joined, its cells row by row
        cells = chain.from_iterable(zip(*[_column(c, sort_keys, inner) for c in columns]))
        return separator.join(repeat(template, len(batch))) % tuple(cells)

    return texts


def _shaped_like(first: dict, batch, sort_keys: bool) -> bool:
    """Whether every item of ``batch`` is a dict with the keys of ``first``,
    in its order unless ``sort_keys``."""
    if not all(map(isinstance, batch, repeat(dict))):
        return False
    if sort_keys:
        return all(map(first.keys().__eq__, map(dict.keys, batch)))
    return all(map(list(first).__eq__, map(list, batch)))


def _column(values, sort_keys: bool, indent: str):
    """The texts of ``values`` at one indent."""
    if all(map(isinstance, values, repeat(str))):
        return map(_string, values)
    return map(dumps, values, repeat(sort_keys), repeat(indent))


class CheckRecord:
    def __init__(self, name: str, basis_size: int, passed: bool, counterexample: str | None = None):
        self.name = name
        self.basis_size = basis_size
        self.passed = passed
        self.counterexample = counterexample

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "basis_size": self.basis_size,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out

    def to_text(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = f"[{mark}] {self.name} (basis size {self.basis_size})"
        if self.counterexample is not None:
            line += f"\n       counterexample: {self.counterexample}"
        return line


class Report:
    """The check records of one battery, added one identity at a time,
    under a header line and the JSON fields that describe the battery."""

    def __init__(self, header: str, **fields):
        self.header = header
        self.fields = fields
        self.checks: list[CheckRecord] = []

    @property
    def all_passed(self) -> bool:
        return all(rec.passed for rec in self.checks)

    def check(self, name: str, cases, size: int | None = None) -> None:
        """Record one identity from its cases: each item is None where the
        identity holds and the counterexample text where it fails.  The
        sweep stops at the first failure.  The basis size is the number of
        cases consumed, or ``size`` for a record that reports a fixed one."""
        count = 0
        failure = None
        for failure in cases:
            count += 1
            if failure is not None:
                break
        self.checks.append(
            CheckRecord(name, count if size is None else size, failure is None, failure)
        )

    def to_json_dict(self) -> dict:
        return {
            **self.fields,
            "all_passed": self.all_passed,
            "checks": [rec.to_json_dict() for rec in self.checks],
        }

    def to_text(self) -> str:
        # a report without records (verify --max-arity 1 has a shuffle
        # report with none) keeps the newline after its header
        return "\n".join([self.header, "\n".join(rec.to_text() for rec in self.checks)])
