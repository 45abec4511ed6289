"""Report containers shared by the identity-check batteries.

Every battery evaluates a named identity over a complete enumerated basis
and records pass/fail with the first counterexample through ``Report.check``;
one ``Report`` class serves every battery, which gives it a header line and
its JSON fields, and reports render to JSON (rationals as strings) and to
aligned text.  Every JSON report is written by ``dump``, which streams a
``Records``, the interval table's thousands of entries as value tuples under
one key tuple, in batches of ``_BATCH`` rows and hands every other value to
``json.dumps``.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from json import dumps as _json_dumps
from json.encoder import encode_basestring_ascii as _string

# the rows of a Records that one write holds
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


def dump(obj, write, sort_keys: bool = False, _indent: str = "\n") -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=sort_keys)`` through
    ``write``, a ``Records`` as its list of dicts.

    A dict is written key by key, so that the walk reaches a ``Records``
    inside it; its keys must be ``str``, as the C string encoder raises
    ``TypeError`` on any other.  A ``Records`` is written ``_BATCH`` rows
    per ``write``, each batch one ``%`` on copies of a row template (a
    ``%s`` per key, a ``%`` in a key doubled) with its cells encoded column
    by column: a column of strings in one pass of the C string encoder, any
    other one ``json.dumps`` call per value.  Any other value is one
    ``json.dumps`` call, its newlines indented to the depth of the walk,
    which is exact because JSON strings never hold a raw newline."""
    if isinstance(obj, dict):
        inner = _indent + "  "
        lead = "{" + inner
        for key in sorted(obj) if sort_keys else obj:
            write(lead + _string(key) + ": ")
            dump(obj[key], write, sort_keys, inner)
            lead = "," + inner
        write(_indent + "}" if obj else "{}")
    elif isinstance(obj, Records):
        inner = _indent + "  "
        cell = inner + "  "
        names = obj.names
        order = sorted(range(len(names)), key=names.__getitem__) if sort_keys else range(len(names))
        fields = ("," + cell).join(_string(names[i]).replace("%", "%%") + ": %s" for i in order)
        template = "{" + cell + fields + inner + "}"
        separator = "," + inner
        lead = "[" + inner
        for batch in _batches(obj):
            columns = list(zip(*batch))
            texts = [_column(columns[i], sort_keys, cell) for i in order]
            # one % for the batch: its templates joined, its cells row by row
            rows = separator.join(repeat(template, len(batch)))
            write(lead + rows % tuple(chain.from_iterable(zip(*texts))))
            lead = separator
        write(_indent + "]" if lead == separator else "[]")
    else:
        write(_json_dumps(obj, indent=2, sort_keys=sort_keys).replace("\n", _indent))


def _column(values, sort_keys: bool, indent: str):
    """The texts of ``values`` at one indent."""
    if all(map(isinstance, values, repeat(str))):
        return map(_string, values)
    return (_json_dumps(v, indent=2, sort_keys=sort_keys).replace("\n", indent) for v in values)


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
