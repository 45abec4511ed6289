"""Report containers shared by the identity-check batteries.

Every battery evaluates a named identity over a complete enumerated basis
and records pass/fail with the first counterexample through ``Report.check``;
one ``Report`` class serves every battery, which gives it a header line and
its JSON fields, and reports render to JSON (rationals as strings) and to
aligned text.  Every JSON report is written by ``dumps``, which pays per
record shape, not per record: the interval table's thousands of entries are
one record list, written column by column.
"""

from __future__ import annotations

from itertools import repeat
from json import dumps as _scalar
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter


def dumps(obj, sort_keys: bool = False, _indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)`` byte for byte.
    With an indent set, ``json.dumps`` runs its pure-Python encoder, one
    generator step per token.  This walk writes a record list (a list or
    tuple of dicts with one key set and, under ``sort_keys=False``, one
    insertion order, as each dict is written in its own) from one ``%``
    template, a ``%s`` per key and a ``%`` in a key doubled, filled column
    by column: a column of strings is one pass of the C string encoder, any
    other one ``dumps`` call per value, so the calls grow with the shapes,
    not with the rows.  A lone dict is a one-row record list; any other list
    is one column.  Dict keys must be ``str``: the C string encoder raises
    ``TypeError`` on any other."""
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, dict):
        return _records((obj,), sort_keys, _indent)[0] if obj else "{}"
    if not isinstance(obj, (list, tuple)):
        return _scalar(obj)
    if not obj:
        return "[]"
    inner = _indent + "  "
    rows = _records(obj, sort_keys, inner) or _column(obj, sort_keys, inner)
    return "[" + inner + ("," + inner).join(rows) + _indent + "]"


def _records(rows, sort_keys: bool, indent: str) -> list[str] | None:
    """The texts of ``rows`` if they are a record list of nonempty dicts."""
    first = rows[0]
    if not first or not all(map(isinstance, rows, repeat(dict))):
        return None
    keys = sorted(first) if sort_keys else list(first)
    if sort_keys:
        shared = all(map(first.keys().__eq__, map(dict.keys, rows)))
    else:
        shared = all(map(keys.__eq__, map(list, rows)))
    if not shared:
        return None
    inner = indent + "  "
    fields = ("," + inner).join(_string(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{" + inner + fields + indent + "}"
    columns = [_column(list(map(itemgetter(key), rows)), sort_keys, inner) for key in keys]
    return list(map(template.__mod__, zip(*columns)))


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
