"""Report containers shared by the identity-check batteries.

Every battery evaluates a named identity over a complete enumerated basis
and records pass/fail with the first counterexample through ``Report.check``;
one ``Report`` class serves every battery, which gives it a header line and
its JSON fields, and reports render to JSON (rationals as strings) and to
aligned text.  Every JSON report is written by ``dumps``.
"""

from __future__ import annotations

from json import dumps as _scalar
from json.encoder import encode_basestring_ascii as _string


def dumps(obj, sort_keys: bool = False, _indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=sort_keys)`` byte for byte.
    With an indent set, ``json.dumps`` runs its pure-Python encoder, one
    generator step per token; this walk encodes each string in C instead,
    a string value of a dict or list in place, with no call of its own.
    Dict keys must be ``str``: the C string encoder raises ``TypeError`` on
    any other."""
    if isinstance(obj, str):
        return _string(obj)
    inner = _indent + "  "
    if isinstance(obj, dict):
        items = sorted(obj.items()) if sort_keys else obj.items()
        parts = [
            f"{_string(key)}: "
            f"{_string(value) if isinstance(value, str) else dumps(value, sort_keys, inner)}"
            for key, value in items
        ]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        parts = [
            _string(value) if isinstance(value, str) else dumps(value, sort_keys, inner)
            for value in obj
        ]
        brackets = "[]"
    else:
        return _scalar(obj)
    if not parts:
        return brackets
    return brackets[0] + inner + ("," + inner).join(parts) + _indent + brackets[1]


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
